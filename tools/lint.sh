#!/usr/bin/env bash
# Static analysis: a sleep gate over src/, clang-tidy over src/
# with the curated check set in .clang-tidy (warnings-as-errors), plus a
# clang-format dry run.
#
# Usage:
#   cmake -S . -B build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
#   cmake --build build -j          # generated headers must exist
#   tools/lint.sh [build-dir]
#
# The sleep gate is a grep and always runs. The clang passes are
# skipped with a notice when their tool is not installed, so the script
# is safe to call from environments that only carry gcc; CI installs
# clang-tidy and gets the full run.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${ROOT}/build}"

status=0

# Sleep gate: waits in src/ block on a real wakeup (pidfd, inotify,
# poll, a condition variable), not on a sleep cadence. Every sleep call
# left carries an inline `// sleep-ok: <reason>` marker on the line
# that names it, and the marked list may only shrink: lower
# max_marked when a marked site goes away. The declaration and
# definition of sleep_for_millis itself are not calls.
max_marked=18
unmarked="$(grep -rnE \
    '\b(sleep_for_millis|std::this_thread::sleep_for|usleep|nanosleep)[[:space:]]*\(' \
    "${ROOT}/src" --include='*.cpp' --include='*.hpp' --include='*.inc' \
  | grep -vE '// sleep-ok: [^ ]' \
  | grep -vE ':[[:space:]]*void sleep_for_millis\(' || true)"
if [[ -n "${unmarked}" ]]; then
  echo "lint.sh: sleep without a \`// sleep-ok: <reason>\` marker:" >&2
  echo "${unmarked}" >&2
  status=1
fi
marked="$(grep -rn '// sleep-ok: ' "${ROOT}/src" | wc -l || true)"
if ((marked > max_marked)); then
  echo "lint.sh: ${marked} marked sleep sites in src/, more than" \
       "${max_marked}: wait on a wakeup instead" >&2
  status=1
elif [[ -z "${unmarked}" ]]; then
  echo "lint.sh: sleep gate ok (${marked} marked sleep sites in src/)"
fi

if ! command -v clang-tidy > /dev/null; then
  echo "lint.sh: clang-tidy not found on PATH; skipping tidy pass"
else
  if [[ ! -f "${BUILD_DIR}/compile_commands.json" ]]; then
    echo "lint.sh: ${BUILD_DIR}/compile_commands.json missing;" \
         "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
    exit 1
  fi
  # One invocation per TU keeps output attributable; the curated check
  # list is small enough that this stays fast.
  mapfile -t sources < <(find "${ROOT}/src" -name '*.cpp' | sort)
  echo "lint.sh: clang-tidy over ${#sources[@]} files"
  if ! clang-tidy -p "${BUILD_DIR}" --quiet "${sources[@]}"; then
    status=1
  fi
fi

if ! command -v clang-format > /dev/null; then
  echo "lint.sh: clang-format not found on PATH; skipping format check"
else
  mapfile -t all < <(find "${ROOT}/src" "${ROOT}/tests" "${ROOT}/bench" \
    "${ROOT}/examples" \( -name '*.cpp' -o -name '*.hpp' \) 2>/dev/null \
    | sort)
  echo "lint.sh: clang-format check over ${#all[@]} files"
  if ! clang-format --dry-run --Werror "${all[@]}"; then
    status=1
  fi
fi

exit "${status}"
