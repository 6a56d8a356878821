#include "ipc/port_file.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/fault.hpp"
#include "support/rng.hpp"
#include "support/temp_file.hpp"
#include "support/timing.hpp"

namespace dionea::ipc {
namespace {

class PortFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto created = TempDir::create("portfile-test");
    ASSERT_TRUE(created.is_ok());
    tmp_ = std::make_unique<TempDir>(std::move(created).value());
  }
  std::string path() const { return tmp_->file("ports"); }
  std::unique_ptr<TempDir> tmp_;
};

TEST_F(PortFileTest, EmptyOrMissingFileReadsEmpty) {
  PortFile file(path());
  auto records = file.read_all();
  ASSERT_TRUE(records.is_ok());
  EXPECT_TRUE(records.value().empty());
}

TEST_F(PortFileTest, PublishReadRoundTrip) {
  PortFile file(path());
  PortRecord record{1234, 1000, 45678, 0};
  ASSERT_TRUE(file.publish(record).is_ok());
  auto records = file.read_all();
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0], record);
}

TEST_F(PortFileTest, AppendsPreserveOrder) {
  PortFile file(path());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(file.publish(PortRecord{100 + i, 1,
        static_cast<std::uint16_t>(2000 + i), i}).is_ok());
  }
  auto records = file.read_all();
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records.value()[static_cast<size_t>(i)].pid, 100 + i);
  }
}

TEST_F(PortFileTest, ReadNewSkipsSeen) {
  PortFile file(path());
  ASSERT_TRUE(file.publish(PortRecord{1, 0, 1000, 0}).is_ok());
  ASSERT_TRUE(file.publish(PortRecord{2, 0, 1001, 0}).is_ok());
  auto fresh = file.read_new(1);
  ASSERT_TRUE(fresh.is_ok());
  ASSERT_EQ(fresh.value().size(), 1u);
  EXPECT_EQ(fresh.value()[0].pid, 2);
  EXPECT_TRUE(file.read_new(2).value().empty());
  EXPECT_TRUE(file.read_new(99).value().empty());
}

TEST_F(PortFileTest, TornAndGarbageLinesSkipped) {
  PortFile file(path());
  ASSERT_TRUE(file.publish(PortRecord{1, 0, 1000, 0}).is_ok());
  // Simulate garbage and a torn write.
  ASSERT_TRUE(write_file_atomic(
      path(), read_file(path()).value() + "garbage line\n77 88\n-1 0 99999 0\n" +
                  "2 0 1001 0\n").is_ok());
  auto records = file.read_all();
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 2u);  // the two valid records
  EXPECT_EQ(records.value()[1].pid, 2);
}

TEST_F(PortFileTest, AwaitPidReturnsLatestRecord) {
  PortFile file(path());
  ASSERT_TRUE(file.publish(PortRecord{5, 0, 1000, 0}).is_ok());
  ASSERT_TRUE(file.publish(PortRecord{5, 0, 2000, 1}).is_ok());  // re-publish
  auto record = file.await_pid(5, 500);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record.value().port, 2000);  // latest wins
}

TEST_F(PortFileTest, AwaitPidTimesOut) {
  PortFile file(path());
  Stopwatch watch;
  auto record = file.await_pid(404, 100);
  ASSERT_FALSE(record.is_ok());
  EXPECT_EQ(record.error().code(), ErrorCode::kTimeout);
  EXPECT_GE(watch.elapsed_seconds(), 0.09);
}

TEST_F(PortFileTest, AwaitPidSeesLatePublisher) {
  PortFile file(path());
  std::thread publisher([this] {
    sleep_for_millis(50);
    PortFile late(path());
    EXPECT_TRUE(late.publish(PortRecord{777, 1, 3333, 0}).is_ok());
  });
  auto record = file.await_pid(777, 3000);
  publisher.join();
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record.value().port, 3333);
}

// Lost-wakeup race on the watch: the awaited record lands before the
// watch is armed, between arming and the re-read, or after the re-read
// (the waiter is blocked). Injected delays at the two watch sites hold
// the waiter in each window, and the fault probe counter tells the
// publisher which window the waiter is in.
TEST_F(PortFileTest, AwaitPidNeverLosesARacingAppend) {
  fault::Scope scope(fault::Config{.seed = 14,
                                   .probability = 1.0,
                                   .kinds = fault::kBitDelay,
                                   .site_filter = "port_file.watch"});
  fault::Injector& injector = fault::Injector::instance();
  // Closing a watched inotify fd waits out a kernel grace period
  // (~16 ms each); close the spent waiters concurrently, in batches.
  std::vector<std::unique_ptr<PortFile>> spent;
  auto close_spent = [&spent] {
    std::vector<std::thread> closers;
    for (auto& waiter : spent) {
      closers.emplace_back([w = std::move(waiter)]() mutable { w.reset(); });
    }
    for (std::thread& closer : closers) closer.join();
    spent.clear();
  };
  Rng rng(20'151);
  int landed[3] = {0, 0, 0};
  for (int i = 0; i < 200; ++i) {
    const int point = static_cast<int>(rng.next_u64() % 3);
    const std::string ports = tmp_->file("race" + std::to_string(i));
    const std::uint64_t base = injector.probes();
    std::thread publisher([&] {
      // Probe 1 is the waiter sleeping before it arms, probe 2 the
      // waiter sleeping between arming and its re-read.
      const std::uint64_t target = base + (point == 0 ? 1 : 2);
      Stopwatch watch;
      while (injector.probes() < target && watch.elapsed_seconds() < 5) {
        std::this_thread::yield();
      }
      // Past the longest injected delay: the re-read is done.
      if (point == 2) sleep_for_millis(12);
      PortRecord record{4242, 1, 4321, i};
      EXPECT_TRUE(PortFile(ports).publish(record).is_ok());
    });
    Stopwatch watch;
    spent.push_back(std::make_unique<PortFile>(ports));
    auto record = spent.back()->await_pid(4242, 5000);
    publisher.join();
    if (spent.size() == 20) close_spent();
    ASSERT_TRUE(record.is_ok())
        << "iteration " << i << " point " << point << ": "
        << record.error().to_string();
    EXPECT_EQ(record.value().seq, i);
    EXPECT_LT(watch.elapsed_seconds(), 1.0) << "iteration " << i;
    ++landed[point];
  }
  for (int count : landed) EXPECT_GT(count, 0);
}

// A torn append wakes the waiter, which skips the fragment and keeps
// waiting; the whole record that follows wakes it again.
TEST_F(PortFileTest, AwaitPidWakesPastTornAppend) {
  PortFile file(path());
  std::thread publisher([this] {
    sleep_for_millis(20);  // the waiter has missed and is blocked
    fault::Scope scope(fault::Config{.seed = 7,
                                     .probability = 1.0,
                                     .kinds = fault::kBitTorn,
                                     .site_filter = "port_file.append"});
    EXPECT_TRUE(PortFile(path()).publish(PortRecord{31, 1, 3100, 0}).is_ok());
  });
  Stopwatch watch;
  auto record = file.await_pid(31, 5000);
  publisher.join();
  ASSERT_TRUE(record.is_ok()) << record.error().to_string();
  EXPECT_EQ(record.value(), (PortRecord{31, 1, 3100, 0}));
  EXPECT_LT(watch.elapsed_seconds(), 1.0);
  auto contents = read_file(path());
  ASSERT_TRUE(contents.is_ok());
  EXPECT_NE(contents.value().find("\n31 1 3100 0\n"), std::string::npos)
      << "the torn fragment was not there to skip";
}

// The actual fork-handler usage: parent and child publish concurrently
// through O_APPEND; no record may be lost or torn.
TEST_F(PortFileTest, ConcurrentPublishersAcrossFork) {
  PortFile file(path());
  constexpr int kPerSide = 50;
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    PortFile child(path());
    for (int i = 0; i < kPerSide; ++i) {
      if (!child.publish(PortRecord{20'000 + i, 1, 1500, i}).is_ok()) {
        ::_exit(1);
      }
    }
    ::_exit(0);
  }
  for (int i = 0; i < kPerSide; ++i) {
    ASSERT_TRUE(file.publish(PortRecord{10'000 + i, 1, 1400, i}).is_ok());
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_EQ(WEXITSTATUS(status), 0);
  auto records = file.read_all();
  ASSERT_TRUE(records.is_ok());
  EXPECT_EQ(records.value().size(), 2u * kPerSide);
}

}  // namespace
}  // namespace dionea::ipc
