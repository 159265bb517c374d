#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"

namespace bohr {
namespace {

class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_thread_count(1); }
};

TEST_F(ParallelTest, ChunkingIsPureFunctionOfInput) {
  // Determinism rule 1: chunk boundaries never depend on the thread
  // count. Compute them at 1 thread and at 8 and compare.
  const std::size_t n = 1237;
  set_thread_count(1);
  const std::size_t chunks_serial = chunk_count(n);
  std::vector<ChunkRange> serial;
  for (std::size_t c = 0; c < chunks_serial; ++c) {
    serial.push_back(chunk_range(n, 1, c));
  }
  set_thread_count(8);
  ASSERT_EQ(chunk_count(n), chunks_serial);
  for (std::size_t c = 0; c < chunks_serial; ++c) {
    const ChunkRange range = chunk_range(n, 1, c);
    EXPECT_EQ(range.begin, serial[c].begin);
    EXPECT_EQ(range.end, serial[c].end);
  }
}

TEST_F(ParallelTest, ChunksPartitionTheRange) {
  for (const std::size_t n : {0UL, 1UL, 7UL, 64UL, 65UL, 1000UL}) {
    for (const std::size_t grain : {1UL, 4UL, 100UL}) {
      std::size_t covered = 0;
      std::size_t expected_begin = 0;
      for (std::size_t c = 0; c < chunk_count(n, grain); ++c) {
        const ChunkRange range = chunk_range(n, grain, c);
        EXPECT_EQ(range.begin, expected_begin);
        EXPECT_LT(range.begin, range.end);
        covered += range.end - range.begin;
        expected_begin = range.end;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " grain=" << grain;
    }
  }
}

TEST_F(ParallelTest, ParallelForVisitsEveryIndexOnce) {
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    set_thread_count(threads);
    const std::size_t n = 500;
    std::vector<std::atomic<int>> visits(n);
    parallel_for(n, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST_F(ParallelTest, NestedCallsRunInline) {
  set_thread_count(4);
  std::vector<std::atomic<int>> visits(64);
  parallel_for(8, [&](std::size_t i) {
    EXPECT_TRUE(in_parallel_region());
    parallel_for(8, [&](std::size_t j) { ++visits[i * 8 + j]; });
  });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST_F(ParallelTest, BodyExceptionPropagates) {
  for (const std::size_t threads : {1UL, 4UL, 8UL}) {
    set_thread_count(threads);
    // Two indices throw and the lower one throws last in time: the caller
    // still gets the lower index's error, the one the serial loop throws.
    try {
      parallel_for(100, [&](std::size_t i) {
        if (i == 37) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("index 37");
        }
        if (i == 80) throw std::runtime_error("index 80");
      });
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 37") << threads << " threads";
    }
    // The pool must stay usable after a failed loop.
    std::atomic<int> count{0};
    parallel_for(10, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 10);
  }
}

TEST_F(ParallelTest, BackToBackSmallLoopsNeverDropOrRepeatWork) {
  // Regression for a stale-generation race: a notified worker that wakes
  // after run() already returned must not invoke the previous (destroyed)
  // job body or steal chunks from the next job. Many tiny consecutive
  // loops maximize the window where workers lag a generation behind.
  set_thread_count(4);
  constexpr std::size_t kLoops = 2000;
  constexpr std::size_t kItems = 3;  // fewer chunks than workers
  for (std::size_t loop = 0; loop < kLoops; ++loop) {
    std::vector<std::atomic<int>> visits(kItems);
    parallel_for(kItems, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "loop=" << loop << " i=" << i;
    }
  }
}

TEST_F(ParallelTest, SetThreadCountResizes) {
  set_thread_count(2);
  EXPECT_EQ(thread_count(), 2u);
  set_thread_count(8);
  EXPECT_EQ(thread_count(), 8u);
  std::atomic<int> count{0};
  parallel_for(256, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 256);
  set_thread_count(0);  // auto
  EXPECT_EQ(thread_count(), default_thread_count());
}

// Out-of-range counts are tried only as kMaxThreads + 1 = 65, which
// would start at most 64 workers if accepted by mistake, and no parallel
// loop runs after a rejected count.
TEST_F(ParallelTest, ThreadCountAboveTheCapIsRejectedBeforeThePool) {
  set_thread_count(2);
  EXPECT_THROW(set_thread_count(kMaxThreads + 1), ContractViolation);
  EXPECT_EQ(thread_count(), 2u);
  set_thread_count(kMaxThreads);
  EXPECT_EQ(thread_count(), kMaxThreads);
  EXPECT_LE(default_thread_count(), kMaxThreads);
}

TEST_F(ParallelTest, ParseThreadCountTakesOnlyWholeNumbersInRange) {
  for (const char* bad :
       {"0", "-1", "4abc", "1e3", "65", "", " 4", "+4", "4 ", "0x4"}) {
    EXPECT_EQ(parse_thread_count(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_thread_count("1"), std::optional<std::size_t>(1));
  EXPECT_EQ(parse_thread_count("8"), std::optional<std::size_t>(8));
  EXPECT_EQ(parse_thread_count("64"), std::optional<std::size_t>(64));
}

TEST_F(ParallelTest, InvalidBohrThreadsFallsBackToTheDefault) {
  const char* saved = std::getenv("BOHR_THREADS");
  const std::optional<std::string> original =
      saved != nullptr ? std::optional<std::string>(saved) : std::nullopt;
  unsetenv("BOHR_THREADS");
  const std::size_t fallback = default_thread_count();
  EXPECT_GE(fallback, 1u);
  EXPECT_LE(fallback, kMaxThreads);
  for (const char* bad : {"0", "-1", "4abc", "1e3", "65", "", "four"}) {
    setenv("BOHR_THREADS", bad, 1);
    EXPECT_EQ(default_thread_count(), fallback) << "'" << bad << "'";
  }
  setenv("BOHR_THREADS", "64", 1);
  EXPECT_EQ(default_thread_count(), 64u);
  setenv("BOHR_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  if (original) {
    setenv("BOHR_THREADS", original->c_str(), 1);
  } else {
    unsetenv("BOHR_THREADS");
  }
}

}  // namespace
}  // namespace bohr
