#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace apsq {
namespace {

TEST(WorkStealingPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    WorkStealingPool pool(threads);
    constexpr index_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h = 0;
    pool.parallel_for(n, [&](index_t i) { ++hits[static_cast<size_t>(i)]; });
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "i=" << i << " threads=" << threads;
  }
}

TEST(WorkStealingPool, MoreThreadsThanTasks) {
  WorkStealingPool pool(8);
  std::atomic<index_t> sum{0};
  pool.parallel_for(3, [&](index_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 3);
}

TEST(WorkStealingPool, ZeroTasksIsANoOp) {
  WorkStealingPool pool(4);
  pool.parallel_for(0, [](index_t) { FAIL() << "must not be called"; });
}

TEST(WorkStealingPool, SingleThreadRunsInline) {
  WorkStealingPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(16, [&](index_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(pool.steal_count(), 0);
}

TEST(WorkStealingPool, SkewedTasksGetStolen) {
  // The first quarter of the indices is made pathologically slow; the
  // helpers claim indices alongside the caller, so some of the run is
  // counted as stolen (run by a helper, not the caller).
  WorkStealingPool pool(4);
  constexpr index_t n = 64;
  std::atomic<int> done{0};
  pool.parallel_for(n, [&](index_t i) {
    if (i < n / 4)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ++done;
  });
  EXPECT_EQ(done.load(), n);
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GT(pool.steal_count(), 0);
  }
}

TEST(WorkStealingPool, StealCountCountsOnlyHelperIndices) {
  // steal_count() counts the indices a helper ran: the caller's own
  // indices are not steals.
  WorkStealingPool pool(2);
  constexpr index_t n = 200;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_by(n);
  const i64 before = pool.steal_count();
  pool.parallel_for(n, [&](index_t i) {
    ran_by[static_cast<size_t>(i)] = std::this_thread::get_id();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  i64 off_caller = 0;
  for (const std::thread::id id : ran_by) off_caller += id != caller;
  EXPECT_EQ(pool.steal_count() - before, off_caller);
}

TEST(WorkStealingPool, FirstExceptionPropagates) {
  WorkStealingPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](index_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(WorkStealingPool, UsableAgainAfterAnException) {
  // The persistent helpers must survive a throwing run.
  WorkStealingPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(50, [&](index_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<index_t> sum{0};
  pool.parallel_for(10, [&](index_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 45);
}

TEST(WorkStealingPool, WorkersPersistAcrossParallelForCalls) {
  // The pool-reuse contract: repeated calls are served by the same
  // long-lived helpers (run_count ticks; every call completes fully).
  WorkStealingPool pool(4);
  constexpr int kCalls = 25;
  for (int c = 0; c < kCalls; ++c) {
    std::atomic<index_t> sum{0};
    pool.parallel_for(100, [&](index_t i) { sum += i; });
    ASSERT_EQ(sum.load(), 4950) << "call " << c;
  }
  EXPECT_EQ(pool.run_count(), kCalls);
}

TEST(WorkStealingPool, NestedParallelForComposesOnSharedWorkers) {
  // A task that re-enters its own pool opens a nested run the idle
  // helpers join (it must not deadlock, and every nested index runs).
  WorkStealingPool pool(3);
  std::atomic<index_t> total{0};
  pool.parallel_for(6, [&](index_t) {
    pool.parallel_for(5, [&](index_t j) { total += j; });
  });
  EXPECT_EQ(total.load(), 6 * 10);
  // Outer run + one nested run per outer task all dispatched to the pool.
  EXPECT_EQ(pool.run_count(), 1 + 6);
}

TEST(WorkStealingPool, NestedParallelForSpreadsAcrossWorkers) {
  // With one slow outer task fanning out many inner tasks, the other
  // helpers must be able to join the nested run and execute its indices.
  WorkStealingPool pool(4);
  std::set<std::thread::id> inner_threads;
  apsq::Mutex mu;
  pool.parallel_for(1, [&](index_t) {
    pool.parallel_for(64, [&](index_t) {
      {
        apsq::MutexLock lock(mu);
        inner_threads.insert(std::this_thread::get_id());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  });
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GT(inner_threads.size(), 1u);
  }
}

TEST(WorkStealingPool, DeeplyNestedScopesComplete) {
  WorkStealingPool pool(2);
  std::atomic<index_t> total{0};
  pool.parallel_for(4, [&](index_t) {
    pool.parallel_for(3, [&](index_t) {
      pool.parallel_for(2, [&](index_t k) { total += k + 1; });
    });
  });
  EXPECT_EQ(total.load(), 4 * 3 * (1 + 2));
}

TEST(WorkStealingPool, NestedExceptionPropagatesThroughOuterRun) {
  // An inner run's exception rethrows out of the enclosing task and is
  // captured by the enclosing run; the pool stays usable afterwards.
  WorkStealingPool pool(3);
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](index_t) {
                                   pool.parallel_for(4, [&](index_t j) {
                                     if (j == 2)
                                       throw std::runtime_error("inner");
                                   });
                                 }),
               std::runtime_error);
  std::atomic<index_t> sum{0};
  pool.parallel_for(10, [&](index_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 45);
}

TEST(WorkStealingPool, SingleThreadPoolNestsInline) {
  WorkStealingPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  index_t total = 0;
  pool.parallel_for(3, [&](index_t) {
    pool.parallel_for(3, [&](index_t j) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      total += j;
    });
  });
  EXPECT_EQ(total, 9);
  EXPECT_EQ(pool.run_count(), 0);  // inline runs are not dispatched
}

TEST(WorkStealingPool, ConcurrentExternalCallersAllComplete) {
  // Distinct external threads may have runs in flight at once; each run's
  // tasks execute exactly once and each call returns when its own run
  // is done.
  WorkStealingPool pool(2);
  std::atomic<index_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c)
    callers.emplace_back([&] {
      pool.parallel_for(50, [&](index_t i) { total += i; });
    });
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 4 * (49 * 50 / 2));
}

TEST(WorkStealingPool, SharedPoolIsProcessWideAndSizedToHardware) {
  WorkStealingPool& a = WorkStealingPool::shared();
  WorkStealingPool& b = WorkStealingPool::shared();
  EXPECT_EQ(&a, &b);
  if (std::getenv("APSQ_POOL_THREADS") == nullptr)
    EXPECT_EQ(a.num_threads(), WorkStealingPool::hardware_threads());
  else
    EXPECT_GE(a.num_threads(), 1);
  std::atomic<index_t> sum{0};
  a.parallel_for(100, [&](index_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(WorkStealingPool, RejectsZeroThreads) {
  EXPECT_THROW(WorkStealingPool(0), std::logic_error);
}

TEST(WorkStealingPool, HardwareThreadsPositive) {
  EXPECT_GE(WorkStealingPool::hardware_threads(), 1);
}

TEST(WorkStealingPool, TracingWritesChromeTraceJson) {
  const std::string path = ::testing::TempDir() + "pool_trace_test.json";
  std::remove(path.c_str());
  std::atomic<int> count{0};
  {
    WorkStealingPool pool(3);
    pool.enable_tracing(path);
    pool.parallel_for(8, [&](index_t) { ++count; });
    pool.parallel_for(4, [&](index_t) { ++count; });
  }  // destructor joins the helpers, then flushes the trace
  EXPECT_EQ(count.load(), 12);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  // One complete event per executed task, tagged with its run and index.
  size_t events = 0;
  for (size_t pos = s.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = s.find("\"ph\":\"X\"", pos + 1))
    ++events;
  EXPECT_EQ(events, 12u);
  EXPECT_NE(s.find("\"args\":{\"run\":1,"), std::string::npos);
  EXPECT_NE(s.find("\"args\":{\"run\":2,"), std::string::npos);
  std::remove(path.c_str());
}

TEST(WorkStealingPool, TracingOffByDefaultWritesNothing) {
  const std::string path = ::testing::TempDir() + "pool_no_trace_test.json";
  std::remove(path.c_str());
  {
    WorkStealingPool pool(2);
    pool.parallel_for(4, [](index_t) {});
  }
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

}  // namespace
}  // namespace apsq
