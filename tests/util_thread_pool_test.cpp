/// Unit tests for the evaluation fan-out thread pool.

#include "pnm/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pnm {
namespace {

TEST(ThreadPool, SpawnsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3U);
  ThreadPool defaulted(0);
  EXPECT_GE(defaulted.size(), 1U);
  EXPECT_EQ(defaulted.size(), ThreadPool::default_thread_count());
}

TEST(ThreadPool, SubmitRunsTaskAndSignalsFuture) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto f1 = pool.submit([&ran] { ran.fetch_add(1); });
  auto f2 = pool.submit([&ran] { ran.fetch_add(10); });
  f1.get();
  f2.get();
  EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives an exceptional task.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 257;
  std::vector<std::atomic<int>> counts(n);
  pool.parallel_for(n, [&counts](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForHandlesDegenerateSizes) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&calls](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&calls](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelForWorksWithMoreItemsThanWorkers) {
  ThreadPool pool(1);
  std::atomic<long> sum{0};
  pool.parallel_for(100, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 99L * 100L / 2L);
}

TEST(ThreadPool, ParallelForRethrowsBodyException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(16,
                        [&completed](std::size_t i) {
                          if (i == 7) throw std::logic_error("bad item");
                          completed.fetch_add(1);
                        }),
      std::logic_error);
  // Iterations claimed after the failure are skipped; the thrower never
  // counts, so at most 15 bodies completed.
  EXPECT_LE(completed.load(), 15);
  // The pool remains usable afterwards.
  std::atomic<int> again{0};
  pool.parallel_for(4, [&again](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 4);
}

TEST(ThreadPool, ParallelForSkipsTailAfterEarlyFailure) {
  // With one worker plus the caller and an immediate failure at i == 0,
  // the remaining iterations must be resolved without running.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(1000,
                                 [&ran](std::size_t i) {
                                   if (i == 0) throw std::runtime_error("first");
                                   ran.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_LT(ran.load(), 1000);
}

TEST(ThreadPool, ParallelForBalancesUnevenWork) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.parallel_for(8, [&done](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 8);
}

/// Outer parallel_for over more items than workers, each item running an
/// inner parallel_for on the same pool: every (outer, inner) pair must run
/// exactly once.
void expect_nested_runs_each_once(std::size_t workers) {
  ThreadPool pool(workers);
  constexpr std::size_t kOuter = 7;
  constexpr std::size_t kInner = 23;
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    pool.parallel_for(kInner, [&, o](std::size_t i) { counts[o * kInner + i].fetch_add(1); });
  });
  for (std::size_t k = 0; k < counts.size(); ++k) EXPECT_EQ(counts[k].load(), 1) << k;
}

TEST(ThreadPool, NestedParallelForOnOneWorker) { expect_nested_runs_each_once(1); }

TEST(ThreadPool, NestedParallelForOnThreeWorkers) { expect_nested_runs_each_once(3); }

TEST(ThreadPool, InnerExceptionReachesItsOwnCaller) {
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 6;
  std::vector<std::string> caught(kOuter);
  std::atomic<int> inner_ran{0};
  pool.parallel_for(kOuter, [&](std::size_t o) {
    try {
      pool.parallel_for(16, [&, o](std::size_t i) {
        if (o == 2 && i == 5) throw std::runtime_error("inner of 2");
        inner_ran.fetch_add(1);
      });
    } catch (const std::runtime_error& e) {
      caught[o] = e.what();
    }
  });
  // Only outer item 2's inner batch failed, and only its caller saw it,
  // even though other threads may have run that batch's iterations.
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(caught[o], o == 2 ? "inner of 2" : "") << o;
  }
  EXPECT_GE(inner_ran.load(), static_cast<int>((kOuter - 1) * 16));

  // An uncaught inner exception propagates through the outer batch too.
  EXPECT_THROW(pool.parallel_for(kOuter,
                                 [&](std::size_t o) {
                                   pool.parallel_for(4, [o](std::size_t i) {
                                     if (o == 3 && i == 1) throw std::logic_error("deep");
                                   });
                                 }),
               std::logic_error);
}

TEST(ThreadPool, NoThreadEntersASecondOuterBodyWhileInsideOne) {
  // Two outer batches share one pool.  The first is opened from another
  // thread; the second opens once the first's bodies are inside their
  // inner batches, whose iterations the spare worker also takes.  The
  // first's bodies then wait on those iterations while the second still
  // has unclaimed outer items: they may help with inner work only.
  ThreadPool pool(2);
  thread_local int in_outer = 0;
  std::atomic<int> violations{0};
  std::atomic<int> inner_started{0};
  std::atomic<int> inner_done{0};
  constexpr std::size_t kInner = 8;
  const auto outer_body = [&](std::size_t) {
    if (in_outer != 0) violations.fetch_add(1);
    ++in_outer;
    pool.parallel_for(kInner, [&](std::size_t) {
      inner_started.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      inner_done.fetch_add(1);
    });
    --in_outer;
  };
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    inner_started = 0;
    std::thread first([&] { pool.parallel_for(2, outer_body); });
    while (inner_started.load() < 2) std::this_thread::yield();
    pool.parallel_for(6, outer_body);
    first.join();
  }
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(inner_done.load(), static_cast<int>(kRounds * 8 * kInner));
}

TEST(ThreadPool, WaitingCallerRunsAnotherBatchInsteadOfParking) {
  // The only worker is held inside an iteration of the main thread's
  // batch until a second batch, opened by another thread, completes.  That
  // opener holds its own first iteration until some other thread runs one
  // of its iterations, which only the waiting main thread is free to do.
  ThreadPool pool(1);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto wait_for = [&](const std::atomic<bool>& flag) {
    while (!flag && std::chrono::steady_clock::now() < deadline) std::this_thread::yield();
  };
  const std::thread::id main_id = std::this_thread::get_id();
  std::atomic<bool> worker_held{false};
  std::atomic<bool> helped{false};
  std::atomic<bool> second_done{false};
  std::atomic<bool> helper_was_main{false};

  std::thread opener([&] {
    wait_for(worker_held);
    const std::thread::id opener_id = std::this_thread::get_id();
    pool.parallel_for(2, [&](std::size_t) {
      if (std::this_thread::get_id() == opener_id) {
        wait_for(helped);
      } else {
        helper_was_main = std::this_thread::get_id() == main_id;
        helped = true;
      }
    });
    second_done = true;
  });
  pool.parallel_for(2, [&](std::size_t) {
    if (std::this_thread::get_id() == main_id) {
      wait_for(worker_held);  // so the worker claims the other iteration
    } else {
      worker_held = true;
      wait_for(second_done);
    }
  });
  opener.join();
  EXPECT_TRUE(second_done.load());
  EXPECT_TRUE(helped.load());
  EXPECT_TRUE(helper_was_main.load());
  EXPECT_LT(std::chrono::steady_clock::now(), deadline);
}

}  // namespace
}  // namespace pnm
