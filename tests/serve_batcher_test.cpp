/// Unit tests for the work-conserving departure rule of serve::Batcher:
/// a batch departs at once when nothing is in flight, coalesces behind an
/// in-flight batch until it finishes, fills, or hits the deadline cap,
/// and drains on shutdown.  Every case checks the Departure reason that
/// the server exports as batches_departed_{idle,full,deadline,drain}.

#include "pnm/serve/batcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pnm::serve {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ms_since(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t).count();
}

std::vector<std::uint32_t> ids(const std::vector<ServeRequest*>& batch) {
  std::vector<std::uint32_t> out;
  for (const ServeRequest* r : batch) out.push_back(r->id);
  return out;
}

/// A fixed set of requests with ids 0..n-1 (the batcher never owns them).
struct Requests {
  explicit Requests(std::size_t n) : all(n) {
    for (std::size_t i = 0; i < n; ++i) all[i].id = static_cast<std::uint32_t>(i);
  }
  ServeRequest* operator[](std::size_t i) { return &all[i]; }
  std::vector<ServeRequest> all;
};

constexpr std::int64_t kOneSecondUs = 1'000'000;

TEST(ServeBatcher, RejectsBadBounds) {
  EXPECT_THROW(Batcher(0, 100), std::invalid_argument);
  EXPECT_THROW(Batcher(8, -1), std::invalid_argument);
}

TEST(ServeBatcher, LoneRequestDepartsAtOnceDespiteLongDeadline) {
  Batcher batcher(8, kOneSecondUs);
  Requests reqs(1);
  const Clock::time_point start = Clock::now();
  batcher.push(reqs[0]);
  std::vector<ServeRequest*> batch;
  Departure why = Departure::kDrain;
  ASSERT_TRUE(batcher.pop_batch(batch, &why));
  EXPECT_LT(ms_since(start), 200);  // the 1 s deadline is a cap, not a wait
  EXPECT_EQ(ids(batch), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(why, Departure::kIdle);
  batcher.finish_batch();
  EXPECT_EQ(batcher.depth(), 0U);
}

TEST(ServeBatcher, CoalescesBehindInFlightBatchUntilItFinishes) {
  Batcher batcher(8, kOneSecondUs);
  Requests reqs(4);
  std::vector<ServeRequest*> first;
  batcher.push(reqs[0]);
  ASSERT_TRUE(batcher.pop_batch(first));  // in flight until finish_batch

  std::atomic<bool> departed{false};
  std::vector<ServeRequest*> second;
  Departure why = Departure::kDrain;
  std::thread consumer([&] {
    ASSERT_TRUE(batcher.pop_batch(second, &why));
    departed.store(true);
  });
  for (std::size_t i = 1; i < 4; ++i) batcher.push(reqs[i]);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(departed.load());  // coalescing behind the in-flight batch

  const Clock::time_point finish = Clock::now();
  batcher.finish_batch();
  consumer.join();
  EXPECT_LT(ms_since(finish), 500);  // released by the finish, not the 1 s cap
  EXPECT_EQ(ids(second), (std::vector<std::uint32_t>{1, 2, 3}));  // admission order
  EXPECT_EQ(why, Departure::kIdle);
  batcher.finish_batch();
}

TEST(ServeBatcher, DeadlineCapsCoalescingBehindAStuckBatch) {
  constexpr std::int64_t kCapUs = 20'000;
  Batcher batcher(8, kCapUs);
  Requests reqs(3);
  std::vector<ServeRequest*> held;
  batcher.push(reqs[0]);
  ASSERT_TRUE(batcher.pop_batch(held));  // never finished in this test

  batcher.push(reqs[1]);
  batcher.push(reqs[2]);
  std::vector<ServeRequest*> batch;
  Departure why = Departure::kIdle;
  ASSERT_TRUE(batcher.pop_batch(batch, &why));
  EXPECT_EQ(why, Departure::kDeadline);
  EXPECT_EQ(ids(batch), (std::vector<std::uint32_t>{1, 2}));
  // The cap counts from the oldest member's admission and is honoured.
  EXPECT_GE(Clock::now() - reqs[1]->admitted, std::chrono::microseconds(kCapUs));
  EXPECT_LT(ms_since(reqs[1]->admitted), 1000);
}

TEST(ServeBatcher, BatchMaxCapsEveryDeparture) {
  Batcher batcher(3, kOneSecondUs);
  Requests reqs(8);
  for (std::size_t i = 0; i < 8; ++i) batcher.push(reqs[i]);

  std::vector<ServeRequest*> batch;
  Departure why = Departure::kIdle;
  ASSERT_TRUE(batcher.pop_batch(batch, &why));  // nothing in flight, but full
  EXPECT_EQ(ids(batch), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(why, Departure::kFull);
  // One batch in flight: a full queue departs without waiting for it.
  ASSERT_TRUE(batcher.pop_batch(batch, &why));
  EXPECT_EQ(ids(batch), (std::vector<std::uint32_t>{3, 4, 5}));
  EXPECT_EQ(why, Departure::kFull);
  batcher.finish_batch();
  batcher.finish_batch();
  // The remainder departs at once once the pipeline is idle.
  ASSERT_TRUE(batcher.pop_batch(batch, &why));
  EXPECT_EQ(ids(batch), (std::vector<std::uint32_t>{6, 7}));
  EXPECT_EQ(why, Departure::kIdle);
  batcher.finish_batch();
  EXPECT_EQ(batcher.depth(), 0U);
}

TEST(ServeBatcher, FillingTheBatchEndsCoalescing) {
  Batcher batcher(3, kOneSecondUs);
  Requests reqs(4);
  std::vector<ServeRequest*> held;
  batcher.push(reqs[0]);
  ASSERT_TRUE(batcher.pop_batch(held));

  std::vector<ServeRequest*> batch;
  Departure why = Departure::kIdle;
  std::thread consumer([&] { ASSERT_TRUE(batcher.pop_batch(batch, &why)); });
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 1; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    batcher.push(reqs[i]);
  }
  consumer.join();
  EXPECT_LT(ms_since(start), 500);
  EXPECT_EQ(ids(batch), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(why, Departure::kFull);
}

TEST(ServeBatcher, ShutdownWhileCoalescingDrainsThenReturnsFalse) {
  Batcher batcher(8, 10 * kOneSecondUs);
  Requests reqs(3);
  std::vector<ServeRequest*> held;
  batcher.push(reqs[0]);
  ASSERT_TRUE(batcher.pop_batch(held));  // keeps the next batch coalescing

  std::vector<ServeRequest*> batch;
  Departure why = Departure::kIdle;
  bool got = false;
  bool after = true;
  std::thread consumer([&] {
    got = batcher.pop_batch(batch, &why);
    std::vector<ServeRequest*> empty;
    after = batcher.pop_batch(empty);  // queue drained: the worker exits
  });
  batcher.push(reqs[1]);
  batcher.push(reqs[2]);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const Clock::time_point stop = Clock::now();
  batcher.shutdown();
  consumer.join();
  EXPECT_LT(ms_since(stop), 1000);
  EXPECT_TRUE(got);
  EXPECT_EQ(ids(batch), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(why, Departure::kDrain);
  EXPECT_FALSE(after);
  EXPECT_EQ(batcher.depth(), 0U);
}

}  // namespace
}  // namespace pnm::serve
