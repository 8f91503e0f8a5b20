#ifndef PNM_SERVE_BATCHER_HPP
#define PNM_SERVE_BATCHER_HPP

/// \file batcher.hpp
/// \brief Admission queue with work-conserving micro-batching + the
///        request pool.
///
/// The IO threads admit decoded requests into one queue; worker threads
/// drain it in batches.  The departure rule is work-conserving: batching
/// exists to amortize the pipeline while it is busy, never to make an
/// idle pipeline wait.
///
///   * idle: when no other batch is in flight (popped but not yet
///     finished, see finish_batch), a popped batch departs at once with
///     whatever is queued;
///   * coalescing: while a batch is in flight, the next one gathers
///     behind it and departs when the in-flight batch finishes (counted
///     as idle), when it holds `batch_max` requests (full), or when its
///     oldest member was admitted `deadline_us` ago (deadline) — the
///     deadline caps coalescing under load, it is never a wait a lone
///     request has to sit out;
///   * drain: after shutdown() a coalescing batch departs at once.
///
/// A batch never exceeds `batch_max` requests.  Under light load a lone
/// request therefore departs as soon as a worker picks it up; under load,
/// requests gather while the previous batch computes and is written.  The
/// queue is a growable ring buffer of request pointers and the requests
/// themselves are pooled and recycled, so steady-state admission performs
/// zero allocations — the only allocations happen while the pool or ring
/// is still growing toward the peak in-flight count.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pnm/serve/metrics.hpp"

namespace pnm::serve {

class Connection;  // serve/server.cpp's per-socket state

/// One admitted classification request (pooled; see RequestPool).
struct ServeRequest {
  std::shared_ptr<Connection> conn;  ///< response route; null in unit tests
  std::uint32_t id = 0;              ///< client-chosen echo tag
  std::string model_name;            ///< registry route; "" = default model
  std::vector<double> features;      ///< [0,1]-scaled inputs (capacity reused)
  // Pipelined handoff: the admitting reactor quantizes the features while
  // the predict pass of the previous batch is still running, so the worker
  // normally just gathers `xq` into its block buffer.  `staged_bits`
  // records the input_bits the staging used; a worker whose pinned model
  // disagrees (a swap landed in between) re-quantizes from `features` —
  // quantization depends only on input_bits, so the result is bit-exact
  // either way.  -1 = not staged.
  std::vector<std::int64_t> xq;      ///< pre-quantized features (capacity reused)
  int staged_bits = -1;
  bool v2 = false;  ///< arrived as kPredictV2 (selects the error framing)
  std::chrono::steady_clock::time_point admitted{};
};

/// Free-list recycler for ServeRequest objects.  Thread-safe.
class RequestPool {
 public:
  /// Takes a recycled request (or allocates while the pool grows).  The
  /// returned object's `features` keeps its previous capacity.
  ServeRequest* acquire();

  /// Returns a request to the pool (clears the connection reference so
  /// pooled requests never pin a closed socket).
  void release(ServeRequest* r);

  /// Total requests ever created (== peak concurrent demand; stable once
  /// the pool has warmed up — asserted by tests as the zero-steady-state-
  /// allocation property).
  [[nodiscard]] std::size_t created() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ServeRequest>> all_;
  std::vector<ServeRequest*> free_;
};

/// The admission queue.  push() never blocks (the ring grows); pop_batch()
/// blocks until it can hand out a batch or the batcher is shut down; every
/// batch pop_batch hands out is in flight until its consumer calls
/// finish_batch().
class Batcher {
 public:
  /// \param batch_max    hard cap on one batch's request count (>= 1).
  /// \param deadline_us  cap on how long a batch may coalesce behind an
  ///                     in-flight batch, counted from its oldest member's
  ///                     admission (0 = never coalesce).
  Batcher(std::size_t batch_max, std::int64_t deadline_us);

  /// Admits one request (stamps `r->admitted`).
  void push(ServeRequest* r);

  /// Blocks for the next micro-batch: waits for a first request, then
  /// departs at once if no batch is in flight, else coalesces until the
  /// in-flight batches finish, the batch is full, the oldest member's
  /// deadline passes, or shutdown.  `out` is cleared and filled (capacity
  /// reused).  On success the batch counts as in flight until the caller
  /// calls finish_batch().
  ///
  /// \param out  receives up to batch_max requests, admission order.
  /// \param why  when non-null, receives the rule that let the batch go.
  /// \return false when the batcher was shut down and the queue is empty
  ///         (workers exit); true otherwise (out is nonempty).
  bool pop_batch(std::vector<ServeRequest*>& out, Departure* why = nullptr);

  /// Marks one batch handed out by pop_batch as done; a batch coalescing
  /// behind it departs when no other batch is left in flight.
  void finish_batch();

  /// Wakes every waiting worker; subsequent pop_batch calls drain the
  /// remaining queue and then return false.
  void shutdown();

  /// Current queued (not yet popped) request count.
  [[nodiscard]] std::size_t depth() const;

 private:
  [[nodiscard]] std::size_t size_locked() const { return tail_ - head_; }
  ServeRequest* pop_front_locked();

  const std::size_t batch_max_;
  const std::chrono::microseconds deadline_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Growable power-of-two ring: index i lives at ring_[i & (cap-1)].
  std::vector<ServeRequest*> ring_;
  std::size_t head_ = 0;  ///< absolute index of the oldest element
  std::size_t tail_ = 0;  ///< absolute index one past the newest
  std::size_t in_flight_ = 0;  ///< popped batches not yet finished
  bool shutdown_ = false;
};

}  // namespace pnm::serve

#endif  // PNM_SERVE_BATCHER_HPP
