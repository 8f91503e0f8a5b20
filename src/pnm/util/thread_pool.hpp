#ifndef PNM_UTIL_THREAD_POOL_HPP
#define PNM_UTIL_THREAD_POOL_HPP

/// \file thread_pool.hpp
/// \brief A small fixed-size worker pool for embarrassingly parallel
///        evaluation fan-out.
///
/// Design-point evaluation (prune -> cluster -> QAT -> integer model ->
/// area) is independent per genome: every candidate derives its own RNG
/// stream from the genome key, so work can be distributed across threads
/// without changing any result bit (see pnm::ParallelEvaluator).  This
/// pool is deliberately minimal: fixed worker count, a FIFO queue for
/// submit(), and a blocking parallel_for in which the calling thread
/// participates — so a pool of any size (including on single-core
/// machines) makes progress and cannot deadlock on nested waits.
///
/// parallel_for nests: a body may itself call parallel_for on the same
/// pool (a CampaignRunner runs its cells as one parallel_for and each
/// cell fans its genomes over the same workers).  A caller whose own
/// iterations are all claimed does not park: until its batch completes it
/// runs iterations of other open batches, one at a time, woken by a batch
/// completing or a new one opening.  It only helps batches opened at its
/// own nesting depth or deeper, so a thread inside one outer body never
/// starts a second outer body inside its wait.

#include <cstddef>
#include <functional>
#include <future>

namespace pnm {

/// Fixed-size thread pool.  Tasks must not throw across the queue
/// boundary unobserved: submit() surfaces exceptions through its future,
/// parallel_for() rethrows the first body exception in the caller.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 selects the hardware concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  [[nodiscard]] std::size_t size() const;

  /// Enqueues one task; the future reports completion or the exception.
  std::future<void> submit(std::function<void()> task);

  /// Runs body(0) .. body(n-1) across the workers plus the calling
  /// thread, returning when all iterations finished.  Iterations are
  /// claimed dynamically (an atomic cursor), so uneven per-item cost
  /// load-balances.  While other threads finish the last iterations, the
  /// caller runs iterations of other open batches at its nesting depth
  /// or deeper (see the file comment).  If any body throws, iterations
  /// not yet started are skipped (the batch is aborting anyway) and the
  /// first exception is rethrown here, in this batch's caller, once
  /// in-flight work drains.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// The default worker count used for `threads == 0`.
  static std::size_t default_thread_count();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace pnm

#endif  // PNM_UTIL_THREAD_POOL_HPP
