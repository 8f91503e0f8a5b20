#include "pnm/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace pnm {
namespace {

/// How many parallel_for bodies the current thread is inside.  A batch
/// opened at depth d runs its bodies at depth d + 1, and a caller waiting
/// at depth d only helps batches opened at depth >= d.
thread_local std::size_t t_depth = 0;

/// Runs `fn` at nesting depth `depth`, restoring the previous depth after.
template <typename Fn>
void at_depth(std::size_t depth, Fn&& fn) {
  struct Restore {
    std::size_t saved;
    ~Restore() { t_depth = saved; }
  } restore{t_depth};
  t_depth = depth;
  fn();
}

}  // namespace

struct ThreadPool::Impl {
  /// One parallel_for call: iterations are claimed through an atomic
  /// cursor by the caller, by workers, and by other waiting callers.
  struct Batch {
    const std::function<void(std::size_t)>& body;
    std::size_t n;
    std::size_t depth;  ///< the caller's depth; bodies run at depth + 1
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  ///< first body exception; guarded by Impl::mutex

    Batch(const std::function<void(std::size_t)>& b, std::size_t count, std::size_t d)
        : body(b), n(count), depth(d) {}

    [[nodiscard]] bool claimable() const {
      return next.load(std::memory_order_relaxed) < n;
    }
  };

  std::vector<std::thread> workers;
  std::deque<std::function<void()>> queue;      ///< submit() tasks
  std::vector<std::shared_ptr<Batch>> batches;  ///< open parallel_for calls
  std::mutex mutex;
  std::condition_variable wake;      ///< workers: new task or batch, or stopping
  std::condition_variable progress;  ///< waiting callers: a batch completed or opened
  bool stopping = false;

  /// The oldest open batch with unclaimed iterations opened at depth >=
  /// `min_depth`, or null.  Requires `mutex`.
  std::shared_ptr<Batch> find(std::size_t min_depth) const {
    for (const std::shared_ptr<Batch>& b : batches) {
      if (b->depth >= min_depth && b->claimable()) return b;
    }
    return nullptr;
  }

  /// Claims and runs one iteration of `b`.  \return false once every
  /// iteration of `b` has been claimed.
  bool run_one(Batch& b) {
    const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= b.n) return false;
    // After a failure the batch result is lost anyway; resolve the
    // remaining iterations without running them so the caller gets the
    // exception promptly instead of paying for the whole batch.
    if (!b.failed.load(std::memory_order_acquire)) {
      try {
        at_depth(b.depth + 1, [&] { b.body(i); });
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (!b.error) b.error = std::current_exception();
        }
        b.failed.store(true, std::memory_order_release);
      }
    }
    if (b.done.fetch_add(1, std::memory_order_acq_rel) + 1 == b.n) {
      std::lock_guard<std::mutex> lock(mutex);  // pairs with the waits
      progress.notify_all();
    }
    return true;
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      if (!queue.empty()) {
        std::function<void()> task = std::move(queue.front());
        queue.pop_front();
        lock.unlock();
        task();  // submit() wraps tasks so this never throws
        lock.lock();
      } else if (const std::shared_ptr<Batch> b = find(0)) {
        lock.unlock();
        while (run_one(*b)) {
        }
        lock.lock();
      } else if (stopping) {
        return;
      } else {
        wake.wait(lock);
      }
    }
  }
};

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl) {
  if (threads == 0) threads = default_thread_count();
  impl_->workers.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->wake.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

std::size_t ThreadPool::size() const { return impl_->workers.size(); }

std::future<void> ThreadPool::submit(std::function<void()> task) {
  auto promise = std::make_shared<std::promise<void>>();
  std::future<void> future = promise->get_future();
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->queue.emplace_back([task = std::move(task), promise] {
      try {
        task();
        promise->set_value();
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
  }
  impl_->wake.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t depth = t_depth;
  if (n == 1) {
    at_depth(depth + 1, [&] { body(0); });
    return;
  }

  auto batch = std::make_shared<Impl::Batch>(body, n, depth);
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->batches.push_back(batch);
  }
  impl_->wake.notify_all();
  impl_->progress.notify_all();

  // The caller drains its own batch first, so completion never depends on
  // queue latency (or on the pool being larger than zero).
  while (impl_->run_one(*batch)) {
  }
  // Then, until the iterations other threads claimed finish, it runs
  // iterations of other open batches one at a time — never of a batch
  // opened at a shallower depth, so a thread inside one outer body never
  // starts a second outer body nested in its wait.
  std::unique_lock<std::mutex> lock(impl_->mutex);
  while (batch->done.load(std::memory_order_acquire) != n) {
    if (const std::shared_ptr<Impl::Batch> other = impl_->find(depth)) {
      lock.unlock();
      impl_->run_one(*other);
      lock.lock();
    } else {
      impl_->progress.wait(lock);
    }
  }
  impl_->batches.erase(std::find(impl_->batches.begin(), impl_->batches.end(), batch));
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace pnm
