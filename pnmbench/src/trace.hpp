#ifndef PNMBENCH_TRACE_HPP
#define PNMBENCH_TRACE_HPP

/// \file trace.hpp
/// \brief In-memory span recorder for the benchmark's traced runs.
///
/// Spans are recorded around the benchmark's own calls into each layer's
/// public functions (the library itself carries no tracing).  Each span
/// names its layer, its parent span and a request id; spans of one
/// request (one genome evaluation, one served request) share the id.
/// Spans stay in memory while the run executes and are written out once,
/// at the end (write_tsv).
///
/// Self time: a span's duration minus the durations of its children that
/// ran on the same thread.  Children on other threads (a genome evaluated
/// by a pool worker under a parallel_for span) are work done in parallel
/// and count toward their own thread's busy time instead.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pnmbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a process-wide origin (monotonic).
std::int64_t now_ns();

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by every span of one request
  const char* name = "";      ///< layer name (static storage)
  std::uint32_t thread = 0;   ///< small per-process thread index
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
};

/// Per-layer aggregate of a trace.
struct LayerTotals {
  std::size_t calls = 0;
  double busy_s = 0.0;  ///< sum of span durations
  double self_s = 0.0;  ///< sum of span self times
};

/// Thread-safe span recorder.  A disabled tracer records nothing and its
/// scopes cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: opens on construction, records on destruction.  Nested
  /// scopes on one thread become parent and child.  `parent` overrides
  /// the thread's current span (used for work handed to other threads).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = kInherit,
          std::uint32_t parent = kInheritParent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint32_t id() const { return span_.id; }
    [[nodiscard]] std::uint64_t request() const { return span_.request; }

   private:
    Tracer* tracer_;
    Span span_;
    std::uint32_t saved_current_ = 0;
    std::uint64_t saved_request_ = 0;
  };

  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};
  /// Request id = the span's own id: the span starts a new request.
  static constexpr std::uint64_t kNewRequest = kInherit - 1;
  static constexpr std::uint32_t kInheritParent = ~std::uint32_t{0};

  /// Parent for spans opened on threads that have no open span of their
  /// own — pool workers running iterations of a traced parallel_for.
  void set_handoff(std::uint32_t parent) { handoff_.store(parent); }
  [[nodiscard]] std::uint32_t handoff() const { return handoff_.load(); }

  /// Records a finished span directly (spans timed elsewhere, e.g. one
  /// served request from due time to response).
  void record(const char* name, std::uint64_t request, std::uint32_t parent,
              std::int64_t start_ns, std::int64_t end_ns);

  /// The calling thread's innermost open span (0 when none).
  [[nodiscard]] static std::uint32_t current();

  /// A copy of every recorded span, in completion order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes one line per span: id, parent, request, thread, name,
  /// start_ns, end_ns (tab-separated, header first).
  /// \return false when the file cannot be written.
  bool write_tsv(const std::string& path) const;

 private:
  std::uint32_t next_id();
  void push(const Span& span);

  bool enabled_;
  std::atomic<std::uint32_t> handoff_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;      ///< guarded by mu_
  std::uint32_t last_id_ = 0;    ///< guarded by mu_
};

/// Per-layer calls / busy / self totals (self time as defined above).
std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans);

/// Thread-time books of a traced run: one root span on the calling thread,
/// parallel sections traced as `pool` spans on that thread, and the work
/// items of a section traced as `task` spans on whichever thread (caller or
/// one of `workers` pool workers) ran them.
///
/// Capacity is the thread-time the run could spend on work: the caller for
/// the root's whole duration, plus each pool worker while a pool span is
/// open (outside one the pool holds no work).  Accounted time is the self
/// time of every span except the root and the pool spans, plus pool idle.
/// Pool idle is measured on its own: for each thread, pool-span time minus
/// the union of that thread's task intervals inside the pool spans.
///
/// The root's self time (caller time no layer span covers) is left out of
/// the accounted time, so untraced work shows as a miss, and so does task
/// time outside every pool span.  Inside a pool span, a thread's time
/// outside its tasks (the pool's own dispatch included) counts as idle.
struct Reconciliation {
  double capacity_s = 0.0;
  double pool_busy_s = 0.0;  ///< task time inside pool spans, all threads
  double pool_idle_s = 0.0;  ///< (workers + 1) x pool-span time - pool_busy_s
  double untraced_s = 0.0;   ///< the root's self time
  double error = 0.0;        ///< |capacity - accounted time| / capacity

  /// Share of the executing threads' pool-span time spent in tasks.
  [[nodiscard]] double pool_busy_frac() const {
    const double open = pool_busy_s + pool_idle_s;
    return open > 0.0 ? pool_busy_s / open : 0.0;
  }
};

/// \throws std::invalid_argument unless exactly one span is named `root`.
Reconciliation reconcile(const std::vector<Span>& spans, const char* root,
                         const char* pool, const char* task, std::size_t workers);

}  // namespace pnmbench

#endif  // PNMBENCH_TRACE_HPP
