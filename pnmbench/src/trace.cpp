#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace pnmbench {
namespace {

const Clock::time_point kOrigin = Clock::now();

std::atomic<std::uint32_t> g_thread_counter{0};

struct ThreadState {
  std::uint32_t index = g_thread_counter.fetch_add(1, std::memory_order_relaxed);
  std::uint32_t current = 0;
  std::uint64_t request = 0;
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kOrigin)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request,
                     std::uint32_t parent)
    : tracer_(&tracer) {
  if (!tracer.enabled_) return;
  ThreadState& state = thread_state();
  span_.id = tracer.next_id();
  span_.parent = parent == kInheritParent ? state.current : parent;
  span_.request = request == kInherit      ? state.request
                  : request == kNewRequest ? span_.id
                                           : request;
  span_.name = name;
  span_.thread = state.index;
  saved_current_ = state.current;
  saved_request_ = state.request;
  state.current = span_.id;
  state.request = span_.request;
  span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (!tracer_->enabled_) return;
  span_.end_ns = now_ns();
  ThreadState& state = thread_state();
  state.current = saved_current_;
  state.request = saved_request_;
  tracer_->push(span_);
}

void Tracer::record(const char* name, std::uint64_t request, std::uint32_t parent,
                    std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.id = next_id();
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.thread = thread_state().index;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  push(span);
}

std::uint32_t Tracer::current() { return thread_state().current; }

std::uint32_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++last_id_;
}

void Tracer::push(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tparent\trequest\tthread\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans()) {
    out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.thread << '\t'
        << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& s : spans) by_id.emplace(s.id, &s);

  // Same-thread child time per parent span.
  std::unordered_map<std::uint32_t, std::int64_t> child_ns;
  for (const Span& s : spans) {
    const auto parent = by_id.find(s.parent);
    if (parent != by_id.end() && parent->second->thread == s.thread) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }

  std::map<std::string, LayerTotals> totals;
  for (const Span& s : spans) {
    LayerTotals& t = totals[s.name];
    ++t.calls;
    const std::int64_t duration = s.end_ns - s.start_ns;
    t.busy_s += static_cast<double>(duration) / 1e9;
    const auto child = child_ns.find(s.id);
    const std::int64_t self = duration - (child == child_ns.end() ? 0 : child->second);
    t.self_s += static_cast<double>(self) / 1e9;
  }
  return totals;
}

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Sorted, disjoint union of `intervals`.
std::vector<Interval> merged(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> out;
  for (const Interval& i : intervals) {
    if (!out.empty() && i.first <= out.back().second) {
      out.back().second = std::max(out.back().second, i.second);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

/// Length of the intersection of two sorted, disjoint interval lists.
std::int64_t overlap_ns(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  std::int64_t total = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const std::int64_t lo = std::max(a[i].first, b[j].first);
    const std::int64_t hi = std::min(a[i].second, b[j].second);
    if (hi > lo) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

}  // namespace

Reconciliation reconcile(const std::vector<Span>& spans, const char* root,
                         const char* pool, const char* task, std::size_t workers) {
  const std::string_view root_name(root);
  const std::string_view pool_name(pool);
  const std::string_view task_name(task);
  const Span* root_span = nullptr;
  std::vector<Interval> windows;
  std::map<std::uint32_t, std::vector<Interval>> tasks_by_thread;
  for (const Span& s : spans) {
    const std::string_view name(s.name);
    if (name == root_name) {
      if (root_span != nullptr) throw std::invalid_argument("reconcile: two root spans");
      root_span = &s;
    } else if (name == pool_name) {
      windows.emplace_back(s.start_ns, s.end_ns);
    } else if (name == task_name) {
      tasks_by_thread[s.thread].emplace_back(s.start_ns, s.end_ns);
    }
  }
  if (root_span == nullptr) throw std::invalid_argument("reconcile: no root span");

  Reconciliation r;
  windows = merged(std::move(windows));
  std::int64_t window_ns = 0;
  for (const Interval& w : windows) window_ns += w.second - w.first;
  std::int64_t busy_ns = 0;
  for (auto& [thread, intervals] : tasks_by_thread) {
    busy_ns += overlap_ns(merged(std::move(intervals)), windows);
  }
  const double window_s = static_cast<double>(window_ns) / 1e9;
  r.pool_busy_s = static_cast<double>(busy_ns) / 1e9;
  r.pool_idle_s = static_cast<double>(workers + 1) * window_s - r.pool_busy_s;
  r.capacity_s = root_span->seconds() + static_cast<double>(workers) * window_s;

  double accounted_s = r.pool_idle_s;
  for (const auto& [name, totals] : layer_totals(spans)) {
    if (name == root_name) {
      r.untraced_s = totals.self_s;
    } else if (name != pool_name) {
      accounted_s += totals.self_s;
    }
  }
  r.error = r.capacity_s > 0.0 ? std::fabs(r.capacity_s - accounted_s) / r.capacity_s : 1.0;
  return r;
}

}  // namespace pnmbench
