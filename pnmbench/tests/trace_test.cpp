/// Tests of the traced run's reconciliation (trace.hpp: reconcile).
///
///   pnmbench_trace_test        (exit 0 = every case passed)
///
/// Cases:
///   synthetic      hand-made spans balance exactly; pool idle is measured
///                  per thread inside the pool spans; dropping one span, or
///                  a task outside every pool span, breaks the books;
///   campaign       a small traced campaign reconciles within
///                  kReconcileBound, and dropping its flow.prepare or
///                  core.store.open spans raises the error by their time.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "campaign_work.hpp"
#include "trace.hpp"

namespace {

using namespace pnmbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

Span span(std::uint32_t id, std::uint32_t parent, const char* name, std::uint32_t thread,
          std::int64_t start_ms, std::int64_t end_ms) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.name = name;
  s.thread = thread;
  s.start_ns = start_ms * 1'000'000;
  s.end_ns = end_ms * 1'000'000;
  return s;
}

std::vector<Span> without(std::vector<Span> spans, std::string_view name) {
  std::erase_if(spans, [&](const Span& s) { return std::string_view(s.name) == name; });
  return spans;
}

Reconciliation books(const std::vector<Span>& spans, std::size_t workers) {
  return reconcile(spans, "campaign", "util.pool", "core.eval", workers);
}

void synthetic() {
  std::printf("synthetic\n");
  // Caller (thread 0): store open 0-10 ms, a pool span 10-90 ms in which it
  // evaluates 10-50 ms, GA bookkeeping 90-100 ms.  Worker 1 evaluates
  // 10-40 and 45-80 ms; worker 2 runs nothing.
  const std::vector<Span> spans = {
      span(1, 0, "campaign", 0, 0, 100),      span(2, 1, "core.store.open", 0, 0, 10),
      span(3, 1, "util.pool", 0, 10, 90),     span(4, 3, "core.eval", 0, 10, 50),
      span(5, 4, "core.minimize", 0, 12, 48), span(6, 3, "core.eval", 1, 10, 40),
      span(7, 3, "core.eval", 1, 45, 80),     span(8, 1, "core.ga", 0, 90, 100)};
  const Reconciliation r = books(spans, 2);
  expect(near(r.capacity_s, 0.100 + 2 * 0.080), "capacity = root + workers x pool spans");
  expect(near(r.pool_busy_s, 0.040 + 0.065), "pool busy = each thread's task union");
  expect(near(r.pool_idle_s, 3 * 0.080 - 0.105), "pool idle = 3 x 80 ms - busy");
  expect(near(r.untraced_s, 0.0) && r.error < 1e-12, "complete spans balance exactly");

  const Reconciliation dropped = books(without(spans, "core.store.open"), 2);
  expect(near(dropped.untraced_s, 0.010), "a dropped span's time is untraced");
  expect(near(dropped.error, 0.010 / r.capacity_s) && dropped.error > kReconcileBound,
         "a dropped 10 ms span misses the books by 10 ms and fails the bound");

  std::vector<Span> stray = spans;
  stray.push_back(span(9, 0, "core.eval", 2, 92, 98));
  expect(books(stray, 2).error > kReconcileBound,
         "a task outside every pool span fails the bound");
}

void campaign() {
  std::printf("campaign\n");
  const std::string store = "pnmbench_trace_test_store";  // under the working directory
  std::filesystem::remove_all(store);
  CampaignSettings settings;
  settings.datasets = {"seeds"};
  settings.population = 8;
  settings.generations = 3;
  settings.train_epochs = 20;
  settings.finetune_epochs = 4;
  settings.ga_finetune_epochs = 1;
  settings.threads = 2;
  Tracer tracer(true);
  const CampaignTrace trace = run_traced_campaign(make_spec(settings, store), tracer);
  std::filesystem::remove_all(store);
  const Reconciliation& r = trace.books;
  expect(r.error <= kReconcileBound,
         "the traced campaign reconciles (error " + std::to_string(r.error) + ")");
  expect(r.pool_idle_s > 0.0 && r.pool_busy_frac() > 0.0 && r.pool_busy_frac() < 1.0,
         "pool idle and busy share are measured");

  for (const char* layer : {"flow.prepare", "core.store.open"}) {
    const double layer_s = layer_totals(trace.spans)[layer].self_s;
    const Reconciliation dropped = books(without(trace.spans, layer), trace.workers);
    expect(std::fabs((dropped.untraced_s - r.untraced_s) - layer_s) < 1e-9,
           std::string("dropping ") + layer + " moves its " + std::to_string(layer_s) +
               " s into untraced caller time");
    expect(dropped.error > r.error, std::string("dropping ") + layer + " raises the error");
  }
  expect(books(without(trace.spans, "flow.prepare"), trace.workers).error > kReconcileBound,
         "dropping flow.prepare fails the bound");
}

}  // namespace

int main() {
  synthetic();
  campaign();
  std::printf("%s (%d failure(s))\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
