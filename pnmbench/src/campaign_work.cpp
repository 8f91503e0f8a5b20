#include "campaign_work.hpp"

#include <atomic>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "pnm/core/eval.hpp"
#include "pnm/core/eval_store.hpp"
#include "pnm/core/flow.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/hw/bespoke.hpp"
#include "pnm/hw/mcm.hpp"
#include "pnm/hw/proxy.hpp"
#include "pnm/util/thread_pool.hpp"

namespace pnmbench {
namespace {

using pnm::DesignPoint;
using pnm::Evaluator;
using pnm::Genome;

double elapsed_s(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Counters {
  std::atomic<std::uint64_t> accuracy_samples{0};
  std::atomic<std::uint64_t> netlist_gates{0};
};

/// PipelineEvaluator::evaluate, step by step, with a span around each
/// layer call: minimize_float (prune + cluster + QAT fine-tune),
/// QuantizedMlp::from_float, accuracy, and the proxy or netlist pricing.
/// Produces the same DesignPoint as ProxyEvaluator / NetlistEvaluator.
class TracedPipeline final : public pnm::PipelineEvaluator {
 public:
  TracedPipeline(const pnm::MinimizationFlow& flow, pnm::EvalConfig config,
                 bool netlist, Tracer& tracer, Counters& counters)
      : PipelineEvaluator(flow.float_model(), flow.data(), flow.tech(),
                          std::move(config)),
        netlist_(netlist),
        tracer_(&tracer),
        counters_(&counters) {}

  DesignPoint evaluate(const Genome& genome) override {
    const std::uint32_t parent =
        Tracer::current() != 0 ? Tracer::current() : tracer_->handoff();
    Tracer::Scope eval(*tracer_, "core.eval", Tracer::kNewRequest, parent);
    pnm::Mlp candidate;
    {
      Tracer::Scope span(*tracer_, "core.minimize");
      candidate = minimize_float(genome);
    }
    pnm::QuantizedMlp qmodel;
    {
      Tracer::Scope span(*tracer_, "core.realize");
      pnm::QuantSpec spec;
      spec.weight_bits = genome.weight_bits;
      spec.input_bits = config().input_bits;
      spec.acc_shift = genome.acc_shift;
      qmodel = pnm::QuantizedMlp::from_float(candidate, spec);
    }
    DesignPoint point;
    point.technique = "ga";
    point.config = genome.key();
    {
      Tracer::Scope span(*tracer_, "core.accuracy");
      point.accuracy = qmodel.accuracy(reporting_set());
    }
    counters_->accuracy_samples.fetch_add(reporting_set().size(),
                                          std::memory_order_relaxed);
    measure(point, qmodel, options_for(genome));
    return point;
  }

  [[nodiscard]] std::string name() const override {
    return netlist_ ? "traced-netlist" : "traced-proxy";
  }

 protected:
  void measure(DesignPoint& point, const pnm::QuantizedMlp& qmodel,
               const pnm::hw::BespokeOptions& options) const override {
    if (!netlist_) {
      Tracer::Scope span(*tracer_, "hw.proxy");
      point.area_mm2 = pnm::hw::estimate_area_mm2(qmodel, tech(), options);
      return;
    }
    std::optional<pnm::hw::BespokeCircuit> circuit;
    {
      Tracer::Scope span(*tracer_, "hw.netlist.build");
      circuit.emplace(qmodel, options);
    }
    counters_->netlist_gates.fetch_add(circuit->netlist().gate_count(),
                                       std::memory_order_relaxed);
    Tracer::Scope span(*tracer_, "hw.netlist.analyze");
    point.area_mm2 = circuit->area_mm2(tech());
    point.power_uw = circuit->power_uw(tech());
    point.delay_ms = circuit->critical_path_ms(tech());
  }

 private:
  bool netlist_;
  Tracer* tracer_;
  Counters* counters_;
};

/// Pass-through decorator that records one span per call into `inner`.
/// With `handoff`, the span is also published as the parent for spans
/// that pool workers open while the call runs.
class TracedStage final : public Evaluator {
 public:
  TracedStage(Evaluator& inner, Tracer& tracer, const char* layer, bool handoff)
      : inner_(&inner), tracer_(&tracer), layer_(layer), handoff_(handoff) {}

  DesignPoint evaluate(const Genome& genome) override {
    Tracer::Scope span(*tracer_, layer_);
    if (handoff_) tracer_->set_handoff(span.id());
    return inner_->evaluate(genome);
  }
  std::vector<DesignPoint> evaluate_batch(std::span<const Genome> genomes) override {
    Tracer::Scope span(*tracer_, layer_);
    if (handoff_) tracer_->set_handoff(span.id());
    return inner_->evaluate_batch(genomes);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  Evaluator* inner_;
  Tracer* tracer_;
  const char* layer_;
  bool handoff_;
};

struct CacheTotals {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t loaded = 0;
};

/// CampaignRunner::run_cell, assembled from public calls with spans.
pnm::CampaignRunResult traced_cell(const pnm::CampaignSpec& spec,
                                   const std::string& dataset, std::uint64_t seed,
                                   pnm::ThreadPool& pool, Tracer& tracer,
                                   Counters& counters, CacheTotals& cache) {
  pnm::CampaignRunResult run;
  // Opened as the cell's last statement, so that it covers the teardown of
  // the cell's flow, evaluators and pools when the block below ends.
  std::optional<Tracer::Scope> teardown;
  {
    pnm::FlowConfig config = spec.base;
    config.dataset_name = dataset;
    config.seed = seed;
    pnm::MinimizationFlow flow(config);
    {
      Tracer::Scope span(tracer, "flow.prepare");
      flow.prepare();
    }

    // Constructing a PipelineEvaluator quantizes the validation and test
    // splits once for all of its evaluations.
    std::optional<TracedPipeline> proxy;
    std::optional<TracedPipeline> netlist;
    std::string proxy_fp;
    std::string netlist_fp;
    {
      Tracer::Scope span(tracer, "core.eval.setup");
      const pnm::EvalConfig proxy_config = flow.eval_config(spec.ga_finetune_epochs, false);
      const pnm::EvalConfig netlist_config = flow.eval_config(config.finetune_epochs, true);
      proxy.emplace(flow, proxy_config, /*netlist=*/false, tracer, counters);
      netlist.emplace(flow, netlist_config, /*netlist=*/true, tracer, counters);
      proxy_fp = pnm::eval_fingerprint(config, proxy_config, "proxy");
      netlist_fp = pnm::eval_fingerprint(config, netlist_config, "netlist");
    }
    pnm::ParallelEvaluator proxy_parallel(*proxy, pool);
    pnm::ParallelEvaluator netlist_parallel(*netlist, pool);
    TracedStage proxy_pool(proxy_parallel, tracer, "util.pool", true);
    TracedStage netlist_pool(netlist_parallel, tracer, "util.pool", true);

    const std::string stem = spec.store_dir + "/" + dataset + "_s" + std::to_string(seed);
    std::optional<pnm::EvalStore> proxy_store;
    std::optional<pnm::EvalStore> netlist_store;
    std::optional<pnm::CachedEvaluator> fitness;
    std::optional<pnm::CachedEvaluator> front_eval;
    {
      // Opening a store includes the cache's preload of every stored record.
      Tracer::Scope span(tracer, "core.store.open");
      proxy_store.emplace(stem + "_proxy_" + proxy_fp + ".evalstore", proxy_fp,
                          spec.writer_id);
      netlist_store.emplace(stem + "_netlist_" + netlist_fp + ".evalstore", netlist_fp,
                            spec.writer_id);
      fitness.emplace(proxy_pool, *proxy_store);
      front_eval.emplace(netlist_pool, *netlist_store);
    }
    TracedStage fitness_traced(*fitness, tracer, "core.cache", false);
    TracedStage front_traced(*front_eval, tracer, "core.cache", false);

    pnm::MinimizationFlow::GaOutcome outcome;
    {
      Tracer::Scope span(tracer, "core.ga");
      outcome = flow.run_ga(fitness_traced, front_traced, spec.ga);
    }

    run.dataset = dataset;
    run.seed = seed;
    run.baseline = flow.baseline();
    run.front = outcome.front;
    run.distinct_evaluations = outcome.raw.evaluations;
    cache.hits += fitness->hits() + front_eval->hits();
    cache.misses += fitness->misses() + front_eval->misses();
    cache.loaded += fitness->loaded() + front_eval->loaded();
    {
      Tracer::Scope span(tracer, "core.store.close");
      front_eval.reset();
      fitness.reset();
      netlist_store.reset();
      proxy_store.reset();
    }
    teardown.emplace(tracer, "core.eval.teardown");
  }
  return run;
}

}  // namespace

const std::vector<std::string>& campaign_layer_metric_names() {
  static const std::vector<std::string> names = {
      "flow.prepare.calls",     "flow.prepare.busy_s",    "core.minimize.calls",
      "core.minimize.busy_s",   "core.realize.busy_s",    "core.accuracy.busy_s",
      "core.accuracy.samples",  "hw.proxy.calls",         "hw.proxy.busy_s",
      "hw.netlist.build.calls", "hw.netlist.build.busy_s", "hw.netlist.gates",
      "hw.netlist.analyze.busy_s", "core.cache.hits",     "core.cache.misses",
      "core.cache.hit_ratio",   "core.cache.self_s",      "core.store.open_s",
      "core.store.loaded",      "core.ga.self_s",         "core.ga.evaluations",
      "util.pool.idle_s",       "util.pool.busy_frac",    "trace.reconcile_error"};
  return names;
}

pnm::CampaignSpec make_spec(const CampaignSettings& settings,
                            const std::string& store_dir) {
  pnm::CampaignSpec spec;
  spec.datasets = settings.datasets;
  spec.seeds = {settings.flow_seed};
  spec.base.train.epochs = settings.train_epochs;
  spec.base.finetune_epochs = settings.finetune_epochs;
  spec.ga.population = settings.population;
  spec.ga.generations = settings.generations;
  spec.ga_finetune_epochs = settings.ga_finetune_epochs;
  spec.threads = settings.threads;
  spec.store_dir = store_dir;
  return spec;
}

double area_gain_5pct(const pnm::CampaignResult& result) {
  double log_sum = 0.0;
  for (const std::string& dataset : result.datasets) {
    const pnm::CampaignRunResult* run = nullptr;
    for (const pnm::CampaignRunResult& r : result.runs) {
      if (r.dataset == dataset) {
        run = &r;
        break;
      }
    }
    if (run == nullptr) throw std::logic_error("area_gain_5pct: dataset without run");
    const std::optional<double> gain = pnm::best_area_gain_at_loss(
        result.merged_front(dataset), run->baseline.accuracy, run->baseline.area_mm2,
        0.05);
    log_sum += std::log(gain.value_or(1.0));
  }
  return std::exp(log_sum / static_cast<double>(result.datasets.size()));
}

CampaignOutcome run_campaign(const pnm::CampaignSpec& spec) {
  pnm::hw::mcm_plan_cache_reset();
  const Clock::time_point start = Clock::now();
  pnm::CampaignRunner runner(spec);
  const pnm::CampaignResult result = runner.run();
  CampaignOutcome out;
  out.wall_s = elapsed_s(start);
  out.fronts_json = result.fronts_json();
  out.area_gain_5pct = area_gain_5pct(result);
  out.cache_hits = result.total_cache_hits();
  out.cache_misses = result.total_cache_misses();
  out.store_loaded = result.total_store_loaded();
  return out;
}

CampaignTrace run_traced_campaign(const pnm::CampaignSpec& spec, Tracer& tracer) {
  if (!tracer.enabled()) throw std::logic_error("run_traced_campaign: tracer is off");
  spec.validate();
  pnm::hw::mcm_plan_cache_reset();
  Counters counters;
  CacheTotals cache;
  pnm::CampaignResult result;
  result.datasets = spec.datasets;

  CampaignTrace trace;
  const Clock::time_point start = Clock::now();
  {
    Tracer::Scope root(tracer, "campaign", Tracer::kNewRequest, 0);
    std::optional<pnm::ThreadPool> pool;
    {
      Tracer::Scope span(tracer, "util.pool.start");
      pool.emplace(spec.threads);
    }
    trace.workers = pool->size();
    {
      Tracer::Scope span(tracer, "core.store.open");
      if (!pnm::create_directories(spec.store_dir)) {
        throw std::runtime_error("run_traced_campaign: cannot create " + spec.store_dir);
      }
    }
    for (const std::string& dataset : spec.datasets) {
      for (std::uint64_t seed : spec.seeds) {
        result.runs.push_back(
            traced_cell(spec, dataset, seed, *pool, tracer, counters, cache));
      }
    }
    Tracer::Scope span(tracer, "util.pool.stop");
    pool.reset();
  }

  trace.outcome.wall_s = elapsed_s(start);
  trace.outcome.fronts_json = result.fronts_json();
  trace.outcome.area_gain_5pct = area_gain_5pct(result);
  trace.outcome.cache_hits = cache.hits;
  trace.outcome.cache_misses = cache.misses;
  trace.outcome.store_loaded = cache.loaded;
  trace.spans = tracer.spans();

  // ---- per-layer numbers ------------------------------------------------
  const std::map<std::string, LayerTotals> layers = layer_totals(trace.spans);
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerTotals{} : it->second;
  };
  std::map<std::string, double>& m = trace.metrics;

  m["flow.prepare.calls"] = static_cast<double>(layer("flow.prepare").calls);
  m["flow.prepare.busy_s"] = layer("flow.prepare").busy_s;
  m["core.minimize.calls"] = static_cast<double>(layer("core.minimize").calls);
  m["core.minimize.busy_s"] = layer("core.minimize").busy_s;
  m["core.realize.busy_s"] = layer("core.realize").busy_s;
  m["core.accuracy.busy_s"] = layer("core.accuracy").busy_s;
  m["core.accuracy.samples"] = static_cast<double>(counters.accuracy_samples.load());
  m["hw.proxy.calls"] = static_cast<double>(layer("hw.proxy").calls);
  m["hw.proxy.busy_s"] = layer("hw.proxy").busy_s;
  m["hw.netlist.build.calls"] = static_cast<double>(layer("hw.netlist.build").calls);
  m["hw.netlist.build.busy_s"] = layer("hw.netlist.build").busy_s;
  m["hw.netlist.gates"] = static_cast<double>(counters.netlist_gates.load());
  m["hw.netlist.analyze.busy_s"] = layer("hw.netlist.analyze").busy_s;
  m["core.cache.hits"] = static_cast<double>(cache.hits);
  m["core.cache.misses"] = static_cast<double>(cache.misses);
  m["core.cache.hit_ratio"] =
      cache.hits + cache.misses == 0
          ? 0.0
          : static_cast<double>(cache.hits) / static_cast<double>(cache.hits + cache.misses);
  m["core.cache.self_s"] = layer("core.cache").self_s;
  m["core.store.open_s"] = layer("core.store.open").busy_s;
  m["core.store.loaded"] = static_cast<double>(cache.loaded);
  m["core.ga.self_s"] = layer("core.ga").self_s;
  m["core.ga.evaluations"] = static_cast<double>(cache.hits + cache.misses);

  // ---- reconciliation (see Reconciliation) --------------------------------
  trace.books = reconcile(trace.spans, "campaign", "util.pool", "core.eval", trace.workers);
  m["util.pool.idle_s"] = trace.books.pool_idle_s;
  m["util.pool.busy_frac"] = trace.books.pool_busy_frac();
  m["trace.reconcile_error"] = trace.books.error;
  if (m.size() != campaign_layer_metric_names().size()) {
    throw std::logic_error("run_traced_campaign: metric list out of date");
  }
  return trace;
}

}  // namespace pnmbench
