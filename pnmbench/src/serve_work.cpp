#include "serve_work.hpp"

#include <pthread.h>
#include <sched.h>

#include <cmath>
#include <stdexcept>

#include "pnm/core/flow.hpp"
#include "pnm/core/infer_simd.hpp"
#include "pnm/core/model_io.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/serve/protocol.hpp"
#include "pnm/serve/registry.hpp"
#include "pnm/serve/server.hpp"
#include "pnm/util/fileio.hpp"

namespace pnmbench {
namespace {

using pnm::serve::MetricsSnapshot;

double elapsed_s(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Pins the calling thread to the last CPU it may run on, for the pin's
/// lifetime; threads it starts meanwhile inherit the pin.  The server and
/// the generator then share one CPU.  Spread over idle vCPUs, every
/// hand-off between them waits for the hypervisor to wake a halted vCPU,
/// and on a shared host that wait swung bulk throughput by 4x within a
/// run (README).
class PinToOneCpu {
 public:
  PinToOneCpu() {
    if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) return;
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) last = cpu;
    }
    if (last < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

ServedDesign make_design(const std::string& dataset, const std::string& route,
                         std::uint64_t flow_seed, const std::string& dir,
                         const DesignSettings& settings) {
  pnm::FlowConfig config;
  config.dataset_name = dataset;
  config.seed = flow_seed;
  config.train.epochs = settings.train_epochs;
  config.finetune_epochs = settings.finetune_epochs;
  pnm::MinimizationFlow flow(config);
  flow.prepare();

  pnm::GaConfig ga;
  ga.population = settings.population;
  ga.generations = settings.generations;
  const pnm::MinimizationFlow::GaOutcome outcome = flow.run_combined_ga(ga);

  // The smallest front design within 5% accuracy of the baseline; the
  // baseline itself when none qualifies.
  const pnm::DesignPoint& baseline = flow.baseline();
  const pnm::DesignPoint* chosen = nullptr;
  for (const pnm::DesignPoint& p : outcome.front) {
    if (p.accuracy >= baseline.accuracy - 0.05 &&
        (chosen == nullptr || p.area_mm2 < chosen->area_mm2)) {
      chosen = &p;
    }
  }
  pnm::Genome genome;
  const std::size_t layers = flow.float_model().layer_count();
  genome.weight_bits.assign(layers, config.baseline_weight_bits);
  genome.sparsity_pct.assign(layers, 0);
  genome.clusters.assign(layers, 0);
  if (chosen != nullptr) {
    bool found = false;
    for (const pnm::EvaluatedGenome& g : outcome.raw.front) {
      if (g.genome.key() == chosen->config) {
        genome = g.genome;
        found = true;
        break;
      }
    }
    if (!found) throw std::runtime_error("served design: front genome not found");
  }
  const pnm::DesignPoint& point = chosen != nullptr ? *chosen : baseline;
  const pnm::QuantizedMlp model = flow.realize_genome(genome, config.finetune_epochs);
  const pnm::QuantizedDataset qtest =
      pnm::quantize_dataset(flow.data().test, model.input_bits());
  if (model.accuracy(qtest) != point.accuracy) {
    throw std::runtime_error("served design: realized model disagrees with its front point");
  }

  const std::string path = dir + "/" + dataset + ".pnm";
  if (!pnm::save_quantized_mlp(model, path, dataset)) {
    throw std::runtime_error("served design: cannot write " + path);
  }
  ServedDesign design;
  design.dataset = dataset;
  design.route = route;
  design.model = pnm::load_quantized_mlp(path);
  if (pnm::save_quantized_mlp_text(design.model, dataset) !=
      pnm::save_quantized_mlp_text(model, dataset)) {
    throw std::runtime_error("served design: model file does not round-trip");
  }
  design.samples = flow.data().test.x;
  design.area_gain = baseline.area_mm2 / point.area_mm2;
  return design;
}

/// Results of the offline timing loops land here so they cannot be elided.
volatile std::uint64_t g_sink = 0;

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  std::uint64_t total = 0;
  for (const std::uint64_t x : v) total += x;
  return total;
}

std::vector<std::uint64_t> delta(const std::vector<std::uint64_t>& after,
                                 const std::vector<std::uint64_t>& before) {
  std::vector<std::uint64_t> out(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    out[i] = after[i] - (i < before.size() ? before[i] : 0);
  }
  return out;
}

std::uint64_t error_count(const MetricsSnapshot& s) {
  return s.protocol_errors + s.oversized_rejected + s.truncated_frames +
         s.dropped_responses + s.predict_errors + s.unknown_model;
}

void record_request_spans(const PhaseResult& phase, Tracer& tracer, std::uint32_t parent) {
  for (std::size_t k = 0; k < phase.load.timings.size(); ++k) {
    const RequestTiming& t = phase.load.timings[k];
    if (t.done_ns != 0) tracer.record("loadgen.request", k, parent, t.due_ns, t.done_ns);
  }
}

}  // namespace

ServeSetup make_served_designs(std::uint64_t flow_seed, const std::string& dir,
                               const DesignSettings& settings) {
  if (!pnm::create_directories(dir)) {
    throw std::runtime_error("served designs: cannot create " + dir);
  }
  ServeSetup setup;
  setup.designs.push_back(make_design("pendigits", "", flow_seed, dir, settings));
  setup.designs.push_back(make_design("redwine", "redwine", flow_seed, dir, settings));
  double log_sum = 0.0;
  for (const ServedDesign& d : setup.designs) log_sum += std::log(d.area_gain);
  setup.area_gain_5pct = std::exp(log_sum / static_cast<double>(setup.designs.size()));
  return setup;
}

ServeBench::ServeBench(const ServeSetup& setup) : setup_(&setup) {
  auto registry = std::make_shared<pnm::serve::ModelRegistry>();
  for (const ServedDesign& d : setup.designs) {
    std::string error;
    const std::string name = d.route.empty() ? "default" : d.route;
    if (!registry->register_model(name, {d.model, 0, d.dataset + ".pnm", {}}, &error)) {
      throw std::runtime_error("serve bench: " + error);
    }
  }
  server_ = std::make_unique<pnm::serve::Server>(pnm::serve::ServeConfig{}, registry);
  const PinToOneCpu pin;  // the server's threads start pinned
  server_->start();
}

ServeBench::~ServeBench() { server_->stop(); }

LadderResult ServeBench::run_ladder(const LadderSettings& settings, Tracer& tracer) {
  const auto route = [&](const ServedDesign& d) {
    return Route{d.route, &d.model, &d.samples};
  };
  LoadConfig base;
  base.port = server_->port();

  const PinToOneCpu pin;  // the generator joins the server's CPU
  LadderResult ladder;
  const Clock::time_point start = Clock::now();
  const auto phase = [&](const char* name, const char* span_name, LoadConfig config,
                         bool open_loop) {
    PhaseResult result;
    result.name = name;
    Tracer::Scope span(tracer, span_name, Tracer::kNewRequest, 0);
    result.before = server_->stats();
    result.load = open_loop ? run_open_loop(config) : run_closed_loop(config);
    result.after = server_->stats();
    if (open_loop) record_request_spans(result, tracer, span.id());
    ladder.phases.push_back(std::move(result));
  };

  LoadConfig light = base;
  light.routes = {route(setup_->designs[0])};
  light.requests = settings.light_requests;
  light.rate = settings.light_rate;
  phase("light", "serve.light", light, true);

  LoadConfig heavy = base;
  heavy.routes = {route(setup_->designs[0]), route(setup_->designs[1])};
  heavy.requests = settings.heavy_requests;
  heavy.rate = settings.heavy_rate;
  phase("heavy", "serve.heavy", heavy, true);

  LoadConfig bulk = base;
  bulk.routes = {route(setup_->designs[0])};
  bulk.requests = settings.bulk_requests;
  bulk.in_flight = settings.bulk_in_flight;
  phase("bulk", "serve.bulk", bulk, false);

  ladder.wall_s = elapsed_s(start);
  return ladder;
}

std::string check_phase(const PhaseResult& phase) {
  const MetricsSnapshot& s = phase.after;
  const std::string where = phase.name + ": ";
  const std::vector<std::uint64_t>& hist = s.batch_size_hist;
  std::uint64_t hist_batches = 0;
  std::uint64_t hist_responses = 0;
  for (std::size_t b = 1; b < hist.size(); ++b) {
    hist_batches += hist[b];
    hist_responses += hist[b] * b;
  }
  if (hist_batches != s.batches_total || hist_responses != s.responses_total) {
    return where + "batch histogram does not account for every response";
  }
  if (sum(s.requests_by_reactor) != s.requests_total) {
    return where + "per-reactor admissions do not sum to requests_total";
  }
  std::uint64_t by_model = s.predict_errors;
  for (const pnm::serve::ModelStats& m : s.models) by_model += m.responses;
  if (by_model != s.responses_total) {
    return where + "per-model responses do not sum to responses_total";
  }
  if (s.requests_total != s.responses_total) {
    return where + "requests_total != responses_total after the phase drained";
  }
  if (s.requests_total - phase.before.requests_total > phase.load.sent) {
    return where + "server admitted more requests than were sent";
  }
  return "";
}

void add_phase_layer_metrics(const PhaseResult& phase, std::map<std::string, double>& out) {
  const std::string serve = "serve." + phase.name + ".";
  const std::vector<std::uint64_t> hist =
      delta(phase.after.batch_size_hist, phase.before.batch_size_hist);
  std::uint64_t batches = 0;
  std::uint64_t responses = 0;
  for (std::size_t b = 1; b < hist.size(); ++b) {
    batches += hist[b];
    responses += hist[b] * b;
  }
  out[serve + "mean_batch"] =
      batches == 0 ? 0.0 : static_cast<double>(responses) / static_cast<double>(batches);
  out[serve + "batch1_frac"] =
      batches == 0 ? 0.0 : static_cast<double>(hist[1]) / static_cast<double>(batches);
  MetricsSnapshot latency;
  latency.latency_hist = delta(phase.after.latency_hist, phase.before.latency_hist);
  out[serve + "server_p50_us"] = latency.latency_percentile_us(50.0);
  out[serve + "client_p99_us"] = percentile(phase.load.latencies_us(), 99.0);
  out[serve + "requests"] =
      static_cast<double>(phase.after.requests_total - phase.before.requests_total);
  out[serve + "errors"] =
      static_cast<double>(error_count(phase.after) - error_count(phase.before));
  const std::string loadgen = "loadgen." + phase.name + ".";
  out[loadgen + "late_p99_us"] = percentile(phase.load.lateness_us(), 99.0);
  out[loadgen + "sent"] = static_cast<double>(phase.load.sent);
}

void add_infer_layer_metrics(const ServeSetup& setup, std::map<std::string, double>& out) {
  constexpr double kMinSeconds = 0.2;
  const pnm::simd::Isa isa = pnm::simd::active_isa();
  std::size_t sink = 0;
  double single_s = 0.0;
  double block_s = 0.0;
  std::size_t single_n = 0;
  std::size_t block_n = 0;
  for (const ServedDesign& d : setup.designs) {
    pnm::QuantizedDataset q;
    q.input_bits = d.model.input_bits();
    q.n_features = d.model.input_size();
    std::vector<std::int64_t> row;
    for (const std::vector<double>& x : d.samples) {
      pnm::quantize_input_into(x, q.input_bits, row);
      q.x.insert(q.x.end(), row.begin(), row.end());
      q.y.push_back(0);
    }
    q.build_blocked();

    pnm::InferScratch scratch;
    Clock::time_point start = Clock::now();
    do {
      for (std::size_t i = 0; i < q.size(); ++i) {
        sink += d.model.predict_quantized_into(q.sample(i), scratch);
      }
      single_n += q.size();
    } while (elapsed_s(start) < kMinSeconds / 2);
    single_s += elapsed_s(start);

    pnm::BlockScratch block_scratch;
    std::size_t preds[pnm::simd::kSampleBlock];
    start = Clock::now();
    do {
      for (std::size_t b = 0; b < q.block_count(); ++b) {
        const std::size_t lanes =
            std::min(pnm::simd::kSampleBlock, q.size() - b * pnm::simd::kSampleBlock);
        d.model.predict_block_into(q.block(b), lanes, block_scratch, preds, isa);
        sink += preds[0];
      }
      block_n += q.size();
    } while (elapsed_s(start) < kMinSeconds / 2);
    block_s += elapsed_s(start);
  }
  out["core.infer.predict_us"] = single_s * 1e6 / static_cast<double>(single_n);
  out["core.infer.predict_block_us"] = block_s * 1e6 / static_cast<double>(block_n);
  g_sink = g_sink + sink;
}

void add_codec_layer_metric(const ServeSetup& setup, std::map<std::string, double>& out) {
  constexpr double kMinSeconds = 0.1;
  const std::vector<std::vector<double>>& samples = setup.designs[0].samples;
  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> resp;
  std::vector<double> features;
  std::uint64_t sink = 0;
  std::size_t n = 0;
  pnm::serve::FrameReader reader;
  const pnm::serve::FrameReader::FrameHandler on_frame =
      [&](pnm::serve::FrameType, std::span<const std::uint8_t> payload) {
        std::uint32_t id = 0;
        if (!pnm::serve::decode_predict(payload, id, features)) {
          throw std::runtime_error("codec: request does not decode");
        }
        resp.clear();
        pnm::serve::encode_predict_resp(resp, id, 1, static_cast<std::uint32_t>(features.size()));
        pnm::serve::PredictResponse decoded;
        if (!pnm::serve::decode_predict_resp(
                std::span<const std::uint8_t>(resp).subspan(5), decoded)) {
          throw std::runtime_error("codec: response does not decode");
        }
        sink += decoded.id + decoded.predicted_class;
      };
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t i = 0; i < samples.size(); ++i, ++n) {
      wire.clear();
      pnm::serve::encode_predict(wire, static_cast<std::uint32_t>(i), samples[i]);
      if (!reader.feed(wire.data(), wire.size(), on_frame)) {
        throw std::runtime_error("codec: frame reader rejected a request");
      }
    }
  } while (elapsed_s(start) < kMinSeconds);
  out["serve.protocol.codec_us"] = elapsed_s(start) * 1e6 / static_cast<double>(n);
  g_sink = g_sink + sink;
}

}  // namespace pnmbench
