/// pnmbench — one workload run of the pnm benchmark.
///
///   pnmbench --workload campaign_cold|serve_ladder --seed N
///            --seconds S --trace 0|1 [--out-dir DIR] [--source-id ID] [--smoke]
///
/// Runs the workload's set-up several times (median = setup_s), then measures
/// for S seconds, checking every correctness gate as it goes.  The last
/// line of standard output is one JSON object: the stamp, sample counts,
/// attempted/failed operations and the metric values (end-to-end with
/// --trace 0, per-layer with --trace 1).  pnmbench/run.py turns it into the
/// benchmark's result line.  Any failed gate prints "GATE FAILED: ..." to
/// standard error and exits 2 without a result; a sanitizer build runs
/// every gate and reports an empty metric set.
///
/// See pnmbench/README.md for why each workload exists.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign_work.hpp"
#include "loadgen.hpp"
#include "pnm/core/model_io.hpp"
#include "pnm/util/build_info.hpp"
#include "pnm/util/rng.hpp"
#include "serve_work.hpp"
#include "stamp.hpp"
#include "trace.hpp"

namespace {

using namespace pnmbench;
namespace fs = std::filesystem;

struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

/// The campaign instance: flow seed 42, the CampaignSpec default.  The
/// paper's headline (area gain at <= 5% loss) swings between 2x and 18x
/// across flow seeds, so a per-run flow seed would make area_gain_5pct
/// unsteady by construction.  The workload seed instead permutes the order
/// in which the campaign visits the datasets and the order of the served
/// sample streams.
constexpr std::uint64_t kFlowSeed = 42;

/// Share of a campaign_cold run spent on campaign repetitions; the rest
/// runs serve ladders.
constexpr double kCampaignShare = 0.6;

/// Layer metrics of the traced warm resume, reported as "warm.<name>": the
/// layers a resumed campaign still runs (it fine-tunes and prices nothing).
const std::vector<std::string> kWarmLayerMetrics = {
    "flow.prepare.busy_s", "core.cache.hits",   "core.cache.self_s",
    "core.store.open_s",   "core.store.loaded", "core.ga.self_s",
    "trace.reconcile_error"};

/// Fisher-Yates shuffle driven by the workload seed's stream.
template <class T>
void shuffle(std::vector<T>& items, pnm::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.uniform_int(static_cast<std::uint64_t>(i))]);
  }
}

enum class Workload { kCold, kServe };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_out";
  std::string source_id = "unknown";
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = std::stoi(value);
    else if (flag == "--out-dir") a.out_dir = value;
    else if (flag == "--source-id") a.source_id = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

Workload parse_workload(const std::string& name) {
  if (name == "campaign_cold") return Workload::kCold;
  if (name == "serve_ladder") return Workload::kServe;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double elapsed_s(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class Bench {
 public:
  Bench(const Args& args, Workload workload)
      : args_(args), workload_(workload), root_(args.out_dir + "/work") {
    stamp_ = build_stamp();
    stamp_.workload = args.workload;
    stamp_.seed = args.seed;
    stamp_.source_id = args.source_id;
    campaign_.flow_seed = kFlowSeed;
    campaign_.threads = stamp_.pool_threads;
    if (args.smoke) {
      campaign_.datasets = {"seeds", "redwine"};
      campaign_.population = 8;
      campaign_.generations = 3;
      campaign_.train_epochs = 20;
      campaign_.finetune_epochs = 4;
      campaign_.ga_finetune_epochs = 1;
      designs_ = {6, 2, 20, 4};
      ladder_ = {1000, 4000.0, 2000, 20000.0, 3000, 32};
    }
    pnm::Rng rng(args.seed);
    shuffle(campaign_.datasets, rng);
    // Sanitizer builds check the gates at a load they can sustain.
    const int slow = pnm::build_info::timing_multiplier();
    ladder_.light_rate /= slow;
    ladder_.heavy_rate /= slow;
    ladder_.bulk_requests /= static_cast<std::size_t>(slow);
    fs::remove_all(root_);
  }

  ~Bench() {
    std::error_code ignored;
    fs::remove_all(root_, ignored);
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Runs the workload; returns the result object (last output line).
  std::string run() {
    const bool trace = args_.trace == 1;
    // setup_s is the median of several set-ups.
    const std::size_t setups = trace || args_.smoke ? 1 : 5;
    std::vector<double> setup_times;
    for (std::size_t i = 0; i < setups; ++i) {
      const Clock::time_point start = Clock::now();
      do_setup(i);
      setup_times.push_back(elapsed_s(start));
    }
    metrics_["setup_s"] = median(setup_times);
    ServeBench server(setup_);
    if (trace) {
      run_traced(server);
    } else {
      run_measured(server);
    }
    metrics_["peak_rss_mb"] = peak_rss_mb();
    metrics_["ok_frac"] =
        static_cast<double>(attempted_ - failed_) / static_cast<double>(attempted_);
    if (!trace) {
      // Only the end-to-end metrics leave a --trace 0 run.
      for (auto it = metrics_.begin(); it != metrics_.end();) {
        it = layer_metric(it->first) ? metrics_.erase(it) : std::next(it);
      }
    } else {
      for (auto it = metrics_.begin(); it != metrics_.end();) {
        it = layer_metric(it->first) ? std::next(it) : metrics_.erase(it);
      }
    }
    if (pnm::build_info::any_sanitizer()) metrics_.clear();  // gates only
    return result_json();
  }

 private:
  [[nodiscard]] bool has_campaign() const { return workload_ != Workload::kServe; }

  static bool layer_metric(const std::string& name) {
    return name.find('.') != std::string::npos;
  }

  std::string dir(const std::string& name) const { return root_ + "/" + name; }

  void do_setup(std::size_t index) {
    const std::string base = dir("setup" + std::to_string(index));
    fs::remove_all(base);
    ServeSetup s = make_served_designs(kFlowSeed, base + "/designs", designs_);
    pnm::Rng rng(args_.seed ^ 0x5E21E5EEDULL);
    for (ServedDesign& d : s.designs) shuffle(d.samples, rng);
    if (index > 0) {
      for (std::size_t d = 0; d < s.designs.size(); ++d) {
        gate(pnm::save_quantized_mlp_text(s.designs[d].model) ==
                 pnm::save_quantized_mlp_text(setup_.designs[d].model),
             "setup: served designs differ between set-ups");
      }
      fs::remove_all(dir("setup" + std::to_string(index - 1)));
    }
    setup_ = std::move(s);
  }

  /// One untraced cold campaign over a fresh store, which stays in place
  /// until the next repetition so that check_warm can resume it.
  CampaignOutcome campaign_rep() {
    const std::string store = dir("cold");
    fs::remove_all(store);
    const CampaignOutcome out = run_campaign(make_spec(campaign_, store));
    ++attempted_;
    check_campaign(out, "campaign");
    return out;
  }

  /// Resumes the campaign through CampaignRunner over `store`, which a
  /// cold run filled, untimed, and removes the store.
  void check_warm(const std::string& store) {
    const CampaignOutcome out = run_campaign(make_spec(campaign_, store));
    ++attempted_;
    check_resumed(out, "warm campaign");
    fs::remove_all(store);
  }

  /// A resumed campaign hits the store on every lookup and reproduces the
  /// cold run's fronts.
  void check_resumed(const CampaignOutcome& out, const std::string& what) {
    gate(out.cache_misses == 0 && out.cache_hits > 0 && out.store_loaded > 0,
         what + ": missed the store (" + std::to_string(out.cache_misses) + " misses)");
    gate(reference_fronts_ && out.fronts_json == *reference_fronts_,
         what + ": fronts differ from the cold run that filled the store");
  }

  static void check_books(const CampaignTrace& traced, const std::string& what) {
    gate(traced.books.error <= kReconcileBound,
         what + ": layer self times + pool idle miss the traced thread-time by " +
             fmt(traced.books.error * 100.0) + "% (" + fmt(traced.books.untraced_s) +
             " s untraced on the caller)");
  }

  void check_campaign(const CampaignOutcome& out, const std::string& what) {
    gate(out.cache_hits + out.cache_misses > 0 && out.store_loaded == 0,
         what + ": cold run loaded stored results");
    if (!reference_fronts_) {
      reference_fronts_ = out.fronts_json;
      reference_gain_ = out.area_gain_5pct;
    }
    gate(out.fronts_json == *reference_fronts_, what + ": fronts differ between runs");
    gate(out.area_gain_5pct == reference_gain_,
         what + ": area_gain_5pct differs between runs");
  }

  LadderResult ladder_rep(ServeBench& server, Tracer& tracer) {
    LadderResult ladder = server.run_ladder(ladder_, tracer);
    for (const PhaseResult& phase : ladder.phases) {
      attempted_ += phase.load.timings.size();
      failed_ += phase.load.failed;
      // Refused or unanswered requests only lower ok_frac; a wrong answer
      // or unbalanced server counters void the run.
      gate(phase.load.wrong == 0,
           phase.name + ": " + std::to_string(phase.load.wrong) + " of " +
               std::to_string(phase.load.timings.size()) +
               " responses were not bit-exact");
      const std::string balance = check_phase(phase);
      gate(balance.empty(), "server counters: " + balance);
    }
    return ladder;
  }

  void run_measured(ServeBench& server) {
    Tracer off(false);
    std::vector<double> campaign_walls;
    std::vector<double> ladder_walls;
    std::vector<double> bulk_rps;
    std::map<std::string, std::vector<double>> p50s;  // phase -> one per ladder
    std::map<std::string, std::vector<double>> p99s;
    double campaign_s = 0.0;
    double serve_s = 0.0;
    const std::size_t min_campaigns = has_campaign() ? 3 : 0;
    const std::size_t min_ladders = 3;
    const Clock::time_point start = Clock::now();
    while (true) {
      const bool need_campaign = campaign_walls.size() < min_campaigns;
      const bool need_ladder = ladder_walls.size() < min_ladders;
      if (elapsed_s(start) >= args_.seconds && !need_campaign && !need_ladder) break;
      // campaign_cold gives kCampaignShare of its time to campaign
      // repetitions and the rest to ladders.
      bool campaign_turn = false;
      if (has_campaign()) {
        campaign_turn = need_campaign != need_ladder
                            ? need_campaign
                            : campaign_s * (1.0 - kCampaignShare) <= serve_s * kCampaignShare;
      }
      const Clock::time_point step = Clock::now();
      if (campaign_turn) {
        campaign_walls.push_back(campaign_rep().wall_s);
        campaign_s += elapsed_s(step);
      } else {
        const LadderResult ladder = ladder_rep(server, off);
        ladder_walls.push_back(ladder.wall_s);
        for (const PhaseResult& phase : ladder.phases) {
          if (phase.name == "bulk") {
            bulk_rps.push_back(static_cast<double>(phase.load.received) /
                               phase.load.duration_s);
          } else {
            const std::vector<double> lat = phase.load.latencies_us();
            // A p99 needs at least 10 samples beyond it.
            gate(static_cast<double>(lat.size()) * 0.01 >= 10.0,
                 phase.name + ": too few latency samples for a p99");
            p50s[phase.name].push_back(percentile(lat, 50.0));
            p99s[phase.name].push_back(percentile(lat, 99.0));
            samples_[phase.name + "_us"] += lat.size();
          }
        }
        serve_s += elapsed_s(step);
      }
    }
    if (has_campaign()) check_warm(dir("cold"));

    // Medians over the run's repetitions and ladders.  With the serve
    // ladder pinned to one CPU, the median ladder moved less from run to
    // run than the fastest ladders did (README).
    metrics_["wall_s"] = median(has_campaign() ? campaign_walls : ladder_walls);
    metrics_["area_gain_5pct"] =
        has_campaign() ? reference_gain_ : setup_.area_gain_5pct;
    for (const auto& [phase, values] : p50s) {
      metrics_[phase + "_p50_us"] = median(values);
      metrics_[phase + "_p99_us"] = median(p99s[phase]);
    }
    metrics_["bulk_rps"] = median(bulk_rps);
    samples_["ladders"] = ladder_walls.size();
    samples_["wall_s"] = has_campaign() ? campaign_walls.size() : ladder_walls.size();
  }

  void run_traced(ServeBench& server) {
    if (has_campaign()) {
      const std::string traced_store = dir("cold_traced");
      const CampaignOutcome untraced = run_campaign(make_spec(campaign_, dir("cold_untraced")));
      ++attempted_;
      check_campaign(untraced, "untraced campaign");
      Tracer tracer(true);
      const CampaignTrace traced =
          run_traced_campaign(make_spec(campaign_, traced_store), tracer);
      ++attempted_;
      check_campaign(traced.outcome, "traced campaign");
      check_books(traced, "traced campaign");
      metrics_.insert(traced.metrics.begin(), traced.metrics.end());
      metrics_["trace.overhead_s"] = traced.outcome.wall_s - untraced.wall_s;
      write_trace(tracer, "campaign");

      // The warm path: the same campaign resumed, traced, over the store
      // the traced cold run filled, then once more through CampaignRunner.
      Tracer warm_tracer(true);
      const CampaignTrace warm =
          run_traced_campaign(make_spec(campaign_, traced_store), warm_tracer);
      ++attempted_;
      check_resumed(warm.outcome, "traced warm campaign");
      check_books(warm, "traced warm campaign");
      for (const std::string& name : kWarmLayerMetrics) {
        metrics_["warm." + name] = warm.metrics.at(name);
      }
      write_trace(warm_tracer, "warm");
      check_warm(traced_store);
    } else {
      for (const std::string& name : campaign_layer_metric_names()) metrics_[name] = 0.0;
      for (const std::string& name : kWarmLayerMetrics) metrics_["warm." + name] = 0.0;
      metrics_["trace.overhead_s"] = 0.0;
    }
    Tracer tracer(true);
    const LadderResult ladder = ladder_rep(server, tracer);
    for (const PhaseResult& phase : ladder.phases) add_phase_layer_metrics(phase, metrics_);
    add_infer_layer_metrics(setup_, metrics_);
    add_codec_layer_metric(setup_, metrics_);
    write_trace(tracer, "serve");
  }

  void write_trace(const Tracer& tracer, const std::string& part) {
    const std::string path = args_.out_dir + "/trace-" + args_.workload + "-s" +
                             std::to_string(args_.seed) + "-" + part + ".tsv";
    gate(tracer.write_tsv(path), "cannot write " + path);
  }

  std::string result_json() const {
    std::ostringstream out;
    out << "{\"stamp\": " << stamp_json(stamp_) << ", \"samples\": {";
    const char* sep = "";
    for (const auto& [name, n] : samples_) {
      out << sep << '"' << name << "\": " << n;
      sep = ", ";
    }
    out << "}, \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    sep = "";
    for (const auto& [name, value] : metrics_) {
      out << sep << '"' << name << "\": " << fmt(value);
      sep = ", ";
    }
    out << "}}";
    return out.str();
  }

  Args args_;
  Workload workload_;
  std::string root_;
  Stamp stamp_;
  CampaignSettings campaign_;
  DesignSettings designs_;
  LadderSettings ladder_;
  ServeSetup setup_;
  std::optional<std::string> reference_fronts_;
  double reference_gain_ = 0.0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::size_t> samples_;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload workload = parse_workload(args.workload);
    fs::create_directories(args.out_dir);
    Bench bench(args, workload);
    const std::string result = bench.run();
    std::cout << result << std::endl;
    return EXIT_SUCCESS;
  } catch (const GateFailure& e) {
    std::cerr << "GATE FAILED: " << e.what() << std::endl;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << std::endl;
    return 1;
  }
}
