#include "pnm/core/campaign.hpp"

#include <chrono>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "pnm/core/eval_store.hpp"
#include "pnm/hw/mcm.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/table.hpp"

namespace pnm {
namespace {

void append_kv(std::string& out, const char* key, const std::string& value) {
  out += key;
  out += '=';
  out += value;
  out += ';';
}

std::string bool_str(bool b) { return b ? "1" : "0"; }

constexpr char kCellMagic[] = "pnm-campaign-cell";
// v2: the stats line gained the cell's MCM plan-cache hit/miss counters.
constexpr int kCellVersion = 2;

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines = split_fields(text, '\n');
  // A trailing newline (every well-formed cell file has one) is not an
  // empty final line.
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

/// parse_u64_strict (util/fileio.hpp) narrowed to the size_t counters.
std::optional<std::size_t> parse_size_strict(std::string_view token) {
  const std::optional<std::uint64_t> v = parse_u64_strict(token);
  if (!v || *v > std::numeric_limits<std::size_t>::max()) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

std::string cell_name(const std::string& dataset, std::uint64_t seed) {
  return dataset + "_s" + std::to_string(seed);
}

std::string cell_file_path(const std::string& store_dir, const std::string& dataset,
                           std::uint64_t seed) {
  return store_dir + "/cells/" + cell_name(dataset, seed) + ".cell";
}

/// One JSON object per design point; doubles round-trip exactly, so the
/// same DesignPoint always renders to the same bytes.
std::string point_json(const DesignPoint& p) {
  std::string out = "{\"genome\": \"" + json_escape(p.config) + "\"";
  out += ", \"technique\": \"" + json_escape(p.technique) + "\"";
  out += ", \"accuracy\": " + format_double_roundtrip(p.accuracy);
  out += ", \"area_mm2\": " + format_double_roundtrip(p.area_mm2);
  out += ", \"power_uw\": " + format_double_roundtrip(p.power_uw);
  out += ", \"delay_ms\": " + format_double_roundtrip(p.delay_ms);
  out += "}";
  return out;
}

std::string front_json(const std::vector<DesignPoint>& front,
                       const std::string& indent) {
  std::string out = "[";
  for (std::size_t i = 0; i < front.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n") + indent + "  " + point_json(front[i]);
  }
  out += front.empty() ? "]" : "\n" + indent + "]";
  return out;
}

template <typename T>
void require_unique_nonempty(const std::vector<T>& values, const char* what) {
  if (values.empty()) {
    throw std::invalid_argument(std::string("CampaignSpec: ") + what +
                                " list must be non-empty");
  }
  std::unordered_set<T> seen;
  for (const T& v : values) {
    if (!seen.insert(v).second) {
      throw std::invalid_argument(std::string("CampaignSpec: duplicate ") + what);
    }
  }
}

}  // namespace

std::string eval_fingerprint(const FlowConfig& flow, const EvalConfig& eval,
                             const std::string& backend) {
  // Canonical text over every knob that can change an evaluation result.
  // Hashing the text (rather than concatenating fields positionally)
  // keeps the fingerprint one short whitespace-free token while staying
  // sensitive to each field.
  std::string canon;
  canon.reserve(512);
  append_kv(canon, "store_version", std::to_string(EvalStore::kFormatVersion));
  append_kv(canon, "backend", backend);
  append_kv(canon, "dataset", flow.dataset_name);
  append_kv(canon, "flow_seed", std::to_string(flow.seed));
  // Tech node: the cost side of every stored DesignPoint is priced in this
  // library, so results from different nodes must never share a store.
  append_kv(canon, "tech", flow.tech_name);
  // Resolve defaulted hidden widths so "default" and "explicitly the
  // default" fingerprint identically.
  const std::vector<std::size_t> hidden =
      flow.hidden.empty() ? MinimizationFlow::default_hidden(flow.dataset_name)
                          : flow.hidden;
  std::string hidden_str;
  for (std::size_t h : hidden) hidden_str += std::to_string(h) + ",";
  append_kv(canon, "hidden", hidden_str);
  append_kv(canon, "baseline_bits", std::to_string(flow.baseline_weight_bits));
  append_kv(canon, "train_frac", format_double_roundtrip(flow.train_frac));
  append_kv(canon, "val_frac", format_double_roundtrip(flow.val_frac));
  append_kv(canon, "test_frac", format_double_roundtrip(flow.test_frac));
  // Baseline training recipe (identical in eval.train, serialized once).
  const TrainConfig& t = flow.train;
  append_kv(canon, "train_epochs", std::to_string(t.epochs));
  append_kv(canon, "batch", std::to_string(t.batch_size));
  append_kv(canon, "lr", format_double_roundtrip(t.lr));
  append_kv(canon, "lr_decay", format_double_roundtrip(t.lr_decay));
  append_kv(canon, "momentum", format_double_roundtrip(t.momentum));
  append_kv(canon, "weight_decay", format_double_roundtrip(t.weight_decay));
  append_kv(canon, "optimizer", std::to_string(static_cast<int>(t.optimizer)));
  append_kv(canon, "adam_beta1", format_double_roundtrip(t.adam_beta1));
  append_kv(canon, "adam_beta2", format_double_roundtrip(t.adam_beta2));
  append_kv(canon, "adam_eps", format_double_roundtrip(t.adam_eps));
  append_kv(canon, "shuffle", bool_str(t.shuffle));
  // Evaluation-side knobs.
  append_kv(canon, "eval_seed", std::to_string(eval.seed));
  append_kv(canon, "input_bits", std::to_string(eval.input_bits));
  append_kv(canon, "finetune_epochs", std::to_string(eval.finetune_epochs));
  append_kv(canon, "cluster_scope",
            std::to_string(static_cast<int>(eval.cluster_scope)));
  append_kv(canon, "share_when_clustered", bool_str(eval.share_only_when_clustered));
  append_kv(canon, "share_products", bool_str(eval.bespoke.share_products));
  append_kv(canon, "use_csd", bool_str(eval.bespoke.use_csd));
  append_kv(canon, "share_subexpr", bool_str(eval.bespoke.share_subexpressions));
  append_kv(canon, "use_test_set", bool_str(eval.use_test_set));
  // Fine-tuning float-math generation: the fast-math softmax and the
  // sample-blocked backprop are accuracy-neutral but not bit-identical to
  // the libm/per-sample path, so stored results never silently mix modes.
  append_kv(canon, "finetune_math",
            std::string(softmax_fast_math() ? "fast" : "libm") + "-" +
                (blocked_backprop() ? "blocked" : "persample"));
  return fnv1a64_hex(canon);
}

void CampaignSpec::validate() const {
  require_unique_nonempty(datasets, "dataset");
  for (const std::string& d : datasets) {
    if (d.empty()) throw std::invalid_argument("CampaignSpec: empty dataset name");
  }
  require_unique_nonempty(seeds, "seed");
  ga.validate();
}

std::string cell_fingerprint(const CampaignSpec& spec, const std::string& dataset,
                             std::uint64_t seed) {
  FlowConfig cell = spec.base;
  cell.dataset_name = dataset;
  cell.seed = seed;
  // The two store fingerprints already cover everything evaluation-side
  // (dataset, seed, topology, recipe, bits, sharing, backend, split); the
  // GA knobs on top decide which genomes get evaluated and in what
  // order, so they shape the front too.
  std::string canon;
  canon.reserve(512);
  append_kv(canon, "cell_version", std::to_string(kCellVersion));
  append_kv(canon, "proxy_fp",
            eval_fingerprint(cell,
                             MinimizationFlow::eval_config_for(
                                 cell, spec.ga_finetune_epochs, false),
                             "proxy"));
  append_kv(canon, "netlist_fp",
            eval_fingerprint(cell,
                             MinimizationFlow::eval_config_for(
                                 cell, cell.finetune_epochs, true),
                             "netlist"));
  append_kv(canon, "population", std::to_string(spec.ga.population));
  append_kv(canon, "generations", std::to_string(spec.ga.generations));
  append_kv(canon, "crossover", format_double_roundtrip(spec.ga.crossover_prob));
  append_kv(canon, "mutation", format_double_roundtrip(spec.ga.mutation_prob));
  append_kv(canon, "min_bits", std::to_string(spec.ga.min_bits));
  append_kv(canon, "max_bits", std::to_string(spec.ga.max_bits));
  std::string choices;
  for (int s : spec.ga.sparsity_choices) choices += std::to_string(s) + ",";
  append_kv(canon, "sparsity_choices", choices);
  choices.clear();
  for (int c : spec.ga.cluster_choices) choices += std::to_string(c) + ",";
  append_kv(canon, "cluster_choices", choices);
  choices.clear();
  for (int t : spec.ga.acc_shift_choices) choices += std::to_string(t) + ",";
  append_kv(canon, "acc_shift_choices", choices);
  append_kv(canon, "ga_finetune", std::to_string(spec.ga_finetune_epochs));
  return fnv1a64_hex(canon);
}

// ---- Cell result files --------------------------------------------------

std::string format_cell_result(const CampaignRunResult& run,
                               const std::string& cell_fp) {
  std::string out = std::string(kCellMagic) + " v" + std::to_string(kCellVersion) +
                    " " + cell_fp + "\n";
  out += "dataset\t" + run.dataset + "\n";
  out += "seed\t" + std::to_string(run.seed) + "\n";
  out += "stats\t" + std::to_string(run.distinct_evaluations) + "\t" +
         std::to_string(run.cache_hits) + "\t" + std::to_string(run.cache_misses) +
         "\t" + std::to_string(run.store_loaded) + "\t" +
         std::to_string(run.mcm_hits) + "\t" + std::to_string(run.mcm_misses) +
         "\t" + format_double_roundtrip(run.seconds) + "\n";
  out += format_eval_record("baseline", run.baseline);
  out += "front\t" + std::to_string(run.front.size()) + "\n";
  for (const DesignPoint& p : run.front) out += format_eval_record("point", p);
  return out;
}

std::optional<CampaignRunResult> parse_cell_result(std::string_view text,
                                                   const std::string& cell_fp) {
  const std::vector<std::string_view> lines = split_lines(text);
  // Header, dataset, seed, stats, baseline, front count — then the front.
  if (lines.size() < 6) return std::nullopt;
  {
    const std::vector<std::string_view> tokens = split_fields(lines[0], ' ');
    if (tokens.size() != 3 || tokens[0] != kCellMagic ||
        tokens[1] != "v" + std::to_string(kCellVersion) || tokens[2] != cell_fp) {
      return std::nullopt;
    }
  }
  CampaignRunResult run;
  constexpr std::string_view kDatasetTag = "dataset\t";
  if (lines[1].substr(0, kDatasetTag.size()) != kDatasetTag) return std::nullopt;
  run.dataset.assign(lines[1].substr(kDatasetTag.size()));
  if (run.dataset.empty()) return std::nullopt;

  constexpr std::string_view kSeedTag = "seed\t";
  if (lines[2].substr(0, kSeedTag.size()) != kSeedTag) return std::nullopt;
  const auto seed = parse_u64_strict(lines[2].substr(kSeedTag.size()));
  if (!seed) return std::nullopt;
  run.seed = *seed;

  constexpr std::string_view kStatsTag = "stats\t";
  if (lines[3].substr(0, kStatsTag.size()) != kStatsTag) return std::nullopt;
  {
    const std::vector<std::string_view> fields =
        split_fields(lines[3].substr(kStatsTag.size()), '\t');
    if (fields.size() != 7) return std::nullopt;
    const auto distinct = parse_size_strict(fields[0]);
    const auto hits = parse_size_strict(fields[1]);
    const auto misses = parse_size_strict(fields[2]);
    const auto loaded = parse_size_strict(fields[3]);
    const auto mcm_hits = parse_size_strict(fields[4]);
    const auto mcm_misses = parse_size_strict(fields[5]);
    const auto seconds = parse_double_strict(fields[6]);
    if (!distinct || !hits || !misses || !loaded || !mcm_hits || !mcm_misses ||
        !seconds) {
      return std::nullopt;
    }
    run.distinct_evaluations = *distinct;
    run.cache_hits = *hits;
    run.cache_misses = *misses;
    run.store_loaded = *loaded;
    run.mcm_hits = *mcm_hits;
    run.mcm_misses = *mcm_misses;
    run.seconds = *seconds;
  }

  std::string tag;
  if (!parse_eval_record(lines[4], tag, run.baseline) || tag != "baseline") {
    return std::nullopt;
  }

  constexpr std::string_view kFrontTag = "front\t";
  if (lines[5].substr(0, kFrontTag.size()) != kFrontTag) return std::nullopt;
  const auto front_size = parse_size_strict(lines[5].substr(kFrontTag.size()));
  if (!front_size) return std::nullopt;
  if (lines.size() != 6 + *front_size) return std::nullopt;
  run.front.reserve(*front_size);
  for (std::size_t i = 0; i < *front_size; ++i) {
    DesignPoint point;
    if (!parse_eval_record(lines[6 + i], tag, point) || tag != "point") {
      return std::nullopt;
    }
    run.front.push_back(std::move(point));
  }
  return run;
}

// ---- CampaignResult -----------------------------------------------------

std::size_t CampaignResult::total_cache_hits() const {
  std::size_t n = 0;
  for (const CampaignRunResult& r : runs) n += r.cache_hits;
  return n;
}

std::size_t CampaignResult::total_cache_misses() const {
  std::size_t n = 0;
  for (const CampaignRunResult& r : runs) n += r.cache_misses;
  return n;
}

std::size_t CampaignResult::total_store_loaded() const {
  std::size_t n = 0;
  for (const CampaignRunResult& r : runs) n += r.store_loaded;
  return n;
}

double CampaignResult::cache_hit_rate() const {
  const std::size_t hits = total_cache_hits();
  const std::size_t total = hits + total_cache_misses();
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

std::size_t CampaignResult::total_mcm_hits() const {
  std::size_t n = 0;
  for (const CampaignRunResult& r : runs) n += r.mcm_hits;
  return n;
}

std::size_t CampaignResult::total_mcm_misses() const {
  std::size_t n = 0;
  for (const CampaignRunResult& r : runs) n += r.mcm_misses;
  return n;
}

double CampaignResult::mcm_plan_hit_rate() const {
  const std::size_t hits = total_mcm_hits();
  const std::size_t total = hits + total_mcm_misses();
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

std::vector<DesignPoint> CampaignResult::merged_front(
    const std::string& dataset) const {
  std::vector<DesignPoint> all;
  for (const CampaignRunResult& r : runs) {
    if (r.dataset != dataset) continue;
    all.insert(all.end(), r.front.begin(), r.front.end());
  }
  return pareto_front(std::move(all));
}

std::string CampaignResult::fronts_json() const {
  std::string out = "{\n  \"datasets\": [";
  bool first_dataset = true;
  for (const std::string& dataset : datasets) {
    out += first_dataset ? "\n" : ",\n";
    first_dataset = false;
    out += "    {\"dataset\": \"" + json_escape(dataset) + "\", \"runs\": [";
    bool first_run = true;
    for (const CampaignRunResult& r : runs) {
      if (r.dataset != dataset) continue;
      out += first_run ? "\n" : ",\n";
      first_run = false;
      out += "      {\"seed\": " + std::to_string(r.seed) +
             ", \"front\": " + front_json(r.front, "      ") + "}";
    }
    out += "\n    ], \"merged_front\": " + front_json(merged_front(dataset), "    ") +
           "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string CampaignResult::report_json() const {
  std::string out = "{\n";
  out += "  \"total_cache_hits\": " + std::to_string(total_cache_hits()) + ",\n";
  out += "  \"total_cache_misses\": " + std::to_string(total_cache_misses()) + ",\n";
  out += "  \"total_store_loaded\": " + std::to_string(total_store_loaded()) + ",\n";
  out += "  \"cache_hit_rate\": " + format_double_roundtrip(cache_hit_rate()) + ",\n";
  out += "  \"total_mcm_plan_hits\": " + std::to_string(total_mcm_hits()) + ",\n";
  out += "  \"total_mcm_plan_misses\": " + std::to_string(total_mcm_misses()) + ",\n";
  out += "  \"mcm_plan_hit_rate\": " + format_double_roundtrip(mcm_plan_hit_rate()) +
         ",\n";
  out += "  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CampaignRunResult& r = runs[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\"dataset\": \"" + json_escape(r.dataset) + "\"";
    out += ", \"seed\": " + std::to_string(r.seed);
    out += ", \"distinct_evaluations\": " + std::to_string(r.distinct_evaluations);
    out += ", \"cache_hits\": " + std::to_string(r.cache_hits);
    out += ", \"cache_misses\": " + std::to_string(r.cache_misses);
    out += ", \"store_loaded\": " + std::to_string(r.store_loaded);
    out += ", \"mcm_plan_hits\": " + std::to_string(r.mcm_hits);
    out += ", \"mcm_plan_misses\": " + std::to_string(r.mcm_misses);
    out += ", \"seconds\": " + format_double_roundtrip(r.seconds);
    out += ",\n     \"baseline\": " + point_json(r.baseline);
    out += ",\n     \"front\": " + front_json(r.front, "     ") + "}";
  }
  out += "\n  ],\n  \"fronts\": " + fronts_json();
  // fronts_json ends with "}\n"; splice it in as a nested object.
  out.erase(out.size() - 1);
  out += "\n}\n";
  return out;
}

std::string CampaignResult::report_markdown() const {
  std::string out = "# GA campaign report\n";
  for (const std::string& dataset : datasets) {
    out += "\n## " + dataset + "\n\n";
    out += "| seed | genome | accuracy | area mm^2 | gain vs baseline |\n";
    out += "| ---- | ------ | -------- | --------- | ---------------- |\n";
    for (const CampaignRunResult& r : runs) {
      if (r.dataset != dataset) continue;
      for (const DesignPoint& p : r.front) {
        const double gain =
            p.area_mm2 > 0.0 ? r.baseline.area_mm2 / p.area_mm2 : 0.0;
        out += "| " + std::to_string(r.seed) + " | `" + p.config + "` | " +
               format_fixed(p.accuracy, 3) + " | " + format_fixed(p.area_mm2, 2) +
               " | " + format_factor(gain) + " |\n";
      }
    }
    const std::vector<DesignPoint> merged = merged_front(dataset);
    out += "\nMerged front across seeds (" + std::to_string(merged.size()) +
           " non-dominated designs):\n\n";
    out += "| genome | accuracy | area mm^2 |\n";
    out += "| ------ | -------- | --------- |\n";
    for (const DesignPoint& p : merged) {
      out += "| `" + p.config + "` | " + format_fixed(p.accuracy, 3) + " | " +
             format_fixed(p.area_mm2, 2) + " |\n";
    }
  }
  out += "\n## Evaluation cache\n\n";
  out += "| dataset | seed | GA evals | hits | misses | preloaded | MCM hits | "
         "MCM misses | seconds |\n";
  out += "| ------- | ---- | -------- | ---- | ------ | --------- | -------- | "
         "---------- | ------- |\n";
  for (const CampaignRunResult& r : runs) {
    out += "| " + r.dataset + " | " + std::to_string(r.seed) + " | " +
           std::to_string(r.distinct_evaluations) + " | " +
           std::to_string(r.cache_hits) + " | " + std::to_string(r.cache_misses) +
           " | " + std::to_string(r.store_loaded) + " | " +
           std::to_string(r.mcm_hits) + " | " + std::to_string(r.mcm_misses) +
           " | " + format_fixed(r.seconds, 2) + " |\n";
  }
  out += "\nTotals: " + std::to_string(total_cache_hits()) + " hits, " +
         std::to_string(total_cache_misses()) + " misses (hit rate " +
         format_fixed(cache_hit_rate() * 100.0, 1) + "%), " +
         std::to_string(total_store_loaded()) + " records preloaded from disk.\n";
  out += "MCM plan cache: " + std::to_string(total_mcm_hits()) + " hits, " +
         std::to_string(total_mcm_misses()) + " misses (hit rate " +
         format_fixed(mcm_plan_hit_rate() * 100.0, 1) + "%).\n";
  return out;
}

// ---- CampaignRunner -----------------------------------------------------

CampaignRunner::CampaignRunner(CampaignSpec spec)
    : spec_((spec.validate(), std::move(spec))), pool_(spec_.threads) {}

CampaignResult CampaignRunner::run() {
  if (!spec_.store_dir.empty()) {
    std::filesystem::create_directories(spec_.store_dir);
  }
  // Every cell is one iteration of a parallel_for on the campaign's pool,
  // and fans its own generations over the same pool: a thread waiting on
  // one cell's batch runs another cell's genomes instead of parking (see
  // ThreadPool::parallel_for).  Cells are pure functions of (spec,
  // dataset, seed), so the overlap leaves every front unchanged.
  CampaignResult result;
  result.datasets = spec_.datasets;
  const std::size_t n_seeds = spec_.seeds.size();
  result.runs.resize(spec_.datasets.size() * n_seeds);
  pool_.parallel_for(result.runs.size(), [&](std::size_t cell) {
    result.runs[cell] = run_cell(spec_.datasets[cell / n_seeds], spec_.seeds[cell % n_seeds]);
  });
  return result;
}

CampaignRunResult CampaignRunner::run_cell(const std::string& dataset,
                                           std::uint64_t seed) {
  const auto start = std::chrono::steady_clock::now();
  // MCM plan-cache lookups of this cell, wherever they run: both the
  // proxy's area pricing and the netlist generator's front re-evaluation
  // go through hw::plan_mcm_cached, on this thread or on the pool threads
  // its ParallelEvaluators hand the tally to.
  hw::McmTally mcm;
  const hw::McmTallyScope mcm_scope(&mcm);

  FlowConfig config = spec_.base;
  config.dataset_name = dataset;
  config.seed = seed;
  MinimizationFlow flow(config);
  flow.prepare();

  // The two backends of the Fig. 2 search: fast proxy fitness on the
  // validation split, exact netlist re-evaluation on the test split.
  ProxyEvaluator proxy = flow.proxy_evaluator(spec_.ga_finetune_epochs);
  NetlistEvaluator netlist =
      flow.netlist_evaluator(config.finetune_epochs, /*use_test_set=*/true);
  ParallelEvaluator proxy_parallel(proxy, pool_);      // borrowed workers
  ParallelEvaluator netlist_parallel(netlist, pool_);  // borrowed workers

  // Persistent stores (when enabled): one file per run x backend, named
  // by cell + fingerprint so a config change opens a fresh file instead
  // of invalidating the old one.
  std::optional<EvalStore> proxy_store;
  std::optional<EvalStore> netlist_store;
  std::optional<CachedEvaluator> fitness;
  std::optional<CachedEvaluator> front_eval;
  if (!spec_.store_dir.empty()) {
    const std::string proxy_fp = eval_fingerprint(
        config, flow.eval_config(spec_.ga_finetune_epochs, false), "proxy");
    const std::string netlist_fp = eval_fingerprint(
        config, flow.eval_config(config.finetune_epochs, true), "netlist");
    const std::string stem =
        spec_.store_dir + "/" + dataset + "_s" + std::to_string(seed);
    proxy_store.emplace(stem + "_proxy_" + proxy_fp + ".evalstore", proxy_fp,
                        spec_.writer_id);
    netlist_store.emplace(stem + "_netlist_" + netlist_fp + ".evalstore",
                          netlist_fp, spec_.writer_id);
    fitness.emplace(proxy_parallel, *proxy_store);
    front_eval.emplace(netlist_parallel, *netlist_store);
  } else {
    fitness.emplace(proxy_parallel);
    front_eval.emplace(netlist_parallel);
  }

  const MinimizationFlow::GaOutcome outcome =
      flow.run_ga(*fitness, *front_eval, spec_.ga);

  CampaignRunResult run;
  run.dataset = dataset;
  run.seed = seed;
  run.baseline = flow.baseline();
  run.front = outcome.front;
  run.distinct_evaluations = outcome.raw.evaluations;
  run.cache_hits = fitness->hits() + front_eval->hits();
  run.cache_misses = fitness->misses() + front_eval->misses();
  run.store_loaded = fitness->loaded() + front_eval->loaded();
  run.mcm_hits = static_cast<std::size_t>(mcm.hits.load());
  run.mcm_misses = static_cast<std::size_t>(mcm.misses.load());
  run.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
  return run;
}

CampaignWorkerResult CampaignRunner::run_worker(std::size_t shard_id,
                                                std::size_t num_shards) {
  if (spec_.store_dir.empty()) {
    throw std::invalid_argument(
        "CampaignRunner::run_worker: a store_dir is required — the claim "
        "files, cell results, and eval stores all live there");
  }
  if (num_shards == 0 || shard_id >= num_shards) {
    throw std::invalid_argument(
        "CampaignRunner::run_worker: need num_shards >= 1 and shard_id < "
        "num_shards");
  }
  const auto start = std::chrono::steady_clock::now();
  const std::string claims_dir = spec_.store_dir + "/claims";
  if (!create_directories(claims_dir) ||
      !create_directories(spec_.store_dir + "/cells")) {
    throw std::runtime_error("CampaignRunner::run_worker: cannot create " +
                             spec_.store_dir + "/{claims,cells}");
  }

  CampaignWorkerResult out;
  std::size_t index = 0;
  for (const std::string& dataset : spec_.datasets) {
    for (std::uint64_t seed : spec_.seeds) {
      const std::size_t cell_index = index++;
      if (cell_index % num_shards != shard_id) {
        ++out.cells_skipped_other_shard;
        continue;
      }
      const std::string cell_path = cell_file_path(spec_.store_dir, dataset, seed);
      const std::string fp = cell_fingerprint(spec_, dataset, seed);
      const auto published = [&] {
        const std::optional<std::string> text = read_text_file(cell_path);
        return text && parse_cell_result(*text, fp).has_value();
      };
      if (published()) {
        ++out.cells_skipped_done;
        continue;
      }
      const std::optional<FileLock> claim = FileLock::try_exclusive(
          claims_dir + "/" + cell_name(dataset, seed) + ".claim");
      if (!claim) {
        // A *live* process holds the claim (a dead one's flock would have
        // been released by the kernel); it will publish the cell itself.
        ++out.cells_skipped_claimed;
        continue;
      }
      if (published()) {
        // Raced: the previous owner published between our check and our
        // claim.  Nothing to recompute.
        ++out.cells_skipped_done;
        continue;
      }
      const CampaignRunResult run = run_cell(dataset, seed);
      if (!write_text_file_atomic(cell_path, format_cell_result(run, fp))) {
        throw std::runtime_error(
            "CampaignRunner::run_worker: cannot publish cell result " +
            cell_path);
      }
      ++out.cells_run;
    }
  }
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
  return out;
}

std::optional<CampaignResult> collect_campaign(const CampaignSpec& spec) {
  spec.validate();
  if (spec.store_dir.empty()) {
    throw std::invalid_argument(
        "collect_campaign: a store_dir is required — cell results live there");
  }
  CampaignResult result;
  result.datasets = spec.datasets;
  for (const std::string& dataset : spec.datasets) {
    for (std::uint64_t seed : spec.seeds) {
      const std::optional<std::string> text =
          read_text_file(cell_file_path(spec.store_dir, dataset, seed));
      if (!text) return std::nullopt;
      std::optional<CampaignRunResult> run =
          parse_cell_result(*text, cell_fingerprint(spec, dataset, seed));
      if (!run) return std::nullopt;
      result.runs.push_back(std::move(*run));
    }
  }
  return result;
}

}  // namespace pnm
