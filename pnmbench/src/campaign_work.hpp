#ifndef PNMBENCH_CAMPAIGN_WORK_HPP
#define PNMBENCH_CAMPAIGN_WORK_HPP

/// \file campaign_work.hpp
/// \brief The campaign workloads: Fig. 2 campaigns over the four paper
///        datasets, cold (empty store) or warm (store filled by a prior
///        cold run), untraced through CampaignRunner::run or traced
///        through a copy of the campaign cell assembled here from public
///        calls.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pnm/core/campaign.hpp"
#include "trace.hpp"

namespace pnmbench {

/// The campaign_main / Fig. 2 settings.  `datasets`, `flow_seed` and the
/// GA/training sizes are knobs only so the smoke test can shrink them.
struct CampaignSettings {
  std::vector<std::string> datasets = {"seeds", "redwine", "whitewine", "pendigits"};
  std::uint64_t flow_seed = 42;
  std::size_t population = 32;
  std::size_t generations = 20;
  std::size_t train_epochs = 60;
  std::size_t finetune_epochs = 8;
  std::size_t ga_finetune_epochs = 2;
  std::size_t threads = 1;  ///< pool workers; the caller thread also runs work
};

/// What one campaign run produced.
struct CampaignOutcome {
  double wall_s = 0.0;
  std::string fronts_json;        ///< CampaignResult::fronts_json bytes
  double area_gain_5pct = 0.0;    ///< geo-mean over datasets
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t store_loaded = 0;
};

/// The campaign spec for `settings`, persisting into `store_dir`.
pnm::CampaignSpec make_spec(const CampaignSettings& settings,
                            const std::string& store_dir);

/// Geometric mean over the campaign's datasets of
/// best_area_gain_at_loss(merged front, baseline, 0.05); a dataset with
/// no design inside the 5% budget keeps its baseline (gain 1).
double area_gain_5pct(const pnm::CampaignResult& result);

/// Runs `spec` through CampaignRunner::run, timing runner construction
/// plus run().  The MCM plan cache is reset first, so every run starts
/// as a fresh process would.
CampaignOutcome run_campaign(const pnm::CampaignSpec& spec);

/// Reconciliation::error of a traced campaign may not exceed this share.
constexpr double kReconcileBound = 0.01;

/// Per-layer numbers of one traced campaign.
struct CampaignTrace {
  CampaignOutcome outcome;
  std::map<std::string, double> metrics;  ///< per-layer metric -> value
  std::size_t workers = 0;  ///< pool workers; parallel_for also runs on the caller
  Reconciliation books;     ///< root "campaign", pool "util.pool", task "core.eval"
  std::vector<Span> spans;
};

/// Every per-layer metric run_traced_campaign reports (a workload that
/// runs no campaign reports them as 0).
const std::vector<std::string>& campaign_layer_metric_names();

/// Runs the same campaign as run_campaign, cell by cell, through the
/// benchmark's traced copy of the campaign cell (same evaluator stack,
/// same store files), recording spans around every layer call.
CampaignTrace run_traced_campaign(const pnm::CampaignSpec& spec, Tracer& tracer);

}  // namespace pnmbench

#endif  // PNMBENCH_CAMPAIGN_WORK_HPP
