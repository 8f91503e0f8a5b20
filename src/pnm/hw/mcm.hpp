#ifndef PNM_HW_MCM_HPP
#define PNM_HW_MCM_HPP

/// \file mcm.hpp
/// \brief Multiple-constant-multiplication planning: one shared shift-add
///        DAG per input column instead of one chain per coefficient.
///
/// The per-coefficient generator (hw/constmult.hpp) prices each |weight|
/// independently: w*x costs nonzero_digits(w) - 1 adders.  But all the
/// multipliers of one input column share the same x, so classic MCM
/// common-subexpression elimination applies: 5x and 13x both contain the
/// subterm 4x + x, so building t = 4x + x once lets 5x = t (free) and
/// 13x = t + 8x (one adder) — three adders become two.
///
/// plan_mcm() runs a greedy Hartley-style CSE over the signed-digit
/// decompositions of the coefficient set: repeatedly find the two-term
/// subexpression (an odd "fundamental" value) that occurs most often
/// across the current decompositions, materialize it as a shared DAG node
/// (one adder), and rewrite every disjoint occurrence to reference the
/// node.  Each extraction with k >= 2 occurrences saves k - 1 adders, so
/// the plan's adder count is never worse than the independent chains and
/// strictly better whenever any subterm repeats.  The search is fully
/// deterministic (value-ordered tie-breaks, no RNG), which the
/// reproducibility of the evaluation pipeline relies on.
///
/// The planner is pure arithmetic — no netlist types — so the area proxy
/// (hw/proxy.hpp) can price the shared DAG without building it; the
/// gate-level lowering lives in const_mult_shared (hw/constmult.hpp).
/// For exact-synthesis flavored subexpression search over general logic,
/// see percy (Soeken et al.), which this greedy planner is a lightweight
/// arithmetic-domain cousin of.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "pnm/hw/constmult.hpp"

namespace pnm::hw {

/// One signed, shifted reference to an available value in the DAG:
/// contributes +-(value << shift) * x.  `value` is 1 (the column input
/// itself) or the value of an earlier McmNode.
struct McmTerm {
  std::int64_t value = 1;  ///< odd positive fundamental (1 or a node value)
  int shift = 0;           ///< left shift applied to the referenced word
  bool positive = true;    ///< sign of the contribution
};

/// One shared adder of the DAG: value = a + b (as signed shifted terms).
/// Node values are odd and > 1; `a` is always a positive term so the
/// lowering never needs an explicit negation row.
struct McmNode {
  std::int64_t value = 0;
  McmTerm a;
  McmTerm b;
};

/// A planned shared shift-add DAG for one coefficient set.
struct McmPlan {
  /// Shared intermediate values in topological order: each node's terms
  /// reference value 1 or the value of an earlier node.  One adder each.
  std::vector<McmNode> nodes;
  /// Per requested coefficient, the terms summing to it (over node values
  /// and 1).  A single-term entry is pure wiring; an n-term entry costs
  /// n - 1 adders.  Terms are in lowering order (ascending shift, first
  /// term positive).
  std::map<std::int64_t, std::vector<McmTerm>> sums;

  /// Total add/sub rows of the plan: one per node plus terms-1 per sum.
  [[nodiscard]] int adder_count() const;
};

/// Plans the shared DAG for a set of positive coefficients (duplicates
/// are collapsed — callers pass |weight| magnitudes and handle signs in
/// the accumulate stage).  The initial decompositions use the same
/// per-coefficient recoding choice as const_mult (options.use_csd), so
/// the plan's adder_count() is <= the sum of const_mult_adder_count()
/// over the set, with equality when no subexpression repeats.
///
/// \param coefficients  strictly positive multiplier magnitudes; order
///                      and multiplicity are irrelevant to the result.
/// \param options       recoding choice shared with hw/constmult.hpp.
/// \return the planned DAG; deterministic for a given input set.
/// \throws std::invalid_argument  on a zero or negative coefficient.
McmPlan plan_mcm(const std::vector<std::int64_t>& coefficients,
                 const MultOptions& options = {});

/// Convenience: plan_mcm(...).adder_count() — the shared-DAG analog of
/// summing const_mult_adder_count over the coefficient set.
///
/// \return total add/sub rows of the planned shared DAG.
int mcm_adder_count(const std::vector<std::int64_t>& coefficients,
                    const MultOptions& options = {});

/// Hit/miss statistics of the process-wide memoized planner (see
/// plan_mcm_cached).  `entries` is the current number of cached plans.
struct McmCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;

  /// hits / (hits + misses); 0 when nothing was looked up yet.
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Memoized plan_mcm: plans for the same coefficient *multiset* (order and
/// multiplicity are irrelevant to plan_mcm, so the key is the sorted
/// distinct-value set) and recoding options are computed once per process
/// and shared.  The GA re-evaluates near-identical genomes constantly —
/// every repeated column (and every repeated genome the eval cache cannot
/// see, e.g. across netlist generation and proxy pricing) now costs one
/// hash lookup instead of a fresh CSE search.  Thread-safe; the returned
/// plan is immutable and may be retained across calls.
///
/// \param coefficients  strictly positive multiplier magnitudes.
/// \param options       recoding choice shared with hw/constmult.hpp.
/// \return shared ownership of the (cached) plan, bit-identical to
///         plan_mcm(coefficients, options).
/// \throws std::invalid_argument  on a zero or negative coefficient.
std::shared_ptr<const McmPlan> plan_mcm_cached(const std::vector<std::int64_t>& coefficients,
                                               const MultOptions& options = {});

/// Snapshot of the memoized planner's counters.
/// \return hits/misses/entries at this instant (thread-safe).
McmCacheStats mcm_plan_cache_stats();

/// Empties the plan cache and zeroes its counters (tests, benchmarks).
void mcm_plan_cache_reset();

/// Lookups of plan_mcm_cached attributed to one unit of work (a campaign
/// or scenario cell).  The process-wide counters cannot attribute lookups
/// once units overlap in time, so each unit installs its own tally on the
/// threads that do its work (McmTallyScope) and reads it afterwards.
struct McmTally {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

/// While alive, plan_mcm_cached lookups on this thread also count into
/// `tally` (null counts nowhere).  Scopes nest; the destructor reinstates
/// the previous tally, so a thread that runs another unit's work inside a
/// wait attributes it to that unit and then returns to its own.
class McmTallyScope {
 public:
  explicit McmTallyScope(McmTally* tally);
  ~McmTallyScope();
  McmTallyScope(const McmTallyScope&) = delete;
  McmTallyScope& operator=(const McmTallyScope&) = delete;

 private:
  McmTally* previous_;
};

/// The tally installed on this thread (null when none is).  Work handed to
/// other threads carries it there (see ParallelEvaluator::evaluate_batch).
McmTally* current_mcm_tally();

}  // namespace pnm::hw

#endif  // PNM_HW_MCM_HPP
