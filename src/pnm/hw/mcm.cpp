#include "pnm/hw/mcm.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>

namespace pnm::hw {
namespace {

/// Signed contribution of one term, wide enough that value << shift can
/// never wrap (values are int64, shifts < 64).
__int128 term_signed_value(const McmTerm& t) {
  const __int128 v = static_cast<__int128>(t.value) << t.shift;
  return t.positive ? v : -v;
}

int trailing_zeros_128(__int128 v) {
  int n = 0;
  while ((v & 1) == 0) {
    v >>= 1;
    ++n;
  }
  return n;
}

/// One coefficient's current decomposition during the greedy search.
struct Expression {
  std::int64_t coeff = 0;
  std::vector<McmTerm> terms;
};

/// A two-term subexpression occurrence, reduced to its odd positive
/// "fundamental" value (the candidate shared node value).
struct PairPattern {
  std::int64_t value = 0;  ///< odd, > 1
  int shift = 0;           ///< the pair equals +-(value << shift)
  bool positive = true;    ///< sign of the pair's combined contribution
  bool constructible = false;  ///< expressible as one adder of the two terms
  McmTerm node_a;              ///< when constructible: the node's operands
  McmTerm node_b;
};

/// Combines two terms into a pattern, or returns false for degenerate
/// pairs (cancellation, power-of-two result, value beyond int64).
bool combine_pair(const McmTerm& t1, const McmTerm& t2, PairPattern& out) {
  const __int128 s = term_signed_value(t1) + term_signed_value(t2);
  if (s == 0) return false;
  const __int128 mag = s < 0 ? -s : s;
  const int tz = trailing_zeros_128(mag);
  const __int128 odd = mag >> tz;
  if (odd <= 1) return false;  // a shifted input needs no adder
  if (odd > std::numeric_limits<std::int64_t>::max()) return false;
  out.value = static_cast<std::int64_t>(odd);
  out.shift = tz;
  out.positive = s > 0;
  // The pair builds the node directly iff dividing out the common shift
  // leaves an odd sum: shift both terms down by min(shift) and check that
  // no further carry-out of twos remains (sh1 == sh2 sums can be even).
  const int m = std::min(t1.shift, t2.shift);
  out.constructible = (tz == m);
  if (out.constructible) {
    McmTerm a{t1.value, t1.shift - m, t1.positive};
    McmTerm b{t2.value, t2.shift - m, t2.positive};
    if (s < 0) {  // normalize so the node's value is positive
      a.positive = !a.positive;
      b.positive = !b.positive;
    }
    // Positive operand first (node values are positive, so one exists);
    // ties ordered by (value, shift) for determinism.
    if (std::make_tuple(!a.positive, a.value, a.shift) >
        std::make_tuple(!b.positive, b.value, b.shift)) {
      std::swap(a, b);
    }
    out.node_a = a;
    out.node_b = b;
  }
  return true;
}

/// Greedy disjoint matching of `pattern` inside one expression: returns
/// the matched index pairs, earliest-first (deterministic).
std::vector<std::pair<std::size_t, std::size_t>> disjoint_matches(
    const Expression& expr, std::int64_t pattern) {
  std::vector<std::pair<std::size_t, std::size_t>> matches;
  std::vector<bool> used(expr.terms.size(), false);
  for (std::size_t i = 0; i < expr.terms.size(); ++i) {
    if (used[i]) continue;
    for (std::size_t j = i + 1; j < expr.terms.size(); ++j) {
      if (used[j]) continue;
      PairPattern p;
      if (!combine_pair(expr.terms[i], expr.terms[j], p)) continue;
      if (p.value != pattern) continue;
      used[i] = used[j] = true;
      matches.emplace_back(i, j);
      break;
    }
  }
  return matches;
}

/// Lowering order of a final sum: ascending shift (then value/sign), with
/// the first positive term rotated to the front so the running sum never
/// needs a leading negation row — the same idiom as const_mult's
/// digit_terms, which also preserves cross-coefficient chain prefixes for
/// the netlist's structural hashing to merge.
void order_for_lowering(std::vector<McmTerm>& terms) {
  std::sort(terms.begin(), terms.end(), [](const McmTerm& a, const McmTerm& b) {
    return std::make_tuple(a.shift, a.value, !a.positive) <
           std::make_tuple(b.shift, b.value, !b.positive);
  });
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (terms[i].positive) {
      std::rotate(terms.begin(), terms.begin() + static_cast<std::ptrdiff_t>(i),
                  terms.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      break;
    }
  }
}

}  // namespace

int McmPlan::adder_count() const {
  int rows = static_cast<int>(nodes.size());
  for (const auto& [coeff, terms] : sums) {
    rows += static_cast<int>(terms.size()) - 1;
  }
  return rows;
}

McmPlan plan_mcm(const std::vector<std::int64_t>& coefficients,
                 const MultOptions& options) {
  std::set<std::int64_t> distinct;
  for (const std::int64_t c : coefficients) {
    if (c <= 0) throw std::invalid_argument("plan_mcm: coefficients must be positive");
    distinct.insert(c);
  }

  // Seed each coefficient with the recoding const_mult would lower, so
  // the initial plan costs exactly the independent chains.
  std::vector<Expression> exprs;
  exprs.reserve(distinct.size());
  for (const std::int64_t c : distinct) {
    Expression e;
    e.coeff = c;
    for (const auto& [shift, positive] : recode_digit_terms(c, options)) {
      e.terms.push_back(McmTerm{1, shift, positive});
    }
    exprs.push_back(std::move(e));
  }

  McmPlan plan;
  std::map<std::int64_t, std::size_t> node_of_value;  // value -> plan.nodes index

  // Greedy extraction: while some fundamental saves at least one adder,
  // materialize the best one and rewrite every disjoint occurrence.
  for (;;) {
    // Candidate fundamentals and, per candidate, one deterministic
    // constructible decomposition (lexicographically smallest).
    std::map<std::int64_t, PairPattern> decomposition;
    std::set<std::int64_t> seen;
    for (const Expression& expr : exprs) {
      for (std::size_t i = 0; i < expr.terms.size(); ++i) {
        for (std::size_t j = i + 1; j < expr.terms.size(); ++j) {
          PairPattern p;
          if (!combine_pair(expr.terms[i], expr.terms[j], p)) continue;
          seen.insert(p.value);
          if (!p.constructible) continue;
          const auto it = decomposition.find(p.value);
          if (it == decomposition.end() ||
              std::make_tuple(p.node_a.value, p.node_a.shift, !p.node_a.positive,
                              p.node_b.value, p.node_b.shift, !p.node_b.positive) <
                  std::make_tuple(it->second.node_a.value, it->second.node_a.shift,
                                  !it->second.node_a.positive, it->second.node_b.value,
                                  it->second.node_b.shift, !it->second.node_b.positive)) {
            decomposition[p.value] = p;
          }
        }
      }
    }

    // Score: total disjoint occurrences across all expressions.  A new
    // node needs >= 2 (one adder saved nets zero at exactly 2 minus the
    // node, i.e. saves occurrences - 1); an already-materialized value is
    // free to reference, so a single occurrence already pays.
    std::int64_t best_value = 0;
    int best_savings = 0;
    // `seen` iterates in ascending value order, so requiring a strict
    // savings improvement makes the smallest value win ties.
    for (const std::int64_t value : seen) {
      const bool have_node = node_of_value.contains(value);
      if (!have_node && !decomposition.contains(value)) continue;
      int occurrences = 0;
      for (const Expression& expr : exprs) {
        occurrences += static_cast<int>(disjoint_matches(expr, value).size());
      }
      const int savings = occurrences - (have_node ? 0 : 1);
      if (savings > best_savings) {
        best_savings = savings;
        best_value = value;
      }
    }
    if (best_savings <= 0 || best_value == 0) break;

    if (!node_of_value.contains(best_value)) {
      const PairPattern& p = decomposition.at(best_value);
      node_of_value[best_value] = plan.nodes.size();
      plan.nodes.push_back(McmNode{best_value, p.node_a, p.node_b});
    }
    for (Expression& expr : exprs) {
      const auto matches = disjoint_matches(expr, best_value);
      std::set<std::size_t> remove;
      std::vector<McmTerm> replacements;
      for (const auto& [i, j] : matches) {
        PairPattern p;
        combine_pair(expr.terms[i], expr.terms[j], p);
        replacements.push_back(McmTerm{p.value, p.shift, p.positive});
        remove.insert(i);
        remove.insert(j);
      }
      if (remove.empty()) continue;
      std::vector<McmTerm> next;
      next.reserve(expr.terms.size() - remove.size() + replacements.size());
      for (std::size_t i = 0; i < expr.terms.size(); ++i) {
        if (!remove.contains(i)) next.push_back(expr.terms[i]);
      }
      next.insert(next.end(), replacements.begin(), replacements.end());
      expr.terms = std::move(next);
    }
  }

  for (Expression& expr : exprs) {
    order_for_lowering(expr.terms);
    plan.sums.emplace(expr.coeff, std::move(expr.terms));
  }

  // Garbage-collect nodes no surviving sum or node references (greedy
  // rewrites can strand an early extraction); sweep in reverse topological
  // order so chains of dead nodes fall together.
  std::set<std::int64_t> referenced;
  for (const auto& [coeff, terms] : plan.sums) {
    for (const McmTerm& t : terms) referenced.insert(t.value);
  }
  std::vector<McmNode> kept;
  for (std::size_t ni = plan.nodes.size(); ni-- > 0;) {
    const McmNode& node = plan.nodes[ni];
    if (!referenced.contains(node.value)) continue;
    referenced.insert(node.a.value);
    referenced.insert(node.b.value);
    kept.push_back(node);
  }
  std::reverse(kept.begin(), kept.end());
  plan.nodes = std::move(kept);
  return plan;
}

int mcm_adder_count(const std::vector<std::int64_t>& coefficients,
                    const MultOptions& options) {
  return plan_mcm(coefficients, options).adder_count();
}

namespace {

/// Process-wide memo of planned DAGs.  Keyed by the canonical form of the
/// input — plan_mcm collapses duplicates and ignores order, so the sorted
/// distinct coefficient list plus the recoding flag identifies the result
/// exactly.  Guarded by a plain mutex: a lookup is a hash + compare of a
/// short string, far below the cost of even one planner iteration, and
/// both the parallel evaluator's workers and the serve layer may race
/// here.
struct McmPlanCache {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const McmPlan>> plans;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

McmPlanCache& plan_cache() {
  static McmPlanCache cache;
  return cache;
}

/// Hard cap on retained plans: coefficient sets are tiny (printed-MLP
/// columns hold a handful of small magnitudes), so this is far above any
/// realistic working set; it only bounds degenerate sweeps.
constexpr std::size_t kMaxCachedPlans = 1 << 16;

thread_local McmTally* t_tally = nullptr;

}  // namespace

McmTallyScope::McmTallyScope(McmTally* tally) : previous_(t_tally) { t_tally = tally; }

McmTallyScope::~McmTallyScope() { t_tally = previous_; }

McmTally* current_mcm_tally() { return t_tally; }

std::shared_ptr<const McmPlan> plan_mcm_cached(const std::vector<std::int64_t>& coefficients,
                                               const MultOptions& options) {
  std::set<std::int64_t> distinct;
  for (const std::int64_t c : coefficients) {
    if (c <= 0) throw std::invalid_argument("plan_mcm: coefficients must be positive");
    distinct.insert(c);
  }
  std::string key = options.use_csd ? "c" : "b";
  for (const std::int64_t c : distinct) {
    key += ',';
    key += std::to_string(c);
  }

  McmPlanCache& cache = plan_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    const auto it = cache.plans.find(key);
    if (it != cache.plans.end()) {
      ++cache.hits;
      if (t_tally != nullptr) t_tally->hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Plan outside the lock — the planner is the expensive part, and two
  // threads racing on the same fresh key just do the (deterministic,
  // identical) work twice, once ever.
  auto plan = std::make_shared<const McmPlan>(plan_mcm(coefficients, options));
  if (t_tally != nullptr) t_tally->misses.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(cache.mu);
  ++cache.misses;
  if (cache.plans.size() >= kMaxCachedPlans) cache.plans.clear();
  const auto [it, inserted] = cache.plans.emplace(std::move(key), std::move(plan));
  return it->second;
}

McmCacheStats mcm_plan_cache_stats() {
  McmPlanCache& cache = plan_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  McmCacheStats stats;
  stats.hits = cache.hits;
  stats.misses = cache.misses;
  stats.entries = cache.plans.size();
  return stats;
}

void mcm_plan_cache_reset() {
  McmPlanCache& cache = plan_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.plans.clear();
  cache.hits = 0;
  cache.misses = 0;
}

}  // namespace pnm::hw
