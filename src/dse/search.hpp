// Budgeted search over a lazily-decoded ConfigSpace: the alternative to
// exhaustive sweep once fine-grained axes push the space past what
// enumerate-and-score can touch (ConfigSpace::fine_default() is ~6×10⁷
// points). One strategy, `evolve`, driving the Evaluator's
// point-at-a-time oracle (evaluate_point / evaluate_points_at; the archive
// keeps every scored point and only unseen candidates are scored, so no
// point is paid for twice): a stratified seed batch, then rounds of ±1-step
// neighbours of the current per-workload front plus random injections,
// batch-scored until the budget is spent, the front is stable, or no
// unseen candidate remains. The front is kept live: each scored batch is
// merged into one IncrementalFront per workload (pareto.hpp), so a round
// costs the front plus the batch, not the whole archive. The search hands
// those live fronts back with its rows (SearchRows::front), so a session
// extracts its reported front from them instead of from every row.
//
// The search is deterministic given (seed, budget): candidate selection
// is single-threaded and pure, randomness comes from
// Rng::stream(seed, round), and batch scoring lands in index-addressed
// slots — so the result is byte-identical at any thread count.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dse/config_space.hpp"
#include "dse/design_point.hpp"
#include "dse/evaluator.hpp"

namespace apsq::dse {

/// The search strategy. It has one value; it names the strategy in
/// scoring keys ("evolve") and keeps `--strategy evolve` a valid spelling.
enum class SearchStrategy {
  kEvolve,  ///< seeded evolutionary/local search
};

const char* to_string(SearchStrategy s);
/// Parse "evolve"; throws std::invalid_argument on anything else (the
/// removed "halving" strategy gets a message saying so; parse_enum_flag
/// prints it).
SearchStrategy parse_strategy(const std::string& name);

struct SearchOptions {
  /// Oracle calls the search may spend. Must be >= 1.
  i64 budget = 0;
  /// Search-trajectory seed (candidate sampling / injections) — distinct
  /// from the evaluator's scoring seed, so re-seeding the search never
  /// changes any point's score.
  u64 seed = 1;
  /// The objective plane candidate selection (per-round fronts) is
  /// measured in. Should match the objectives the caller extracts fronts
  /// over.
  ObjectiveSet objectives = ObjectiveSet::core();
};

/// One search round (one generation).
struct SearchRoundStats {
  index_t candidates = 0;   ///< points the round considered
  index_t evaluated_new = 0;  ///< budget-charged evaluations this round
  index_t front_size = 0;
  bool front_changed = false;
  double secs = 0.0;
};

struct SearchStats {
  i64 budget = 0;
  index_t evaluated = 0;  ///< budget-charged evaluations (<= budget)
  std::vector<SearchRoundStats> rounds;
  double secs = 0.0;
};

/// The scored rows of a search, ascending by point index: results[k]
/// scores the point at indices[k]; and the search's final live front.
struct SearchRows {
  std::vector<index_t> indices;
  std::vector<EvalResult> results;
  /// The members of the final per-workload live fronts, one workload
  /// after another, each in merge order: exactly the per-workload front
  /// of `results` under SearchOptions::objectives, one row per distinct
  /// point. Not in canonical-key order; extract_front over these rows
  /// gives the same front, byte for byte, as over `results`.
  std::vector<EvalResult> front;
};

class SearchDriver {
 public:
  /// `space` and `eval` must outlive the driver.
  SearchDriver(const ConfigSpace& space, Evaluator& eval, SearchOptions opt);

  /// Run the search. Returns the scored rows keyed by point index —
  /// sparse (nowhere near size() on a large space), byte-identical for a
  /// fixed (seed, budget) at any thread count.
  std::map<index_t, EvalResult> run();
  /// run(), as two index-aligned vectors (what a session keeps, without
  /// a node per row), plus the live front the search ended with.
  SearchRows run_rows();

  const SearchStats& stats() const { return stats_; }

 private:
  /// `count` strata over [0, n), one uniform pick per stratum via `rng` —
  /// strictly increasing, so the result is sorted and duplicate-free.
  std::vector<index_t> stratified_sample(index_t n, index_t count, Rng rng) const;

  const ConfigSpace& space_;
  Evaluator& eval_;
  SearchOptions opt_;
  SearchStats stats_;
};

}  // namespace apsq::dse
