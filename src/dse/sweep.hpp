// Library-level sweep engine: the orchestration `apsq_dse` used to
// hand-assemble, packaged so any embedder — the CLI, tests, benches, the
// batch job runner, the daemon — runs identical sweeps programmatically.
//
//   SweepConfig   — one declarative sweep description: space, run mode
//                   (exhaustive sweep or budgeted search), objective
//                   plane, scoring seed, threading. validate() holds the
//                   cross-field consistency rules, so the flag path and
//                   the JSON job-spec path reject inconsistent configs
//                   with identical messages.
//   SweepSession  — owns the ConfigSpace and the Evaluator a config
//                   denotes, runs the sweep (optionally answering from /
//                   recording into an EvalStore), extracts the fronts,
//                   and can re-verify the result against a fully serial
//                   re-run.
//
// Every point is scored by the Evaluator's closed-form models (the one
// scoring fidelity, evaluator.hpp). A session attached to an EvalStore
// answers warm queries without evaluating: if the store holds a snapshot
// for this space (canonical hash) under this scoring identity
// (scoring_key()), the stored results are re-sliced — a different
// objective subset or a constraint filter — and only missing points are
// evaluated, batched together through the process-wide shared pool.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/stats_writer.hpp"
#include "dse/config_space.hpp"
#include "dse/evaluator.hpp"
#include "dse/search.hpp"

namespace apsq::dse {

class EvalStore;

/// How a session covers its space: exhaustively score every point, or
/// explore under an evaluation budget (SearchDriver).
enum class RunMode {
  kSweep,   ///< enumerate and score the whole space
  kSearch,  ///< budgeted search (--budget, --strategy, --search-seed)
};

const char* to_string(RunMode m);
/// Parse "sweep" | "search"; throws std::invalid_argument otherwise.
RunMode parse_run_mode(const std::string& name);

/// Largest space an exhaustive sweep will enumerate. Past this, sweep
/// mode is rejected up front (validate()) with a pointer to
/// --mode search: materializing 10⁶+ results is never what was meant.
inline constexpr index_t kMaxExhaustiveSweepPoints = index_t{1} << 20;

/// Everything one sweep needs, declaratively. Field semantics and
/// defaults mirror the apsq_dse flags one-to-one (the *_set booleans
/// record "explicitly given", which the consistency rules need — an
/// explicit --budget outside search mode is an error, the default value
/// is not).
struct SweepConfig {
  /// "paper" (1248 pts) | "smoke" (8 pts) | "fine" (~6×10⁷ pts,
  /// search-only).
  std::string space = "paper";
  /// Exhaustive sweep (default) or budgeted search.
  RunMode mode = RunMode::kSweep;
  SearchStrategy strategy = SearchStrategy::kEvolve;
  bool strategy_set = false;
  i64 budget = 0;  ///< search mode: evaluation budget (required)
  bool budget_set = false;
  u64 search_seed = 1;  ///< search-trajectory seed (not the scoring seed)
  bool search_seed_set = false;
  /// The plane fronts are extracted (and re-sliced) in, and the plane a
  /// search selects its candidates in.
  ObjectiveSet objectives;
  int threads = 0;      ///< 0 = hardware concurrency
  u64 seed = 0xD5EULL;  ///< accuracy-proxy seed
  /// Answer this sweep from a snapshot file (error if it has no matching
  /// snapshot) / snapshot the evaluated space here afterwards.
  std::string store_in;
  std::string store_out;
  /// Optional constraint filter applied to the front basis before
  /// extraction — comma list of `objective<=value` / `objective>=value`
  /// terms (e.g. "area<=2.5e6,latency<=0.01"), values in natural units.
  std::string where;

  bool search() const { return mode == RunMode::kSearch; }

  /// The SearchOptions this config denotes (search mode only).
  SearchOptions search_options() const;

  /// Cross-field consistency rules — the single authority both the CLI
  /// and the job-spec path run, so both reject an inconsistent config
  /// with the identical message and exit 1. Writes the first violation to
  /// `err` and returns false.
  bool validate(std::ostream& err = std::cerr) const;

  /// The ConfigSpace `space` names. validate() has already vetted the
  /// name; this throws std::invalid_argument on an unknown one.
  ConfigSpace make_space() const;

  /// threads, with 0 resolved to the hardware concurrency.
  int resolved_threads() const;

  /// The EvaluatorOptions this config denotes (what the CLI's main() used
  /// to assemble inline).
  EvaluatorOptions evaluator_options() const;

  /// Sweep-level provenance label ("analytic") — the results_csv
  /// fallback for rows without their own.
  std::string scored_by_label() const;

  /// Canonical identity of everything that determines the *values* of
  /// this sweep's results: the scoring seed and, for a search, the
  /// trajectory (strategy, budget, search seed, selection plane) — but
  /// not threads, output paths, or the slicing objectives of a sweep,
  /// which never change a score. Two configs with
  /// equal scoring keys over the same space produce byte-identical result
  /// sets, which is what lets an EvalStore snapshot stand in for a fresh
  /// evaluation.
  std::string scoring_key() const;
};

/// One term of a `where` constraint filter.
struct Constraint {
  Objective objective = Objective::kEnergy;
  bool upper_bound = true;  ///< true: value <= bound; false: value >= bound
  double bound = 0.0;
};

/// Parse a comma list of "objective<=value" / "objective>=value" terms.
/// Throws std::invalid_argument on unknown objective names, malformed
/// terms, or a non-finite bound. An empty string yields no constraints.
std::vector<Constraint> parse_constraints(const std::string& text);

/// The subset of `results` satisfying every constraint (natural units).
std::vector<EvalResult> filter_results(const std::vector<EvalResult>& results,
                                       const std::vector<Constraint>& cs);

/// The per-workload Pareto front `cfg` denotes over `results`, filtered
/// by `constraints`;
/// `global_front_size`, when non-null, receives the size of the
/// cross-workload front over the same basis. SweepSession::run extracts
/// through here: over a fresh unfiltered search's live front
/// (SearchRows::front), which gives the same front as its rows, and over
/// the rows otherwise.
std::vector<EvalResult> extract_front(const SweepConfig& cfg,
                                      const std::vector<Constraint>& constraints,
                                      const std::vector<EvalResult>& results,
                                      size_t* global_front_size = nullptr);

/// What one sweep produced, plus the accounting a report needs.
struct SweepOutcome {
  /// Every scored point, in enumeration order. An exhaustive sweep covers
  /// the whole space; a budgeted search holds only the (sparse) rows it
  /// explored — results.size() is nowhere near space.size() then.
  std::vector<EvalResult> results;
  /// Per-workload Pareto front over cfg.objectives (after the `where`
  /// filter).
  std::vector<EvalResult> front;
  /// Size of the cross-workload (global) front over the same basis.
  size_t global_front_size = 0;
  /// Wall time of run() from the store lookup through front extraction:
  /// the evaluation or store replay, the store update and the fronts, but
  /// not loading or saving a snapshot file.
  double secs = 0.0;
  /// Points actually scored by this run. A fully warm store re-slice
  /// reports 0 here — the acceptance signal that no evaluation was paid.
  index_t fresh_evaluations = 0;
  index_t store_hits = 0;  ///< points answered from the EvalStore
  /// Search mode, cold runs only: the driver's round/budget accounting
  /// (all-zero on a warm store replay — nothing ran).
  SearchStats search;
};

class SweepSession {
 public:
  /// The config must already be validate()d — the constructor re-checks
  /// and throws std::invalid_argument on a violation (so programmatic
  /// embedders cannot skip the rules), and pins the shared pool width to
  /// the config's thread count (first session wins, like the CLI did).
  ///
  /// `store` attaches an external evaluated-space store shared across
  /// sessions (the batch job runner's mode); the caller keeps ownership
  /// and handles load/save. Without one, the session creates a private
  /// store on demand when store_in / store_out are set, loading store_in
  /// itself (and failing hard if it has no snapshot for this sweep).
  explicit SweepSession(SweepConfig cfg, EvalStore* store = nullptr);
  ~SweepSession();

  /// Run the sweep or search: answer from the store where possible,
  /// evaluate what it lacks, record the fresh rows back into the store,
  /// extract the fronts, persist the store snapshot when configured. A
  /// sweep tops a stored entry up with one batch of its missing points; a
  /// search entry is the whole answer, and without one the SearchDriver
  /// runs. Throws std::runtime_error on store I/O or consistency failures.
  SweepOutcome run();

  /// True when the attached store already holds this run's whole answer —
  /// an entry under this space and scoring identity, complete for a sweep
  /// — so run() will evaluate nothing. A private store is loaded by run(),
  /// so before that only an external store can answer.
  bool answers_from_store();

  /// Re-run fully serially (threads = 1, no store) and require the
  /// per-workload front CSV to be byte-identical to `out`'s. Returns
  /// false (after writing a diagnostic to `err`) on a mismatch — the
  /// CLI's --verify-serial.
  bool verify_serial(const SweepOutcome& out, std::ostream& err = std::cerr);

  /// The --stats-json table for one outcome: eval/cache/pool counters,
  /// store hit accounting, search accounting.
  StatsWriter stats_writer(const SweepOutcome& out) const;

  Evaluator& evaluator() { return *eval_; }
  const ConfigSpace& space() const { return space_; }
  const SweepConfig& config() const { return cfg_; }
  /// config_space_hash(space()): the key snapshots of this space live under.
  std::string space_hash() const;
  /// The attached store (external or private), nullptr when none.
  EvalStore* store();

 private:
  SweepConfig cfg_;
  ConfigSpace space_;
  std::vector<Constraint> constraints_;
  std::unique_ptr<Evaluator> eval_;
  EvalStore* external_store_ = nullptr;
  std::unique_ptr<EvalStore> owned_store_;
};

}  // namespace apsq::dse
