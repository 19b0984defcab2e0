// Parallel, memoizing design-point scorer with pluggable fidelity.
//
// Each point is scored on the full objective vector: the core minimize
// quartet — workload energy, synthesis area ±RAE (src/rae), the PSUM
// quantization-error accuracy proxy (accuracy_proxy.hpp), and workload
// latency — plus the telemetry-derived maximize trio (pe_utilization,
// dram_bw_headroom, throughput_per_area; see sim/stats.hpp). Two backends
// supply the performance-derived objectives:
//
//   analytic — closed-form access counts (src/energy, Eqs. 1–6) and the
//              tile/bandwidth performance model (src/sim/performance);
//   sim      — drives the bit-accurate simulator (run_workload /
//              Accelerator::run_gemm) with a per-point SimConfig and
//              converts the *measured* SRAM/DRAM byte counts into energy
//              via the same EnergyCosts table, and measured cycles/DRAM
//              traffic into latency. Raw sim scores are of the scaled
//              proxy workload (WorkloadRunOptions.shrink / max_dim), so
//              absolute values are smaller than analytic full-scale ones;
//              with `calibrate` set, a dse::Calibrator (calibrate.hpp)
//              rescales the measured components into the analytic
//              backend's absolute units, so the two backends' fronts mix.
//   mixed    — multi-fidelity: phase 1 scores the whole space with the
//              analytic backend, phase 2 promotes near-front points to
//              the *calibrated* sim backend and re-scores only those.
//              Three promotion rules share one ranked-margin primitive
//              (dse/pareto): a fixed ε-dominance band (promote_band), an
//              adaptive band that widens geometrically until the promoted
//              front is stable for K consecutive rounds (promote_adaptive
//              — the front-stability stopping rule), and a hard budget of
//              the N best points by ε-dominance margin (promote_budget).
//              Each result records its provenance in
//              EvalResult::scored_by; the front is then extracted over
//              the promoted (uniform-fidelity) subset. This buys sim
//              fidelity where it matters — on and near the front — at a
//              small multiple of the analytic sweep's cost.
//
// Sub-evaluations are memoized independently under canonical sub-keys.
// Area depends only on the accelerator geometry and the accuracy proxy
// only on (workload, psum, pci), so a cartesian sweep reuses the
// overwhelming majority of those two; energy/latency depend on every field
// of the point, so their caches pay off for repeated evaluations of the
// same point (re-runs, overlapping spaces), not within one cartesian
// sweep. The accuracy keys a batch (evaluate_space / evaluate_points /
// evaluate_points_at) lacks are scored up front as one proxy batch per
// workload (accuracy_proxy.hpp); the point loop then only reads the
// table. All scoring functions are pure, every worker derives its
// randomness per work item via Rng::stream, and results land in
// index-addressed slots, so a parallel sweep is byte-identical to a serial
// one. Parallel evaluation runs on the process-wide
// WorkStealingPool::shared(): the point-level loop and run_workload's
// layer-level loop submit into the same pool (nested scopes compose), so
// sim-backed sweeps parallelize at both levels without oversubscribing.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dse/calibrate.hpp"
#include "dse/config_space.hpp"
#include "dse/design_point.hpp"
#include "dse/tt.hpp"
#include "energy/costs.hpp"
#include "rae/area_model.hpp"
#include "sim/workload_runner.hpp"

namespace apsq::dse {

/// Fidelity backend for the energy and latency objectives.
enum class EvalBackend {
  kAnalytic,  ///< closed-form models (fast; full-scale workloads)
  kSim,       ///< cycle-level simulator (slow; scaled proxy workloads)
  kMixed,     ///< analytic prefilter → calibrated-sim promotion (two-phase)
};

const char* to_string(EvalBackend b);
/// Parse "analytic" | "sim" | "mixed"; throws on anything else.
EvalBackend parse_backend(const std::string& name);

/// How the mixed backend selects the analytic points phase 2 promotes to
/// the calibrated simulator.
enum class PromoteMode {
  kBand,      ///< fixed ε-dominance slack (promote_band)
  kAdaptive,  ///< widen the band geometrically until the sim front is stable
  kBudget,    ///< the promote_budget best points by ε-dominance margin
};

const char* to_string(PromoteMode m);

/// One promotion round of a mixed sweep. A fixed-band or budget sweep has
/// exactly one; an adaptive sweep has one per band widening, so the
/// per-round counts show where the simulation time went and when the
/// front-stability rule fired.
struct MixedRoundStats {
  /// The ε slack this round promoted at. Budget mode records the largest
  /// selected margin — the fixed band the budget turned out to buy.
  double band = 0.0;
  index_t promoted_new = 0;    ///< points first simulated this round
  index_t promoted_total = 0;  ///< cumulative sim-scored points
  index_t front_size = 0;      ///< promoted-front size after this round
  bool front_changed = false;  ///< did this round's front differ from the last?
  double secs = 0.0;           ///< selection + simulation wall time
};

/// Per-phase accounting of the last mixed-fidelity sweep: how many points
/// the analytic prefilter scored, how many the promotion rule handed to
/// the calibrated simulator (and in which rounds), and the wall time each
/// phase took.
struct MixedSweepStats {
  index_t total = 0;     ///< points in the sweep (phase-1 evaluations)
  index_t promoted = 0;  ///< points re-scored by the sim (phase-2 evaluations)
  PromoteMode mode = PromoteMode::kBand;
  /// The final ε slack: the fixed band, the adaptive stopping band, or the
  /// effective band a budget bought (its largest selected margin).
  double band = 0.0;
  index_t budget = 0;  ///< budget mode only: the requested N
  std::vector<MixedRoundStats> rounds;
  double phase1_secs = 0.0;
  double phase2_secs = 0.0;
};

struct EvaluatorOptions {
  /// 1 = score points serially on the calling thread; > 1 = score them on
  /// the process-wide shared pool (whose width is hardware_threads(), or
  /// APSQ_POOL_THREADS if set — see WorkStealingPool::shared()). Results
  /// are byte-identical either way.
  int threads = 1;
  u64 seed = 0xD5EULL;     ///< accuracy-proxy stream seed
  EvalBackend backend = EvalBackend::kAnalytic;
  EnergyCosts costs = EnergyCosts::horowitz();
  AreaLibrary area_lib = AreaLibrary::tsmc28_typical();
  PerfConfig perf;         ///< clock / DRAM bandwidth for the latency objective
  /// Scaling and seed for the sim backend. With sim.threads > 1 each
  /// point's layers run as a nested scope on the same shared pool, so
  /// point- and layer-level parallelism compose.
  WorkloadRunOptions sim;
  /// Sim backend only: rescale measured energies/latencies into the
  /// analytic backend's absolute units via dse::Calibrator. The mixed
  /// backend forces this on — phase-2 sim scores must be comparable with
  /// the phase-1 analytic scores they sit next to.
  bool calibrate = false;
  /// Mixed backend: relative ε-dominance slack selecting which analytic
  /// points phase 2 promotes to the calibrated simulator (see
  /// epsilon_band in dse/pareto.hpp). 0 promotes the analytic front only;
  /// a non-finite band promotes everything (degenerates to --backend sim
  /// --calibrate). Ignored when promote_adaptive or promote_budget is set.
  double promote_band = 0.05;
  /// Mixed backend: adaptive promotion (the front-stability stopping
  /// rule). Phase 2 starts from the analytic front (band 0), then widens
  /// the band geometrically — adaptive_start, ·growth, ·growth², … —
  /// re-simulating only the newly promoted points each round (the sim and
  /// calibration memo caches carry everything already paid for) and
  /// re-extracting the promoted front. It stops once the front is
  /// unchanged for adaptive_stability consecutive widenings, or when
  /// every point is promoted. Replaces the hand-tuned fixed band with a
  /// rule that spends simulation only while it still moves the answer.
  bool promote_adaptive = false;
  double adaptive_start = 0.0125;  ///< first non-zero band in the ladder
  double adaptive_growth = 2.0;    ///< band multiplier per widening (> 1)
  int adaptive_stability = 2;      ///< unchanged-front rounds before stopping
  /// Mixed backend: promote exactly this many *distinct configurations* —
  /// the best by ε-dominance margin (best_by_margin in dse/pareto.hpp) —
  /// instead of a band. 0 disables budget mode; a budget >= the space
  /// size promotes everything (the budget analogue of band = ∞). If the
  /// evaluated point list repeats a configuration, every duplicate slot
  /// of a selected one is re-scored — they must agree in fidelity, and
  /// the sim memo makes the repeats free — so the slot counts in
  /// MixedSweepStats can exceed the budget by the number of selected
  /// duplicates. Mutually exclusive with promote_adaptive.
  index_t promote_budget = 0;
  /// Sim backend with calibrate: fit latency/energy factors per
  /// (workload, dataflow, psum, layer-class) instead of per workload
  /// (Calibrator::class_factors_for). Finer-grained — a class whose
  /// buffer-fit regime changes differently under scaling gets its own
  /// cycle factor — but the per-layer roll-up sums in a different FP
  /// order than the per-workload aggregate formula, so it is opt-in to
  /// keep default sweeps byte-stable.
  bool calibrate_per_class = false;
  /// Mixed backend: the objective subset the promotion band / margin is
  /// measured in. Should match the objectives the caller extracts fronts
  /// over.
  ObjectiveSet promote_objectives = ObjectiveSet::core();
};

class Evaluator {
 public:
  explicit Evaluator(EvaluatorOptions opt = EvaluatorOptions{});
  ~Evaluator();

  /// Score one point (memoized, thread-safe).
  EvalResult evaluate(const DesignPoint& p);

  /// The point-at-a-time scoring oracle: score one point at an explicit
  /// single-fidelity backend (kAnalytic or kSim — never kMixed), memoized
  /// whole-result in the shared transposition table under the point's
  /// canonical key + fidelity tag. Thread-safe and pure, so parallel
  /// search workers hitting overlapping points pay each score once.
  EvalResult evaluate_point(const DesignPoint& p, EvalBackend fidelity);

  /// Batch flavour of evaluate_point: every point at the same explicit
  /// fidelity, results in index-addressed slots (byte-identical across
  /// thread counts), parallel on the shared pool when threads > 1.
  std::vector<EvalResult> evaluate_points_at(
      const std::vector<DesignPoint>& pts, EvalBackend fidelity);

  /// Per-layer telemetry of one point at an explicit single-fidelity
  /// backend (kAnalytic or kSim — never kMixed). The sim flavour re-runs
  /// the workload (the scoring cache keeps scalars, not layer rows), so
  /// this is for dumping a handful of front points (--layer-stats-csv),
  /// not for the scoring hot path; with an active calibrator the rows are
  /// lifted by the point's per-workload factors (source "sim+cal").
  WorkloadTelemetry telemetry_for(const DesignPoint& p, EvalBackend fidelity);

  /// Score every point of the space with the evaluator's persistent
  /// work-stealing pool. Output order is the space's enumeration order
  /// regardless of thread count.
  std::vector<EvalResult> evaluate_space(const ConfigSpace& space);

  /// Score an explicit point list (same determinism guarantees).
  std::vector<EvalResult> evaluate_points(const std::vector<DesignPoint>& pts);

  CacheStats energy_cache_stats() const;
  CacheStats area_cache_stats() const;
  CacheStats accuracy_cache_stats() const;
  CacheStats latency_cache_stats() const;
  CacheStats sim_cache_stats() const;
  /// Whole-result oracle table (evaluate_point) counters.
  CacheStats score_tt_stats() const;

  /// Phase accounting of the most recent mixed-backend evaluate_space /
  /// evaluate_points call (all-zero before the first one).
  const MixedSweepStats& mixed_stats() const { return mixed_stats_; }

  const EvaluatorOptions& options() const { return opt_; }

  /// The sim↔analytic calibrator, non-null iff options().calibrate and the
  /// sim backend are both active. Exposed so callers can persist / preload
  /// its fitted unit factors (apsq_dse --calibration-csv).
  Calibrator* calibrator() { return calibrator_.get(); }

  /// Bundled-workload registry ("bert", "llama2", "segformer",
  /// "efficientvit" at the paper's input sizes). Throws on unknown names.
  static const Workload& workload(const std::string& name);

 private:
  /// Scalars of one simulated (scaled) workload run: the energy/latency
  /// pair plus the telemetry-derived objective inputs. Cached per point,
  /// so every objective a mixed sweep compares is pure and memoized.
  struct SimScore {
    double energy_pj = 0.0;
    double latency_s = 0.0;
    double pe_utilization = 0.0;     ///< MAC-weighted mean (dimensionless)
    double dram_bw_occupancy = 0.0;  ///< Σ dram_time / Σ latency
    double macs = 0.0;               ///< full-scale useful MACs
  };

  /// Analytic performance scalars of one point (the latency objective and
  /// the telemetry-derived objective inputs), one cache entry per point.
  struct PerfScore {
    double latency_s = 0.0;
    double pe_utilization = 0.0;
    double dram_bw_occupancy = 0.0;
    double macs = 0.0;
  };

  double energy_for(const DesignPoint& p);
  double area_for(const DesignPoint& p);
  double error_for(const DesignPoint& p);
  /// Score every accuracy key the points point_at(0 … n-1) need and the
  /// table lacks, before a batch's point loop: one proxy batch per
  /// workload, its representative layers scored in parallel, so the loop
  /// only reads the table.
  void fill_accuracy(index_t n,
                     const std::function<DesignPoint(index_t)>& point_at);
  PerfScore perf_score_for(const DesignPoint& p);
  SimScore sim_score_for(const DesignPoint& p);
  /// Score one point at an explicit single-fidelity backend (kAnalytic or
  /// kSim — never kMixed). The building block both the single-backend
  /// paths and the two mixed phases go through.
  EvalResult evaluate_at(const DesignPoint& p, EvalBackend fidelity);
  /// The two-phase mixed-fidelity pipeline over an explicit point list;
  /// records mixed_stats_.
  std::vector<EvalResult> mixed_sweep(const std::vector<DesignPoint>& pts);
  /// Index loop over points: inline when threads == 1, on the shared pool
  /// otherwise.
  void parallel_for_points(index_t n, const std::function<void(index_t)>& fn);

  EvaluatorOptions opt_;
  MixedSweepStats mixed_stats_;
  // Every memo is one sharded TranspositionTable (dse/tt.hpp): the
  // sub-evaluation tables below plus the whole-result oracle table.
  TranspositionTable<double> energy_tt_;
  TranspositionTable<double> area_tt_;
  TranspositionTable<double> accuracy_tt_;
  TranspositionTable<PerfScore> latency_tt_;
  TranspositionTable<SimScore> sim_tt_;
  TranspositionTable<EvalResult> score_tt_;
  std::unique_ptr<Calibrator> calibrator_;  ///< sim/mixed + calibrate only
};

/// The results a mixed sweep re-scored with the simulator (scored_by
/// "sim" / "sim+cal"). The mixed Pareto front is extracted over this
/// subset — all its members carry the same fidelity, so dominance never
/// compares an analytic score against a measured one.
std::vector<EvalResult> promoted_subset(const std::vector<EvalResult>& results);

}  // namespace apsq::dse
