// Parallel design-point scorer.
//
// Each point is scored on the full objective vector: the core minimize
// quartet — workload energy, synthesis area ±RAE (src/rae), the PSUM
// quantization-error accuracy proxy (accuracy_proxy.hpp), and workload
// latency — plus the telemetry-derived maximize trio (pe_utilization,
// dram_bw_headroom, throughput_per_area; see sim/stats.hpp). Energy and
// the performance-derived objectives come from the closed forms at full
// workload scale, in one pass over the point's layers: each layer's
// LayerTraffic (energy/layer_traffic.hpp: the access counts of Eqs. 3–6
// and the operand bytes of Eq. 2) is evaluated once and feeds both the
// energy roll-up (Eq. 1) and the tile/bandwidth performance roll-up
// (src/sim/performance), each bit-identical to workload_energy and
// workload_performance. That is the one scoring fidelity, so a result
// carries no provenance field. The bit-exact simulator in src/sim is not
// in the loop: it is the test oracle the closed forms are pinned equal to
// (tests/sim/counts_vs_analytical_test.cpp for traffic,
// tests/sim/sim_vs_analytic_test.cpp for energy, cycles and latency).
//
// The one memo is the accuracy table, keyed by a projection of the
// point's PointKey (design_point.hpp: a fixed-size struct exact for any
// DesignPoint, from any space or a daemon request, so no string is
// formatted on the scoring path) with the fields the proxy ignores
// zeroed: it reads only (workload, psum, pci), so a cartesian sweep
// reuses the overwhelming majority of it. Area depends only on the
// accelerator geometry, buffers, precisions and whether an RAE exists,
// and is cheap enough to compute afresh per point (accelerator_area_um2
// builds no report). Energy and latency depend on every field of the
// point and are computed afresh on every call: no point-score memo is
// kept, because the search never rescores a point, a sweep scores each
// point once and every daemon query builds a fresh Evaluator. The
// accuracy keys a batch (evaluate_space / evaluate_points /
// evaluate_points_at / evaluate_rows) lacks are scored up front as one
// proxy batch per workload (accuracy_proxy.hpp); the point loop then only
// reads the table. All scoring functions are pure, every worker derives
// its randomness per work item via Rng::stream, and results land in
// index-addressed slots, so a parallel sweep is byte-identical to a
// serial one. Parallel evaluation runs on the process-wide
// WorkStealingPool::shared(): per batch, one run over the batch's proxy
// units, then one over its points.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "dse/config_space.hpp"
#include "dse/design_point.hpp"
#include "dse/tt.hpp"
#include "energy/costs.hpp"
#include "energy/layer_shape.hpp"
#include "rae/area_model.hpp"
#include "sim/performance.hpp"

namespace apsq {
struct WorkloadTelemetry;  // sim/stats.hpp
}

namespace apsq::dse {

/// The scoring fidelity: closed-form models at full workload scale. It
/// has one value; it names the fidelity in scoring keys ("analytic") and
/// keeps `--backend analytic` a valid spelling.
enum class EvalBackend {
  kAnalytic,
};

const char* to_string(EvalBackend b);
/// Parse "analytic"; throws std::invalid_argument on anything else (the
/// removed "sim" and "mixed" backends get a message saying so).
EvalBackend parse_backend(const std::string& name);

struct EvaluatorOptions {
  /// 1 = score points serially on the calling thread; > 1 = score them on
  /// the process-wide shared pool (whose width is hardware_threads(), or
  /// APSQ_POOL_THREADS if set — see WorkStealingPool::shared()). Results
  /// are byte-identical either way.
  int threads = 1;
  u64 seed = 0xD5EULL;     ///< accuracy-proxy stream seed
  EnergyCosts costs = EnergyCosts::horowitz();
  AreaLibrary area_lib = AreaLibrary::tsmc28_typical();
  PerfConfig perf;         ///< clock / DRAM bandwidth for the latency objective
};

class Evaluator {
 public:
  explicit Evaluator(EvaluatorOptions opt = EvaluatorOptions{});

  /// Score one point (thread-safe).
  EvalResult evaluate(const DesignPoint& p);

  /// The point-at-a-time scoring oracle: score one point and return its
  /// objectives with `p`. Thread-safe and pure; every call scores afresh
  /// (only the accuracy proxy is memoized).
  EvalResult evaluate_point(const DesignPoint& p, EvalBackend fidelity);

  /// Batch flavour of evaluate_point: results in index-addressed slots
  /// (byte-identical across thread counts), parallel on the shared pool
  /// when threads > 1.
  std::vector<EvalResult> evaluate_points_at(
      const std::vector<DesignPoint>& pts, EvalBackend fidelity);

  /// evaluate_points_at in place: score the rows row(0 … n-1), whose
  /// `point` fields the caller has set, into their `obj` fields. Same
  /// guarantees; `row` must be safe to call concurrently.
  void evaluate_rows(index_t n, const std::function<EvalResult&(index_t)>& row);

  /// Per-layer telemetry of one point from the closed-form models, for
  /// dumping a handful of front points (--layer-stats-csv).
  WorkloadTelemetry telemetry_for(const DesignPoint& p);

  /// Score every point of the space. Output order is the space's
  /// enumeration order regardless of thread count.
  std::vector<EvalResult> evaluate_space(const ConfigSpace& space);

  /// Score an explicit point list (same determinism guarantees).
  std::vector<EvalResult> evaluate_points(const std::vector<DesignPoint>& pts);

  CacheStats accuracy_cache_stats() const;
  /// Points scored, as misses (hits and races stay 0): n per batch, 1 per
  /// evaluate_point. Kept in the shape of a cache's counters for the
  /// `score_tt_*` stats rows.
  CacheStats score_tt_stats() const;

  /// Bundled-workload registry ("bert", "llama2", "segformer",
  /// "efficientvit" at the paper's input sizes). Throws on unknown names.
  static const Workload& workload(const std::string& name);

 private:
  /// `key` is PointKey::of(p); the accuracy table keys by a projection
  /// of it.
  double error_for(const DesignPoint& p, const PointKey& key);
  /// Score every accuracy key the points point_at(0 … n-1) need and the
  /// table lacks, before a batch's point loop: one proxy batch per
  /// workload, its representative layers scored in parallel, so the loop
  /// only reads the table.
  void fill_accuracy(index_t n,
                     const std::function<DesignPoint(index_t)>& point_at);
  /// Score one point from scratch.
  Objectives score(const DesignPoint& p, const PointKey& key);
  /// Index loop over points: inline when threads == 1, on the shared pool
  /// otherwise.
  void parallel_for_points(index_t n, const std::function<void(index_t)>& fn);

  EvaluatorOptions opt_;
  TranspositionTable<PointKey, double> accuracy_tt_;
  std::atomic<i64> scored_{0};  ///< points scored (score_tt_stats)
};

}  // namespace apsq::dse
