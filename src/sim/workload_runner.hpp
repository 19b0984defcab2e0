// Whole-workload execution through the bit-accurate simulator.
//
// Real model layers (16384×768×3072 GEMMs) are too large to push element
// by element through a cycle-faithful simulator on a laptop, so the runner
// executes each layer at a reduced scale — dimensions divided by `shrink`
// and clamped — with randomly drawn INT8 operands, auto-calibrated PSUM
// exponents, and traffic/cycle statistics aggregated across layer repeats.
// Because the access-count model is exact at every size (see
// tests/sim/counts_vs_analytical_test.cpp), the shrunken run validates the
// same loop-nest behaviour the analytical energy model assumes at full
// scale.
//
// Layers run independently: operands and the calibration exponent are a
// pure function of (scaled shape, seed), so layers can execute on the
// shared pool in any order — and identical shapes share one
// calibration — while totals stay byte-identical to a serial run.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/accelerator.hpp"
#include "sim/performance.hpp"

namespace apsq {

class WorkStealingPool;

struct WorkloadRunOptions {
  index_t shrink = 8;        ///< divide every dimension by this
  index_t max_dim = 128;     ///< clamp any dimension after shrinking
  u64 seed = 1;
  int threads = 1;           ///< layer-parallel workers (1 = serial)
};

struct LayerRunStats {
  std::string name;
  LayerShape scaled_shape;
  SimStats stats;       ///< one instance at the scaled shape
  index_t repeat = 1;
};

struct WorkloadRunResult {
  std::vector<LayerRunStats> layers;
  SimStats total;       ///< aggregated over layers × repeat

  /// Exact-GEMM PSUM calibrations actually executed. Equals the number of
  /// distinct (shape requiring calibration) in a serial run; under
  /// parallel execution a race may recompute a shape once more (the value
  /// is identical either way), so this is a diagnostic, not part of the
  /// deterministic result surface.
  index_t calibration_count = 0;

  /// Measured energy of the scaled run (Eq. 1 over measured traffic).
  double energy_pj(const EnergyCosts& costs = EnergyCosts::horowitz()) const {
    return total.energy_pj(costs);
  }

  /// Measured latency of the scaled run: per layer
  /// max(cycles / clock, DRAM bytes / bandwidth) × repeat, summed — the
  /// measured twin of workload_performance's double-buffered overlap model.
  double latency_s(const PerfConfig& perf = PerfConfig{}) const;
};

/// Scale a layer for simulation (each dim max(1, dim/shrink), clamped).
LayerShape scale_layer(const LayerShape& layer, const WorkloadRunOptions& opt);

/// scale_layer applied to every layer (repeat counts preserved) — the
/// proxy workload a sim-backed sweep actually executes. The calibrator
/// evaluates the analytic models at exactly this scaled workload to fit
/// scaled→full factors (dse/calibrate.hpp).
Workload scale_workload(const Workload& w, const WorkloadRunOptions& opt);

/// Nearest-pow2 shift exponent for a PSUM magnitude (the rule the QAT
/// calibrator uses), clamped to the RAE shifter's representable range
/// [0, 31]. Exposed for the clamp tests.
int psum_exponent_for_max(i64 max_abs);

/// psum_exponent_for_max over the magnitude extremum of exact outputs.
int calibrate_psum_exponent(const TensorI32& exact);

/// Execute a whole workload through the accelerator simulator. With
/// opt.threads > 1 layers run on `pool` (or the process-wide
/// WorkStealingPool::shared() when null); a call from inside a task of
/// that pool opens a nested run its idle helpers join, so an outer
/// parallel loop and the layer loop compose. Results are byte-identical
/// to a serial run either way.
WorkloadRunResult run_workload(const Workload& w, const SimConfig& cfg,
                               const WorkloadRunOptions& opt = {},
                               WorkStealingPool* pool = nullptr);

}  // namespace apsq
