// Per-layer telemetry of the closed-form models.
//
// The analytic models roll a workload up to a handful of aggregates
// (WorkloadPerformance); everything per-layer — which layers are
// DRAM-bound, where the PE array runs ragged, how the traffic splits by
// operand — was thrown away at the roll-up. This registry keeps it: one
// LayerStats row per layer instance, with the invariant that summing the
// rows reproduces workload_performance *bit-for-bit* (the accumulation
// expressions are shared through accumulate_layer_performance). It feeds
// the apsq_dse --layer-stats-csv dump.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "sim/performance.hpp"

namespace apsq {

/// One telemetry row: a layer instance (× repeat).
struct LayerStats {
  std::string layer_name;
  std::string layer_class;  ///< layer_class_of(layer_name)
  index_t repeat = 1;
  LayerShape shape;  ///< the full layer this row describes

  LayerPerformance perf;  ///< one-instance performance

  double sram_bytes = 0.0;  ///< on-chip traffic, one instance
  /// DRAM traffic split by operand (ifmap, weight, psum, ofmap — the
  /// Operand enum order), one instance. Informational split of
  /// perf.dram_bytes; the sum may differ from it in the last ulp.
  std::array<double, 4> dram_operand_bytes{};

  /// dram_time / latency for this layer, in [0, 1] (dram_time ≤ latency
  /// by the max() in the overlap model).
  double dram_bw_occupancy = 0.0;
  /// Time the PE array sits stalled behind DRAM on a DRAM-bound layer
  /// (dram_time − compute_time), else 0.
  double compute_stall_s = 0.0;
  /// Time the DRAM channel sits idle on a compute-bound layer
  /// (compute_time − dram_time), else 0.
  double dram_idle_s = 0.0;
};

/// A whole run's telemetry: per-layer rows plus the roll-up contract.
struct WorkloadTelemetry {
  std::string workload;
  /// Fidelity provenance ("analytic"), the layer CSV's scored_by column.
  std::string source;
  std::vector<LayerStats> rows;

  /// Sum the rows back into the aggregate view. Bit-identical to
  /// workload_performance — the tests in tests/sim/stats_test.cpp pin
  /// this down with EXPECT_EQ on doubles.
  WorkloadPerformance roll_up() const;

  /// Whole-run DRAM-bandwidth occupancy: Σ dram_time / Σ latency
  /// (0 for an empty run). The complement 1 − occupancy is the
  /// dram_bw_headroom DSE objective.
  double dram_bw_occupancy() const;
};

/// Canonical layer class of a layer-instance name: the stage prefix
/// "s<digits>_" (Segformer / EfficientViT stage tags) and a trailing
/// instance index are stripped, so e.g. "s1_q_proj".."s4_q_proj" and
/// "patch_embed1".."patch_embed4" each collapse to one class. Kernel-shape
/// suffixes ("dw3x3", "aggreg5x5") and the functionally distinct
/// "mlp_fc1"/"mlp_fc2" pair keep their digits. The layer CSV's
/// layer_class column.
std::string layer_class_of(const std::string& layer_name);

/// Telemetry of the closed-form models: one row per workload layer at
/// full scale, built from layer_performance and the access-count model
/// (the same per-operand byte sizes the energy model charges).
WorkloadTelemetry analytic_telemetry(Dataflow df, const Workload& w,
                                     const AcceleratorConfig& acc,
                                     const PsumConfig& psum,
                                     const PerfConfig& perf = PerfConfig{});

}  // namespace apsq
