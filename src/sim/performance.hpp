// Throughput / latency model for the analytical accelerator.
//
// The paper synthesizes at 250 MHz (§IV-C); combining the tile-level cycle
// count (one Po×Pci×Pco MAC tile per cycle), the PE-array utilization on
// ragged tiles, and the DRAM traffic of Eqs. (4)/(6) gives per-layer and
// per-model latency, effective throughput and bandwidth demand — the
// performance side of the energy story.
#pragma once

#include "energy/layer_traffic.hpp"

namespace apsq {

struct PerfConfig {
  double clock_hz = 250e6;            ///< §IV-C synthesis constraint
  double dram_bandwidth_gbps = 12.8;  ///< DDR3-1600 x64 peak
};

struct LayerPerformance {
  i64 tile_cycles = 0;      ///< PE-array issue slots used
  i64 mac_ops = 0;          ///< useful MACs
  double utilization = 0.0; ///< mac_ops / (tile_cycles · array MACs/cycle)
  double compute_time_s = 0.0;
  double dram_bytes = 0.0;   ///< LayerTraffic::dram_bytes()
  double dram_time_s = 0.0;   ///< traffic / peak bandwidth
  double latency_s = 0.0;     ///< max(compute, DRAM) — double-buffered overlap
  bool dram_bound = false;
};

struct WorkloadPerformance {
  double total_latency_s = 0.0;
  double total_compute_time_s = 0.0;
  double total_dram_time_s = 0.0;
  i64 total_cycles = 0;
  i64 total_macs = 0;
  double mean_utilization = 0.0;  ///< MAC-weighted
  index_t dram_bound_layers = 0;
  index_t layer_count = 0;

  /// Σ dram_time / Σ latency (0 for an empty run). The complement
  /// 1 − occupancy is the dram_bw_headroom DSE objective.
  double dram_bw_occupancy() const {
    return total_latency_s > 0.0 ? total_dram_time_s / total_latency_s : 0.0;
  }

  /// Effective throughput in GMAC/s over the whole run.
  double effective_gmacs() const {
    return total_latency_s > 0.0 ? static_cast<double>(total_macs) / 1e9 /
                                       total_latency_s
                                 : 0.0;
  }
};

/// Performance of one layer instance whose traffic is already evaluated.
LayerPerformance layer_performance(const LayerShape& layer,
                                   const AcceleratorConfig& acc,
                                   const LayerTraffic& traffic,
                                   const PerfConfig& perf = PerfConfig{});

/// Performance of one layer instance under a dataflow / PSUM config.
LayerPerformance layer_performance(Dataflow df, const LayerShape& layer,
                                   const AcceleratorConfig& acc,
                                   const PsumConfig& psum,
                                   const PerfConfig& perf = PerfConfig{});

/// Add one layer instance (× repeat) into a workload roll-up. The exact
/// accumulation expressions live here — shared by workload_performance and
/// the telemetry registry's WorkloadTelemetry::roll_up (sim/stats.hpp) —
/// so per-layer rows sum to the aggregate bit-for-bit, not merely within
/// tolerance. `util_weighted` carries the MAC-weighted utilization
/// numerator across calls; hand it to finalize_mean_utilization once all
/// layers are in.
void accumulate_layer_performance(WorkloadPerformance& total,
                                  const LayerPerformance& p, index_t repeat,
                                  double& util_weighted);

/// Close out a roll-up: mean_utilization = util_weighted / total_macs
/// (0 for an empty workload).
void finalize_mean_utilization(WorkloadPerformance& total,
                               double util_weighted);

/// Whole-workload roll-up (sums layers × repeat).
WorkloadPerformance workload_performance(Dataflow df, const Workload& w,
                                         const AcceleratorConfig& acc,
                                         const PsumConfig& psum,
                                         const PerfConfig& perf = PerfConfig{});

}  // namespace apsq
