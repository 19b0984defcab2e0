#include "sim/performance.hpp"

#include <cmath>

#include "common/math_util.hpp"

namespace apsq {

namespace {

/// A zero or non-finite clock / bandwidth would turn every division below
/// into inf or NaN, which then poisons Objectives and breaks Pareto
/// dominance transitivity — reject it at the boundary instead.
void validate_perf(const PerfConfig& perf) {
  APSQ_CHECK_MSG(std::isfinite(perf.clock_hz) && perf.clock_hz > 0.0,
                 "PerfConfig.clock_hz must be finite and positive");
  APSQ_CHECK_MSG(std::isfinite(perf.dram_bandwidth_gbps) &&
                     perf.dram_bandwidth_gbps > 0.0,
                 "PerfConfig.dram_bandwidth_gbps must be finite and positive");
}

}  // namespace

LayerPerformance layer_performance(const LayerShape& layer,
                                   const AcceleratorConfig& acc,
                                   const LayerTraffic& traffic,
                                   const PerfConfig& perf) {
  acc.validate();
  validate_perf(perf);

  LayerPerformance p;
  const i64 nrow = ceil_div(layer.rows, acc.po);
  const i64 nci = ceil_div(layer.ci, acc.pci);
  const i64 nco = ceil_div(layer.co, acc.pco);
  p.tile_cycles = nrow * nci * nco;
  p.mac_ops = layer.macs();
  const double array_macs =
      static_cast<double>(acc.po) * acc.pci * acc.pco;
  // A degenerate (zero-dimension) layer issues no tiles; 0/0 here would
  // leak NaN into the MAC-weighted utilization roll-up.
  p.utilization = p.tile_cycles > 0
                      ? static_cast<double>(p.mac_ops) /
                            (static_cast<double>(p.tile_cycles) * array_macs)
                      : 0.0;
  p.compute_time_s = static_cast<double>(p.tile_cycles) / perf.clock_hz;

  // DRAM traffic from the access-count model (Eqs. 4 / 6).
  p.dram_bytes = traffic.dram_bytes();
  p.dram_time_s = p.dram_bytes / (perf.dram_bandwidth_gbps * 1e9);

  p.latency_s = std::max(p.compute_time_s, p.dram_time_s);
  p.dram_bound = p.dram_time_s > p.compute_time_s;
  return p;
}

LayerPerformance layer_performance(Dataflow df, const LayerShape& layer,
                                   const AcceleratorConfig& acc,
                                   const PsumConfig& psum,
                                   const PerfConfig& perf) {
  return layer_performance(layer, acc, layer_traffic(df, layer, acc, psum),
                           perf);
}

void accumulate_layer_performance(WorkloadPerformance& total,
                                  const LayerPerformance& p, index_t repeat,
                                  double& util_weighted) {
  const double rep = static_cast<double>(repeat);
  total.total_latency_s += p.latency_s * rep;
  total.total_compute_time_s += p.compute_time_s * rep;
  total.total_dram_time_s += p.dram_time_s * rep;
  total.total_cycles += p.tile_cycles * repeat;
  total.total_macs += p.mac_ops * repeat;
  util_weighted += p.utilization * static_cast<double>(p.mac_ops) * rep;
  if (p.dram_bound) total.dram_bound_layers += repeat;
  total.layer_count += repeat;
}

void finalize_mean_utilization(WorkloadPerformance& total,
                               double util_weighted) {
  total.mean_utilization =
      total.total_macs > 0
          ? util_weighted / static_cast<double>(total.total_macs)
          : 0.0;
}

WorkloadPerformance workload_performance(Dataflow df, const Workload& w,
                                         const AcceleratorConfig& acc,
                                         const PsumConfig& psum,
                                         const PerfConfig& perf) {
  WorkloadPerformance total;
  double util_weighted = 0.0;
  for (const auto& layer : w.layers) {
    const LayerPerformance p = layer_performance(df, layer, acc, psum, perf);
    accumulate_layer_performance(total, p, layer.repeat, util_weighted);
  }
  finalize_mean_utilization(total, util_weighted);
  return total;
}

}  // namespace apsq
