#include "sim/stats.hpp"

#include <cctype>

#include "energy/access_counts.hpp"

namespace apsq {

namespace {

/// Occupancy / stall / idle fields, derived from an already-filled
/// LayerPerformance.
void fill_overlap_fields(LayerStats& row) {
  const LayerPerformance& p = row.perf;
  row.dram_bw_occupancy =
      p.latency_s > 0.0 ? p.dram_time_s / p.latency_s : 0.0;
  row.compute_stall_s =
      p.dram_bound ? p.dram_time_s - p.compute_time_s : 0.0;
  row.dram_idle_s = p.dram_bound ? 0.0 : p.compute_time_s - p.dram_time_s;
}

}  // namespace

WorkloadPerformance WorkloadTelemetry::roll_up() const {
  WorkloadPerformance total;
  double util_weighted = 0.0;
  for (const LayerStats& row : rows)
    accumulate_layer_performance(total, row.perf, row.repeat, util_weighted);
  finalize_mean_utilization(total, util_weighted);
  return total;
}

double WorkloadTelemetry::dram_bw_occupancy() const {
  const WorkloadPerformance total = roll_up();
  return total.total_latency_s > 0.0
             ? total.total_dram_time_s / total.total_latency_s
             : 0.0;
}

std::string layer_class_of(const std::string& layer_name) {
  std::string s = layer_name;
  // Stage prefix "s<digits>_" (e.g. "s1_q_proj", "s3_evit_qkv"): the same
  // block kind recurs per stage; the class spans stages.
  if (s.size() >= 3 && s[0] == 's' &&
      std::isdigit(static_cast<unsigned char>(s[1]))) {
    size_t i = 1;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
      ++i;
    if (i < s.size() && s[i] == '_') s.erase(0, i + 1);
  }
  // Trailing instance index ("patch_embed1".."4", "head_linear1".."4").
  size_t end = s.size();
  while (end > 0 && std::isdigit(static_cast<unsigned char>(s[end - 1])))
    --end;
  if (end == 0 || end == s.size()) return s;  // all digits or none
  // Keep kernel-shape suffixes ("dw3x3", "aggreg5x5") and the
  // functionally distinct mlp_fc1 / mlp_fc2 pair intact.
  if (s[end - 1] == 'x') return s;
  if (end >= 2 && s.compare(end - 2, 2, "fc") == 0) return s;
  s.erase(end);
  while (!s.empty() && s.back() == '_') s.pop_back();
  return s;
}

WorkloadTelemetry analytic_telemetry(Dataflow df, const Workload& w,
                                     const AcceleratorConfig& acc,
                                     const PsumConfig& psum,
                                     const PerfConfig& perf) {
  WorkloadTelemetry t;
  t.workload = w.name;
  t.source = "analytic";
  t.rows.reserve(w.layers.size());
  for (const LayerShape& layer : w.layers) {
    LayerStats row;
    row.layer_name = layer.name;
    row.layer_class = layer_class_of(layer.name);
    row.repeat = layer.repeat;
    row.shape = layer;
    row.perf = layer_performance(df, layer, acc, psum, perf);

    // Per-operand byte sizes — exactly what layer_performance and the
    // energy model charge (size × access count × bytes/elem).
    const AccessCounts n = compute_access_counts(df, layer, acc, psum);
    const double si =
        static_cast<double>(layer.ifmap_elems()) * acc.act_bytes();
    const double sw =
        static_cast<double>(layer.weight_elems()) * acc.weight_bytes();
    const double so =
        static_cast<double>(layer.ofmap_elems()) * acc.act_bytes();
    const double sp =
        static_cast<double>(layer.ofmap_elems()) * psum.bytes_per_elem();
    row.sram_bytes = si * static_cast<double>(n.ifmap_sram) +
                     sw * static_cast<double>(n.weight_sram) +
                     sp * static_cast<double>(n.psum_sram) +
                     so * static_cast<double>(n.ofmap_sram);
    row.dram_operand_bytes = {si * static_cast<double>(n.ifmap_dram),
                              sw * static_cast<double>(n.weight_dram),
                              sp * static_cast<double>(n.psum_dram),
                              so * static_cast<double>(n.ofmap_dram)};
    fill_overlap_fields(row);
    t.rows.push_back(std::move(row));
  }
  return t;
}

}  // namespace apsq
