#include "energy/energy_model.hpp"

namespace apsq {

EnergyBreakdown layer_energy(const LayerShape& layer, const LayerTraffic& t,
                             const EnergyCosts& costs) {
  EnergyBreakdown e;
  auto lane = [&](double size_bytes, i64 n_sram, i64 n_dram) {
    const double sram = size_bytes * static_cast<double>(n_sram) *
                        costs.esram_pj_per_byte;
    const double dram = size_bytes * static_cast<double>(n_dram) *
                        costs.edram_pj_per_byte;
    e.sram_pj += sram;
    e.dram_pj += dram;
    return sram + dram;
  };

  const AccessCounts& n = t.counts;
  e.ifmap_pj = lane(t.operand_bytes[0], n.ifmap_sram, n.ifmap_dram);
  e.weight_pj = lane(t.operand_bytes[1], n.weight_sram, n.weight_dram);
  e.psum_pj = lane(t.operand_bytes[2], n.psum_sram, n.psum_dram);
  e.ofmap_pj = lane(t.operand_bytes[3], n.ofmap_sram, n.ofmap_dram);
  e.mac_pj = static_cast<double>(layer.macs()) * costs.emac_pj;
  return e;
}

EnergyBreakdown layer_energy(Dataflow df, const LayerShape& layer,
                             const AcceleratorConfig& acc,
                             const PsumConfig& psum, const EnergyCosts& costs) {
  return layer_energy(layer, layer_traffic(df, layer, acc, psum), costs);
}

EnergyBreakdown workload_energy(Dataflow df, const Workload& w,
                                const AcceleratorConfig& acc,
                                const PsumConfig& psum,
                                const EnergyCosts& costs) {
  EnergyBreakdown total;
  for (const auto& layer : w.layers) {
    EnergyBreakdown e = layer_energy(df, layer, acc, psum, costs);
    for (index_t r = 0; r < layer.repeat; ++r) total += e;
  }
  return total;
}

double normalized_energy(Dataflow df, const Workload& w,
                         const AcceleratorConfig& acc, const PsumConfig& cfg,
                         const EnergyCosts& costs) {
  const double base =
      workload_energy(df, w, acc, PsumConfig::baseline_int32(), costs).total_pj();
  const double e = workload_energy(df, w, acc, cfg, costs).total_pj();
  APSQ_CHECK(base > 0.0);
  return e / base;
}

}  // namespace apsq
