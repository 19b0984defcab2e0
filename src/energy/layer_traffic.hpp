// One layer's data traffic: the per-element access counts of Eqs. (3)–(6)
// and the operand sizes of Eq. (2). Energy (energy_model.hpp), latency
// (sim/performance.hpp) and per-layer telemetry (sim/stats.hpp) all
// charge one LayerTraffic. bytes_of is where element counts become
// operand bytes, for the traffic and for the buffer-fit tests of
// compute_access_counts alike, so no two models size an operand
// differently.
#pragma once

#include <array>

#include "energy/access_counts.hpp"

namespace apsq {

/// Bytes of `elems` elements of operand `op` (Eq. 2): ifmap and ofmap
/// elements are act_bits wide, weights weight_bits, and PSUMs the
/// β-scaled psum_bits.
inline double bytes_of(Operand op, double elems, const AcceleratorConfig& acc,
                       const PsumConfig& psum) {
  switch (op) {
    case Operand::kWeight: return elems * acc.weight_bytes();
    case Operand::kPsum: return elems * psum.bytes_per_elem();
    case Operand::kIfmap:
    case Operand::kOfmap: break;
  }
  return elems * acc.act_bytes();
}

struct LayerTraffic {
  AccessCounts counts;
  /// One instance of each operand in bytes, in Operand order (ifmap,
  /// weight, PSUM, ofmap). Eq. (2): PSUM bytes are β × the ofmap bytes.
  std::array<double, 4> operand_bytes{};

  /// Bytes each operand moves to or from DRAM, in Operand order.
  std::array<double, 4> dram_operand_bytes() const {
    return {operand_bytes[0] * static_cast<double>(counts.ifmap_dram),
            operand_bytes[1] * static_cast<double>(counts.weight_dram),
            operand_bytes[2] * static_cast<double>(counts.psum_dram),
            operand_bytes[3] * static_cast<double>(counts.ofmap_dram)};
  }
  /// Σ dram_operand_bytes(), added left to right.
  double dram_bytes() const {
    const std::array<double, 4> b = dram_operand_bytes();
    return b[0] + b[1] + b[2] + b[3];
  }
  /// On-chip bytes: Σ operand bytes × SRAM access count.
  double sram_bytes() const {
    return operand_bytes[0] * static_cast<double>(counts.ifmap_sram) +
           operand_bytes[1] * static_cast<double>(counts.weight_sram) +
           operand_bytes[2] * static_cast<double>(counts.psum_sram) +
           operand_bytes[3] * static_cast<double>(counts.ofmap_sram);
  }
};

inline LayerTraffic layer_traffic(Dataflow df, const LayerShape& layer,
                                  const AcceleratorConfig& acc,
                                  const PsumConfig& psum) {
  auto bytes = [&](Operand op, i64 elems) {
    return bytes_of(op, static_cast<double>(elems), acc, psum);
  };
  return {compute_access_counts(df, layer, acc, psum),
          {bytes(Operand::kIfmap, layer.ifmap_elems()),
           bytes(Operand::kWeight, layer.weight_elems()),
           bytes(Operand::kPsum, layer.ofmap_elems()),
           bytes(Operand::kOfmap, layer.ofmap_elems())}};
}

}  // namespace apsq
