// Weight-Stationary access counts — Eqs. (5) and (6).
//
// WS pins a Pci×Pco weight kernel in the PE array; ifmap tiles stream over
// it. The ifmap must be re-fetched for every output-channel tile group
// ⌈Co/Pco⌉, and PSUMs for all ⌈rows/Po⌉ output tiles are live at once —
// hence the (Ho·Wo/Po)·S̃p footprint of Eq. (5), the term APSQ attacks.
#include "common/math_util.hpp"
#include "energy/layer_traffic.hpp"

namespace apsq {

namespace detail {

AccessCounts ws_access_counts(const LayerShape& layer,
                              const AcceleratorConfig& acc,
                              const PsumConfig& psum) {
  acc.validate();
  psum.validate();
  AccessCounts n;

  const i64 co_tiles = ceil_div(layer.co, acc.pco);
  const i64 ci_tiles = ceil_div(layer.ci, acc.pci);

  // S̃i — the enlarged input tile of Eq. (5): the ci-slice that must stay
  // resident while the co tile groups iterate (rows × Pci for a pointwise
  // GEMM; see [16] for the general conv enlargement).
  const double si_tile_bytes =
      bytes_of(Operand::kIfmap,
               static_cast<double>(layer.rows) * static_cast<double>(acc.pci),
               acc, psum);
  n.ifmap_fits = si_tile_bytes <= static_cast<double>(acc.ifmap_buf_bytes);
  n.weight_fits = true;  // WS pins the weight tile; residency is by design.

  // (Ho·Wo/Po)·S̃p with S̃p = bytes·Po·Pco → bytes·rows·Pco, scaled by the
  // grouping footprint multiplier.
  n.psum_footprint_bytes = bytes_of(
      Operand::kPsum,
      static_cast<double>(psum.footprint_multiplier()) *
          static_cast<double>(layer.rows) * static_cast<double>(acc.pco),
      acc, psum);
  n.psum_fits =
      n.psum_footprint_bytes <= static_cast<double>(acc.ofmap_buf_bytes);

  // Eq. (5) — SRAM.
  n.ifmap_sram = n.ifmap_fits ? 1 + co_tiles : 2 * co_tiles;
  n.weight_sram = 2;
  n.psum_sram = (n.psum_fits ? 2 : 4) * (ci_tiles - 1);
  n.ofmap_sram = 2;

  // Eq. (6) — DRAM.
  n.ifmap_dram = n.ifmap_fits ? 1 : co_tiles;
  n.weight_dram = 1;
  n.psum_dram = n.psum_fits ? 0 : 2 * (ci_tiles - 1);
  n.ofmap_dram = 1;

  return n;
}

}  // namespace detail

}  // namespace apsq
