// Input-Stationary access counts — Eqs. (3) and (4).
//
// IS keeps an ifmap tile of Po rows pinned in the PE-array registers;
// weights stream over it and PSUMs accumulate in the output buffer. The
// number of ifmap tile positions T = ⌈rows/Po⌉ plays the role of
// ⌈Hi/Pih⌉⌈Wi/Piw⌉ in the paper (1-D row tiling, see layer_shape.hpp).
#include "common/math_util.hpp"
#include "energy/layer_traffic.hpp"

namespace apsq {

namespace detail {

AccessCounts is_access_counts(const LayerShape& layer,
                              const AcceleratorConfig& acc,
                              const PsumConfig& psum) {
  acc.validate();
  psum.validate();
  AccessCounts n;

  const i64 tile_positions = ceil_div(layer.rows, acc.po);
  const i64 ci_tiles = ceil_div(layer.ci, acc.pci);

  const double sw_bytes = bytes_of(
      Operand::kWeight, static_cast<double>(layer.weight_elems()), acc, psum);
  n.weight_fits = sw_bytes <= static_cast<double>(acc.weight_buf_bytes);

  // PSUM working set (Eq. 3's (Co/Pco)·S̃p with S̃p = bytes·Po·Pco,
  // times the gs footprint multiplier of the grouping strategy).
  n.psum_footprint_bytes = bytes_of(
      Operand::kPsum,
      static_cast<double>(psum.footprint_multiplier()) *
          static_cast<double>(layer.co) * static_cast<double>(acc.po),
      acc, psum);
  n.psum_fits =
      n.psum_footprint_bytes <= static_cast<double>(acc.ofmap_buf_bytes);
  n.ifmap_fits = true;  // IS pins the ifmap tile; residency is by design.

  // Eq. (3) — SRAM.
  n.weight_sram = n.weight_fits ? 1 + tile_positions : 2 * tile_positions;
  n.ifmap_sram = 2;
  n.psum_sram = (n.psum_fits ? 2 : 4) * (ci_tiles - 1);
  n.ofmap_sram = 2;

  // Eq. (4) — DRAM.
  n.weight_dram = n.weight_fits ? 1 : tile_positions;
  n.ifmap_dram = 1;
  n.psum_dram = n.psum_fits ? 0 : 2 * (ci_tiles - 1);
  n.ofmap_dram = 1;

  return n;
}

}  // namespace detail

}  // namespace apsq
