// Output-Stationary access counts — analogue of Eqs. (3)–(6) derived in
// DESIGN.md §3.1 (the paper gives no OS equations; it notes OS "updates
// PSUMs directly within low-cost registers", so N^p = 0 by construction).
//
// Each Po×Pco output tile stays in PE registers while all ⌈Ci/Pci⌉ operand
// tiles stream past: the ifmap is re-read once per output-channel tile
// group and the weights once per output-row tile group.
#include "common/math_util.hpp"
#include "energy/layer_traffic.hpp"

namespace apsq {

namespace detail {

AccessCounts os_access_counts(const LayerShape& layer,
                              const AcceleratorConfig& acc,
                              const PsumConfig& psum) {
  acc.validate();
  psum.validate();
  AccessCounts n;

  const i64 row_tiles = ceil_div(layer.rows, acc.po);
  const i64 co_tiles = ceil_div(layer.co, acc.pco);

  // Same resident ci-slice criterion as WS (see dataflow_ws.cpp).
  const double si_tile_bytes =
      bytes_of(Operand::kIfmap,
               static_cast<double>(layer.rows) * static_cast<double>(acc.pci),
               acc, psum);
  const double sw_bytes = bytes_of(
      Operand::kWeight, static_cast<double>(layer.weight_elems()), acc, psum);
  n.ifmap_fits = si_tile_bytes <= static_cast<double>(acc.ifmap_buf_bytes);
  n.weight_fits = sw_bytes <= static_cast<double>(acc.weight_buf_bytes);

  // PSUMs never leave the PE registers.
  n.psum_fits = true;
  n.psum_footprint_bytes = 0.0;
  n.psum_sram = 0;
  n.psum_dram = 0;

  n.ifmap_sram = n.ifmap_fits ? 1 + co_tiles : 2 * co_tiles;
  n.ifmap_dram = n.ifmap_fits ? 1 : co_tiles;

  n.weight_sram = n.weight_fits ? 1 + row_tiles : 2 * row_tiles;
  n.weight_dram = n.weight_fits ? 1 : row_tiles;

  n.ofmap_sram = 2;
  n.ofmap_dram = 1;

  return n;
}

}  // namespace detail

const char* to_string(Dataflow df) {
  switch (df) {
    case Dataflow::kIS: return "IS";
    case Dataflow::kWS: return "WS";
    case Dataflow::kOS: return "OS";
  }
  return "?";
}

namespace detail {
AccessCounts is_access_counts(const LayerShape&, const AcceleratorConfig&,
                              const PsumConfig&);
AccessCounts ws_access_counts(const LayerShape&, const AcceleratorConfig&,
                              const PsumConfig&);
}  // namespace detail

AccessCounts compute_access_counts(Dataflow df, const LayerShape& layer,
                                   const AcceleratorConfig& acc,
                                   const PsumConfig& psum) {
  APSQ_CHECK_MSG(layer.rows > 0 && layer.ci > 0 && layer.co > 0,
                 "degenerate layer shape for " << layer.name);
  switch (df) {
    case Dataflow::kIS: return detail::is_access_counts(layer, acc, psum);
    case Dataflow::kWS: return detail::ws_access_counts(layer, acc, psum);
    case Dataflow::kOS: return detail::os_access_counts(layer, acc, psum);
  }
  APSQ_CHECK_MSG(false, "unreachable");
  return {};
}

}  // namespace apsq
