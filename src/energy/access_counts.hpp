// Per-element access counts N^{i/w/p/o}_{s/d} of Eqs. (3)–(6), plus the
// OS-dataflow analogue derived in DESIGN.md §3.1.
#pragma once

#include "energy/accelerator_config.hpp"
#include "energy/layer_shape.hpp"
#include "energy/psum_config.hpp"

namespace apsq {

enum class Dataflow { kIS, kWS, kOS };

const char* to_string(Dataflow df);

/// The four tensors a layer moves; also the index order of every
/// per-operand array (LayerTraffic, TrafficCounters).
enum class Operand { kIfmap = 0, kWeight = 1, kPsum = 2, kOfmap = 3 };

/// How many times each element of a tensor is moved at each memory level.
/// (The model is per-element: total bytes = size × count × bytes/elem.)
struct AccessCounts {
  // SRAM
  i64 ifmap_sram = 0;
  i64 weight_sram = 0;
  i64 psum_sram = 0;
  i64 ofmap_sram = 0;
  // DRAM
  i64 ifmap_dram = 0;
  i64 weight_dram = 0;
  i64 psum_dram = 0;
  i64 ofmap_dram = 0;

  // Diagnostics
  bool weight_fits = false;  ///< Sw ≤ Bw (IS/OS) — weights resident on-chip
  bool ifmap_fits = false;   ///< S̃i ≤ Bi (WS/OS)
  bool psum_fits = false;    ///< PSUM working set ≤ Bo

  /// PSUM working-set bytes the fit decision was made on.
  double psum_footprint_bytes = 0.0;
};

/// Evaluate the access-count equations for one layer.
/// IS: Eqs. (3)–(4).  WS: Eqs. (5)–(6).  OS: DESIGN.md §3.1.
///
/// Buffer-fit comparisons use ≤ (see DESIGN.md §3.1 "fit convention").
AccessCounts compute_access_counts(Dataflow df, const LayerShape& layer,
                                   const AcceleratorConfig& acc,
                                   const PsumConfig& psum);

}  // namespace apsq
