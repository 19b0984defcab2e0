// 28-nm synthesis-area model (Table II).
//
// The paper implements the accelerator ±RAE in Verilog and synthesizes
// with Synopsys DC at 28 nm / 250 MHz, reporting:
//     baseline accelerator  1,873,408 µm²
//     RAE                      86,410 µm²   (+3.21 %)
// We cannot run a commercial synthesis flow offline, so DESIGN.md §3.2
// substitutes a component-level area composition: each structural unit
// (PE, SRAM byte, adder bit, shifter, mux, register bit, control) carries
// a 28-nm-plausible unit area, and the model composes the same inventory
// the RTL would instantiate. The *ratio* (~3 %) is the reproduction
// target; absolute numbers are calibrated to the same order of magnitude.
#pragma once

#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "energy/accelerator_config.hpp"

namespace apsq {

/// Unit areas in µm² at 28 nm (typical standard-cell / compiled-macro
/// densities; see the .cpp for the derivation of each constant).
struct AreaLibrary {
  double sram_per_byte = 1.95;    ///< compiled single-port SRAM macro
  double pe_int8_mac = 580.0;     ///< 8×8 multiplier + 32-bit accumulator + regs
  double adder_per_bit = 4.7;     ///< ripple-carry full adder cell
  double shifter_32b = 120.0;     ///< constant-distance rounding shifter
  double mux4_per_bit = 3.8;      ///< 4:1 one-hot mux
  double register_per_bit = 2.0;  ///< DFF
  double control_overhead = 1536.0;  ///< FSM + config registers

  static AreaLibrary tsmc28_typical() { return AreaLibrary{}; }
};

/// One line of the area report. The name is a string literal, so an item
/// holds no heap memory.
struct AreaItem {
  std::string_view component;
  index_t count = 0;
  double unit_um2 = 0.0;
  double total_um2() const { return static_cast<double>(count) * unit_um2; }
};

struct AreaReport {
  std::vector<AreaItem> items;
  double total_um2() const;
};

/// Baseline accelerator (PE array + ifmap/ofmap/weight SRAM + control) —
/// Table II row 1.
AreaReport baseline_accelerator_area(
    const AcceleratorConfig& cfg,
    const AreaLibrary& lib = AreaLibrary::tsmc28_typical());

/// The Reconfigurable APSQ Engine — Table II row 2. `lanes` is the number
/// of parallel element datapaths (sized to the ofmap-buffer write
/// bandwidth, Po·Pco/2 by default).
AreaReport rae_area(const AcceleratorConfig& cfg,
                    const AreaLibrary& lib = AreaLibrary::tsmc28_typical());

/// Combined accelerator w/ RAE — Table II row 3.
AreaReport accelerator_with_rae_area(
    const AcceleratorConfig& cfg,
    const AreaLibrary& lib = AreaLibrary::tsmc28_typical());

/// total_um2() of accelerator_with_rae_area (with_rae) or
/// baseline_accelerator_area (!with_rae), bit-identical: the same items
/// summed in the same order, without building the report.
double accelerator_area_um2(
    const AcceleratorConfig& cfg, bool with_rae,
    const AreaLibrary& lib = AreaLibrary::tsmc28_typical());

}  // namespace apsq
