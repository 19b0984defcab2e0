#include "rae/area_model.hpp"

#include "common/check.hpp"

namespace apsq {

namespace {

// Datapath width of one RAE element lane (PSUM adder width).
constexpr index_t kLaneBits = 32;

// When the RAE is integrated into the accelerator, synthesis shares logic
// with the pre-existing output-requantization path (shifters, stage-2
// adders, output registers). The paper's own Table II implies the sharing:
// (1,933,674 - 1,873,408) / 86,410 = 0.6975 of the standalone RAE area
// materializes in the combined design.
constexpr double kIntegrationFactor = 0.6975;

/// The Table II composition, one item at a time: each writes its items,
/// in report order, to `add`. The reports collect them; the totals sum
/// them as they come.
template <typename Add>
void baseline_items(const AcceleratorConfig& cfg, const AreaLibrary& lib,
                    Add&& add) {
  cfg.validate();
  const index_t pes = cfg.po * cfg.pci * cfg.pco;
  add(AreaItem{"INT8 MAC PE", pes, lib.pe_int8_mac});
  add(AreaItem{"ifmap SRAM (bytes)", cfg.ifmap_buf_bytes, lib.sram_per_byte});
  add(AreaItem{"ofmap SRAM (bytes)", cfg.ofmap_buf_bytes, lib.sram_per_byte});
  add(AreaItem{"weight SRAM (bytes)", cfg.weight_buf_bytes, lib.sram_per_byte});
  add(AreaItem{"top control", 1, lib.control_overhead});
}

template <typename Add>
void rae_items(const AcceleratorConfig& cfg, const AreaLibrary& lib,
               Add&& add) {
  cfg.validate();

  // Element lanes: sized to half the PE-array output rate (the RAE sits on
  // the ofmap-buffer port, which is narrower than the array).
  const index_t lanes = cfg.po * cfg.pco / 2;
  APSQ_CHECK(lanes > 0);

  // Four PSUM banks, each buffering one Po×Pco INT8 tile.
  const index_t bank_bytes = cfg.po * cfg.pco;
  add(AreaItem{"PSUM bank SRAM (bytes)", 4 * bank_bytes, lib.sram_per_byte});

  // Per-lane datapath (Fig. 2): four dequant shifters (<<), a two-stage
  // adder pipeline (2 + 1 adders), one rounding quant shifter (>>),
  // bank-select muxes and pipeline registers.
  add(AreaItem{"dequant shifter (<<)", 4 * lanes, lib.shifter_32b});
  add(AreaItem{"pipeline adder", 3 * lanes,
               static_cast<double>(kLaneBits) * lib.adder_per_bit});
  add(AreaItem{"quant shifter (>>)", lanes, lib.shifter_32b});
  add(AreaItem{"bank-select mux", 2 * lanes, 8.0 * lib.mux4_per_bit});
  add(AreaItem{"pipeline register (bits)", 2 * kLaneBits * lanes,
               lib.register_per_bit});

  // RAE controller: config table, s0/s1/s2 sequencing, bank cursors.
  add(AreaItem{"RAE control", 1, 6000.0});
}

/// Left-to-right sum of the items `items` writes, as AreaReport::total_um2
/// adds them.
template <typename Items>
double sum_items(Items&& items) {
  double t = 0.0;
  items([&](const AreaItem& item) { t += item.total_um2(); });
  return t;
}

template <typename Add>
void with_rae_items(const AcceleratorConfig& cfg, const AreaLibrary& lib,
                    Add&& add) {
  baseline_items(cfg, lib, add);
  const double rae =
      sum_items([&](auto&& sink) { rae_items(cfg, lib, sink); });
  add(AreaItem{"RAE (integrated, post-sharing)", 1, rae * kIntegrationFactor});
}

template <typename Items>
AreaReport collect(Items&& items) {
  AreaReport r;
  items([&](const AreaItem& item) { r.items.push_back(item); });
  return r;
}

}  // namespace

double AreaReport::total_um2() const {
  double t = 0.0;
  for (const auto& item : items) t += item.total_um2();
  return t;
}

AreaReport baseline_accelerator_area(const AcceleratorConfig& cfg,
                                     const AreaLibrary& lib) {
  return collect([&](auto&& add) { baseline_items(cfg, lib, add); });
}

AreaReport rae_area(const AcceleratorConfig& cfg, const AreaLibrary& lib) {
  return collect([&](auto&& add) { rae_items(cfg, lib, add); });
}

AreaReport accelerator_with_rae_area(const AcceleratorConfig& cfg,
                                     const AreaLibrary& lib) {
  return collect([&](auto&& add) { with_rae_items(cfg, lib, add); });
}

double accelerator_area_um2(const AcceleratorConfig& cfg, bool with_rae,
                            const AreaLibrary& lib) {
  return with_rae
             ? sum_items([&](auto&& add) { with_rae_items(cfg, lib, add); })
             : sum_items([&](auto&& add) { baseline_items(cfg, lib, add); });
}

}  // namespace apsq
