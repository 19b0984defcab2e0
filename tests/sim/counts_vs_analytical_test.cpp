// Cross-validation: the loop-nest simulator's measured byte traffic must
// equal the closed-form access counts of Eqs. (3)–(6) exactly, for every
// dataflow / PSUM configuration / buffer-fit regime whose PSUM tiles hold
// whole bytes. The one admissible gap is the simulator's whole-tile PSUM
// byte rounding (psum_tiles.hpp), pinned on a ragged 6-bit case.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "energy/access_counts.hpp"
#include "sim/accelerator.hpp"
#include "sim/psum_tiles.hpp"

namespace apsq {
namespace {

TensorI8 random_i8(Shape s, Rng& rng) {
  TensorI8 t(std::move(s));
  for (index_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<i8>(static_cast<i64>(rng.next_u64() % 256) - 128);
  return t;
}

// A Dataflow widened to 8 bytes with an explicit zero word. gtest names each
// case by the raw bytes of its SweepCase; a bare 4-byte enum leaves 4 bytes of
// padding before `m` that pick up stack garbage (pointer bits that change with
// ASLR), which made some case names differ from one test discovery to the next.
struct DataflowField {
  Dataflow value;
  i32 zero = 0;
  DataflowField(Dataflow d) : value(d) {}
  operator Dataflow() const { return value; }
};

struct SweepCase {
  DataflowField df;
  index_t m, k, n;
  PsumConfig psum;
  i64 ibuf, wbuf, obuf;  // buffer sizes chosen to exercise fit regimes
  const char* label;
};

class CountsSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CountsSweep, SimTrafficEqualsClosedForm) {
  const SweepCase& c = GetParam();
  SimConfig cfg;
  cfg.arch.po = 4;
  cfg.arch.pci = 4;
  cfg.arch.pco = 4;
  cfg.arch.ifmap_buf_bytes = c.ibuf;
  cfg.arch.weight_buf_bytes = c.wbuf;
  cfg.arch.ofmap_buf_bytes = c.obuf;
  cfg.dataflow = c.df;
  cfg.psum = c.psum;
  cfg.psum_exponents = {5};

  Rng rng(2024);
  const TensorI8 x = random_i8({c.m, c.k}, rng);
  const TensorI8 w = random_i8({c.k, c.n}, rng);

  Accelerator acc(cfg);
  const SimResult r = acc.run_gemm(x, w);

  const LayerShape layer{"sweep", c.m, c.k, c.n, 1};
  const AccessCounts counts =
      compute_access_counts(c.df, layer, cfg.arch, c.psum);

  const i64 si = c.m * c.k, sw = c.k * c.n, so = c.m * c.n;
  const double pbytes = c.psum.bytes_per_elem();
  const double psum_sram = static_cast<double>(counts.psum_sram * so) * pbytes;
  const double psum_dram = static_cast<double>(counts.psum_dram * so) * pbytes;

  EXPECT_EQ(r.stats.sram.total(Operand::kIfmap), counts.ifmap_sram * si)
      << c.label;
  EXPECT_EQ(r.stats.dram.total(Operand::kIfmap), counts.ifmap_dram * si)
      << c.label;
  EXPECT_EQ(r.stats.sram.total(Operand::kWeight), counts.weight_sram * sw)
      << c.label;
  EXPECT_EQ(r.stats.dram.total(Operand::kWeight), counts.weight_dram * sw)
      << c.label;
  if (psum_tiles_byte_aligned(c.m, c.n, cfg.arch.po, cfg.arch.pco,
                              c.psum.psum_bits)) {
    EXPECT_EQ(r.stats.sram.total(Operand::kPsum), std::llround(psum_sram))
        << c.label;
    EXPECT_EQ(r.stats.dram.total(Operand::kPsum), std::llround(psum_dram))
        << c.label;
  } else {
    // Ragged tiles at a sub-byte width: the simulator rounds each tile
    // transfer up to whole bytes (⌈elems·bits/8⌉), the closed form charges
    // fractional bytes. Every tile sees the same number of transfers
    // (counts.psum_* per element), so the gap is in [0, one byte per tile
    // transfer].
    const double tiles = static_cast<double>(
        psum_tile_count(c.m, c.n, cfg.arch.po, cfg.arch.pco));
    const double sram_gap =
        static_cast<double>(r.stats.sram.total(Operand::kPsum)) - psum_sram;
    const double dram_gap =
        static_cast<double>(r.stats.dram.total(Operand::kPsum)) - psum_dram;
    EXPECT_GE(sram_gap, 0.0) << c.label;
    EXPECT_LE(sram_gap, static_cast<double>(counts.psum_sram) * tiles)
        << c.label;
    EXPECT_GE(dram_gap, 0.0) << c.label;
    EXPECT_LE(dram_gap, static_cast<double>(counts.psum_dram) * tiles)
        << c.label;
    EXPECT_GT(sram_gap, 0.0) << c.label << ": expected a ragged case";
  }
  EXPECT_EQ(r.stats.sram.total(Operand::kOfmap), counts.ofmap_sram * so)
      << c.label;
  EXPECT_EQ(r.stats.dram.total(Operand::kOfmap), counts.ofmap_dram * so)
      << c.label;
  EXPECT_EQ(r.stats.psum_spilled, !counts.psum_fits) << c.label;
}

constexpr i64 kBig = i64{1} << 24;

INSTANTIATE_TEST_SUITE_P(
    AllRegimes, CountsSweep,
    ::testing::Values(
        // WS, everything resident.
        SweepCase{Dataflow::kWS, 16, 32, 16, PsumConfig::baseline_int32(),
                  kBig, kBig, kBig, "ws_resident"},
        // WS, PSUM spills (ofmap buffer smaller than 4·m·pco).
        SweepCase{Dataflow::kWS, 32, 32, 16, PsumConfig::baseline_int32(),
                  kBig, kBig, 256, "ws_psum_spill"},
        // WS, ifmap tile spills (m·pci > ibuf).
        SweepCase{Dataflow::kWS, 64, 16, 16, PsumConfig::baseline_int32(),
                  128, kBig, kBig, "ws_ifmap_spill"},
        // WS APSQ, resident, gs variants.
        SweepCase{Dataflow::kWS, 16, 48, 8, PsumConfig::apsq_int8(1), kBig,
                  kBig, kBig, "ws_apsq_gs1"},
        SweepCase{Dataflow::kWS, 16, 48, 8, PsumConfig::apsq_int8(3), kBig,
                  kBig, kBig, "ws_apsq_gs3"},
        // WS APSQ where the gs multiplier causes the spill: footprint
        // gs·m·pco: gs=4 · 32 · 4 = 512 > 256.
        SweepCase{Dataflow::kWS, 32, 32, 8, PsumConfig::apsq_int8(4), kBig,
                  kBig, 256, "ws_apsq_gs4_spill"},
        // IS, weights resident.
        SweepCase{Dataflow::kIS, 16, 32, 16, PsumConfig::baseline_int32(),
                  kBig, kBig, kBig, "is_resident"},
        // IS, weights spill (k·n > wbuf).
        SweepCase{Dataflow::kIS, 32, 32, 32, PsumConfig::baseline_int32(),
                  kBig, 512, kBig, "is_weight_spill"},
        // IS, PSUM spills (4·n·po > obuf).
        SweepCase{Dataflow::kIS, 16, 32, 64, PsumConfig::baseline_int32(),
                  kBig, kBig, 512, "is_psum_spill"},
        // IS APSQ resident.
        SweepCase{Dataflow::kIS, 12, 40, 12, PsumConfig::apsq_int8(2), kBig,
                  kBig, kBig, "is_apsq_gs2"},
        // Ragged shapes (dims not multiples of the array).
        SweepCase{Dataflow::kWS, 13, 26, 9, PsumConfig::baseline_int32(),
                  kBig, kBig, kBig, "ws_ragged"},
        SweepCase{Dataflow::kIS, 13, 26, 9, PsumConfig::apsq_int8(3), kBig,
                  kBig, kBig, "is_ragged_apsq"},
        // OS: zero PSUM traffic by construction; resident and spilled
        // operand regimes.
        SweepCase{Dataflow::kOS, 16, 32, 16, PsumConfig::baseline_int32(),
                  kBig, kBig, kBig, "os_resident"},
        SweepCase{Dataflow::kOS, 32, 32, 32, PsumConfig::baseline_int32(),
                  kBig, 512, kBig, "os_weight_spill"},
        SweepCase{Dataflow::kOS, 64, 16, 16, PsumConfig::baseline_int32(),
                  128, kBig, kBig, "os_ifmap_spill"},
        SweepCase{Dataflow::kOS, 13, 26, 9, PsumConfig::baseline_int32(),
                  kBig, kBig, kBig, "os_ragged"},
        // Sub-byte and non-power-of-two PSUM widths, PSQ and APSQ, on
        // tile-aligned shapes (every 4×4 tile holds whole bytes): exact.
        SweepCase{Dataflow::kWS, 16, 48, 8, PsumConfig{4, false, 1}, kBig,
                  kBig, kBig, "ws_psq_int4"},
        SweepCase{Dataflow::kWS, 16, 48, 8, PsumConfig{6, false, 1}, kBig,
                  kBig, kBig, "ws_psq_int6"},
        SweepCase{Dataflow::kWS, 16, 48, 8, PsumConfig{12, false, 1}, kBig,
                  kBig, kBig, "ws_psq_int12"},
        SweepCase{Dataflow::kWS, 16, 48, 8, PsumConfig::apsq_bits(4, 2), kBig,
                  kBig, kBig, "ws_apsq_int4"},
        SweepCase{Dataflow::kWS, 16, 48, 8, PsumConfig::apsq_bits(6, 2), kBig,
                  kBig, kBig, "ws_apsq_int6"},
        SweepCase{Dataflow::kWS, 16, 48, 8, PsumConfig::apsq_bits(12, 2),
                  kBig, kBig, kBig, "ws_apsq_int12"},
        // gs·m·pco·6/8 = 4·32·4·0.75 = 384 > 128: the PSUMs spill.
        SweepCase{Dataflow::kWS, 32, 32, 8, PsumConfig::apsq_bits(6, 4), kBig,
                  kBig, 128, "ws_apsq_int6_spill"},
        SweepCase{Dataflow::kIS, 12, 40, 12, PsumConfig{4, false, 1}, kBig,
                  kBig, kBig, "is_psq_int4"},
        SweepCase{Dataflow::kIS, 12, 40, 12, PsumConfig{6, false, 1}, kBig,
                  kBig, kBig, "is_psq_int6"},
        SweepCase{Dataflow::kIS, 12, 40, 12, PsumConfig{12, false, 1}, kBig,
                  kBig, kBig, "is_psq_int12"},
        SweepCase{Dataflow::kIS, 12, 40, 12, PsumConfig::apsq_bits(4, 2),
                  kBig, kBig, kBig, "is_apsq_int4"},
        SweepCase{Dataflow::kIS, 12, 40, 12, PsumConfig::apsq_bits(6, 2),
                  kBig, kBig, kBig, "is_apsq_int6"},
        SweepCase{Dataflow::kIS, 12, 40, 12, PsumConfig::apsq_bits(12, 2),
                  kBig, kBig, kBig, "is_apsq_int12"},
        // Ragged 6-bit: the 1×1 corner tile holds 6 bits, so the whole-tile
        // rounding shows; the small ofmap buffer makes it spill, so the
        // DRAM bound is exercised too.
        SweepCase{Dataflow::kWS, 13, 26, 9, PsumConfig::apsq_bits(6, 3), kBig,
                  kBig, 64, "ws_ragged_apsq_int6"}));

}  // namespace
}  // namespace apsq
