// Cross-validation of the closed-form models the DSE scores with against
// the bit-exact simulator: for the same buffer-fit regimes
// counts_vs_analytical_test sweeps, the simulator's *measured* energy
// (Eq. 1 over measured traffic) and latency must agree with the
// closed-form models evaluated at the same shape. This equality is why the
// DSE needs no simulator in the loop.
//
// Cycles and MACs are exact by construction. Traffic is exact whenever
// every PSUM tile holds whole bytes (psum_tiles.hpp), and then energy and
// latency must match to floating-point precision, at every PSUM width.
// The one admissible daylight is whole-tile PSUM byte rounding on ragged
// sub-byte tiles: the simulator charges ⌈elems·bits/8⌉ bytes per tile
// transfer while the closed form charges fractional bytes, so the
// simulator exceeds it by less than one byte per PSUM tile transfer —
// the tolerance the ragged 6-bit case is held to.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "energy/access_counts.hpp"
#include "energy/energy_model.hpp"
#include "sim/performance.hpp"
#include "sim/psum_tiles.hpp"
#include "sim/workload_runner.hpp"

namespace apsq {
namespace {

struct CrossCase {
  Dataflow df;
  index_t m, k, n;
  PsumConfig psum;
  i64 ibuf, wbuf, obuf;
  const char* label;
};

constexpr i64 kBig = i64{1} << 24;

SimConfig config_of(const CrossCase& c) {
  SimConfig cfg;
  cfg.arch.po = 4;
  cfg.arch.pci = 4;
  cfg.arch.pco = 4;
  cfg.arch.ifmap_buf_bytes = c.ibuf;
  cfg.arch.weight_buf_bytes = c.wbuf;
  cfg.arch.ofmap_buf_bytes = c.obuf;
  cfg.dataflow = c.df;
  cfg.psum = c.psum;
  return cfg;
}

Workload one_layer(const CrossCase& c) {
  Workload w;
  w.name = c.label;
  w.layers.push_back({"layer", c.m, c.k, c.n, 1});
  return w;
}

bool byte_aligned(const CrossCase& c, const SimConfig& cfg) {
  return psum_tiles_byte_aligned(c.m, c.n, cfg.arch.po, cfg.arch.pco,
                                 c.psum.psum_bits);
}

/// Upper bound on the simulator's extra PSUM bytes from whole-tile
/// rounding: one byte per tile transfer, on SRAM and on DRAM. Every tile
/// sees the per-element access count of the closed form.
struct RoundingBound {
  double sram_bytes = 0.0;
  double dram_bytes = 0.0;
};

RoundingBound rounding_bound(const CrossCase& c, const SimConfig& cfg) {
  const AccessCounts counts = compute_access_counts(
      c.df, LayerShape{"layer", c.m, c.k, c.n, 1}, cfg.arch, c.psum);
  const double tiles = static_cast<double>(
      psum_tile_count(c.m, c.n, cfg.arch.po, cfg.arch.pco));
  return {static_cast<double>(counts.psum_sram) * tiles,
          static_cast<double>(counts.psum_dram) * tiles};
}

class CrossValidation : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CrossValidation, SimEnergyMatchesAnalytic) {
  const CrossCase& c = GetParam();
  const SimConfig cfg = config_of(c);
  const Workload w = one_layer(c);

  WorkloadRunOptions opt;
  opt.shrink = 1;  // simulate the exact analytic shape
  opt.max_dim = kBig;
  const WorkloadRunResult r = run_workload(w, cfg, opt);

  const double analytic =
      workload_energy(c.df, w, cfg.arch, c.psum).total_pj();
  const double sim = r.energy_pj();
  ASSERT_GT(analytic, 0.0) << c.label;

  if (byte_aligned(c, cfg)) {
    EXPECT_NEAR(sim / analytic, 1.0, 1e-9) << c.label;
  } else {
    const EnergyCosts costs = EnergyCosts::horowitz();
    const RoundingBound b = rounding_bound(c, cfg);
    EXPECT_GT(sim, analytic) << c.label;
    EXPECT_LE(sim - analytic, b.sram_bytes * costs.esram_pj_per_byte +
                                  b.dram_bytes * costs.edram_pj_per_byte)
        << c.label;
  }
}

TEST_P(CrossValidation, SimLatencyMatchesPerformanceModel) {
  const CrossCase& c = GetParam();
  const SimConfig cfg = config_of(c);
  const Workload w = one_layer(c);

  WorkloadRunOptions opt;
  opt.shrink = 1;
  opt.max_dim = kBig;
  const WorkloadRunResult r = run_workload(w, cfg, opt);

  const WorkloadPerformance perf =
      workload_performance(c.df, w, cfg.arch, c.psum);
  // Tile-issue cycles are exact by construction.
  EXPECT_EQ(r.total.cycles, perf.total_cycles) << c.label;
  EXPECT_EQ(r.total.mac_ops, perf.total_macs) << c.label;
  if (byte_aligned(c, cfg)) {
    EXPECT_NEAR(r.latency_s() / perf.total_latency_s, 1.0, 1e-9) << c.label;
  } else {
    // Latency is max(compute, DRAM time) per layer, so the extra DRAM
    // bytes bound the gap.
    const double gap = r.latency_s() - perf.total_latency_s;
    EXPECT_GE(gap, 0.0) << c.label;
    EXPECT_LE(gap, rounding_bound(c, cfg).dram_bytes /
                       (PerfConfig{}.dram_bandwidth_gbps * 1e9))
        << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegimes, CrossValidation,
    ::testing::Values(
        CrossCase{Dataflow::kWS, 16, 32, 16, PsumConfig::baseline_int32(),
                  kBig, kBig, kBig, "ws_resident"},
        CrossCase{Dataflow::kWS, 32, 32, 16, PsumConfig::baseline_int32(),
                  kBig, kBig, 256, "ws_psum_spill"},
        CrossCase{Dataflow::kWS, 64, 16, 16, PsumConfig::baseline_int32(),
                  128, kBig, kBig, "ws_ifmap_spill"},
        CrossCase{Dataflow::kWS, 16, 48, 8, PsumConfig::apsq_int8(1), kBig,
                  kBig, kBig, "ws_apsq_gs1"},
        CrossCase{Dataflow::kWS, 16, 48, 8, PsumConfig::apsq_int8(3), kBig,
                  kBig, kBig, "ws_apsq_gs3"},
        CrossCase{Dataflow::kWS, 32, 32, 8, PsumConfig::apsq_int8(4), kBig,
                  kBig, 256, "ws_apsq_gs4_spill"},
        CrossCase{Dataflow::kWS, 16, 48, 8, PsumConfig::apsq_bits(4, 2), kBig,
                  kBig, kBig, "ws_apsq_int4"},
        CrossCase{Dataflow::kWS, 16, 48, 8, PsumConfig::apsq_bits(12, 2),
                  kBig, kBig, kBig, "ws_apsq_int12"},
        CrossCase{Dataflow::kIS, 16, 32, 16, PsumConfig::baseline_int32(),
                  kBig, kBig, kBig, "is_resident"},
        CrossCase{Dataflow::kIS, 32, 32, 32, PsumConfig::baseline_int32(),
                  kBig, 512, kBig, "is_weight_spill"},
        CrossCase{Dataflow::kIS, 16, 32, 64, PsumConfig::baseline_int32(),
                  kBig, kBig, 512, "is_psum_spill"},
        CrossCase{Dataflow::kIS, 12, 40, 12, PsumConfig::apsq_int8(2), kBig,
                  kBig, kBig, "is_apsq_gs2"},
        CrossCase{Dataflow::kWS, 13, 26, 9, PsumConfig::baseline_int32(),
                  kBig, kBig, kBig, "ws_ragged"},
        CrossCase{Dataflow::kIS, 13, 26, 9, PsumConfig::apsq_int8(3), kBig,
                  kBig, kBig, "is_ragged_apsq"},
        CrossCase{Dataflow::kOS, 16, 32, 16, PsumConfig::baseline_int32(),
                  kBig, kBig, kBig, "os_resident"},
        CrossCase{Dataflow::kOS, 32, 32, 32, PsumConfig::baseline_int32(),
                  kBig, 512, kBig, "os_weight_spill"},
        CrossCase{Dataflow::kOS, 13, 26, 9, PsumConfig::baseline_int32(),
                  kBig, kBig, kBig, "os_ragged"},
        // Sub-byte and non-power-of-two PSUM widths, PSQ and APSQ, on
        // tile-aligned shapes: exact.
        CrossCase{Dataflow::kWS, 16, 48, 8, PsumConfig{4, false, 1}, kBig,
                  kBig, kBig, "ws_psq_int4"},
        CrossCase{Dataflow::kWS, 16, 48, 8, PsumConfig{6, false, 1}, kBig,
                  kBig, kBig, "ws_psq_int6"},
        CrossCase{Dataflow::kWS, 16, 48, 8, PsumConfig{12, false, 1}, kBig,
                  kBig, kBig, "ws_psq_int12"},
        CrossCase{Dataflow::kWS, 16, 48, 8, PsumConfig::apsq_bits(6, 2), kBig,
                  kBig, kBig, "ws_apsq_int6"},
        CrossCase{Dataflow::kWS, 32, 32, 8, PsumConfig::apsq_bits(6, 4), kBig,
                  kBig, 128, "ws_apsq_int6_spill"},
        CrossCase{Dataflow::kIS, 12, 40, 12, PsumConfig{4, false, 1}, kBig,
                  kBig, kBig, "is_psq_int4"},
        CrossCase{Dataflow::kIS, 12, 40, 12, PsumConfig{6, false, 1}, kBig,
                  kBig, kBig, "is_psq_int6"},
        CrossCase{Dataflow::kIS, 12, 40, 12, PsumConfig{12, false, 1}, kBig,
                  kBig, kBig, "is_psq_int12"},
        CrossCase{Dataflow::kIS, 12, 40, 12, PsumConfig::apsq_bits(4, 2),
                  kBig, kBig, kBig, "is_apsq_int4"},
        CrossCase{Dataflow::kIS, 12, 40, 12, PsumConfig::apsq_bits(6, 2),
                  kBig, kBig, kBig, "is_apsq_int6"},
        CrossCase{Dataflow::kIS, 12, 40, 12, PsumConfig::apsq_bits(12, 2),
                  kBig, kBig, kBig, "is_apsq_int12"},
        // Ragged 6-bit, spilled: held to the rounding bound above.
        CrossCase{Dataflow::kWS, 13, 26, 9, PsumConfig::apsq_bits(6, 3), kBig,
                  kBig, 64, "ws_ragged_apsq_int6"}),
    [](const ::testing::TestParamInfo<CrossCase>& param_info) {
      return std::string(param_info.param.label);
    });

}  // namespace
}  // namespace apsq
