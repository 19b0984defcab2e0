// The telemetry registry's roll-up contract: per-layer LayerStats rows
// must sum back to the aggregates workload_performance reports — not
// within tolerance, but bit-for-bit (EXPECT_EQ on doubles), across the
// same buffer-fit regimes sim_vs_analytic_test cross-validates. Anything
// less would let telemetry drift from the numbers the DSE actually
// scores.
#include <gtest/gtest.h>

#include "sim/performance.hpp"
#include "sim/stats.hpp"

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

AcceleratorConfig arch_of(const CrossCase& c) {
  AcceleratorConfig arch;
  arch.po = 4;
  arch.pci = 4;
  arch.pco = 4;
  arch.ifmap_buf_bytes = c.ibuf;
  arch.weight_buf_bytes = c.wbuf;
  arch.ofmap_buf_bytes = c.obuf;
  return arch;
}

Workload one_layer(const CrossCase& c) {
  Workload w;
  w.name = c.label;
  w.layers.push_back({"layer", c.m, c.k, c.n, 1});
  return w;
}

class TelemetryRollUp : public ::testing::TestWithParam<CrossCase> {};

TEST_P(TelemetryRollUp, AnalyticRowsSumToWorkloadPerformance) {
  const CrossCase& c = GetParam();
  const AcceleratorConfig arch = arch_of(c);
  const Workload w = one_layer(c);

  const WorkloadTelemetry t = analytic_telemetry(c.df, w, arch, c.psum);
  ASSERT_EQ(t.rows.size(), w.layers.size()) << c.label;

  const WorkloadPerformance sum = t.roll_up();
  const WorkloadPerformance perf =
      workload_performance(c.df, w, arch, c.psum);
  EXPECT_EQ(sum.total_latency_s, perf.total_latency_s) << c.label;
  EXPECT_EQ(sum.total_compute_time_s, perf.total_compute_time_s) << c.label;
  EXPECT_EQ(sum.total_dram_time_s, perf.total_dram_time_s) << c.label;
  EXPECT_EQ(sum.total_cycles, perf.total_cycles) << c.label;
  EXPECT_EQ(sum.total_macs, perf.total_macs) << c.label;
  EXPECT_EQ(sum.mean_utilization, perf.mean_utilization) << c.label;
  EXPECT_EQ(sum.dram_bound_layers, perf.dram_bound_layers) << c.label;
  EXPECT_EQ(sum.layer_count, perf.layer_count) << c.label;
}

TEST_P(TelemetryRollUp, RowFieldsAreInternallyConsistent) {
  const CrossCase& c = GetParam();
  const WorkloadTelemetry t =
      analytic_telemetry(c.df, one_layer(c), arch_of(c), c.psum);
  ASSERT_FALSE(t.rows.empty()) << c.label;

  for (const LayerStats& ls : t.rows) {
    EXPECT_EQ(ls.layer_class, "layer");
    EXPECT_GE(ls.dram_bw_occupancy, 0.0) << c.label;
    EXPECT_LE(ls.dram_bw_occupancy, 1.0) << c.label;
    // Exactly one side of the overlap is exposed: a DRAM-bound layer
    // stalls compute, a compute-bound layer idles the DRAM channel.
    if (ls.perf.dram_bound) {
      EXPECT_EQ(ls.dram_idle_s, 0.0) << c.label;
      EXPECT_EQ(ls.compute_stall_s,
                ls.perf.dram_time_s - ls.perf.compute_time_s)
          << c.label;
    } else {
      EXPECT_EQ(ls.compute_stall_s, 0.0) << c.label;
      EXPECT_EQ(ls.dram_idle_s, ls.perf.compute_time_s - ls.perf.dram_time_s)
          << c.label;
    }
    // The operand split, added left to right, is the total exactly.
    const double split = ls.dram_operand_bytes[0] + ls.dram_operand_bytes[1] +
                         ls.dram_operand_bytes[2] + ls.dram_operand_bytes[3];
    EXPECT_EQ(split, ls.perf.dram_bytes) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegimes, TelemetryRollUp,
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
                  kBig, kBig, kBig, "os_ragged"}),
    [](const ::testing::TestParamInfo<CrossCase>& param_info) {
      return std::string(param_info.param.label);
    });

TEST(TelemetryRollUpMultiLayer, RepeatedLayersSumExactly) {
  // Repeats and heterogeneous shapes exercise the shared accumulation
  // helper the way real workloads do.
  Workload w;
  w.name = "bundle";
  w.layers.push_back({"qkv_proj", 16, 32, 16, 3});
  w.layers.push_back({"attn_scores", 13, 26, 9, 2});
  w.layers.push_back({"ffn_in", 32, 32, 16, 1});

  AcceleratorConfig arch;
  arch.po = 4;
  arch.pci = 4;
  arch.pco = 4;
  const PsumConfig psum = PsumConfig::baseline_int32();

  const WorkloadPerformance perf =
      workload_performance(Dataflow::kWS, w, arch, psum);
  const WorkloadPerformance sum =
      analytic_telemetry(Dataflow::kWS, w, arch, psum).roll_up();
  EXPECT_EQ(sum.total_latency_s, perf.total_latency_s);
  EXPECT_EQ(sum.total_compute_time_s, perf.total_compute_time_s);
  EXPECT_EQ(sum.total_dram_time_s, perf.total_dram_time_s);
  EXPECT_EQ(sum.total_cycles, perf.total_cycles);
  EXPECT_EQ(sum.total_macs, perf.total_macs);
  EXPECT_EQ(sum.mean_utilization, perf.mean_utilization);
  EXPECT_EQ(sum.dram_bound_layers, perf.dram_bound_layers);
  EXPECT_EQ(sum.layer_count, perf.layer_count);
}

TEST(LayerClassOf, CollapsesInstanceIndicesAndStageTags) {
  // Stage prefixes and trailing instance indices collapse; kernel-shape
  // suffixes and the functionally distinct fc1/fc2 pair do not.
  EXPECT_EQ(layer_class_of("qkv_proj"), "qkv_proj");
  EXPECT_EQ(layer_class_of("patch_embed1"), "patch_embed");
  EXPECT_EQ(layer_class_of("patch_embed4"), "patch_embed");
  EXPECT_EQ(layer_class_of("head_linear3"), "head_linear");
  EXPECT_EQ(layer_class_of("head_in3"), "head_in");
  EXPECT_EQ(layer_class_of("s1_q_proj"), "q_proj");
  EXPECT_EQ(layer_class_of("s4_q_proj"), "q_proj");
  EXPECT_EQ(layer_class_of("s3_evit_qkv"), "evit_qkv");
  EXPECT_EQ(layer_class_of("s1_mb_dw3x3"), "mb_dw3x3");
  EXPECT_EQ(layer_class_of("s3_evit_aggreg5x5"), "evit_aggreg5x5");
  EXPECT_EQ(layer_class_of("s2_mlp_fc1"), "mlp_fc1");
  EXPECT_EQ(layer_class_of("s2_mlp_fc2"), "mlp_fc2");
  EXPECT_EQ(layer_class_of("stem_conv"), "stem_conv");
  EXPECT_EQ(layer_class_of("123"), "123");   // all digits: unchanged
  EXPECT_EQ(layer_class_of("layer"), "layer");
}

}  // namespace
}  // namespace apsq
