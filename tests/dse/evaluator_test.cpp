#include "dse/evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "dse/pareto.hpp"
#include "dse/report.hpp"
#include "energy/energy_model.hpp"
#include "sim/stats.hpp"

namespace apsq::dse {
namespace {

DesignPoint bert_point(PsumConfig psum) {
  DesignPoint p;
  p.workload = "bert";
  p.dataflow = Dataflow::kWS;
  p.psum = psum;
  return p;
}

TEST(Evaluator, ObjectivesAreSane) {
  Evaluator eval;
  const EvalResult base = eval.evaluate(bert_point(PsumConfig::baseline_int32()));
  const EvalResult apsq8 = eval.evaluate(bert_point(PsumConfig::apsq_int8(2)));

  // APSQ INT8 saves energy vs the INT32 baseline (the paper's headline).
  EXPECT_LT(apsq8.obj.energy_pj, base.obj.energy_pj);
  // Full-precision storage has zero quantization error; APSQ has some.
  EXPECT_EQ(base.obj.error, 0.0);
  EXPECT_GT(apsq8.obj.error, 0.0);
  // The RAE costs area on top of the baseline accelerator.
  EXPECT_GT(apsq8.obj.area_um2, base.obj.area_um2);
  EXPECT_GT(base.obj.area_um2, 0.0);
}

TEST(Evaluator, ErrorProxyImprovesWithBitsAndGroupSize) {
  Evaluator eval;
  const double e4 = eval.evaluate(bert_point(PsumConfig::apsq_bits(4, 1))).obj.error;
  const double e8 = eval.evaluate(bert_point(PsumConfig::apsq_bits(8, 1))).obj.error;
  EXPECT_GT(e4, e8);  // fewer bits, more error (Fig. 5 trend)

  const double gs1 = eval.evaluate(bert_point(PsumConfig::apsq_bits(4, 1))).obj.error;
  const double gs4 = eval.evaluate(bert_point(PsumConfig::apsq_bits(4, 4))).obj.error;
  EXPECT_GE(gs1, gs4);  // larger groups fold history less often (§III-B)
}

TEST(Evaluator, RepeatedEvaluationHitsTheCacheAndMatches) {
  Evaluator eval;
  const DesignPoint p = bert_point(PsumConfig::apsq_int8(2));
  const EvalResult a = eval.evaluate(p);
  EXPECT_EQ(eval.score_tt_stats().misses, 1);
  EXPECT_EQ(eval.score_tt_stats().hits, 0);
  EXPECT_EQ(eval.area_cache_stats().misses, 1);

  const EvalResult b = eval.evaluate(p);
  // The repeat is a whole-result transposition-table hit — the sub-caches
  // are never consulted again.
  EXPECT_EQ(eval.score_tt_stats().misses, 1);
  EXPECT_EQ(eval.score_tt_stats().hits, 1);
  EXPECT_EQ(eval.area_cache_stats().lookups(), 1);
  EXPECT_EQ(eval.accuracy_cache_stats().lookups(), 1);

  // Bit-identical, not just close.
  EXPECT_EQ(a.obj.energy_pj, b.obj.energy_pj);
  EXPECT_EQ(a.obj.area_um2, b.obj.area_um2);
  EXPECT_EQ(a.obj.error, b.obj.error);
}

TEST(Evaluator, SubEvaluationCachesShareAcrossPoints) {
  // Same geometry + psum mode, different dataflow: area and accuracy are
  // sub-key cache hits even though the full points differ.
  Evaluator eval;
  DesignPoint a = bert_point(PsumConfig::apsq_int8(2));
  DesignPoint b = a;
  b.dataflow = Dataflow::kIS;
  eval.evaluate(a);
  eval.evaluate(b);
  EXPECT_EQ(eval.area_cache_stats().hits, 1);
  EXPECT_EQ(eval.accuracy_cache_stats().hits, 1);
  EXPECT_EQ(eval.score_tt_stats().misses, 2);  // the full points differ
}

TEST(Evaluator, ParallelEqualsSerialByteIdentical) {
  const ConfigSpace space = ConfigSpace::smoke();

  EvaluatorOptions serial_opt;
  serial_opt.threads = 1;
  Evaluator serial(serial_opt);
  const std::string serial_csv =
      results_csv(serial.evaluate_space(space)).to_string();

  for (int threads : {2, 4}) {
    EvaluatorOptions par_opt;
    par_opt.threads = threads;
    Evaluator parallel(par_opt);
    const std::string par_csv =
        results_csv(parallel.evaluate_space(space)).to_string();
    EXPECT_EQ(serial_csv, par_csv) << "threads=" << threads;
  }
}

TEST(Evaluator, CacheStatsReconcileWithLookups) {
  // hits + misses + races must equal the lookup count for any schedule —
  // the races counter absorbs duplicate computes under contention. The
  // whole-result score TT fronts the sub-caches, so the warm re-run is
  // pure score-TT hits and never reaches them.
  const ConfigSpace space = ConfigSpace::smoke();
  EvaluatorOptions opt;
  opt.threads = 4;
  Evaluator eval(opt);
  eval.evaluate_space(space);
  eval.evaluate_space(space);  // warm re-run: all score-TT hits
  const i64 cold = space.size();
  const CacheStats ss = eval.score_tt_stats();
  EXPECT_EQ(ss.lookups(), 2 * cold);
  // Distinct-key counts are schedule-independent: misses + races ==
  // first-run computes, and the warm run added pure hits.
  EXPECT_EQ(ss.misses + ss.races, cold);
  EXPECT_EQ(ss.hits, cold);
  // The area table saw exactly the cold computes, once each.
  EXPECT_EQ(eval.area_cache_stats().lookups(), cold);
  // The accuracy table is filled before the cold point loop: one miss per
  // distinct key (smoke: one workload and one pci, so one key per PSUM
  // config), one hit per point read, and no races at any thread count —
  // the parallel fill scores distinct keys.
  const CacheStats as = eval.accuracy_cache_stats();
  EXPECT_EQ(as.misses, static_cast<i64>(space.psum_configs.size()));
  EXPECT_EQ(as.hits, cold);
  EXPECT_EQ(as.races, 0);
}

TEST(Evaluator, RepeatedCallsReuseThePersistentPool) {
  // Pool ownership is hoisted into the evaluator: back-to-back
  // evaluate_points calls are served by the same workers and stay
  // bit-identical to the first answer.
  EvaluatorOptions opt;
  opt.threads = 4;
  Evaluator eval(opt);
  const std::vector<DesignPoint> pts = {
      bert_point(PsumConfig::baseline_int32()),
      bert_point(PsumConfig::apsq_int8(1)),
      bert_point(PsumConfig::apsq_int8(4))};
  const std::vector<EvalResult> first = eval.evaluate_points(pts);
  for (int call = 0; call < 10; ++call) {
    const std::vector<EvalResult> again = eval.evaluate_points(pts);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(again[i].obj.energy_pj, first[i].obj.energy_pj);
      EXPECT_EQ(again[i].obj.latency_s, first[i].obj.latency_s);
    }
  }
}

TEST(Evaluator, BackendTakingEntryPointsMatchThePlainOnes) {
  // evaluate_point and evaluate_points_at keep their EvalBackend
  // parameter for existing callers. Analytic is its only value, so they
  // score exactly as evaluate and evaluate_points do.
  const std::vector<DesignPoint> pts = {
      bert_point(PsumConfig::baseline_int32()),
      bert_point(PsumConfig::apsq_int8(2)),
      bert_point(PsumConfig::apsq_bits(4, 1))};
  Evaluator plain;
  const std::string expected =
      results_csv(plain.evaluate_points(pts)).to_string();
  std::vector<EvalResult> one_by_one;
  for (const DesignPoint& p : pts) one_by_one.push_back(plain.evaluate(p));
  EXPECT_EQ(results_csv(one_by_one).to_string(), expected);

  Evaluator batch;
  EXPECT_EQ(
      results_csv(batch.evaluate_points_at(pts, EvalBackend::kAnalytic))
          .to_string(),
      expected);
  Evaluator single;
  std::vector<EvalResult> oracle;
  for (const DesignPoint& p : pts)
    oracle.push_back(single.evaluate_point(p, EvalBackend::kAnalytic));
  EXPECT_EQ(results_csv(oracle).to_string(), expected);
}

TEST(Evaluator, LatencyObjectiveMatchesPerformanceModel) {
  // The scorer evaluates each layer's traffic once and feeds energy and
  // performance from it. On every point of the paper space, each
  // closed-form objective must equal (EXPECT_EQ, no tolerance) the value
  // rebuilt from the standalone workload_energy, workload_performance and
  // area models.
  const EvaluatorOptions opt;
  Evaluator eval(opt);
  const std::vector<EvalResult> rows =
      eval.evaluate_space(ConfigSpace::paper_default());
  ASSERT_EQ(rows.size(), 1248u);
  for (const EvalResult& r : rows) {
    const DesignPoint& p = r.point;
    const Workload& w = Evaluator::workload(p.workload);
    const WorkloadPerformance perf =
        workload_performance(p.dataflow, w, p.acc, p.psum, opt.perf);
    const double area =
        (p.psum.apsq ? accelerator_with_rae_area(p.acc, opt.area_lib)
                     : baseline_accelerator_area(p.acc, opt.area_lib))
            .total_um2();
    const std::string key = canonical_key(p);
    ASSERT_GT(perf.total_latency_s, 0.0) << key;
    EXPECT_EQ(r.obj.energy_pj,
              workload_energy(p.dataflow, w, p.acc, p.psum, opt.costs)
                  .total_pj())
        << key;
    EXPECT_EQ(r.obj.area_um2, area) << key;
    EXPECT_EQ(r.obj.latency_s, perf.total_latency_s) << key;
    EXPECT_EQ(r.obj.pe_utilization, perf.mean_utilization) << key;
    EXPECT_EQ(r.obj.dram_bw_headroom,
              std::max(0.0, 1.0 - perf.total_dram_time_s /
                                      perf.total_latency_s))
        << key;
    EXPECT_EQ(r.obj.throughput_per_area,
              (static_cast<double>(perf.total_macs) / 1e9 /
               perf.total_latency_s) /
                  (area / 1e6))
        << key;
  }
}

TEST(Evaluator, NestedPointAndLayerParallelismMatchesFullySerial) {
  // An evaluator driven from a task of the process-wide shared pool runs
  // its point loop and its accuracy proxy's per-layer units as nested
  // scopes on that same pool. Every nesting must stay byte-identical to
  // the fully serial evaluator.
  const ConfigSpace space = ConfigSpace::smoke();
  constexpr index_t kOuter = 3;
  std::vector<std::string> serial(kOuter), nested(kOuter);
  for (index_t i = 0; i < kOuter; ++i) {
    EvaluatorOptions opt;
    opt.threads = 1;
    opt.seed = 0xD5E + static_cast<u64>(i);
    Evaluator eval(opt);
    serial[static_cast<size_t>(i)] =
        results_csv(eval.evaluate_space(space)).to_string();
  }
  WorkStealingPool::shared().parallel_for(kOuter, [&](index_t i) {
    EvaluatorOptions opt;
    opt.threads = 4;
    opt.seed = 0xD5E + static_cast<u64>(i);
    Evaluator eval(opt);
    nested[static_cast<size_t>(i)] =
        results_csv(eval.evaluate_space(space)).to_string();
  });
  for (size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], nested[i]) << "outer task " << i;
  // The seeds move the accuracy proxy, so the outer tasks really are
  // distinct evaluations.
  EXPECT_NE(serial[0], serial[1]);
}

TEST(Evaluator, SeedChangesProxyButNotEnergyOrArea) {
  EvaluatorOptions a_opt, b_opt;
  a_opt.seed = 1;
  b_opt.seed = 2;
  Evaluator a(a_opt), b(b_opt);
  const DesignPoint p = bert_point(PsumConfig::apsq_bits(4, 1));
  const EvalResult ra = a.evaluate(p), rb = b.evaluate(p);
  EXPECT_EQ(ra.obj.energy_pj, rb.obj.energy_pj);
  EXPECT_EQ(ra.obj.area_um2, rb.obj.area_um2);
  EXPECT_NE(ra.obj.error, rb.obj.error);  // different synthetic tile stream
}

TEST(Evaluator, PaperSweepFrontIsVerifiedNonDominated) {
  // The acceptance sweep: ≥500 points across all four workloads; every
  // front point must be non-dominated within the full result set and
  // every non-front point dominated by someone.
  const ConfigSpace space = ConfigSpace::paper_default();
  ASSERT_GE(space.size(), 500);

  EvaluatorOptions opt;
  opt.threads = 4;
  Evaluator eval(opt);
  const std::vector<EvalResult> results = eval.evaluate_space(space);
  ASSERT_EQ(static_cast<index_t>(results.size()), space.size());

  const std::vector<EvalResult> front = pareto_front(results);
  ASSERT_FALSE(front.empty());
  ASSERT_LT(front.size(), results.size());
  for (const EvalResult& f : front)
    EXPECT_FALSE(is_dominated(f, results)) << canonical_key(f.point);

  std::set<std::string> front_keys;
  for (const EvalResult& f : front) front_keys.insert(canonical_key(f.point));
  for (const EvalResult& r : results) {
    if (!front_keys.count(canonical_key(r.point))) {
      EXPECT_TRUE(is_dominated(r, results)) << canonical_key(r.point);
    }
  }

  // Per-workload (scenario) front: every point non-dominated within the
  // subset that shares its workload.
  for (const EvalResult& f : pareto_front_by_workload(results)) {
    std::vector<EvalResult> same;
    for (const EvalResult& r : results)
      if (r.point.workload == f.point.workload) same.push_back(r);
    EXPECT_FALSE(is_dominated(f, same)) << canonical_key(f.point);
  }
}

TEST(Evaluator, UnknownWorkloadThrows) {
  Evaluator eval;
  DesignPoint p = bert_point(PsumConfig::apsq_int8(1));
  p.workload = "resnet";
  EXPECT_THROW(eval.evaluate(p), std::logic_error);
}

TEST(Evaluator, WorkloadRegistryServesAllFour) {
  for (const char* name : {"bert", "llama2", "segformer", "efficientvit"})
    EXPECT_FALSE(Evaluator::workload(name).layers.empty()) << name;
}

TEST(Evaluator, NewObjectivesAreSane) {
  Evaluator eval;
  const EvalResult r = eval.evaluate(bert_point(PsumConfig::baseline_int32()));
  EXPECT_GT(r.obj.pe_utilization, 0.0);
  EXPECT_LE(r.obj.pe_utilization, 1.0);
  EXPECT_GE(r.obj.dram_bw_headroom, 0.0);
  EXPECT_LE(r.obj.dram_bw_headroom, 1.0);
  EXPECT_GT(r.obj.throughput_per_area, 0.0);
}

TEST(Evaluator, NewObjectivesMatchTelemetry) {
  // The scoring hot path computes pe_utilization / dram_bw_headroom from
  // the performance roll-up; the dump path rebuilds them from the
  // telemetry registry. Both derivations must agree exactly.
  Evaluator eval;
  const DesignPoint p = bert_point(PsumConfig::apsq_int8(2));
  const EvalResult a = eval.evaluate(p);
  const WorkloadTelemetry at = eval.telemetry_for(p);
  EXPECT_EQ(at.workload, "bert");
  EXPECT_EQ(at.roll_up().mean_utilization, a.obj.pe_utilization);
  EXPECT_EQ(std::max(0.0, 1.0 - at.roll_up().dram_bw_occupancy()),
            a.obj.dram_bw_headroom);
}

TEST(Evaluator, NewObjectiveFrontParallelEqualsSerialByteIdentical) {
  // The acceptance property behind `apsq_dse --objectives
  // energy,latency,pe_utilization,dram_bw_headroom --verify-serial`:
  // fronts over maximize objectives stay deterministic across threads.
  const ConfigSpace space = ConfigSpace::smoke();
  const ObjectiveSet objectives =
      ObjectiveSet::parse("energy,latency,pe_utilization,dram_bw_headroom");

  EvaluatorOptions serial_opt;
  serial_opt.threads = 1;
  Evaluator serial(serial_opt);
  const std::string serial_csv =
      results_csv(pareto_front_by_workload(serial.evaluate_space(space),
                                           objectives))
          .to_string();
  EXPECT_NE(serial_csv.find("pe_utilization"), std::string::npos);
  EXPECT_NE(serial_csv.find("dram_bw_headroom"), std::string::npos);
  EXPECT_NE(serial_csv.find("throughput_per_area"), std::string::npos);

  for (int threads : {2, 4}) {
    EvaluatorOptions par_opt;
    par_opt.threads = threads;
    Evaluator parallel(par_opt);
    EXPECT_EQ(serial_csv,
              results_csv(pareto_front_by_workload(
                              parallel.evaluate_space(space), objectives))
                  .to_string())
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace apsq::dse
