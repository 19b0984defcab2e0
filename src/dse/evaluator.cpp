#include "dse/evaluator.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "dse/accuracy_proxy.hpp"
#include "energy/energy_model.hpp"
#include "energy/layer_traffic.hpp"
#include "models/bert.hpp"
#include "models/efficientvit.hpp"
#include "models/llama2.hpp"
#include "models/segformer.hpp"
#include "sim/performance.hpp"
#include "sim/stats.hpp"

namespace apsq::dse {

const char* to_string(EvalBackend) { return "analytic"; }

EvalBackend parse_backend(const std::string& name) {
  if (name == "analytic") return EvalBackend::kAnalytic;
  // invalid_argument (not APSQ_CHECK) keeps the message clean for CLI
  // diagnostics — parse_enum_flag prints it verbatim after the flag name.
  if (name == "sim" || name == "mixed")
    throw std::invalid_argument("backend " + name +
                                " was removed: scoring is analytic only "
                                "(expected analytic)");
  throw std::invalid_argument("unknown backend: " + name +
                              " (expected analytic)");
}

Evaluator::Evaluator(EvaluatorOptions opt) : opt_(opt) {
  APSQ_CHECK_MSG(opt_.threads >= 1, "Evaluator needs >= 1 thread");
}

const Workload& Evaluator::workload(const std::string& name) {
  // Built once, never mutated afterwards — safe to share across workers.
  static const std::unordered_map<std::string, Workload> registry = [] {
    std::unordered_map<std::string, Workload> r;
    r.emplace("bert", bert_base_workload());
    r.emplace("llama2", llama2_7b_workload());
    r.emplace("segformer", segformer_b0_workload());
    r.emplace("efficientvit", efficientvit_b1_workload());
    return r;
  }();
  const auto it = registry.find(name);
  APSQ_CHECK_MSG(it != registry.end(), "unknown workload: " << name);
  return it->second;
}

namespace {

/// The accuracy sub-key: the proxy reads only (workload, psum, pci).
PointKey accuracy_key(const PointKey& k) {
  PointKey a;
  a.workload = k.workload;
  a.psum_bits = k.psum_bits;
  a.apsq = k.apsq;
  a.group_size = k.group_size;
  a.pci = k.pci;
  return a;
}

}  // namespace

double Evaluator::error_for(const DesignPoint& p, const PointKey& key) {
  return accuracy_tt_.lookup_or_compute(accuracy_key(key), [&] {
    return psum_error_proxy(workload(p.workload), p.psum, p.acc.pci,
                            opt_.seed);
  });
}

void Evaluator::fill_accuracy(
    index_t n, const std::function<DesignPoint(index_t)>& point_at) {
  // The missing keys, grouped per workload in first-seen order.
  struct Missing {
    std::string workload;
    std::vector<PointKey> keys;
    std::vector<ProxyQuery> queries;
  };
  std::vector<Missing> missing;
  std::unordered_set<PointKey> seen;
  for (index_t i = 0; i < n; ++i) {
    const DesignPoint p = point_at(i);
    p.validate();
    const PointKey key = accuracy_key(PointKey::of(p));
    if (accuracy_tt_.contains(key) || !seen.insert(key).second) continue;
    auto m = std::find_if(missing.begin(), missing.end(), [&](const Missing& x) {
      return x.workload == p.workload;
    });
    if (m == missing.end()) {
      missing.push_back(Missing{p.workload, {}, {}});
      m = missing.end() - 1;
    }
    m->keys.push_back(key);
    m->queries.push_back({p.psum, p.acc.pci});
  }
  if (missing.empty()) return;

  // One work unit per (workload, representative layer); each unit draws
  // and frees its own tile stream.
  std::vector<ProxyBatch> batches;
  batches.reserve(missing.size());
  std::vector<std::pair<size_t, size_t>> units;
  for (const Missing& m : missing) {
    batches.emplace_back(workload(m.workload), m.queries, opt_.seed);
    for (size_t l = 0; l < batches.back().layer_count(); ++l)
      units.emplace_back(batches.size() - 1, l);
  }
  parallel_for_points(static_cast<index_t>(units.size()), [&](index_t u) {
    const auto& [b, l] = units[static_cast<size_t>(u)];
    batches[b].score_layer(l);
  });
  for (size_t b = 0; b < batches.size(); ++b) {
    const std::vector<double> values = batches[b].results();
    for (size_t k = 0; k < values.size(); ++k)
      accuracy_tt_.fill(missing[b].keys[k], values[k]);
  }
}

WorkloadTelemetry Evaluator::telemetry_for(const DesignPoint& p) {
  p.validate();
  WorkloadTelemetry t =
      analytic_telemetry(p.dataflow, workload(p.workload), p.acc, p.psum,
                         opt_.perf);
  t.workload = p.workload;  // the registry key, matching results_csv rows
  return t;
}

Objectives Evaluator::score(const DesignPoint& p, const PointKey& key) {
  p.validate();
  Objectives obj;
  // The RAE is only instantiated for APSQ configs (a plain low-bit or
  // full-precision PSUM path needs no requantization engine).
  obj.area_um2 = accelerator_area_um2(p.acc, p.psum.apsq, opt_.area_lib);
  obj.error = error_for(p, key);
  // One pass over the layers: each layer's traffic feeds both roll-ups,
  // accumulated exactly as workload_energy and workload_performance do,
  // so both are bit-identical to the standalone models.
  EnergyBreakdown energy;
  WorkloadPerformance perf;
  double util_weighted = 0.0;
  for (const LayerShape& layer : workload(p.workload).layers) {
    const LayerTraffic t = layer_traffic(p.dataflow, layer, p.acc, p.psum);
    const EnergyBreakdown e = layer_energy(layer, t, opt_.costs);
    // Repeated adds, not one multiply, to stay bit-identical to
    // workload_energy.
    for (index_t i = 0; i < layer.repeat; ++i) energy += e;
    accumulate_layer_performance(
        perf, layer_performance(layer, p.acc, t, opt_.perf), layer.repeat,
        util_weighted);
  }
  finalize_mean_utilization(perf, util_weighted);
  obj.energy_pj = energy.total_pj();
  obj.latency_s = perf.total_latency_s;
  obj.pe_utilization = perf.mean_utilization;
  obj.dram_bw_headroom = std::max(0.0, 1.0 - perf.dram_bw_occupancy());
  // Effective GMAC/s per mm² of silicon; 0 for a degenerate point rather
  // than inf/NaN (the finiteness gate below would reject those).
  obj.throughput_per_area =
      obj.latency_s > 0.0 && obj.area_um2 > 0.0
          ? perf.effective_gmacs() / (obj.area_um2 / 1e6)
          : 0.0;
  // A NaN objective would make Pareto dominance non-transitive and poison
  // front extraction; reject it at ingestion, where the offending point is
  // still known.
  APSQ_CHECK_MSG(obj.all_finite(),
                 "non-finite objective for " << canonical_key(p));
  return obj;
}

EvalResult Evaluator::evaluate_point(const DesignPoint& p, EvalBackend) {
  scored_.fetch_add(1, std::memory_order_relaxed);
  return {p, score(p, PointKey::of(p))};
}

std::vector<EvalResult> Evaluator::evaluate_points_at(
    const std::vector<DesignPoint>& pts, EvalBackend) {
  const index_t n = static_cast<index_t>(pts.size());
  std::vector<EvalResult> out(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) out[i].point = pts[i];
  evaluate_rows(n, [&](index_t i) -> EvalResult& {
    return out[static_cast<size_t>(i)];
  });
  return out;
}

void Evaluator::evaluate_rows(
    index_t n, const std::function<EvalResult&(index_t)>& row) {
  fill_accuracy(n, [&](index_t i) { return row(i).point; });
  scored_.fetch_add(n, std::memory_order_relaxed);
  parallel_for_points(n, [&](index_t i) {
    EvalResult& r = row(i);
    r.obj = score(r.point, PointKey::of(r.point));
  });
}

std::vector<EvalResult> Evaluator::evaluate_points(
    const std::vector<DesignPoint>& pts) {
  return evaluate_points_at(pts, EvalBackend::kAnalytic);
}

EvalResult Evaluator::evaluate(const DesignPoint& p) {
  return evaluate_point(p, EvalBackend::kAnalytic);
}

std::vector<EvalResult> Evaluator::evaluate_space(const ConfigSpace& space) {
  space.validate();
  fill_accuracy(space.size(), [&](index_t i) { return space.at(i); });
  scored_.fetch_add(space.size(), std::memory_order_relaxed);
  std::vector<EvalResult> out(static_cast<size_t>(space.size()));
  parallel_for_points(space.size(), [&](index_t i) {
    EvalResult& r = out[static_cast<size_t>(i)];
    r.point = space.at(i);
    r.obj = score(r.point, PointKey::of(r.point));
  });
  return out;
}

void Evaluator::parallel_for_points(
    index_t n, const std::function<void(index_t)>& fn) {
  if (opt_.threads > 1) {
    WorkStealingPool::shared().parallel_for(n, fn);
  } else {
    for (index_t i = 0; i < n; ++i) fn(i);
  }
}

CacheStats Evaluator::accuracy_cache_stats() const {
  return accuracy_tt_.stats();
}
CacheStats Evaluator::score_tt_stats() const {
  CacheStats s;
  s.misses = scored_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace apsq::dse
