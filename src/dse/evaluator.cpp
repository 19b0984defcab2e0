#include "dse/evaluator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "dse/accuracy_proxy.hpp"
#include "dse/names.hpp"
#include "dse/pareto.hpp"
#include "energy/energy_model.hpp"
#include "models/bert.hpp"
#include "models/efficientvit.hpp"
#include "models/llama2.hpp"
#include "models/segformer.hpp"
#include "sim/performance.hpp"
#include "sim/stats.hpp"

namespace apsq::dse {

const char* to_string(EvalBackend b) {
  const auto& table = backend_names();
  const size_t i = static_cast<size_t>(b);
  APSQ_CHECK_MSG(i < table.size() && table[i].backend == b,
                 "backend naming table out of sync");
  return table[i].name;
}

EvalBackend parse_backend(const std::string& name) {
  for (const BackendName& row : backend_names())
    if (name == row.name) return row.backend;
  // invalid_argument (not APSQ_CHECK) keeps the message clean for CLI
  // diagnostics — parse_enum_flag prints it verbatim after the flag name.
  throw std::invalid_argument("unknown backend: " + name + " (expected " +
                              backend_name_list() + ")");
}

const char* to_string(PromoteMode m) {
  switch (m) {
    case PromoteMode::kBand: return "band";
    case PromoteMode::kAdaptive: return "adaptive";
    case PromoteMode::kBudget: return "budget";
  }
  APSQ_CHECK_MSG(false, "unknown promote mode");
  return "";
}

Evaluator::Evaluator(EvaluatorOptions opt) : opt_(opt) {
  APSQ_CHECK_MSG(opt_.threads >= 1, "Evaluator needs >= 1 thread");
  APSQ_CHECK_MSG(opt_.sim.threads >= 1, "sim runner needs >= 1 thread");
  APSQ_CHECK_MSG(opt_.promote_band >= 0.0,
                 "promote_band must be >= 0, got " << opt_.promote_band);
  APSQ_CHECK_MSG(opt_.promote_budget >= 0,
                 "promote_budget must be >= 0, got " << opt_.promote_budget);
  APSQ_CHECK_MSG(!(opt_.promote_adaptive && opt_.promote_budget > 0),
                 "adaptive and budgeted promotion are mutually exclusive");
  APSQ_CHECK_MSG(opt_.adaptive_start > 0.0 &&
                     std::isfinite(opt_.adaptive_start),
                 "adaptive_start must be a positive finite band, got "
                     << opt_.adaptive_start);
  APSQ_CHECK_MSG(opt_.adaptive_growth > 1.0,
                 "adaptive_growth must be > 1, got " << opt_.adaptive_growth);
  APSQ_CHECK_MSG(opt_.adaptive_stability >= 1,
                 "adaptive_stability must be >= 1, got "
                     << opt_.adaptive_stability);
  // Mixed puts phase-2 sim scores next to phase-1 analytic ones, so the
  // sim scores must be in analytic absolute units: calibration is not
  // optional there.
  if (opt_.backend == EvalBackend::kMixed) opt_.calibrate = true;
  if (opt_.calibrate && opt_.backend != EvalBackend::kAnalytic) {
    Calibrator::Options copt;
    copt.sim = opt_.sim;
    copt.costs = opt_.costs;
    copt.perf = opt_.perf;
    calibrator_ = std::make_unique<Calibrator>(copt);
  }
}

Evaluator::~Evaluator() = default;

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

double Evaluator::energy_for(const DesignPoint& p) {
  return energy_tt_.lookup_or_compute(canonical_key(p), [&] {
    return workload_energy(p.dataflow, workload(p.workload), p.acc, p.psum,
                           opt_.costs)
        .total_pj();
  });
}

double Evaluator::area_for(const DesignPoint& p) {
  // Area ignores workload and dataflow; the RAE is only instantiated for
  // APSQ configs (a plain low-bit or full-precision PSUM path needs no
  // requantization engine).
  std::ostringstream key;
  key << "po=" << p.acc.po << "|pci=" << p.acc.pci << "|pco=" << p.acc.pco
      << "|bi=" << p.acc.ifmap_buf_bytes << "|bo=" << p.acc.ofmap_buf_bytes
      << "|bw=" << p.acc.weight_buf_bytes << "|ab=" << p.acc.act_bits
      << "|wb=" << p.acc.weight_bits << "|rae=" << (p.psum.apsq ? 1 : 0);
  return area_tt_.lookup_or_compute(key.str(), [&] {
    return p.psum.apsq
               ? accelerator_with_rae_area(p.acc, opt_.area_lib).total_um2()
               : baseline_accelerator_area(p.acc, opt_.area_lib).total_um2();
  });
}

namespace {

std::string accuracy_key(const DesignPoint& p) {
  std::ostringstream key;
  key << "wl=" << p.workload << "|pb=" << p.psum.psum_bits
      << "|apsq=" << (p.psum.apsq ? 1 : 0) << "|gs=" << p.psum.group_size
      << "|pci=" << p.acc.pci;
  return key.str();
}

}  // namespace

double Evaluator::error_for(const DesignPoint& p) {
  return accuracy_tt_.lookup_or_compute(accuracy_key(p), [&] {
    return psum_error_proxy(workload(p.workload), p.psum, p.acc.pci,
                            opt_.seed);
  });
}

void Evaluator::fill_accuracy(
    index_t n, const std::function<DesignPoint(index_t)>& point_at) {
  // The missing keys, grouped per workload in first-seen order.
  struct Missing {
    std::string workload;
    std::vector<std::string> keys;
    std::vector<ProxyQuery> queries;
  };
  std::vector<Missing> missing;
  std::unordered_set<std::string> seen;
  for (index_t i = 0; i < n; ++i) {
    const DesignPoint p = point_at(i);
    p.validate();
    std::string key = accuracy_key(p);
    if (accuracy_tt_.contains(key) || !seen.insert(key).second) continue;
    auto m = std::find_if(missing.begin(), missing.end(), [&](const Missing& x) {
      return x.workload == p.workload;
    });
    if (m == missing.end()) {
      missing.push_back(Missing{p.workload, {}, {}});
      m = missing.end() - 1;
    }
    m->keys.push_back(std::move(key));
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

Evaluator::PerfScore Evaluator::perf_score_for(const DesignPoint& p) {
  return latency_tt_.lookup_or_compute(canonical_key(p), [&]() -> PerfScore {
    const WorkloadPerformance perf = workload_performance(
        p.dataflow, workload(p.workload), p.acc, p.psum, opt_.perf);
    PerfScore s;
    s.latency_s = perf.total_latency_s;
    s.pe_utilization = perf.mean_utilization;
    s.dram_bw_occupancy = perf.total_latency_s > 0.0
                              ? perf.total_dram_time_s / perf.total_latency_s
                              : 0.0;
    s.macs = static_cast<double>(perf.total_macs);
    return s;
  });
}

Evaluator::SimScore Evaluator::sim_score_for(const DesignPoint& p) {
  return sim_tt_.lookup_or_compute(canonical_key(p), [&]() -> SimScore {
    // With sim.threads > 1 the layer loop submits a nested scope into the
    // process-wide shared pool — the same pool a parallel evaluate_space
    // is running on — so point- and layer-level parallelism compose
    // without oversubscription (the pool's width bounds concurrency).
    const Workload& w = workload(p.workload);
    const SimConfig cfg = sim_config_for(p);
    const WorkloadRunResult r = run_workload(w, cfg, opt_.sim);
    SimScore s;
    // Utilization is a ratio of the scaled proxy's own measurements, so it
    // needs no calibration — and the run_* helpers are allocation-free,
    // keeping the scoring hot path free of telemetry-row construction.
    s.pe_utilization = run_pe_utilization(
        r, static_cast<double>(cfg.arch.po) * static_cast<double>(cfg.arch.pci) *
               static_cast<double>(cfg.arch.pco));
    if (calibrator_) {
      if (opt_.calibrate_per_class) {
        const ClassFactors cf = calibrator_->class_factors_for(p.workload, w, p);
        s.energy_pj = calibrator_->calibrated_energy_pj(r, cf);
        s.latency_s = calibrator_->calibrated_latency_s(r, cf);
        s.dram_bw_occupancy = run_dram_bw_occupancy(r, opt_.perf, cf.fallback);
        s.macs = cf.fallback.macs * static_cast<double>(r.total.mac_ops);
      } else {
        const CalibrationFactors f = calibrator_->factors_for(p.workload, w, p);
        s.energy_pj = calibrator_->calibrated_energy_pj(r, f);
        s.latency_s = calibrator_->calibrated_latency_s(r, f);
        s.dram_bw_occupancy = run_dram_bw_occupancy(r, opt_.perf, f);
        s.macs = f.macs * static_cast<double>(r.total.mac_ops);
      }
    } else {
      s.energy_pj = r.energy_pj(opt_.costs);
      s.latency_s = r.latency_s(opt_.perf);
      s.dram_bw_occupancy =
          run_dram_bw_occupancy(r, opt_.perf, CalibrationFactors{});
      s.macs = static_cast<double>(r.total.mac_ops);
    }
    return s;
  });
}

WorkloadTelemetry Evaluator::telemetry_for(const DesignPoint& p,
                                           EvalBackend fidelity) {
  p.validate();
  APSQ_CHECK_MSG(fidelity != EvalBackend::kMixed,
                 "telemetry_for needs a single-fidelity backend");
  const Workload& w = workload(p.workload);
  WorkloadTelemetry t;
  if (fidelity == EvalBackend::kAnalytic) {
    t = analytic_telemetry(p.dataflow, w, p.acc, p.psum, opt_.perf);
  } else {
    const SimConfig cfg = sim_config_for(p);
    const WorkloadRunResult r = run_workload(w, cfg, opt_.sim);
    if (calibrator_) {
      const CalibrationFactors f = calibrator_->factors_for(p.workload, w, p);
      t = sim_telemetry(r, cfg, opt_.perf, f, "sim+cal");
    } else {
      t = sim_telemetry(r, cfg, opt_.perf);
    }
  }
  t.workload = p.workload;  // the registry key, matching results_csv rows
  return t;
}

EvalResult Evaluator::evaluate_at(const DesignPoint& p, EvalBackend fidelity) {
  p.validate();
  EvalResult r;
  r.point = p;
  r.obj.area_um2 = area_for(p);
  r.obj.error = error_for(p);
  double macs = 0.0;
  if (fidelity == EvalBackend::kSim) {
    const SimScore s = sim_score_for(p);
    r.obj.energy_pj = s.energy_pj;
    r.obj.latency_s = s.latency_s;
    r.obj.pe_utilization = s.pe_utilization;
    r.obj.dram_bw_headroom = std::max(0.0, 1.0 - s.dram_bw_occupancy);
    macs = s.macs;
    r.scored_by = calibrator_ ? "sim+cal" : "sim";
  } else {
    const PerfScore s = perf_score_for(p);
    r.obj.energy_pj = energy_for(p);
    r.obj.latency_s = s.latency_s;
    r.obj.pe_utilization = s.pe_utilization;
    r.obj.dram_bw_headroom = std::max(0.0, 1.0 - s.dram_bw_occupancy);
    macs = s.macs;
    r.scored_by = "analytic";
  }
  // Effective GMAC/s per mm² of silicon; 0 for a degenerate point rather
  // than inf/NaN (the finiteness gate below would reject those).
  r.obj.throughput_per_area =
      r.obj.latency_s > 0.0 && r.obj.area_um2 > 0.0
          ? (macs / 1e9 / r.obj.latency_s) / (r.obj.area_um2 / 1e6)
          : 0.0;
  // A NaN objective would make Pareto dominance non-transitive and poison
  // front extraction; reject it at ingestion, where the offending point is
  // still known.
  APSQ_CHECK_MSG(r.obj.all_finite(),
                 "non-finite objective for " << canonical_key(p));
  return r;
}

EvalResult Evaluator::evaluate_point(const DesignPoint& p,
                                     EvalBackend fidelity) {
  APSQ_CHECK_MSG(fidelity != EvalBackend::kMixed,
                 "evaluate_point needs a single-fidelity backend");
  // Whole-result memo: the fidelity tag keeps one point's analytic and
  // sim scores as distinct rows — a mixed-pipeline promotion must never
  // be answered by the analytic prefilter's entry.
  const std::string key =
      (fidelity == EvalBackend::kSim ? "s|" : "a|") + canonical_key(p);
  return score_tt_.lookup_or_compute(key, [&] { return evaluate_at(p, fidelity); });
}

std::vector<EvalResult> Evaluator::evaluate_points_at(
    const std::vector<DesignPoint>& pts, EvalBackend fidelity) {
  fill_accuracy(static_cast<index_t>(pts.size()),
                [&](index_t i) { return pts[static_cast<size_t>(i)]; });
  std::vector<EvalResult> out(pts.size());
  parallel_for_points(static_cast<index_t>(pts.size()), [&](index_t i) {
    out[static_cast<size_t>(i)] =
        evaluate_point(pts[static_cast<size_t>(i)], fidelity);
  });
  return out;
}

EvalResult Evaluator::evaluate(const DesignPoint& p) {
  // A single point is trivially its own Pareto front, so the mixed
  // backend always promotes it: score it at sim fidelity.
  return evaluate_point(p, opt_.backend == EvalBackend::kAnalytic
                               ? EvalBackend::kAnalytic
                               : EvalBackend::kSim);
}

std::vector<EvalResult> Evaluator::evaluate_space(const ConfigSpace& space) {
  space.validate();
  fill_accuracy(space.size(), [&](index_t i) { return space.at(i); });
  std::vector<DesignPoint> pts;
  if (opt_.backend == EvalBackend::kMixed) {
    // Materialize the space once; the mixed pipeline indexes the point
    // list twice (phase 1 everywhere, phase 2 on the promoted slots).
    pts.reserve(static_cast<size_t>(space.size()));
    for (index_t i = 0; i < space.size(); ++i) pts.push_back(space.at(i));
    return mixed_sweep(pts);
  }
  std::vector<EvalResult> out(static_cast<size_t>(space.size()));
  parallel_for_points(space.size(), [&](index_t i) {
    out[static_cast<size_t>(i)] = evaluate(space.at(i));
  });
  return out;
}

std::vector<EvalResult> Evaluator::evaluate_points(
    const std::vector<DesignPoint>& pts) {
  fill_accuracy(static_cast<index_t>(pts.size()),
                [&](index_t i) { return pts[static_cast<size_t>(i)]; });
  if (opt_.backend == EvalBackend::kMixed) return mixed_sweep(pts);
  std::vector<EvalResult> out(pts.size());
  parallel_for_points(static_cast<index_t>(pts.size()), [&](index_t i) {
    out[static_cast<size_t>(i)] = evaluate(pts[static_cast<size_t>(i)]);
  });
  return out;
}

std::vector<EvalResult> Evaluator::mixed_sweep(
    const std::vector<DesignPoint>& pts) {
  using clock = std::chrono::steady_clock;
  MixedSweepStats stats;
  stats.total = static_cast<index_t>(pts.size());
  stats.mode = opt_.promote_adaptive  ? PromoteMode::kAdaptive
               : opt_.promote_budget > 0 ? PromoteMode::kBudget
                                         : PromoteMode::kBand;
  stats.budget = opt_.promote_budget;

  // Phase 1: cheap analytic scores for every point, in parallel on the
  // shared pool. Deterministic: results land in index-addressed slots.
  const auto t0 = clock::now();
  std::vector<EvalResult> out(pts.size());
  parallel_for_points(static_cast<index_t>(pts.size()), [&](index_t i) {
    out[static_cast<size_t>(i)] =
        evaluate_point(pts[static_cast<size_t>(i)], EvalBackend::kAnalytic);
  });
  stats.phase1_secs = std::chrono::duration<double>(clock::now() - t0).count();

  // Phase 2: promotion rounds. Every mode selects per workload — the
  // workload is a scenario, not a knob, so a point must survive against
  // its own workload's candidates (every cross-workload front member is
  // also a per-workload front member, so the global front is covered
  // too). Selection is pure and key-ordered, hence identical across
  // thread counts.
  const auto t1 = clock::now();
  std::vector<std::string> keys;
  keys.reserve(pts.size());
  for (const DesignPoint& p : pts) keys.push_back(canonical_key(p));
  std::vector<bool> simulated(pts.size(), false);
  index_t promoted_total = 0;

  // Re-score every not-yet-simulated slot whose key the selection names
  // with the calibrated sim, in slot order. The calibrator fits anchor
  // families lazily, so only promoted (workload, dataflow, psum) families
  // ever pay for anchor runs — and across adaptive rounds the sim and
  // calibration memo caches carry everything already paid for, so a round
  // only simulates its newly promoted points. `r0` is the caller's
  // selection start time, so rs.secs covers selection + simulation.
  const auto run_round = [&](double band, clock::time_point r0,
                             const std::unordered_set<std::string>& selected) {
    std::vector<index_t> fresh;  // slots to re-score, index order
    for (size_t i = 0; i < pts.size(); ++i)
      if (!simulated[i] && selected.count(keys[i])) {
        simulated[i] = true;
        fresh.push_back(static_cast<index_t>(i));
      }
    parallel_for_points(static_cast<index_t>(fresh.size()), [&](index_t j) {
      const index_t i = fresh[static_cast<size_t>(j)];
      out[static_cast<size_t>(i)] =
          evaluate_point(pts[static_cast<size_t>(i)], EvalBackend::kSim);
    });
    promoted_total += static_cast<index_t>(fresh.size());
    MixedRoundStats rs;
    rs.band = band;
    rs.promoted_new = static_cast<index_t>(fresh.size());
    rs.promoted_total = promoted_total;
    rs.secs = std::chrono::duration<double>(clock::now() - r0).count();
    return rs;
  };
  const auto keys_of_results = [](const std::vector<EvalResult>& results) {
    std::unordered_set<std::string> selected;
    selected.reserve(results.size());
    for (const EvalResult& r : results) selected.insert(canonical_key(r.point));
    return selected;
  };
  // The promoted front as a key list. Keys alone decide front stability:
  // a point's sim score is memoized and pure, so its objectives are
  // byte-identical in every round it appears — the front changes iff its
  // membership does.
  const auto front_keys_now = [&] {
    std::vector<std::string> fk;
    for (const EvalResult& f : pareto_front_by_workload(
             promoted_subset(out), opt_.promote_objectives))
      fk.push_back(canonical_key(f.point));
    return fk;
  };

  if (stats.mode == PromoteMode::kBudget) {
    const auto r0 = clock::now();
    std::vector<PromotionMargin> ranked =
        ranked_margins_by_workload(out, opt_.promote_objectives);
    if (static_cast<size_t>(opt_.promote_budget) < ranked.size())
      ranked.resize(static_cast<size_t>(opt_.promote_budget));
    std::unordered_set<std::string> selected;
    selected.reserve(ranked.size());
    for (const PromotionMargin& m : ranked)
      selected.insert(canonical_key(m.result.point));
    // The effective band the budget bought: the largest selected margin —
    // the rank order is margin-ascending, so that is the cut's last entry.
    const double effective_band =
        ranked.empty() ? 0.0 : ranked.back().enter_band;
    MixedRoundStats rs = run_round(effective_band, r0, selected);
    rs.front_size = static_cast<index_t>(front_keys_now().size());
    rs.front_changed = true;
    stats.band = effective_band;
    stats.rounds.push_back(rs);
  } else if (stats.mode == PromoteMode::kBand) {
    const auto r0 = clock::now();
    MixedRoundStats rs = run_round(
        opt_.promote_band, r0,
        keys_of_results(epsilon_band_by_workload(out, opt_.promote_band,
                                                 opt_.promote_objectives)));
    rs.front_size = static_cast<index_t>(front_keys_now().size());
    rs.front_changed = true;
    stats.band = opt_.promote_band;
    stats.rounds.push_back(rs);
  } else {
    // Adaptive: band ladder 0, start, start·growth, … — round 0 promotes
    // the analytic front itself, each widening adds its ε-shell. Stop
    // when the promoted front has been stable for adaptive_stability
    // consecutive widenings (the front-stability rule), or when every
    // point is already promoted (wider bands can select nothing new).
    //
    // Margins are computed once, over the phase-1 scores `out` still
    // holds here: from round 0 on, `out` mixes fidelities as promoted
    // slots acquire calibrated-sim values, and bands re-derived from
    // those would silently reshape the analytic prefilter geometry (a
    // sim score landing below its analytic estimate widens its
    // neighbours' apparent gaps, which could starve true front points
    // the same band over analytic scores — and the fixed --promote-band
    // path — would promote). Each round then just thresholds the fixed
    // margins at its band, so successive selections are nested and the
    // per-round work is O(n) instead of a fresh front extraction.
    std::vector<std::pair<std::string, PromotionMargin>> margins;
    for (PromotionMargin& m :
         promotion_margins_by_workload(out, opt_.promote_objectives)) {
      std::string key = canonical_key(m.result.point);
      margins.emplace_back(std::move(key), std::move(m));
    }
    double band = 0.0;
    int stable = 0;
    std::vector<std::string> prev_front;
    for (int round = 0;; ++round) {
      const auto r0 = clock::now();
      if (round == 1)
        band = opt_.adaptive_start;
      else if (round > 1)
        band *= opt_.adaptive_growth;
      std::unordered_set<std::string> selected;
      for (const auto& [key, margin] : margins)
        if (margin.in_band(band)) selected.insert(key);
      MixedRoundStats rs = run_round(band, r0, selected);
      std::vector<std::string> front = front_keys_now();
      rs.front_size = static_cast<index_t>(front.size());
      rs.front_changed = round == 0 || front != prev_front;
      prev_front = std::move(front);
      stats.rounds.push_back(rs);
      if (promoted_total == stats.total) break;
      if (round > 0) stable = rs.front_changed ? 0 : stable + 1;
      if (stable >= opt_.adaptive_stability) break;
    }
    stats.band = band;
  }

  stats.promoted = promoted_total;
  stats.phase2_secs = std::chrono::duration<double>(clock::now() - t1).count();
  mixed_stats_ = stats;
  return out;
}

std::vector<EvalResult> promoted_subset(
    const std::vector<EvalResult>& results) {
  std::vector<EvalResult> out;
  for (const EvalResult& r : results)
    if (r.scored_by == "sim" || r.scored_by == "sim+cal") out.push_back(r);
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

CacheStats Evaluator::energy_cache_stats() const { return energy_tt_.stats(); }
CacheStats Evaluator::area_cache_stats() const { return area_tt_.stats(); }
CacheStats Evaluator::accuracy_cache_stats() const {
  return accuracy_tt_.stats();
}
CacheStats Evaluator::latency_cache_stats() const {
  return latency_tt_.stats();
}
CacheStats Evaluator::sim_cache_stats() const { return sim_tt_.stats(); }
CacheStats Evaluator::score_tt_stats() const { return score_tt_.stats(); }

}  // namespace apsq::dse
