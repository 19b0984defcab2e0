#include "dse/sweep.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "dse/names.hpp"
#include "dse/pareto.hpp"
#include "dse/report.hpp"
#include "dse/store.hpp"

namespace apsq::dse {

const char* to_string(RunMode m) {
  switch (m) {
    case RunMode::kSweep: return "sweep";
    case RunMode::kSearch: return "search";
  }
  APSQ_CHECK_MSG(false, "unknown run mode");
  return "";
}

RunMode parse_run_mode(const std::string& name) {
  if (name == "sweep") return RunMode::kSweep;
  if (name == "search") return RunMode::kSearch;
  throw std::invalid_argument("unknown mode: " + name +
                              " (expected sweep|search)");
}

bool SweepConfig::validate(std::ostream& err) const {
  // The name must be vetted before make_space() — the job-spec path has
  // no parse-time guard the way the CLI flags do.
  if (!known_space_name(space)) {
    err << "unknown space: " << space << " (try --help)\n";
    return false;
  }
  if (!search()) {
    // Exhaustive mode must refuse a space it cannot realistically
    // enumerate — pointing at budgeted search, not OOMing hours later.
    const index_t points = make_space().size();
    if (points > kMaxExhaustiveSweepPoints) {
      err << "space " << space << ": " << points
          << " points is beyond exhaustive sweep (limit "
          << kMaxExhaustiveSweepPoints << ") — use --mode search --budget N\n";
      return false;
    }
  }
  // Search-mode consistency: the search knobs require --mode search, and
  // a search requires a budget.
  return flag_requires(strategy_set, "--strategy", search(), "--mode search",
                       err) &&
         flag_requires(budget_set, "--budget", search(), "--mode search",
                       err) &&
         flag_requires(search_seed_set, "--search-seed", search(),
                       "--mode search", err) &&
         flag_requires(search(), "--mode search", budget_set && budget >= 1,
                       "--budget >= 1", err);
}

ConfigSpace SweepConfig::make_space() const {
  if (space == "paper") return ConfigSpace::paper_default();
  if (space == "smoke") return ConfigSpace::smoke();
  if (space == "fine") return ConfigSpace::fine_default();
  throw std::invalid_argument("unknown space: " + space);
}

SearchOptions SweepConfig::search_options() const {
  SearchOptions sopt;
  sopt.budget = budget;
  sopt.seed = search_seed;
  // Select candidates in the plane fronts are extracted in, so the
  // searched set covers the reported front.
  sopt.objectives = objectives;
  return sopt;
}

int SweepConfig::resolved_threads() const {
  return threads > 0 ? threads : WorkStealingPool::hardware_threads();
}

EvaluatorOptions SweepConfig::evaluator_options() const {
  EvaluatorOptions eopt;
  eopt.threads = resolved_threads();
  eopt.seed = seed;
  return eopt;
}

std::string SweepConfig::scored_by_label() const {
  return to_string(EvalBackend::kAnalytic);
}

std::string SweepConfig::scoring_key() const {
  // Everything that can change a result's *value*. Threads are excluded
  // (parallel == serial byte-identical is an engine invariant), as are
  // a sweep's slicing objectives and all output paths.
  std::ostringstream os;
  os << "backend=" << to_string(EvalBackend::kAnalytic) << "|seed=" << seed;
  if (search()) {
    // A search answer is the output of one deterministic trajectory —
    // strategy, budget, trajectory seed and selection plane all shape
    // which rows exist — so search entries never cross-talk with
    // exhaustive snapshots or with differently-parameterized searches.
    os << "|mode=search|strategy=" << to_string(strategy)
       << "|budget=" << budget << "|sseed=" << search_seed
       << "|plane=" << objectives.to_string();
  }
  return os.str();
}

std::vector<Constraint> parse_constraints(const std::string& text) {
  std::vector<Constraint> out;
  std::stringstream in(text);
  std::string term;
  while (std::getline(in, term, ',')) {
    if (term.empty()) continue;
    size_t op = term.find("<=");
    bool upper = true;
    if (op == std::string::npos) {
      op = term.find(">=");
      upper = false;
    }
    if (op == std::string::npos || op == 0)
      throw std::invalid_argument("malformed constraint '" + term +
                                  "' (expected objective<=value or "
                                  "objective>=value)");
    Constraint c;
    c.upper_bound = upper;
    const std::string name = term.substr(0, op);
    try {
      c.objective = parse_objective(name);
    } catch (const std::invalid_argument&) {
      // Re-frame the shared table's message with the constraint context —
      // the term, not a flag, is what the user mistyped — but keep the
      // valid-name list, so the fix is in the error.
      throw std::invalid_argument("unknown objective in constraint: " + name +
                                  " (expected " + objective_name_list() + ")");
    }
    const std::string value = term.substr(op + 2);
    char* end = nullptr;
    c.bound = std::strtod(value.c_str(), &end);
    if (value.empty() || end == nullptr || *end != '\0' ||
        !std::isfinite(c.bound))
      throw std::invalid_argument("malformed constraint bound '" + value +
                                  "' in '" + term + "'");
    out.push_back(c);
  }
  return out;
}

std::vector<EvalResult> filter_results(const std::vector<EvalResult>& results,
                                       const std::vector<Constraint>& cs) {
  if (cs.empty()) return results;
  std::vector<EvalResult> out;
  for (const EvalResult& r : results) {
    bool keep = true;
    for (const Constraint& c : cs) {
      const double v = r.obj.get(c.objective);
      if (c.upper_bound ? v > c.bound : v < c.bound) {
        keep = false;
        break;
      }
    }
    if (keep) out.push_back(r);
  }
  return out;
}

SweepSession::SweepSession(SweepConfig cfg, EvalStore* store)
    : cfg_(std::move(cfg)), external_store_(store) {
  // Re-run the consistency rules so a programmatic embedder that skipped
  // validate() still cannot construct a session the CLI would reject.
  std::ostringstream err;
  if (!cfg_.validate(err)) throw std::invalid_argument(err.str());
  constraints_ = parse_constraints(cfg_.where);
  space_ = cfg_.make_space();
  // The shared pool is built lazily on first use; pinning its width here
  // makes the thread count an honest concurrency bound rather than a
  // serial/pool mode switch. An explicit APSQ_POOL_THREADS env var wins.
  // A serial session never touches the pool, so it leaves the width to
  // whatever parallel work the process runs later.
  if (cfg_.resolved_threads() > 1)
    setenv("APSQ_POOL_THREADS",
           std::to_string(cfg_.resolved_threads()).c_str(), /*overwrite=*/0);
  eval_ = std::make_unique<Evaluator>(cfg_.evaluator_options());
  if (external_store_ == nullptr &&
      (!cfg_.store_in.empty() || !cfg_.store_out.empty()))
    owned_store_ = std::make_unique<EvalStore>();
}

SweepSession::~SweepSession() = default;

EvalStore* SweepSession::store() {
  return external_store_ != nullptr ? external_store_ : owned_store_.get();
}

std::vector<EvalResult> extract_front(
    const SweepConfig& cfg, const std::vector<Constraint>& constraints,
    const std::vector<EvalResult>& results, size_t* global_front_size) {
  // Workload is a scenario, not a knob: the headline front is per
  // workload; the cross-workload (global) front is reported as a count.
  std::vector<EvalResult> filtered;
  if (!constraints.empty()) filtered = filter_results(results, constraints);
  const std::vector<EvalResult>& basis =
      constraints.empty() ? results : filtered;
  std::vector<EvalResult> front =
      pareto_front_by_workload(basis, cfg.objectives);
  // A point its own workload dominates is dominated globally, so the
  // cross-workload front is the front of the per-workload fronts.
  if (global_front_size != nullptr)
    *global_front_size = pareto_front(front, cfg.objectives).size();
  return front;
}

SweepOutcome SweepSession::run() {
  SweepOutcome out;
  EvalStore* st = store();
  // A private store loads its own snapshot; an external (shared) store is
  // the batch runner's to load once up front.
  if (owned_store_ != nullptr && !cfg_.store_in.empty())
    owned_store_->load_file(cfg_.store_in);

  const std::string hash = config_space_hash(space_);
  const std::string scoring = cfg_.scoring_key();
  const auto t0 = std::chrono::steady_clock::now();
  // An immutable snapshot of the entry: stays valid and unchanged even if
  // another session concurrently replaces it in a shared store.
  const std::shared_ptr<const EvalStore::Entry> entry =
      st != nullptr ? st->find(hash, scoring) : nullptr;
  const auto source = [st] {
    return st->source().empty() ? std::string("evaluated-space store")
                                : st->source();
  };
  if (entry != nullptr && entry->space_points != space_.size()) {
    // Same hash, different size can only mean a corrupted snapshot or a
    // hash collision — either way the entry must not answer queries.
    throw std::runtime_error(
        source() + ": snapshot for space hash " + hash + " records " +
        std::to_string(entry->space_points) + " points but the space has " +
        std::to_string(space_.size()));
  }
  if (entry == nullptr && owned_store_ != nullptr && !cfg_.store_in.empty()) {
    // The caller explicitly asked to answer from this snapshot file; a
    // missing match must fail loudly, not silently re-evaluate the space.
    throw std::runtime_error(cfg_.store_in + ": no snapshot for space hash " +
                             hash + " under scoring \"" + scoring +
                             "\" — re-run the " + to_string(cfg_.mode) +
                             " with --store-out to record one");
  }
  // Guard against collisions and stale snapshots: a stored row must
  // denote exactly the point the space enumerates at its index.
  const auto stored = [&](index_t i, const EvalResult& r) -> const EvalResult& {
    const DesignPoint p = space_.at(i);
    if (PointKey::of(r.point) != PointKey::of(p))
      throw std::runtime_error(source() + ": snapshot point " +
                               std::to_string(i) +
                               " does not match the space (stored " +
                               canonical_key(r.point) + ", expected " +
                               canonical_key(p) + ")");
    return r;
  };

  // A fresh search already holds its front: the members of its live
  // per-workload fronts are exactly the front of every row it scored, so
  // an unfiltered extraction starts from them. A filter can drop the
  // member that dominates a row it keeps, and a replay has no live fronts,
  // so those extract from the rows.
  std::vector<EvalResult> live_front;
  bool from_live_front = false;
  if (cfg_.search()) {
    if (entry != nullptr) {
      // The scoring key pins (strategy, budget, search seed), and the
      // trajectory those denote is deterministic — so the entry's sparse
      // rows are the complete answer, not a partial snapshot to top up.
      out.results.reserve(entry->results.size());
      for (const auto& [i, r] : entry->results)
        out.results.push_back(stored(i, r));
      out.store_hits = static_cast<index_t>(out.results.size());
    } else {
      SearchDriver driver(space_, *eval_, cfg_.search_options());
      SearchRows rows = driver.run_rows();
      out.search = driver.stats();
      out.fresh_evaluations = static_cast<index_t>(rows.results.size());
      if (st != nullptr && !rows.results.empty())
        st->merge_rows(hash, scoring, cfg_.scored_by_label(), space_.size(),
                       rows.indices, rows.results);
      out.results = std::move(rows.results);
      live_front = std::move(rows.front);
      from_live_front = constraints_.empty();
    }
  } else {
    if (entry != nullptr) {
      // Top the snapshot up: its rows answer, and the misses are scored
      // in one evaluate_points batch, so they share the process-wide pool
      // and one accuracy-proxy batch.
      out.results.resize(static_cast<size_t>(space_.size()));
      std::vector<index_t> misses;
      for (index_t i = 0; i < space_.size(); ++i) {
        const auto it = entry->results.find(i);
        if (it == entry->results.end())
          misses.push_back(i);
        else
          out.results[static_cast<size_t>(i)] = stored(i, it->second);
      }
      out.store_hits = space_.size() - static_cast<index_t>(misses.size());
      if (!misses.empty()) {
        std::vector<DesignPoint> pts;
        pts.reserve(misses.size());
        for (const index_t i : misses) pts.push_back(space_.at(i));
        const std::vector<EvalResult> fresh = eval_->evaluate_points(pts);
        for (size_t j = 0; j < misses.size(); ++j)
          out.results[static_cast<size_t>(misses[j])] = fresh[j];
        out.fresh_evaluations = static_cast<index_t>(misses.size());
      }
    } else {
      out.results = eval_->evaluate_space(space_);
      out.fresh_evaluations = space_.size();
    }
    if (st != nullptr && out.fresh_evaluations > 0)
      st->put(hash, scoring, cfg_.scored_by_label(), space_.size(),
              out.results);
  }
  out.front = extract_front(cfg_, constraints_,
                            from_live_front ? live_front : out.results,
                            &out.global_front_size);
  out.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();

  if (owned_store_ != nullptr && !cfg_.store_out.empty() &&
      !owned_store_->save_file(cfg_.store_out))
    throw std::runtime_error("failed to write " + cfg_.store_out);
  return out;
}

std::string SweepSession::space_hash() const {
  return config_space_hash(space_);
}

bool SweepSession::answers_from_store() {
  const EvalStore* st = store();
  if (st == nullptr) return false;
  const std::shared_ptr<const EvalStore::Entry> entry =
      st->find(space_hash(), cfg_.scoring_key());
  return entry != nullptr && (cfg_.search() || entry->complete());
}

bool SweepSession::verify_serial(const SweepOutcome& out, std::ostream& err) {
  SweepConfig scfg = cfg_;
  scfg.threads = 1;
  // The serial run must actually evaluate — a store answering both runs
  // would verify nothing but the store's own determinism.
  scfg.store_in.clear();
  scfg.store_out.clear();
  SweepSession serial(scfg);
  SweepOutcome sout = serial.run();
  const std::string a =
      results_csv(sout.front, scfg.scored_by_label()).to_string();
  const std::string b =
      results_csv(out.front, cfg_.scored_by_label()).to_string();
  if (a != b) {
    err << "FAIL: serial and parallel Pareto fronts differ\n";
    return false;
  }
  return true;
}

StatsWriter SweepSession::stats_writer(const SweepOutcome& out) const {
  StatsWriter sw({"stat", "value"});
  const auto put = [&](const std::string& name, auto v) {
    sw.begin_row();
    sw.add(name);
    sw.add(v);
  };
  const auto put_cache = [&](const std::string& name, const CacheStats& s) {
    put(name + "_cache_hits", s.hits);
    put(name + "_cache_misses", s.misses);
    put(name + "_cache_races", s.races);
  };
  put("eval_points", static_cast<i64>(out.results.size()));
  put("fresh_evaluations", out.fresh_evaluations);
  put("store_hits", out.store_hits);
  put("eval_secs", out.secs);
  put("threads", cfg_.resolved_threads());
  put_cache("accuracy", eval_->accuracy_cache_stats());
  const WorkStealingPool& pool = WorkStealingPool::shared();
  put("pool_threads", pool.num_threads());
  put("pool_runs", pool.run_count());
  put("pool_steals", pool.steal_count());
  if (cfg_.search()) {
    put("search_strategy", std::string(to_string(cfg_.strategy)));
    put("search_budget", cfg_.budget);
    put("search_evaluated", out.search.evaluated);
    put("search_rounds", static_cast<i64>(out.search.rounds.size()));
    put_cache("score_tt", eval_->score_tt_stats());
  }
  return sw;
}

}  // namespace apsq::dse
