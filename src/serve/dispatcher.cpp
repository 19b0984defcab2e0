#include "serve/dispatcher.hpp"

#include <chrono>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "dse/report.hpp"
#include "dse/search.hpp"
#include "dse/store.hpp"

namespace apsq::serve {

using dse::DesignPoint;
using dse::EvalResult;

namespace {

/// Decrement-on-scope-exit for the inflight counter (queries can throw
/// out of the coalescing loop).
struct CounterScope {
  explicit CounterScope(std::atomic<int>& c) : c_(c) { c_.fetch_add(1); }
  ~CounterScope() { c_.fetch_sub(1); }
  std::atomic<int>& c_;
};

}  // namespace

/// Per-(space hash, scoring key) coalescing state. Requests with equal
/// keys produce byte-identical values for every point, so any of them may
/// evaluate a point on behalf of all of them.
struct Dispatcher::Group {
  Mutex mu;
  CondVar cv;
  /// Built once from the first request's evaluator_options() (members of
  /// a group share a scoring key, so everything value-relevant agrees).
  /// Only the group's current leader — serialized by leader_active —
  /// drives it, which the static analysis cannot see; the leadership
  /// hand-off below is the actual exclusion.
  std::unique_ptr<dse::Evaluator> eval;
  bool leader_active APSQ_GUARDED_BY(mu) = false;
  std::set<index_t> pending APSQ_GUARDED_BY(mu);   ///< missed, unclaimed
  std::set<index_t> inflight APSQ_GUARDED_BY(mu);  ///< in the leader's batch
  std::map<index_t, EvalResult> done APSQ_GUARDED_BY(mu);
  /// Search queries coalesce whole, not point-wise: once one leader has
  /// run the driver and merged its rows into the store, every later query
  /// under this scoring identity answers warm.
  bool search_done APSQ_GUARDED_BY(mu) = false;
};

Dispatcher::Dispatcher(dse::EvalStore& store) : store_(store) {}
Dispatcher::~Dispatcher() = default;

Dispatcher::Group& Dispatcher::group_for(const std::string& hash,
                                         const std::string& scoring,
                                         const dse::RequestSpec& req) {
  const std::string key = hash + '\n' + scoring;
  {
    MutexLock lock(mu_);
    const auto it = groups_.find(key);
    if (it != groups_.end()) return *it->second;
  }
  // Build the group outside the dispatcher lock; publish under it —
  // first writer wins, a racing loser's evaluator is simply discarded.
  auto g = std::make_unique<Group>();
  // Pin the shared pool's width like SweepSession does (first parallel
  // config wins; an explicit APSQ_POOL_THREADS env var beats both; a
  // serial group never touches the pool and pins nothing).
  if (req.config.resolved_threads() > 1)
    setenv("APSQ_POOL_THREADS",
           std::to_string(req.config.resolved_threads()).c_str(),
           /*overwrite=*/0);
  g->eval = std::make_unique<dse::Evaluator>(req.config.evaluator_options());
  MutexLock lock(mu_);
  const auto it = groups_.emplace(key, std::move(g)).first;
  return *it->second;
}

QueryResult Dispatcher::query(const dse::RequestSpec& req) {
  const auto t0 = std::chrono::steady_clock::now();
  // The library consistency rules, verbatim — a daemon request rejects
  // with the exact message the CLI and the job-spec path print.
  std::ostringstream verr;
  if (!req.config.validate(verr)) throw std::invalid_argument(verr.str());
  const std::vector<dse::Constraint> constraints =
      dse::parse_constraints(req.config.where);
  const dse::ConfigSpace space = req.config.make_space();
  const std::string hash = dse::config_space_hash(space);
  const std::string scoring = req.config.scoring_key();
  total_requests_.fetch_add(1);

  QueryResult out;

  const std::shared_ptr<const dse::EvalStore::Entry> entry =
      store_.find(hash, scoring);
  if (entry != nullptr && entry->space_points != space.size()) {
    // Same hash, different size can only mean a corrupted snapshot or a
    // hash collision — either way the entry must not answer queries.
    throw std::runtime_error(
        (store_.source().empty() ? std::string("evaluated-space store")
                                 : store_.source()) +
        ": snapshot for space hash " + hash + " records " +
        std::to_string(entry->space_points) + " points but the space has " +
        std::to_string(space.size()));
  }

  // A per-row guard shared by both answer paths: a stored row must denote
  // exactly the point the space enumerates at its index — anything else
  // is a hash collision or a stale snapshot.
  const auto check_row = [&](index_t i, const EvalResult& r) {
    const DesignPoint p = space.at(i);
    if (canonical_key(r.point) != canonical_key(p))
      throw std::runtime_error(
          (store_.source().empty() ? std::string("evaluated-space store")
                                   : store_.source()) +
          ": snapshot point " + std::to_string(i) +
          " does not match the space (stored " + canonical_key(r.point) +
          ", expected " + canonical_key(p) + ")");
  };

  // The shared answer tail: front extraction, truncation, and the
  // telemetry counters — identical for sweep and search responses.
  const auto finish = [&]() -> QueryResult {
    size_t global_front_size = 0;
    std::vector<EvalResult> front = dse::extract_front(
        req.config, constraints, out.results, &global_front_size);
    out.front_size = front.size();
    out.global_front_size = global_front_size;
    out.front_csv =
        dse::results_csv(front, req.config.scored_by_label()).to_string();
    if (req.top > 0 && static_cast<size_t>(req.top) < front.size())
      front.resize(static_cast<size_t>(req.top));
    out.front = std::move(front);
    out.stats.wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const WorkStealingPool& pool = WorkStealingPool::shared();
    out.stats.pool_threads = pool.num_threads();
    out.stats.pool_runs = pool.run_count();
    out.stats.pool_steals = pool.steal_count();
    return std::move(out);
  };

  if (req.config.search()) {
    // Budgeted search: the scoring key pins (strategy, budget, seed,
    // objective plane), so a snapshot's sparse rows ARE the complete
    // deterministic answer — a warm search query never runs the driver,
    // and concurrent cold queries coalesce onto ONE driver run.
    if (entry != nullptr) {
      for (const auto& [i, r] : entry->results) {
        check_row(i, r);
        out.results.push_back(r);
      }
      out.stats.store_hits = static_cast<index_t>(out.results.size());
    } else {
      Group& g = group_for(hash, scoring, req);
      const CounterScope in_group(inflight_);
      bool leader = false;
      {
        MutexLock lock(g.mu);
        while (!g.search_done && g.leader_active) g.cv.wait(g.mu);
        if (!g.search_done) {
          g.leader_active = true;
          leader = true;
        }
      }
      if (leader) {
        if (batch_hook_) batch_hook_();
        std::map<index_t, EvalResult> rows;
        try {
          dse::SearchDriver driver(space, *g.eval,
                                   req.config.search_options());
          rows = driver.run();
        } catch (...) {
          // Hand leadership back so a waiter can retry instead of
          // blocking forever on a search that will never complete.
          MutexLock lock(g.mu);
          g.leader_active = false;
          g.cv.notify_all();
          throw;
        }
        store_.merge_rows(hash, scoring, req.config.scored_by_label(),
                          space.size(), rows);
        {
          MutexLock lock(g.mu);
          g.search_done = true;
          g.leader_active = false;
        }
        g.cv.notify_all();
        for (auto& [i, r] : rows) {
          static_cast<void>(i);
          out.results.push_back(std::move(r));
        }
        out.stats.fresh_evaluations = static_cast<index_t>(out.results.size());
        out.stats.eval_batches = 1;
        total_fresh_.fetch_add(static_cast<i64>(out.results.size()));
        total_batches_.fetch_add(1);
      } else {
        // Follower: the leader merged its rows before raising search_done,
        // so the store must hold the entry now.
        const std::shared_ptr<const dse::EvalStore::Entry> ready =
            store_.find(hash, scoring);
        if (ready == nullptr)
          throw std::runtime_error(
              "dispatcher: search snapshot missing after a completed search "
              "for space hash " +
              hash);
        for (const auto& [i, r] : ready->results) {
          check_row(i, r);
          out.results.push_back(r);
        }
        out.stats.coalesced = static_cast<index_t>(out.results.size());
      }
    }
    return finish();
  }

  out.results.resize(static_cast<size_t>(space.size()));
  std::vector<index_t> misses;
  for (index_t i = 0; i < space.size(); ++i) {
    if (entry != nullptr) {
      const auto it = entry->results.find(i);
      if (it != entry->results.end()) {
        check_row(i, it->second);
        out.results[static_cast<size_t>(i)] = it->second;
        continue;
      }
    }
    misses.push_back(i);
  }
  out.stats.store_hits = space.size() - static_cast<index_t>(misses.size());

  if (!misses.empty()) {
    Group& g = group_for(hash, scoring, req);
    const std::set<index_t> need(misses.begin(), misses.end());
    {
      // Register the misses nobody has answered or claimed yet.
      MutexLock lock(g.mu);
      for (const index_t i : need)
        if (g.done.count(i) == 0 && g.inflight.count(i) == 0)
          g.pending.insert(i);
    }
    const CounterScope in_group(inflight_);
    index_t self_answered = 0;
    for (;;) {
      bool assembled = false;
      {
        MutexLock lock(g.mu);
        for (;;) {
          bool all_done = true;
          for (const index_t i : need)
            if (g.done.count(i) == 0) {
              all_done = false;
              break;
            }
          if (all_done) {
            assembled = true;
            break;
          }
          if (!g.leader_active && !g.pending.empty()) {
            // Take leadership; the batch itself is frozen below, after
            // the hook, so late joiners can still merge their misses.
            g.leader_active = true;
            break;
          }
          g.cv.wait(g.mu);
        }
      }
      if (assembled) break;
      if (batch_hook_) batch_hook_();
      std::vector<index_t> batch;
      {
        MutexLock lock(g.mu);
        batch.assign(g.pending.begin(), g.pending.end());
        g.inflight.insert(batch.begin(), batch.end());
        g.pending.clear();
      }
      std::vector<DesignPoint> pts;
      pts.reserve(batch.size());
      for (const index_t i : batch) pts.push_back(space.at(i));
      std::vector<EvalResult> fresh;
      try {
        // ONE evaluate_points call for every pooled miss, on the shared
        // worker pool — the coalescing the daemon exists for.
        fresh = g.eval->evaluate_points(pts);
      } catch (...) {
        // Hand the batch back so waiters can elect a new leader instead
        // of blocking forever on results that will never arrive.
        MutexLock lock(g.mu);
        for (const index_t i : batch) {
          g.inflight.erase(i);
          g.pending.insert(i);
        }
        g.leader_active = false;
        g.cv.notify_all();
        throw;
      }
      {
        MutexLock lock(g.mu);
        for (size_t j = 0; j < batch.size(); ++j) {
          g.done.emplace(batch[j], fresh[j]);
          g.inflight.erase(batch[j]);
        }
        g.leader_active = false;
      }
      g.cv.notify_all();
      for (const index_t i : batch)
        if (need.count(i) != 0) ++self_answered;
      out.stats.fresh_evaluations += static_cast<index_t>(batch.size());
      out.stats.eval_batches += 1;
      total_fresh_.fetch_add(static_cast<i64>(batch.size()));
      total_batches_.fetch_add(1);
    }
    {
      // Fan the answers back out into this request's result vector.
      MutexLock lock(g.mu);
      for (const index_t i : need)
        out.results[static_cast<size_t>(i)] = g.done.at(i);
    }
    out.stats.coalesced = static_cast<index_t>(need.size()) - self_answered;
    // Record the merged sweep like a session would (COW put: concurrent
    // writers publish identical bytes). Warm queries never reach here.
    if (out.stats.fresh_evaluations > 0)
      store_.put(hash, scoring, req.config.scored_by_label(), space.size(),
                 out.results);
  }

  return finish();
}

}  // namespace apsq::serve
