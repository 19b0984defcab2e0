#include "serve/dispatcher.hpp"

#include <chrono>
#include <string>
#include <utility>

#include "common/thread_pool.hpp"
#include "dse/report.hpp"
#include "dse/sweep.hpp"

namespace apsq::serve {

QueryResult Dispatcher::query(const dse::RequestSpec& req) {
  const auto t0 = std::chrono::steady_clock::now();
  // The session runs SweepConfig::validate() and parse_constraints, so
  // a daemon request rejects with the exact message the CLI and the
  // job-spec path print — and a rejected request never counts as served.
  dse::SweepSession session(req.config, &store_);
  total_requests_.fetch_add(1);

  // A cold request holds its key while it runs; one that finds the key
  // held waits, then re-checks the store the holder has written into.
  struct Claim {
    Dispatcher& d;
    std::string key;  ///< empty while nothing is held
    ~Claim() {
      if (key.empty()) return;
      {
        MutexLock lock(d.mu_);
        d.inflight_.erase(key);
      }
      d.key_released_.notify_all();
    }
  } claim{*this, {}};
  bool waited = false;
  if (!session.answers_from_store()) {
    std::string key = session.space_hash() + '\n' + req.config.scoring_key();
    MutexLock lock(mu_);
    while (inflight_.count(key) != 0) {
      key_released_.wait(mu_);
      waited = true;
    }
    if (!session.answers_from_store()) {
      inflight_.insert(key);
      claim.key = std::move(key);
    }
  }
  dse::SweepOutcome run = session.run();

  QueryResult out;
  out.results = std::move(run.results);
  out.front_size = run.front.size();
  out.global_front_size = run.global_front_size;
  out.front_csv =
      dse::results_csv(run.front, req.config.scored_by_label()).to_string();
  if (req.top > 0 && static_cast<size_t>(req.top) < run.front.size())
    run.front.resize(static_cast<size_t>(req.top));
  out.front = std::move(run.front);
  out.stats.fresh_evaluations = run.fresh_evaluations;
  if (waited && run.fresh_evaluations == 0)
    out.stats.coalesced = run.store_hits;
  else
    out.stats.store_hits = run.store_hits;
  out.stats.eval_batches = run.fresh_evaluations > 0 ? 1 : 0;
  total_fresh_.fetch_add(run.fresh_evaluations);
  total_batches_.fetch_add(out.stats.eval_batches);
  out.stats.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const WorkStealingPool& pool = WorkStealingPool::shared();
  out.stats.pool_threads = pool.num_threads();
  out.stats.pool_runs = pool.run_count();
  out.stats.pool_steals = pool.steal_count();
  return out;
}

}  // namespace apsq::serve
