// Request dispatcher — the daemon's core: one shared EvalStore, one
// shared worker pool, many concurrent front queries.
//
// A query is a RequestSpec (the same validated object a CLI invocation
// or a --jobs experiment deserializes into). The dispatcher answers it
// through a dse::SweepSession attached to the shared store — the one
// query path the CLI and --jobs run too — so a warm query never
// evaluates, and every front, error message and stored row is the batch
// path's.
//
// Coalescing is per (space hash, scoring key), not per point. Two
// requests under one key always miss the same points — a sweep misses
// what the stored entry lacks, a search misses its whole trajectory — so
// one of them evaluating on behalf of all is enough:
//
//   warm  A request the store can already answer (an entry exists; for a
//         sweep, a complete one) runs its session at once.
//   cold  Otherwise it waits while another request holds its key, then
//         re-checks the store. If the store still cannot answer, it takes
//         the key, runs its session (which records the fresh rows in the
//         store) and releases the key, waking the waiters.
//
// Summed across concurrent responses, fresh_evaluations therefore equals
// the number of unique cold points. The in-flight key set is the only
// state the dispatcher keeps per key, and a key leaves it when its run
// returns or throws.
//
// Thread safety: query() is fully re-entrant — the store is internally
// synchronized, each request drives its own SweepSession, and the
// in-flight set is guarded by mu_.
#pragma once

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "dse/request.hpp"

namespace apsq::dse {
class EvalStore;
}

namespace apsq::serve {

/// Telemetry of one answered query — the observability counters every
/// daemon response carries.
struct QueryStats {
  index_t store_hits = 0;  ///< points answered straight from the store
  /// Points this request's run evaluated. Summed across concurrent
  /// responses this equals the number of unique cold points — the
  /// coalescing invariant.
  index_t fresh_evaluations = 0;
  /// Rows this request read from the store after waiting for another
  /// request's run under the same key (counted here, not in store_hits).
  index_t coalesced = 0;
  i64 eval_batches = 0;  ///< 1 when this request's run evaluated, else 0
  double wall_ms = 0.0;
  /// The shared pool's counters when the reply was built (process-wide,
  /// cumulative): helper count, parallel_for runs, and steals — indices
  /// a helper thread ran rather than the run's caller.
  int pool_threads = 0;
  i64 pool_runs = 0;
  i64 pool_steals = 0;
};

/// One answered query.
struct QueryResult {
  /// The scored points in enumeration order — what a "csv" output
  /// serializes. For a sweep that is every point of the space (store rows
  /// merged with fresh evaluations); for a budgeted search it is the
  /// sparse set of points the search evaluated, ascending by index.
  std::vector<dse::EvalResult> results;
  /// The per-workload front, truncated to the request's `top` (0 = all).
  std::vector<dse::EvalResult> front;
  size_t front_size = 0;         ///< untruncated per-workload front size
  size_t global_front_size = 0;  ///< cross-workload front size
  /// The FULL front as results_csv text — byte-identical to what a
  /// SweepSession running the same config would report (the daemon's
  /// correctness target, and what a front_csv output writes).
  std::string front_csv;
  QueryStats stats;
};

class Dispatcher {
 public:
  /// The store is the caller's (the daemon loads/saves it); the
  /// dispatcher's sessions read entries and record fresh rows back.
  explicit Dispatcher(dse::EvalStore& store) : store_(store) {}

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Answer one request. Throws std::invalid_argument with the exact
  /// SweepConfig::validate() / parse_constraints message on an
  /// inconsistent config, and std::runtime_error on store-consistency
  /// failures (hash collisions, stale snapshots) — the same messages the
  /// batch path raises. Safe to call from any number of threads.
  QueryResult query(const dse::RequestSpec& req);

  /// The shared store (for the stats command and daemon save-on-exit).
  dse::EvalStore& store() { return store_; }

  /// Process-lifetime totals (across every request served).
  i64 total_requests() const { return total_requests_.load(); }
  i64 total_fresh_evaluations() const { return total_fresh_.load(); }
  i64 total_eval_batches() const { return total_batches_.load(); }

 private:
  dse::EvalStore& store_;
  mutable Mutex mu_;
  CondVar key_released_;
  /// space_hash + '\n' + scoring of every cold run in progress.
  std::set<std::string> inflight_ APSQ_GUARDED_BY(mu_);
  std::atomic<i64> total_requests_{0};
  std::atomic<i64> total_fresh_{0};
  std::atomic<i64> total_batches_{0};
};

}  // namespace apsq::serve
