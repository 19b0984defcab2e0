// Parallel-for pool shared by the DSE evaluator and the simulator's
// workload runner.
//
// `num_threads` helper threads are spawned once in the constructor and
// park on one condition variable between runs. A run is one parallel_for
// call: the caller lists it among the pool's live runs, wakes the helpers
// and claims indices from the run's shared cursor alongside every helper
// that attaches to it. An idle helper attaches to the newest run that
// still has unclaimed indices, so a parallel_for called from inside a task
// (nested parallelism) is just another run the idle helpers join, and any
// number of runs — nested, or from distinct external threads — may be live
// at once without oversubscription or deadlock. Once the cursor passes n
// the caller unlists its run and waits for the helpers still inside it to
// finish their last index, so the run can live on the caller's stack.
//
// Locking discipline (statically checked via common/annotations.hpp under
// Clang -Wthread-safety): the live-run list and shutdown_ are guarded by
// mu_; a run's count of attached helpers is atomic but changes only under
// mu_, the lock cv_'s waits test it under; a run's first exception sits
// under its own err_mu; the trace path and buffer are guarded by
// trace_mu_.
//
// Determinism comes from the caller: tasks write to disjoint,
// index-addressed slots, so scheduling order never affects results.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/types.hpp"

namespace apsq {

class WorkStealingPool {
 public:
  /// `num_threads` >= 1; values above the task count are harmless.
  /// num_threads > 1 spawns that many persistent helpers immediately.
  explicit WorkStealingPool(int num_threads);
  ~WorkStealingPool();  // signals shutdown and joins the helpers

  /// Run fn(i) at most once for every i in [0, n) — exactly once when no
  /// task throws — blocking until done. fn must be safe to call from
  /// multiple threads. Exceptions: the first captured exception of the run
  /// is rethrown here and stops the run early; indices not yet claimed
  /// when it was captured are skipped (in-flight ones finish), mirroring
  /// the abort-at-first-throw behaviour of the single-thread path. A
  /// nested run's exception therefore propagates out of the enclosing task
  /// and is captured by the enclosing run.
  /// num_threads == 1 runs inline on the calling thread (no helper
  /// threads at all). Otherwise the calling thread works on its own run
  /// alongside the helpers, whether it is an external thread or a task of
  /// this pool (nested parallelism); each run completes independently.
  void parallel_for(index_t n, const std::function<void(index_t)>& fn);

  int num_threads() const { return num_threads_; }

  /// Indices run by a helper thread rather than by the thread that called
  /// parallel_for for them (diagnostic; cumulative across calls).
  i64 steal_count() const { return steals_.load(); }

  /// parallel_for invocations dispatched to the helpers, nested runs
  /// included (diagnostic; inline runs — n == 0 or a single-thread pool —
  /// excluded).
  i64 run_count() const { return runs_.load(); }

  /// Record every index run through the pool and, on destruction, write
  /// them to `path` in the chrome://tracing JSON format
  /// ({"traceEvents": [...]}): one complete ("ph": "X") event per index,
  /// timestamped in µs since pool construction, with the executing
  /// helper's index as the tid (-1 for the run's own caller) and the run
  /// id + index as args. Load the file in chrome://tracing or
  /// https://ui.perfetto.dev to see where a sweep's wall-clock went.
  /// Covers pooled execution only: a single-thread pool (and n == 0)
  /// runs inline and emits no events. Safe to call at any time; indices
  /// already run before the call are not retroactively recorded.
  void enable_tracing(const std::string& path) APSQ_EXCLUDES(trace_mu_);

  /// Threads the hardware supports (>= 1 even when unknown).
  static int hardware_threads();

  /// The process-wide pool, shared by the DSE evaluator's point-level
  /// parallelism and run_workload's layer-level parallelism so the two
  /// compose instead of oversubscribing. Sized to hardware_threads(),
  /// overridable via the APSQ_POOL_THREADS environment variable (useful
  /// for pinning sanitizer jobs or forcing concurrency on small
  /// machines). Constructed on first use; lives until exit. When the
  /// APSQ_TRACE environment variable names a file, tracing is enabled on
  /// the shared pool and the trace is flushed there at process exit.
  static WorkStealingPool& shared();

 private:
  struct Run;
  /// One recorded index, ready to serialize as a trace event.
  struct TraceEvent {
    i64 ts_us = 0;   ///< start, µs since pool construction (steady clock)
    i64 dur_us = 0;  ///< task body duration, µs
    i64 tid = 0;     ///< helper index, or -1 for the run's caller
    i64 run = 0;     ///< parallel_for run id (1-based, dispatch order)
    i64 idx = 0;     ///< index within the run
  };
  void helper_loop(index_t w);
  Run* newest_open_run() APSQ_REQUIRES(mu_);
  index_t drain(Run& run, i64 tid) APSQ_EXCLUDES(trace_mu_);
  void flush_trace() APSQ_EXCLUDES(trace_mu_);

  int num_threads_;
  std::atomic<i64> steals_{0};
  std::atomic<i64> runs_{0};

  std::atomic<bool> tracing_{false};
  const std::chrono::steady_clock::time_point trace_epoch_ =
      std::chrono::steady_clock::now();
  std::vector<TraceEvent> trace_ APSQ_GUARDED_BY(trace_mu_);
  std::string trace_path_ APSQ_GUARDED_BY(trace_mu_);
  Mutex trace_mu_;

  Mutex mu_;
  CondVar cv_;  ///< helpers wait here for a run, callers for their helpers
  std::vector<Run*> live_ APSQ_GUARDED_BY(mu_);  ///< oldest first
  bool shutdown_ APSQ_GUARDED_BY(mu_) = false;
  std::vector<std::thread> helpers_;
};

}  // namespace apsq
