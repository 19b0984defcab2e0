#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <fstream>

#include "common/check.hpp"

namespace apsq {

// One parallel_for call. Threads claim indices from `next`; `attached`
// counts the helpers inside the run and moves only under the pool's mu_.
// The caller unlists the run and waits for attached == 0 before
// returning, after which no helper can reach the Run, so it lives on the
// caller's stack.
struct WorkStealingPool::Run {
  const std::function<void(index_t)>* fn = nullptr;
  index_t n = 0;
  i64 id = 0;  ///< 1-based dispatch order; tags this run's trace events
  std::atomic<index_t> next{0};
  std::atomic<bool> stop{false};
  std::atomic<int> attached{0};
  Mutex err_mu;
  std::exception_ptr first_error APSQ_GUARDED_BY(err_mu);

  /// Indices left to claim and no exception yet.
  bool open() const {
    return !stop.load(std::memory_order_relaxed) &&
           next.load(std::memory_order_relaxed) < n;
  }
};

WorkStealingPool::WorkStealingPool(int num_threads)
    : num_threads_(num_threads) {
  APSQ_CHECK_MSG(num_threads >= 1, "pool needs at least one thread");
  if (num_threads_ > 1) {
    helpers_.reserve(static_cast<size_t>(num_threads_));
    for (index_t w = 0; w < num_threads_; ++w)
      helpers_.emplace_back([this, w] { helper_loop(w); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : helpers_) t.join();
  flush_trace();
}

void WorkStealingPool::enable_tracing(const std::string& path) {
  {
    MutexLock lock(trace_mu_);
    trace_path_ = path;
  }
  tracing_.store(true, std::memory_order_relaxed);
}

void WorkStealingPool::flush_trace() {
  if (!tracing_.load(std::memory_order_relaxed)) return;
  // Called from the destructor after the joins, so holding trace_mu_
  // across the file write contends with nothing.
  MutexLock lock(trace_mu_);
  if (trace_path_.empty()) return;
  std::ofstream out(trace_path_);
  if (!out) return;  // an unwritable path must not crash shutdown
  out << "{\"traceEvents\":[";
  for (size_t k = 0; k < trace_.size(); ++k) {
    const TraceEvent& e = trace_[k];
    out << (k == 0 ? "" : ",")
        << "\n{\"name\":\"task\",\"ph\":\"X\",\"pid\":0,\"tid\":" << e.tid
        << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us
        << ",\"args\":{\"run\":" << e.run << ",\"index\":" << e.idx << "}}";
  }
  out << "\n]}\n";
}

int WorkStealingPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

WorkStealingPool& WorkStealingPool::shared() {
  static WorkStealingPool pool([] {
    if (const char* env = std::getenv("APSQ_POOL_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1 && v <= 4096)
        return static_cast<int>(v);
    }
    return hardware_threads();
  }());
  static const bool trace_env_checked = [] {
    const char* env = std::getenv("APSQ_TRACE");
    if (env != nullptr && *env != '\0') pool.enable_tracing(env);
    return true;
  }();
  (void)trace_env_checked;
  return pool;
}

WorkStealingPool::Run* WorkStealingPool::newest_open_run() {
  for (auto it = live_.rbegin(); it != live_.rend(); ++it)
    if ((*it)->open()) return *it;
  return nullptr;
}

index_t WorkStealingPool::drain(Run& run, i64 tid) {
  index_t ran = 0;
  while (!run.stop.load(std::memory_order_relaxed)) {
    const index_t i = run.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= run.n) break;
    const bool tracing = tracing_.load(std::memory_order_relaxed);
    std::chrono::steady_clock::time_point t0;
    if (tracing) t0 = std::chrono::steady_clock::now();
    try {
      (*run.fn)(i);
    } catch (...) {
      run.stop.store(true, std::memory_order_relaxed);
      MutexLock lock(run.err_mu);
      if (!run.first_error) run.first_error = std::current_exception();
    }
    ++ran;
    if (tracing) {
      const auto us = [](std::chrono::steady_clock::duration d) {
        return std::chrono::duration_cast<std::chrono::microseconds>(d)
            .count();
      };
      const auto t1 = std::chrono::steady_clock::now();
      MutexLock lock(trace_mu_);
      trace_.push_back({us(t0 - trace_epoch_), us(t1 - t0), tid, run.id, i});
    }
  }
  return ran;
}

void WorkStealingPool::helper_loop(index_t w) {
  Run* run = nullptr;  // the run this helper last drained, still attached
  index_t ran = 0;
  for (;;) {
    {
      MutexLock lock(mu_);
      if (run != nullptr) {
        steals_.fetch_add(ran, std::memory_order_relaxed);
        // Last touch: the caller may free the run once it reads zero.
        if (run->attached.fetch_sub(1, std::memory_order_relaxed) == 1)
          cv_.notify_all();
      }
      // Manual wait loop (not a predicate lambda) so the guarded reads
      // happen where the analysis can see mu_ is held.
      while (!shutdown_ && (run = newest_open_run()) == nullptr) cv_.wait(mu_);
      if (shutdown_) return;
      run->attached.fetch_add(1, std::memory_order_relaxed);
    }
    ran = drain(*run, w);
  }
}

void WorkStealingPool::parallel_for(index_t n,
                                    const std::function<void(index_t)>& fn) {
  APSQ_CHECK(n >= 0);
  if (n == 0) return;
  if (num_threads_ == 1) {
    for (index_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Run run;
  run.fn = &fn;
  run.n = n;
  run.id = runs_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    MutexLock lock(mu_);
    live_.push_back(&run);
  }
  cv_.notify_all();
  drain(run, -1);
  {
    MutexLock lock(mu_);
    live_.erase(std::find(live_.begin(), live_.end(), &run));
    while (run.attached.load(std::memory_order_relaxed) != 0) cv_.wait(mu_);
  }
  // Every helper has detached, so no task can still be writing the slot.
  MutexLock lock(run.err_mu);
  if (run.first_error) std::rethrow_exception(run.first_error);
}

}  // namespace apsq
