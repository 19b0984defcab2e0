// Budgeted-search throughput — the wall-time gate for the search engine.
// Times the evolve strategy searching the ~6×10⁷-point fine space under a
// 2048-evaluation budget, plus a warm store replay of the same search (0
// fresh evaluations).
// With --benchmark_out=FILE the section timings are written as
// google-benchmark-style JSON for the bench-regression CI gate
// (tools/check_bench.py).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>

#include "bench_json.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "dse/store.hpp"
#include "dse/sweep.hpp"

using namespace apsq;
using namespace apsq::dse;

namespace {

double time_session(const SweepConfig& cfg, EvalStore* store,
                    SweepOutcome& out) {
  const auto t0 = std::chrono::steady_clock::now();
  SweepSession session(cfg, store);
  out = session.run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  apsq::bench::BenchJson rep(argc, argv);
  if (!rep.ok()) return 1;
  const int hw = WorkStealingPool::hardware_threads();
  constexpr int kReps = 3;
  std::cout << "=== Budgeted search (hardware threads: " << hw << ") ===\n\n";
  Table t({"Section", "Time (s)", "Evaluated", "Front size"});

  // Evolve over the fine space: a budgeted search must stay interactive
  // on a space that exhaustive sweep could never touch.
  SweepConfig fine;
  fine.space = "fine";
  fine.mode = RunMode::kSearch;
  fine.budget = 2048;
  fine.budget_set = true;
  fine.search_seed = 7;
  fine.search_seed_set = true;
  fine.threads = hw > 1 ? hw : 2;
  {
    double best = 0.0;
    SweepOutcome out;
    for (int attempt = 0; attempt < kReps; ++attempt) {
      const double secs = time_session(fine, nullptr, out);
      best = attempt == 0 ? secs : std::min(best, secs);
    }
    if (out.search.evaluated > fine.budget) {
      std::cerr << "evolve search overspent its budget: "
                << out.search.evaluated << " > " << fine.budget << "\n";
      return 1;
    }
    rep.add("search/fine/evolve_analytic", best);
    t.add_row({"fine evolve (budget 2048)", Table::num(best, 3),
               std::to_string(out.search.evaluated),
               std::to_string(out.front.size())});
  }

  // Warm replay: the sparse row set answers the identical search from
  // the store without running the driver.
  {
    EvalStore store;
    SweepOutcome out;
    time_session(fine, &store, out);  // record the snapshot
    double best = 0.0;
    for (int attempt = 0; attempt < kReps; ++attempt) {
      const double secs = time_session(fine, &store, out);
      best = attempt == 0 ? secs : std::min(best, secs);
      if (out.fresh_evaluations != 0) {
        std::cerr << "warm search replay unexpectedly evaluated "
                  << out.fresh_evaluations << " points\n";
        return 1;
      }
    }
    rep.add("search/fine/warm_replay", best);
    t.add_row({"fine warm replay (0 evals)", Table::num(best, 3), "0",
               std::to_string(out.front.size())});
  }

  t.print(std::cout);
  return rep.flush() ? 0 : 1;
}
