// apsq_dse — multi-threaded design-space exploration with a Pareto
// frontier over energy × area × accuracy × latency.
//
// Sweeps dataflow × PSUM handling × PE geometry × buffer sizing across the
// paper's four workloads, scores every point with the closed-form models
// at full workload scale, and extracts the Pareto front over a selectable
// objective subset. The orchestration lives in the library
// (dse/sweep.hpp), and so does the request grammar (dse/request.hpp):
// every sweep flag fills the same RequestSpec a --jobs experiment or a
// daemon query does. This binary parses its report-only flags and prints
// the report:
//
//   apsq_dse                                  # paper_default space, all cores
//   apsq_dse --threads 4 --csv points.csv --front-csv front.csv
//   apsq_dse --space smoke --threads 1
//   apsq_dse --objectives energy,latency      # 2-objective front
//   apsq_dse --space fine --mode search --budget 4096 --search-seed 7
//                                             # budgeted search over the
//                                             # 61M-point fine space
//   apsq_dse --store-out space.json           # snapshot the evaluated space
//   apsq_dse --store-in space.json --objectives energy,latency
//                                             # re-slice it: 0 fresh evals
//   apsq_dse --jobs spec.json                 # many experiments, one process,
//                                             # one shared store
//   apsq_dse --layer-stats-csv layers.csv     # per-layer telemetry of the
//                                             # top front rows
//   apsq_dse --stats --stats-json stats.json  # cache/pool/phase counters
//   apsq_dse --verify-serial                  # assert parallel == serial
//
// Run with --help for the full flag list.
#include <algorithm>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/stats_writer.hpp"
#include "common/thread_pool.hpp"
#include "dse/evaluator.hpp"
#include "dse/report.hpp"
#include "dse/request.hpp"
#include "dse/store.hpp"
#include "dse/sweep.hpp"

using namespace apsq;
using namespace apsq::dse;

namespace {

struct Options {
  /// The sweep + report shape — the same object a --jobs experiment or a
  /// daemon query fills.
  RequestSpec req;
  std::string jobs_path;
  std::string layer_stats_csv_path;
  int dump_stats_top = 5;
  bool dump_stats_top_set = false;
  bool stats = false;
  std::string stats_json_path;
  bool verify_serial = false;
  bool help = false;
  /// Any flag other than --jobs / --help seen — --jobs runs the spec's
  /// experiments, so combining it with single-sweep flags is an error,
  /// not a silent ignore.
  bool non_jobs_flag = false;
};

void print_help() {
  std::cout <<
      "apsq_dse — design-space exploration with Pareto frontier\n\n"
      "  --space NAME      paper | smoke | fine (default paper;\n"
      "                    1248 / 8 / 61641216 points)\n"
      "  --mode NAME       sweep | search (default sweep). sweep scores\n"
      "                    every point of the space; search runs a budgeted\n"
      "                    search (needs --budget; see --strategy) and is\n"
      "                    mandatory for spaces beyond the exhaustive limit\n"
      "  --strategy NAME   search mode: evolve (the default and only\n"
      "                    strategy), a seeded evolutionary neighborhood\n"
      "                    search\n"
      "  --budget N        search mode: cap on point evaluations (N >= 1)\n"
      "  --search-seed S   search mode: sampling/injection RNG seed — the\n"
      "                    front is a pure function of (seed, budget,\n"
      "                    space, scoring), independent of --threads\n"
      "                    (default 1)\n"
      "  --backend NAME    analytic (the default and only backend): the\n"
      "                    closed-form energy/performance models\n"
      "  --objectives LIST comma list drawn from energy,area,error,latency,\n"
      "                    pe_utilization,dram_bw_headroom,\n"
      "                    throughput_per_area used for Pareto dominance\n"
      "                    (default: the core four energy,area,error,latency;\n"
      "                    the last three are maximized, the rest minimized)\n"
      "  --where LIST      constraint-filter the front basis before\n"
      "                    extraction: comma list of objective<=value /\n"
      "                    objective>=value terms in natural units\n"
      "                    (e.g. \"area<=2.5e6,latency<=0.01\")\n"
      "  --store-in PATH   answer the sweep from this evaluated-space\n"
      "                    snapshot (exit 1 if it holds no snapshot of this\n"
      "                    space under the current scoring identity);\n"
      "                    missing points are evaluated in one batch\n"
      "  --store-out PATH  snapshot the evaluated space to PATH afterwards\n"
      "  --jobs PATH       run the JSON job spec's experiments in one\n"
      "                    process, sharing one evaluated-space store (see\n"
      "                    dse/request.hpp; not combinable with other flags)\n"
      "  --threads N       width of the process-wide worker pool (default:\n"
      "                    hardware concurrency; 1 = fully serial; an\n"
      "                    explicit APSQ_POOL_THREADS env var wins)\n"
      "  --seed S          accuracy-proxy seed (default 0xD5E)\n"
      "  --csv PATH        write every evaluated point as CSV\n"
      "  --front-csv PATH  write the Pareto front as CSV\n"
      "  --layer-stats-csv PATH\n"
      "                    write one per-layer telemetry row for each top\n"
      "                    front row (cycles, utilization, stall/idle split,\n"
      "                    SRAM/DRAM traffic by operand, bandwidth\n"
      "                    occupancy) to PATH\n"
      "  --dump-stats-top K\n"
      "                    front rows dumped by --layer-stats-csv\n"
      "                    (default 5; 0 = every front row)\n"
      "  --stats           print accuracy-table hit/miss/race counters,\n"
      "                    and pool runs and steals (indices a helper\n"
      "                    thread ran, not the caller) after the sweep\n"
      "  --stats-json PATH write the same counters as a JSON array of\n"
      "                    {stat, value} objects\n"
      "  --top N           front rows to print (default 20; 0 = all)\n"
      "  --verify-serial   re-run single-threaded and require the Pareto\n"
      "                    front CSV to be byte-identical (exit 1 if not)\n"
      "  --help            this text\n";
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto next = [&](const char* flag) -> const char* {
      if (value == nullptr) {
        std::cerr << "missing value for " << flag << "\n";
        return nullptr;
      }
      ++i;
      return value;
    };
    if (a != "--help" && a != "-h" && a != "--jobs") o.non_jobs_flag = true;
    if (a == "--help" || a == "-h") {
      print_help();
      o.help = true;
      return false;
    } else if (a == "--jobs") {
      const char* v = next("--jobs");
      if (!v) return false;
      o.jobs_path = v;
    } else if (a == "--layer-stats-csv") {
      const char* v = next("--layer-stats-csv");
      if (!v) return false;
      o.layer_stats_csv_path = v;
    } else if (a == "--dump-stats-top") {
      const char* v = next("--dump-stats-top");
      if (!v ||
          !parse_int_flag("--dump-stats-top", v, 0, 1 << 20, o.dump_stats_top))
        return false;
      o.dump_stats_top_set = true;
    } else if (a == "--stats") {
      o.stats = true;
    } else if (a == "--stats-json") {
      const char* v = next("--stats-json");
      if (!v) return false;
      o.stats_json_path = v;
    } else if (a == "--verify-serial") {
      o.verify_serial = true;
    } else {
      // Every other flag is a request field: one grammar with --jobs
      // experiments and daemon queries (dse/request.hpp).
      switch (apply_request_flag(a, value, o.req)) {
        case FlagResult::kApplied:
          ++i;
          break;
        case FlagResult::kRejected:
          return false;
        case FlagResult::kUnknown:
          std::cerr << "unknown flag: " << a << " (try --help)\n";
          return false;
      }
    }
  }
  return true;
}

void print_cache_line(const char* name, const CacheStats& s) {
  std::cout << name << " " << s.hits << "/" << s.misses;
  if (s.races > 0) std::cout << "/" << s.races << "r";
  std::cout << "\n";
}

/// Print the sweep report (summary, optional stats, front table) and
/// write the files `req` and the CLI-only options name. Returns false —
/// after a diagnostic on stderr — on any write failure.
bool print_report(SweepSession& session, const SweepOutcome& out,
                  const RequestSpec& req, const Options& o) {
  const SweepConfig& cfg = session.config();
  Evaluator& eval = session.evaluator();
  const std::string scored_by = cfg.scored_by_label();

  std::cout << "evaluated " << out.results.size() << " design points ("
            << session.space().workloads.size() << " workloads) with "
            << cfg.resolved_threads() << " threads / " << scored_by
            << " backend in " << Table::num(out.secs, 2) << " s\n"
            << "objectives: " << cfg.objectives.to_string() << "\n";
  if (!cfg.where.empty()) std::cout << "where: " << cfg.where << "\n";
  if (session.store() != nullptr)
    std::cout << "store: " << out.store_hits
              << " points answered from the evaluated-space store, "
              << out.fresh_evaluations << " fresh evaluations\n";
  if (cfg.search()) {
    // The "budgeted evaluations" phrasing is load-bearing: CI smoke steps
    // grep for it to assert the budget held.
    const SearchStats& ss = out.search;
    std::cout << "search: " << to_string(cfg.strategy) << " strategy, budget "
              << cfg.budget << ", " << ss.evaluated
              << " budgeted evaluations in " << Table::num(ss.secs, 2)
              << " s\n";
    for (size_t r = 0; r < ss.rounds.size(); ++r) {
      const SearchRoundStats& rs = ss.rounds[r];
      std::cout << "  round " << r << ": " << rs.candidates << " candidates, +"
                << rs.evaluated_new << " evaluated, front " << rs.front_size
                << (rs.front_changed ? " (changed)" : " (stable)") << ", "
                << Table::num(rs.secs, 2) << " s\n";
    }
  }
  if (o.stats) {
    std::cout << "cache hits/misses[/races] — ";
    print_cache_line("accuracy", eval.accuracy_cache_stats());
    const WorkStealingPool& pool = WorkStealingPool::shared();
    std::cout << "pool: " << pool.num_threads() << " threads, "
              << pool.run_count() << " runs, " << pool.steal_count()
              << " steals\n";
  }
  std::cout << "Pareto front: " << out.front.size()
            << " non-dominated points across workloads ("
            << out.global_front_size << " in the cross-workload front)\n\n";

  std::vector<EvalResult> shown = out.front;
  if (req.top > 0 && static_cast<size_t>(req.top) < shown.size())
    shown.resize(static_cast<size_t>(req.top));
  front_table(shown).print(std::cout);
  if (shown.size() < out.front.size())
    std::cout << "… " << out.front.size() - shown.size()
              << " more rows (use --top 0 or --front-csv)\n";

  if (!cfg.store_out.empty())
    std::cout << "wrote " << cfg.store_out << "\n";
  if (!req.csv.empty()) {
    if (!results_csv(out.results, scored_by).write(req.csv)) {
      std::cerr << "failed to write " << req.csv << "\n";
      return false;
    }
    std::cout << "\nwrote " << req.csv << "\n";
  }
  if (!req.front_csv.empty()) {
    if (!results_csv(out.front, scored_by).write(req.front_csv)) {
      std::cerr << "failed to write " << req.front_csv << "\n";
      return false;
    }
    std::cout << "wrote " << req.front_csv << "\n";
  }
  if (!o.layer_stats_csv_path.empty()) {
    const size_t k = o.dump_stats_top == 0
                         ? out.front.size()
                         : static_cast<size_t>(o.dump_stats_top);
    const StatsWriter sw = layer_stats_writer(eval, out.front, k);
    if (!sw.write_csv(o.layer_stats_csv_path)) {
      std::cerr << "failed to write " << o.layer_stats_csv_path << "\n";
      return false;
    }
    std::cout << "wrote " << o.layer_stats_csv_path << " (" << sw.row_count()
              << " layer rows from " << std::min(out.front.size(), k)
              << " front points)\n";
  }
  if (!o.stats_json_path.empty()) {
    if (!session.stats_writer(out).write_json(o.stats_json_path)) {
      std::cerr << "failed to write " << o.stats_json_path << "\n";
      return false;
    }
    std::cout << "wrote " << o.stats_json_path << "\n";
  }
  return true;
}

int run_single(const Options& o) {
  // Cross-field consistency: the library rules (shared with the job-spec
  // path), plus the one CLI-only pairing — --dump-stats-top shapes
  // --layer-stats-csv output that would otherwise not be written.
  if (!o.req.config.validate() ||
      !flag_requires(o.dump_stats_top_set, "--dump-stats-top",
                     !o.layer_stats_csv_path.empty(), "--layer-stats-csv"))
    return 1;
  try {
    SweepSession session(o.req.config);
    const SweepOutcome out = session.run();
    if (!print_report(session, out, o.req, o)) return 1;
    if (o.verify_serial) {
      if (!session.verify_serial(out)) return 1;
      std::cout << "verify-serial: fronts byte-identical ("
                << out.front.size() << " rows)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}

int run_jobs(const Options& o) {
  try {
    const JobSpec spec = JobSpec::parse_file(o.jobs_path);
    EvalStore store;
    if (!spec.store_in.empty()) {
      store.load_file(spec.store_in);
      std::cout << "loaded store: " << store.entry_count() << " entries ("
                << store.result_count() << " results) from " << spec.store_in
                << "\n";
    }
    std::cout << "running " << spec.experiments.size() << " experiments from "
              << o.jobs_path << "\n";
    for (const RequestSpec& e : spec.experiments) {
      std::cout << "\n--- experiment " << e.name << " ---\n";
      if (!e.config.validate()) {
        std::cerr << "(in experiment " << e.name << " of " << o.jobs_path
                  << ")\n";
        return 1;
      }
      // Every experiment answers from — and records into — the one shared
      // store, so a batch of re-slices over the same space pays for the
      // evaluation exactly once.
      SweepSession session(e.config, &store);
      const SweepOutcome out = session.run();
      // --jobs takes no other flag, so the CLI-only outputs stay off.
      if (!print_report(session, out, e, o)) return 1;
    }
    if (!spec.store_out.empty()) {
      if (!store.save_file(spec.store_out)) {
        std::cerr << "failed to write " << spec.store_out << "\n";
        return 1;
      }
      std::cout << "\nwrote " << spec.store_out << " (" << store.entry_count()
                << " entries, " << store.result_count() << " results)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return o.help ? 0 : 1;
  if (!o.jobs_path.empty()) {
    if (o.non_jobs_flag) {
      std::cerr << "--jobs: cannot be combined with other flags (the spec "
                   "describes each experiment)\n";
      return 1;
    }
    return run_jobs(o);
  }
  return run_single(o);
}
