// perfbench_driver — the measuring half of the DSE benchmark.
//
// perfbench/run.py builds this program, starts it once per workload run,
// and turns the raw samples it writes (one JSON file per run) into the
// benchmark's metrics. Every number here is taken from outside the
// library: the driver times calls into public functions and checks what
// they return; it never reaches into the library's internals.
//
//   perfbench_driver paper        --seed N --seconds S --trace 0|1 --out F
//   perfbench_driver fine         --seed N --seconds S --trace 0|1 --out F
//   perfbench_driver snapshot     --seed N --out SNAPSHOT
//   perfbench_driver serve-client --seed N --seconds S --port P
//                                 --snapshot SNAPSHOT --out F
//   perfbench_driver serve-trace  --seed N --seconds S --snapshot SNAPSHOT
//                                 --out F
//
// With --trace 1 the batch workloads (and serve-trace) also write
// F.trace.json: chrome://tracing spans recorded around each public call.
//
// Only the analytic backend is used: it is the fidelity every front is
// scored at, and it survives the planned removal of the sim-in-the-loop
// backends. The pool width must be pinned to 2 (APSQ_POOL_THREADS=2) by
// the caller before this process starts; every op that is meant to run on
// two workers checks it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/annotations.hpp"
#include "common/thread_pool.hpp"
#include "dse/accuracy_proxy.hpp"
#include "dse/pareto.hpp"
#include "dse/report.hpp"
#include "dse/request.hpp"
#include "dse/search.hpp"
#include "dse/store.hpp"
#include "dse/sweep.hpp"
#include "energy/energy_model.hpp"
#include "rae/area_model.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/performance.hpp"
#include "trace.hpp"

using namespace apsq;
using namespace apsq::dse;
using perfbench::Scoped;
using perfbench::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kAltThreads = 2;

/// A scoring seed of the paper space with its per-workload and global
/// front sizes under the default objectives, pinned so that a change in
/// how points are scored fails the ops instead of timing them.
struct PaperSeed {
  u64 seed;
  size_t front;
  size_t global_front;
};
/// The scoring seeds paper-sweep ops draw from (the first is the default,
/// 0xD5E); the serve-mix snapshot holds the same seeds.
constexpr PaperSeed kPaperSeeds[] = {
    {0xD5E, 50, 28}, {0xD5F, 48, 21}, {0xD60, 39, 17}, {0xD61, 40, 18},
    {0xD62, 38, 16}, {0xD63, 40, 18}, {0xD64, 41, 16}, {0xD65, 36, 14}};
/// Set-up samples taken before each timed op of a batch workload.
constexpr int kSetupSamples = 100;
/// The one fine-space search trajectory every fine-search op replays, its
/// budget and its front sizes. The budget is large enough that the search,
/// not the accuracy proxy (416 calls at any budget from 16384 up), is most
/// of the op. Smaller budgets fit more ops in a run but repeated no better
/// from run to run.
constexpr u64 kFineSearchSeed = 1;
constexpr i64 kFineBudget = 65536;
constexpr size_t kFineFront = 978;
constexpr size_t kFineGlobalFront = 242;
/// Cold queries per second of a serve-mix run (on a fixed schedule).
constexpr double kColdPerSecond = 1.2;
/// Closed-loop clients of a serve-mix run.
constexpr int kClients = 2;
/// How often a serve-mix run pauses its clients for reference runs.
constexpr auto kServeRefEvery = std::chrono::milliseconds(500);
/// Fine-search points whose per-point layer calls get their own spans.
constexpr size_t kTracedFinePoints = 4096;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Paces a batch loop: another op pair starts until `min_pairs` have run,
/// then only while half the last pair's time still fits before the
/// deadline — so a run ends close to --seconds, not a whole pair late.
class PairLoop {
 public:
  PairLoop(double seconds, long min_pairs)
      : end_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds))),
        min_pairs_(min_pairs) {}

  bool another(long done) {
    const auto now = Clock::now();
    if (done > 0) last_ = now - started_;
    started_ = now;
    return done < min_pairs_ || now + last_ / 2 < end_;
  }

 private:
  Clock::time_point end_;
  long min_pairs_;
  Clock::time_point started_{};
  Clock::duration last_{};
};

u64 mix64(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

/// Raw samples of one run, written as one JSON object for run.py.
struct Report {
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> values;
  std::map<std::string, std::string> notes;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  void add(const std::string& k, double v) { series[k].push_back(v); }
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) fail(why);
  }

  void write(const std::string& path) const {
    std::ofstream f(path);
    char buf[64];
    f << "{\"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"failures\": [";
    for (size_t i = 0; i < failures.size(); ++i)
      f << (i ? ", " : "") << json_str(failures[i]);
    f << "], \"series\": {";
    bool first = true;
    for (const auto& [k, v] : series) {
      f << (first ? "" : ", ") << json_str(k) << ": [";
      first = false;
      for (size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", v[i]);
        f << (i ? ", " : "") << buf;
      }
      f << "]";
    }
    f << "}, \"values\": {";
    first = true;
    for (const auto& [k, v] : values) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      f << (first ? "" : ", ") << json_str(k) << ": " << buf;
      first = false;
    }
    f << "}, \"notes\": {";
    first = true;
    for (const auto& [k, v] : notes) {
      f << (first ? "" : ", ") << json_str(k) << ": " << json_str(v);
      first = false;
    }
    f << "}}\n";
    if (!f) throw std::runtime_error("failed to write " + path);
  }
};

struct Args {
  std::string cmd;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string snapshot;
  int port = 0;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench_driver CMD ...");
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--snapshot") a.snapshot = v;
    else if (k == "--port") a.port = std::stoi(v);
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.out.empty()) throw std::invalid_argument("--out is required");
  return a;
}

int pool_width() { return WorkStealingPool::shared().num_threads(); }

// ------------------------------------------------------------ batch ops

SweepConfig paper_config(u64 scoring_seed, int threads) {
  SweepConfig c;
  c.space = "paper";
  c.seed = scoring_seed;
  c.threads = threads;
  return c;
}

SweepConfig fine_config(u64 search_seed, int threads, i64 budget) {
  SweepConfig c;
  c.space = "fine";
  c.mode = RunMode::kSearch;
  c.strategy = SearchStrategy::kEvolve;
  c.strategy_set = true;
  c.budget = budget;
  c.budget_set = true;
  c.search_seed = search_seed;
  c.search_seed_set = true;
  c.threads = threads;
  return c;
}

// ------------------------------------------------------- host speed
//
// The shared host's CPU speed drifts, with no CPU steal to show for it: the
// same fine-search op took 3.5 s in one run and 5.6 s in another, and one
// run's paper sweeps took 470 to 740 ms. No number of ops within one run
// averages out a slow minute, so each timed batch op is bracketed by runs
// of a fixed reference kernel on the op's own thread, and its times are
// reported at the speed on which that kernel takes kRefNominalMs:
// multiplied by kRefNominalMs over the median of the op's reference runs.
// (A reference sampled all along on a thread of its own tracked the ops
// worse: the speed differs from one vCPU to the next.) serve-mix is scaled
// per segment of its run instead (see cmd_serve_client). The raw times and
// the reference times are written too.

/// The reference kernel: normal draws accumulated and rounded into a small
/// float table (the accuracy proxy's mix), then a sort of random keys (the
/// search's candidate ranking). It is the benchmark's own code, so no
/// change to the library moves it.
constexpr int kRefDraws = 60000;
constexpr size_t kRefKeys = size_t{1} << 16;
/// Reference runs taken at each sampling point: before and after each timed
/// batch op, and at each serve-mix pause.
constexpr int kRefRuns = 3;
/// The reference kernel's median time on the 4-vCPU VM the benchmark was
/// tuned on; scaled times are in milliseconds at that speed.
constexpr double kRefNominalMs = 10.0;

volatile double g_ref_sink = 0.0;

/// Wall time of one run of the reference kernel, on the calling thread.
double reference_ms() {
  const auto t0 = Clock::now();
  u64 x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  auto uniform = [&next] { return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53; };
  float acc[256] = {};
  for (int i = 0; i < kRefDraws; ++i) {
    const double n = std::sqrt(-2.0 * std::log(uniform())) *
                     std::cos(6.283185307179586 * uniform());
    float& a = acc[i & 255];
    a = std::nearbyint((a + static_cast<float>(n * 8.0)) * 0.25f) * 0.5f;
  }
  static std::vector<u64> keys(kRefKeys);  // allocated once: no page faults
  for (u64& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  g_ref_sink = static_cast<double>(acc[keys[0] & 255]) +
              static_cast<double>(keys[kRefKeys / 2] >> 40);
  return ms_between(t0, Clock::now());
}

/// `ms` (or seconds) measured next to a reference run of `ref_ms`, at the
/// nominal speed.
double at_nominal(double ms, double ref_ms) { return ms * kRefNominalMs / ref_ms; }

/// One cold op: validate + construct a fresh SweepSession (the set-up),
/// then run it (the op).
struct Op {
  double setup_s = 0.0;
  double ms = 0.0;
  double ref_ms = 0.0;  ///< median reference run around the op (timed ops)
  int width = 0;
  i64 steals = 0;
  std::string front_csv;
  size_t front = 0;
  size_t global_front = 0;
  index_t scored = 0;
  SearchStats search;
  CacheStats accuracy;
  CacheStats score;
  std::vector<EvalResult> results;
};

Op run_op(const SweepConfig& cfg) {
  Op o;
  const auto t0 = Clock::now();
  std::ostringstream err;
  if (!cfg.validate(err)) throw std::runtime_error(err.str());
  SweepSession session(cfg);
  const auto t1 = Clock::now();
  const i64 steals0 = WorkStealingPool::shared().steal_count();
  SweepOutcome out = session.run();
  const auto t2 = Clock::now();
  o.setup_s = ms_between(t0, t1) / 1e3;
  o.ms = ms_between(t1, t2);
  o.width = pool_width();
  o.steals = WorkStealingPool::shared().steal_count() - steals0;
  o.front_csv = results_csv(out.front, cfg.scored_by_label()).to_string();
  o.front = out.front.size();
  o.global_front = out.global_front_size;
  o.scored = out.fresh_evaluations;
  o.search = out.search;
  o.accuracy = session.evaluator().accuracy_cache_stats();
  o.score = session.evaluator().score_tt_stats();
  o.results = std::move(out.results);
  return o;
}

/// Set-up samples: a ~10 µs set-up timed once cannot repeat within a
/// tenth; the median of thousands, taken in bursts before every op so that
/// they spread over the whole run, can.
std::vector<double> sample_setup(const SweepConfig& cfg) {
  std::vector<double> v;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    std::ostringstream err;
    if (!cfg.validate(err)) throw std::runtime_error(err.str());
    auto session = std::make_unique<SweepSession>(cfg);
    v.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return v;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// A timed op: set-up samples, then the op, bracketed by kRefRuns
/// reference runs on each side. Records its set-up samples (its own last)
/// at the nominal speed.
Op timed_op(const SweepConfig& cfg, Report& rep) {
  std::vector<double> ref;
  for (int i = 0; i < kRefRuns; ++i) ref.push_back(reference_ms());
  std::vector<double> setups = sample_setup(cfg);
  Op o = run_op(cfg);
  for (int i = 0; i < kRefRuns; ++i) ref.push_back(reference_ms());
  o.ref_ms = median_of(ref);
  setups.push_back(o.setup_s);
  for (const double x : setups) rep.add("setup_s", at_nominal(x, o.ref_ms));
  return o;
}

void record_pair(const Op& s, const Op& a, Report& rep) {
  rep.add("p50_ms", at_nominal(s.ms, s.ref_ms));
  rep.add("alt_p50_ms", at_nominal(a.ms, a.ref_ms));
  rep.add("raw.p50_ms", s.ms);
  rep.add("raw.alt_p50_ms", a.ms);
  rep.add("ref_ms", s.ref_ms);
  rep.add("ref_ms", a.ref_ms);
  rep.add("op_points", static_cast<double>(s.scored));
  rep.add("pool.width", a.width);
  rep.add("pool.steals", static_cast<double>(a.steals));
  rep.add("tt.accuracy_races", static_cast<double>(a.accuracy.races));
  rep.add("tt.accuracy_misses", static_cast<double>(a.accuracy.misses));
  rep.add("tt.score_hits", static_cast<double>(a.score.hits));
  rep.add("tt.score_lookups", static_cast<double>(a.score.lookups()));
}

/// Run a serial and a 2-worker op on the same input (order alternating
/// per pair) and check them: the two fronts must be byte-identical, the
/// 2-worker op must have run on 2 workers, and `check` (what is wrong with
/// an op's output, or "") must find nothing wrong with either. A timed
/// pair also samples the set-up before each op and records both at the
/// nominal host speed, and as measured.
template <typename Check>
std::pair<Op, Op> run_pair(const SweepConfig& serial_cfg, bool alt_first,
                           Report& rep, Check check, bool timed = true) {
  SweepConfig alt_cfg = serial_cfg;
  alt_cfg.threads = kAltThreads;
  auto op = [&](const SweepConfig& cfg) {
    return timed ? timed_op(cfg, rep) : run_op(cfg);
  };
  Op s, a;
  if (alt_first) {
    a = op(alt_cfg);
    s = op(serial_cfg);
  } else {
    s = op(serial_cfg);
    a = op(alt_cfg);
  }
  const std::string serial_error = check(s);
  rep.check(serial_error.empty(), "serial op: " + serial_error);
  std::string alt_error = check(a);
  if (a.width != kAltThreads)
    alt_error = "ran on " + std::to_string(a.width) + " workers";
  else if (alt_error.empty() && a.front_csv != s.front_csv)
    alt_error = "front differs from the serial op's";
  rep.check(alt_error.empty(), "2-thread op: " + alt_error);
  if (timed) record_pair(s, a, rep);
  return {std::move(s), std::move(a)};
}

// ------------------------------------------------------- per-layer timing

/// Keeps a timed call's result alive so the call cannot be optimized out.
volatile double g_sink = 0.0;
void keep(double v) { g_sink = v; }

/// The arguments psum_error_proxy takes from a design point. The proxy is
/// a pure function of them and the scoring seed, so one call per distinct
/// tuple is all the proxy work a set of points needs.
using ProxyArgs = std::tuple<std::string, int, bool, index_t, index_t>;

ProxyArgs proxy_args(const DesignPoint& p) {
  return {p.workload, p.psum.psum_bits, p.psum.apsq, p.psum.group_size,
          p.acc.pci};
}

std::vector<index_t> all_points(const ConfigSpace& space) {
  std::vector<index_t> idx(static_cast<size_t>(space.size()));
  std::iota(idx.begin(), idx.end(), index_t{0});
  return idx;
}

/// One span per call of each per-point layer function over the points
/// `idx` of `space`: decode, canonical key, area, closed-form performance
/// and energy.
void time_point_layers(Tracer* tr, const EvaluatorOptions& opt,
                       const ConfigSpace& space,
                       const std::vector<index_t>& idx) {
  for (const index_t i : idx) {
    DesignPoint p;
    {
      Scoped s(tr, "config_space.at");
      p = space.at(i);
    }
    {
      Scoped s(tr, "design_point.canonical_key");
      keep(static_cast<double>(canonical_key(p).size()));
    }
    const Workload& w = Evaluator::workload(p.workload);
    {
      Scoped s(tr, "rae.area");
      keep(p.psum.apsq
               ? accelerator_with_rae_area(p.acc, opt.area_lib).total_um2()
               : baseline_accelerator_area(p.acc, opt.area_lib).total_um2());
    }
    {
      Scoped s(tr, "performance.workload_performance");
      keep(workload_performance(p.dataflow, w, p.acc, p.psum, opt.perf)
               .total_latency_s);
    }
    Scoped s(tr, "energy.workload_energy");
    keep(workload_energy(p.dataflow, w, p.acc, p.psum, opt.costs).total_pj());
  }
}

/// One span per psum_error_proxy call, once per distinct argument tuple of
/// the points `idx` (decoded untimed). Returns the number of calls.
size_t time_proxy(Tracer* tr, const EvaluatorOptions& opt,
                  const ConfigSpace& space, const std::vector<index_t>& idx) {
  std::set<ProxyArgs> seen;
  for (const index_t i : idx) {
    const DesignPoint p = space.at(i);
    if (!seen.insert(proxy_args(p)).second) continue;
    Scoped s(tr, "accuracy_proxy.psum_error_proxy");
    keep(psum_error_proxy(Evaluator::workload(p.workload), p.psum, p.acc.pci,
                          opt.seed));
  }
  return seen.size();
}

/// What is wrong with an op's front sizes, or "" when they are as pinned.
std::string front_sizes_error(const Op& o, size_t front, size_t global_front) {
  if (o.front == front && o.global_front == global_front) return "";
  return "front sizes " + std::to_string(o.front) + "/" +
         std::to_string(o.global_front) + ", pinned " + std::to_string(front) +
         "/" + std::to_string(global_front);
}

// ------------------------------------------------------- paper-sweep

/// The scoring seed of op pair `pair`, drawn from kPaperSeeds.
const PaperSeed& paper_seed(u64 workload_seed, long pair) {
  return kPaperSeeds[mix64(workload_seed * 1000003ULL + static_cast<u64>(pair)) %
                     std::size(kPaperSeeds)];
}

/// The check of a paper-sweep op: the front sizes pinned for its seed.
auto paper_check(const PaperSeed& ps) {
  return [&ps](const Op& o) {
    const std::string e = front_sizes_error(o, ps.front, ps.global_front);
    return e.empty() ? e : "seed " + std::to_string(ps.seed) + ": " + e;
  };
}

int cmd_paper(const Args& a) {
  Report rep;
  rep.values["pool.width"] = pool_width();
  // Warm-up pair at the default seed: process-level lazy set-up finishes
  // here. It is checked, not timed.
  run_pair(paper_config(kPaperSeeds[0].seed, 1), false, rep,
           paper_check(kPaperSeeds[0]), /*timed=*/false);

  Tracer tracer;
  Tracer* tr = a.trace ? &tracer : nullptr;
  const ConfigSpace space = ConfigSpace::paper_default();
  const std::vector<index_t> all = all_points(space);
  PairLoop loop(a.seconds, 3);
  long pairs = 0;
  for (; loop.another(pairs); ++pairs) {
    const PaperSeed& ps = paper_seed(a.seed, pairs);
    const SweepConfig cfg = paper_config(ps.seed, 1);
    auto [s, alt] = run_pair(cfg, pairs % 2 == 1, rep, paper_check(ps));
    if (pairs == 0) rep.values["accuracy_proxy.calls"] =
        static_cast<double>(s.accuracy.misses);
    if (tr != nullptr) {
      // The traced op: the per-point layer calls over the whole space. It
      // also runs untraced, in alternating order, as the base of
      // trace.overhead_ms.
      const EvaluatorOptions opt = cfg.evaluator_options();
      for (const bool traced : {pairs % 2 == 0, pairs % 2 != 0}) {
        const auto u0 = Clock::now();
        {
          Scoped op(traced ? tr : nullptr, "op.layer_pass");
          time_point_layers(traced ? tr : nullptr, opt, space, all);
        }
        if (!traced) rep.add("untraced_op_ms", ms_between(u0, Clock::now()));
      }
      time_proxy(tr, opt, space, all);
      {
        Scoped f(tr, "pareto.pareto_front_by_workload");
        pareto_front_by_workload(s.results, cfg.objectives);
      }
      Scoped f(tr, "sweep.extract_front");
      extract_front(cfg, {}, s.results);
    }
  }
  if (tr != nullptr) {
    // Evaluator oracle: cold points (score table empty, proxy warm: the
    // first point of each proxy argument tuple is scored untimed), then
    // the same points warm.
    Evaluator ev(paper_config(kPaperSeeds[0].seed, 1).evaluator_options());
    std::set<ProxyArgs> seen;
    std::vector<DesignPoint> rest;
    for (const index_t i : all) {
      const DesignPoint p = space.at(i);
      if (seen.insert(proxy_args(p)).second)
        ev.evaluate_point(p, EvalBackend::kAnalytic);
      else
        rest.push_back(p);
    }
    for (const DesignPoint& p : rest) {
      Scoped s(tr, "evaluator.evaluate_point.cold");
      ev.evaluate_point(p, EvalBackend::kAnalytic);
    }
    for (const DesignPoint& p : rest) {
      Scoped s(tr, "evaluator.evaluate_point.warm");
      ev.evaluate_point(p, EvalBackend::kAnalytic);
    }
    rep.notes["op_span"] = "op.layer_pass";
    if (!tracer.write_chrome(a.out + ".trace.json"))
      throw std::runtime_error("failed to write the trace");
  }
  rep.values["peak_rss_mb"] = peak_rss_mb();
  rep.write(a.out);
  return 0;
}

// ------------------------------------------------------- fine-search

/// The traced op of fine-search: SearchDriver::run, then the front of what
/// it scored. Fills `idx`, `rows` and `stats`; returns the front as CSV.
/// It also runs untraced, in alternating order, as the base of
/// trace.overhead_ms.
std::string searched_front(Tracer* tr, const SweepConfig& cfg,
                           const ConfigSpace& space, std::vector<index_t>& idx,
                           std::vector<EvalResult>& rows, SearchStats& stats) {
  Evaluator ev(cfg.evaluator_options());
  idx.clear();
  rows.clear();
  Scoped op(tr, "op.fine_search");
  {
    Scoped d(tr, "search.SearchDriver::run");
    SearchDriver driver(space, ev, cfg.search_options());
    for (auto& [i, r] : driver.run()) {
      idx.push_back(i);
      rows.push_back(std::move(r));
    }
    stats = driver.stats();
  }
  Scoped f(tr, "sweep.extract_front");
  return results_csv(extract_front(cfg, {}, rows), cfg.scored_by_label())
      .to_string();
}

int cmd_fine(const Args& a) {
  Report rep;
  rep.values["pool.width"] = pool_width();
  auto check = [](const Op& o) -> std::string {
    if (o.search.evaluated != kFineBudget)
      return "evaluated " + std::to_string(o.search.evaluated) +
             " points, budget " + std::to_string(kFineBudget);
    return front_sizes_error(o, kFineFront, kFineGlobalFront);
  };

  Tracer tracer;
  Tracer* tr = a.trace ? &tracer : nullptr;
  const ConfigSpace space = ConfigSpace::fine_default();
  PairLoop loop(a.seconds, 2);
  long pairs = 0;
  for (; loop.another(pairs); ++pairs) {
    // One fixed trajectory: other search seeds do 10-20% more or less
    // work, which would read as run-to-run noise. The workload seed only
    // orders the serial and 2-worker ops.
    const SweepConfig cfg = fine_config(kFineSearchSeed, 1, kFineBudget);
    auto [s, alt] = run_pair(cfg, (a.seed + static_cast<u64>(pairs)) % 2 == 1, rep, check);
    rep.add("accuracy_proxy.calls", static_cast<double>(s.accuracy.misses));
    if (tr != nullptr) {
      std::vector<index_t> idx;
      std::vector<EvalResult> rows;
      SearchStats stats;
      for (const bool traced : {pairs % 2 == 0, pairs % 2 != 0}) {
        const auto u0 = Clock::now();
        const std::string front =
            searched_front(traced ? tr : nullptr, cfg, space, idx, rows, stats);
        if (!traced) rep.add("untraced_op_ms", ms_between(u0, Clock::now()));
        rep.check(front == s.front_csv,
                  "search front differs from the session's");
      }
      {
        Scoped f(tr, "pareto.pareto_front_by_workload");
        pareto_front_by_workload(rows, cfg.objectives);
      }
      rep.values["search.rounds"] = static_cast<double>(stats.rounds.size());
      rep.values["search.evaluated"] = static_cast<double>(stats.evaluated);
      if (pairs > 0) continue;
      // The oracle's share of the search: the same points scored cold by
      // a fresh evaluator, outside the driver.
      std::vector<DesignPoint> pts;
      pts.reserve(rows.size());
      for (const EvalResult& r : rows) pts.push_back(r.point);
      Evaluator oracle(cfg.evaluator_options());
      {
        Scoped o(tr, "search.oracle.evaluate_points_at");
        oracle.evaluate_points_at(pts, EvalBackend::kAnalytic);
      }
      // Per-layer costs on the searched points: the per-point layer calls
      // on the first kTracedFinePoints (to keep the trace small), the proxy
      // once per argument tuple of them all.
      const EvaluatorOptions opt = cfg.evaluator_options();
      time_point_layers(tr, opt, space,
                        {idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(idx.size(), kTracedFinePoints))});
      time_proxy(tr, opt, space, idx);
    }
  }
  if (tr != nullptr) {
    rep.notes["op_span"] = "op.fine_search";
    if (!tracer.write_chrome(a.out + ".trace.json"))
      throw std::runtime_error("failed to write the trace");
  }
  rep.values["peak_rss_mb"] = peak_rss_mb();
  rep.write(a.out);
  return 0;
}

// --------------------------------------------------------- serve-mix

/// Objective subsets and constraint filters warm re-slices draw from.
const char* const kObjectiveMixes[] = {
    "energy,area,error,latency", "energy,latency", "energy,area",
    "energy,error", "energy,latency,pe_utilization", "area,error,latency"};
const char* const kWheres[] = {"", "area<=2.5e6"};

/// The scoring seeds the serve-mix snapshot holds, those of kPaperSeeds:
/// fixed, so every workload seed re-slices the same fronts and the seed
/// only draws the request sequence (front sizes, and with them the cost of
/// a re-slice, vary from one scoring seed to the next). Cold queries use
/// seeds at or above 2^32, so they always miss the store.
std::vector<u64> snapshot_seeds() {
  std::vector<u64> s;
  for (const PaperSeed& ps : kPaperSeeds) s.push_back(ps.seed);
  return s;
}

struct ServeReq {
  bool cold = false;
  RequestSpec spec;
  std::string line;
  std::string key;  ///< identity of a warm re-slice (seed|objectives|where)
};

/// Request `i` of the seeded mix: a cold paper query under fresh seed
/// number `i`, or a warm re-slice of a snapshot seed (seeded draw of seed,
/// objective subset and optional filter).
ServeReq make_request(u64 seed, u64 i, bool cold, const std::vector<u64>& seeds) {
  const u64 r = mix64(mix64(seed) ^ ((i + 1) * 0x9e3779b97f4a7c15ULL));
  ServeReq q;
  q.cold = cold;
  SweepConfig& c = q.spec.config;
  c.space = "paper";
  c.threads = kAltThreads;
  std::string where;
  if (q.cold) {
    c.seed = (u64{1} << 32) + ((seed & 0xfffffULL) << 24) + i;
  } else {
    c.seed = seeds[(r >> 8) % seeds.size()];
    const char* obj = kObjectiveMixes[(r >> 16) % std::size(kObjectiveMixes)];
    c.objectives = ObjectiveSet::parse(obj);
    where = kWheres[(r >> 24) % std::size(kWheres)];
    c.where = where;
  }
  q.spec.top = 0;
  q.key = std::to_string(c.seed) + "|" + c.objectives.to_string() + "|" + where;
  std::ostringstream os;
  os << "{\"id\": \"" << (cold ? "c" : "w") << i << "\", \"space\": \"paper\", \"threads\": "
     << kAltThreads << ", \"seed\": " << c.seed << ", \"objectives\": \""
     << c.objectives.to_string() << "\"";
  if (!where.empty()) os << ", \"where\": \"" << where << "\"";
  os << ", \"top\": 0}";
  q.line = os.str();
  return q;
}

/// What a SweepSession over the same store answers for a warm re-slice:
/// its front as the wire's "front" array and as results CSV.
struct Expected {
  std::string wire;
  std::string csv;
};

Expected expected_answer(const RequestSpec& spec, EvalStore& store) {
  SweepSession session(spec.config, &store);
  const SweepOutcome out = session.run();
  std::ostringstream os;
  os << "\"front\": [";
  for (size_t i = 0; i < out.front.size(); ++i) {
    os << (i ? ", {" : "{");
    append_result_json(os, out.front[i]);
    os << "}";
  }
  os << "]";
  return {os.str(),
          results_csv(out.front, spec.config.scored_by_label()).to_string()};
}

/// Expected answers for every distinct warm re-slice the mix can draw.
std::map<std::string, Expected> expected_answers(EvalStore& store,
                                                 const std::vector<u64>& seeds) {
  std::map<std::string, Expected> m;
  for (const u64 s : seeds)
    for (const char* obj : kObjectiveMixes)
      for (const char* where : kWheres) {
        RequestSpec spec;
        spec.config.seed = s;
        spec.config.threads = kAltThreads;
        spec.config.objectives = ObjectiveSet::parse(obj);
        spec.config.where = where;
        m[std::to_string(s) + "|" + spec.config.objectives.to_string() + "|" +
          where] = expected_answer(spec, store);
      }
  return m;
}

/// The integer field `name` of a query response's stats; -1 if absent.
i64 stat_of(const std::string& response, const std::string& name) {
  const std::string tag = "\"" + name + "\": ";
  const size_t at = response.find(tag);
  return at == std::string::npos ? -1
                                 : std::strtoll(response.c_str() + at + tag.size(), nullptr, 10);
}

bool response_ok(const std::string& response) {
  return response.find("\"ok\": true") != std::string::npos;
}

/// One blocking line-protocol connection to 127.0.0.1:port.
class LineConn {
 public:
  explicit LineConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect to port " + std::to_string(port) + " failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~LineConn() { ::close(fd_); }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  /// Send one request line and return the response line (no newline).
  std::string roundtrip(const std::string& line) {
    const std::string msg = line + "\n";
    size_t sent = 0;
    while (sent < msg.size()) {
      const ssize_t n = ::send(fd_, msg.data() + sent, msg.size() - sent, 0);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string resp = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return resp;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("connection closed by the daemon");
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

int cmd_snapshot(const Args& a) {
  EvalStore store;
  for (const u64 s : snapshot_seeds())
    SweepSession(paper_config(s, kAltThreads), &store).run();
  if (!store.save_file(a.out)) throw std::runtime_error("failed to write " + a.out);
  return 0;
}

/// Checks one response of the mix: the query ran on 2 workers, and its
/// answer is right. Returns its fresh_evaluations.
i64 check_response(const ServeReq& q, const std::string& resp,
                   const std::map<std::string, Expected>& expected,
                   Report& rep) {
  const i64 width = stat_of(resp, "pool_threads");
  rep.check(width == kAltThreads, "query " + q.key + " ran on " +
                                      std::to_string(width) + " workers");
  const i64 fresh = stat_of(resp, "fresh_evaluations");
  if (q.cold) {
    rep.check(response_ok(resp) && fresh == 1248,
              "cold query answered with " + std::to_string(fresh) +
                  " fresh evaluations");
  } else {
    const auto it = expected.find(q.key);
    rep.check(response_ok(resp) && fresh == 0 && it != expected.end() &&
                  resp.find(it->second.wire) != std::string::npos,
              "warm re-slice " + q.key + " differs from the SweepSession front");
  }
  return fresh;
}

/// The closed loop: two connections, each sending its next request of the
/// shared seeded sequence only after the previous reply arrived.
int cmd_serve_client(const Args& a) {
  Report rep;
  const std::vector<u64> seeds = snapshot_seeds();
  EvalStore store;
  store.load_file(a.snapshot);
  const std::map<std::string, Expected> expected = expected_answers(store, seeds);

  // Cold queries run on a fixed schedule — cold k is due k × spacing into
  // the run — so every run pays the same number of them (each one grows
  // the daemon's store and memory); warm re-slices fill the rest.
  const u64 colds = std::max<u64>(1, static_cast<u64>(a.seconds * kColdPerSecond));
  const double spacing_s = a.seconds / static_cast<double>(colds);
  std::atomic<u64> next_warm{0}, next_cold{0};
  Mutex mu;
  std::set<u64> cold_seeds;
  i64 cold_fresh = 0;
  std::vector<std::string> errors;
  // Host speed: the daemon's work runs in another process, so the run is
  // cut into segments by pauses every kServeRefEvery, in which the clients
  // are held between requests and kRefRuns reference runs are taken with
  // the daemon idle (also before and after the run). A request is scaled
  // by the median of the reference runs bracketing its segment; the
  // daemon's set-up (timed by run.py) by speed_scale, from all of them.
  // (Runs on a thread sampling all along beside the load tracked the host
  // worse.)
  struct Request {
    bool cold;
    double ms;
    size_t segment;
  };
  std::vector<Request> requests;  // guarded by mu
  std::vector<std::vector<double>> pause_refs;
  auto run_refs = [&pause_refs] {
    pause_refs.emplace_back();
    for (int i = 0; i < kRefRuns; ++i) pause_refs.back().push_back(reference_ms());
  };
  std::atomic<bool> paused{false};
  std::atomic<int> in_flight{0};
  std::atomic<size_t> segment{0};
  run_refs();
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(a.seconds));
  auto next_request = [&] {
    u64 k = next_cold.load();
    const double now_s = ms_between(t0, Clock::now()) / 1e3;
    if (k < colds && now_s >= static_cast<double>(k) * spacing_s &&
        next_cold.compare_exchange_strong(k, k + 1))
      return make_request(a.seed, k, true, seeds);
    return make_request(a.seed, next_warm++, false, seeds);
  };
  auto client = [&] {
    try {
      LineConn conn(a.port);
      while (Clock::now() < deadline) {
        ++in_flight;
        if (paused) {
          --in_flight;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        struct Done {
          std::atomic<int>& n;
          ~Done() { --n; }
        } done{in_flight};
        const size_t seg = segment;  // no pause ends it while in flight
        const ServeReq q = next_request();
        const auto s = Clock::now();
        const std::string resp = conn.roundtrip(q.line);
        const double ms = ms_between(s, Clock::now());
        MutexLock lock(mu);
        const i64 fresh = check_response(q, resp, expected, rep);
        requests.push_back({q.cold, ms, seg});
        if (!q.cold) rep.add("response_kb", static_cast<double>(resp.size()) / 1024.0);
        if (q.cold) {
          cold_seeds.insert(q.spec.config.seed);
          cold_fresh += std::max<i64>(fresh, 0);
        }
      }
    } catch (const std::exception& e) {
      MutexLock lock(mu);
      errors.push_back(e.what());
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (auto next = t0 + kServeRefEvery; next < deadline; next += kServeRefEvery) {
    std::this_thread::sleep_until(next);
    paused = true;
    while (in_flight > 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
    run_refs();
    ++segment;
    paused = false;
  }
  for (std::thread& c : clients) c.join();
  rep.values["elapsed_s"] = ms_between(t0, Clock::now()) / 1e3;
  run_refs();
  std::vector<double> all_refs;
  for (const std::vector<double>& r : pause_refs) all_refs.insert(all_refs.end(), r.begin(), r.end());
  rep.series["ref_ms"] = all_refs;
  rep.values["speed_scale"] = kRefNominalMs / median_of(all_refs);
  for (const Request& r : requests) {
    std::vector<double> bracket = pause_refs[r.segment];
    bracket.insert(bracket.end(), pause_refs[r.segment + 1].begin(),
                   pause_refs[r.segment + 1].end());
    const std::string name = r.cold ? "cold_ms" : "warm_ms";
    rep.add(name, at_nominal(r.ms, median_of(bracket)));
    rep.add("raw." + name, r.ms);
  }
  for (const std::string& e : errors) {
    ++rep.attempted;
    rep.fail(e);
  }
  // The coalescing invariant: summed fresh evaluations == unique cold points.
  rep.check(cold_fresh == static_cast<i64>(cold_seeds.size()) * 1248,
            "summed fresh_evaluations " + std::to_string(cold_fresh) +
                " != unique cold points");
  rep.write(a.out);
  return 0;
}

/// The traced serve-mix run, in process: the store layer on the snapshot,
/// the same request sequence replayed through handle_request_line and
/// Dispatcher::query, and warm round trips through serve_tcp. pool.width
/// is the narrowest pool any query reported.
int cmd_serve_trace(const Args& a) {
  Report rep;
  Tracer tracer;
  Tracer* tr = &tracer;
  const std::vector<u64> seeds = snapshot_seeds();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.seconds));
  {
    std::ifstream f(a.snapshot, std::ios::binary | std::ios::ate);
    rep.values["store.snapshot_mb"] = static_cast<double>(f.tellg()) / (1024.0 * 1024.0);
  }
  for (int i = 0; i < 3; ++i) {
    EvalStore s;
    Scoped span(tr, "store.load_file");
    s.load_file(a.snapshot);
  }
  EvalStore s1, s2, s3;
  s1.load_file(a.snapshot);
  s2.load_file(a.snapshot);
  s3.load_file(a.snapshot);
  for (int i = 0; i < 3; ++i) {
    Scoped span(tr, "store.to_json");
    rep.check(!s1.to_json().empty(), "empty store serialization");
  }
  const std::string hash = config_space_hash(ConfigSpace::paper_default());
  const std::string scoring = paper_config(seeds[0], 1).scoring_key();
  for (int i = 0; i < 2000; ++i) {
    Scoped span(tr, "store.find");
    s1.find(hash, scoring);
  }
  const std::shared_ptr<const EvalStore::Entry> entry = s1.find(hash, scoring);
  rep.check(entry != nullptr && entry->complete(), "snapshot entry missing");
  std::vector<EvalResult> rows;
  for (const auto& [i, r] : entry->results) rows.push_back(r);
  for (int i = 0; i < 5; ++i) {
    EvalStore fresh;
    Scoped span(tr, "store.put");
    fresh.put(hash, scoring, "analytic", static_cast<index_t>(rows.size()), rows);
  }
  for (const EvalResult& r : rows) {
    Scoped span(tr, "design_point.canonical_key");
    canonical_key(r.point);
  }
  const SweepConfig cfg0 = paper_config(seeds[0], 1);
  for (int i = 0; i < 5; ++i) {
    {
      Scoped span(tr, "pareto.pareto_front_by_workload");
      pareto_front_by_workload(rows, cfg0.objectives);
    }
    Scoped span(tr, "sweep.extract_front");
    extract_front(cfg0, {}, rows);
  }

  const std::map<std::string, Expected> expected = expected_answers(s1, seeds);
  serve::Dispatcher d1(s1), d2(s2);
  const i64 steals0 = WorkStealingPool::shared().steal_count();
  i64 fresh_sum = 0, coalesced = 0, batches = 0;
  i64 width = kAltThreads;
  u64 first_cold_seed = 0;
  u64 warms = 0, colds = 0;
  // The untraced run's schedule, cold k due k / kColdPerSecond seconds in,
  // on the clock of the clients it replays: they spend the run in round
  // trips, so their clock is the summed request time over kClients.
  double client_s = 0.0;
  std::vector<double> warm_line_ms;  ///< handle_request_line time, warm k
  while (Clock::now() < deadline || colds < 2) {
    const bool cold = static_cast<double>(colds) / kColdPerSecond <= client_s;
    const ServeReq q = make_request(a.seed, cold ? colds++ : warms++, cold, seeds);
    serve::LineResult lr;
    const auto t0 = Clock::now();
    {
      Scoped span(tr, q.cold ? "protocol.handle_request_line.cold"
                             : "protocol.handle_request_line.warm");
      lr = serve::handle_request_line(d1, q.line);
    }
    const double line_ms = ms_between(t0, Clock::now());
    client_s += line_ms / 1e3 / kClients;
    if (!q.cold) warm_line_ms.push_back(line_ms);
    check_response(q, lr.response, expected, rep);
    width = std::min(width, stat_of(lr.response, "pool_threads"));
    if (!q.cold) rep.add("response_kb", static_cast<double>(lr.response.size()) / 1024.0);
    serve::QueryResult qr;
    {
      Scoped span(tr, q.cold ? "dispatcher.query.cold" : "dispatcher.query.warm");
      qr = d2.query(q.spec);
    }
    fresh_sum += qr.stats.fresh_evaluations;
    coalesced += qr.stats.coalesced;
    batches += qr.stats.eval_batches;
    width = std::min<i64>(width, qr.stats.pool_threads);
    if (q.cold) {
      if (colds == 1) first_cold_seed = q.spec.config.seed;
      rep.check(qr.stats.fresh_evaluations == 1248, "cold query was not cold");
    } else {
      const auto it = expected.find(q.key);
      rep.check(qr.stats.fresh_evaluations == 0 && it != expected.end() &&
                    qr.front_csv == it->second.csv,
                "warm front_csv differs from the SweepSession front");
    }
  }
  rep.values["pool.steals"] =
      static_cast<double>(WorkStealingPool::shared().steal_count() - steals0);
  rep.values["dispatcher.fresh_evaluations"] = static_cast<double>(fresh_sum);
  rep.values["dispatcher.coalesced"] = static_cast<double>(coalesced);
  rep.values["dispatcher.eval_batches"] = static_cast<double>(batches);
  rep.values["warm_queries"] = static_cast<double>(warms);
  rep.values["cold_queries"] = static_cast<double>(colds);

  // The proxy work one cold query pays: the proxy once per argument tuple.
  {
    const ConfigSpace space = ConfigSpace::paper_default();
    rep.values["accuracy_proxy.calls"] = static_cast<double>(time_proxy(
        tr, paper_config(first_cold_seed, 1).evaluator_options(), space,
        all_points(space)));
  }

  // Transport: the replay's first warm requests again, as round trips
  // through serve_tcp, each untraced and traced in alternating order.
  {
    serve::Dispatcher d3(s3);
    serve::ServeOptions opts;
    opts.port_file = a.out + ".port";
    std::remove(opts.port_file.c_str());
    int rc = -1;
    std::thread server([&] { rc = serve::serve_tcp(d3, opts); });
    int port = 0;
    for (int tries = 0; tries < 10000 && port == 0; ++tries) {
      std::ifstream f(opts.port_file);
      if (!(f >> port)) {
        port = 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    std::vector<ServeReq> warm;
    for (u64 i = 0; i < 200; ++i) warm.push_back(make_request(a.seed, i, false, seeds));
    try {
      LineConn conn(port);
      for (size_t j = 0; j < warm.size(); ++j) {
        for (const bool traced : {j % 2 == 0, j % 2 != 0}) {
          std::string resp;
          const auto s = Clock::now();
          {
            Scoped span(traced ? tr : nullptr, "server.round_trip");
            resp = conn.roundtrip(warm[j].line);
          }
          const double ms = ms_between(s, Clock::now());
          if (!traced)
            rep.add("untraced_op_ms", ms);
          else if (j < warm_line_ms.size())
            rep.add("server.transport_ms", ms - warm_line_ms[j]);
          check_response(warm[j], resp, expected, rep);
          width = std::min(width, stat_of(resp, "pool_threads"));
        }
      }
      conn.roundtrip("{\"cmd\": \"shutdown\"}");
    } catch (const std::exception& e) {
      rep.check(false, e.what());
    }
    server.join();
    rep.check(rc == 0, "serve_tcp did not shut down cleanly");
    std::remove(opts.port_file.c_str());
  }
  rep.values["pool.width"] = static_cast<double>(width);
  rep.values["peak_rss_mb"] = peak_rss_mb();
  if (!tracer.write_chrome(a.out + ".trace.json"))
    throw std::runtime_error("failed to write the trace");
  rep.write(a.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.cmd == "paper") return cmd_paper(a);
    if (a.cmd == "fine") return cmd_fine(a);
    if (a.cmd == "snapshot") return cmd_snapshot(a);
    if (a.cmd == "serve-client") return cmd_serve_client(a);
    if (a.cmd == "serve-trace") return cmd_serve_trace(a);
    throw std::invalid_argument("unknown command " + a.cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
