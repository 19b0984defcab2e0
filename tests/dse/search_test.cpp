// The budgeted-search contract: SearchDriver is deterministic given
// (seed, budget) at any thread count and respects the evaluation budget.
// The sweep layer's search mode persists sparse row sets through the
// store so a warm replay never runs the driver.
#include "dse/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dse/pareto.hpp"
#include "dse/report.hpp"
#include "dse/store.hpp"
#include "dse/sweep.hpp"

namespace apsq::dse {
namespace {

std::string rows_csv(const std::map<index_t, EvalResult>& rows) {
  std::vector<EvalResult> rs;
  rs.reserve(rows.size());
  for (const auto& [i, r] : rows) rs.push_back(r);
  return results_csv(rs).to_string();
}

std::string strategy_error(const std::string& name) {
  try {
    parse_strategy(name);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument for " << name;
  return "";
}

TEST(Search, ParseStrategyRoundTripsAndRejects) {
  EXPECT_EQ(parse_strategy("evolve"), SearchStrategy::kEvolve);
  EXPECT_EQ(to_string(SearchStrategy::kEvolve), std::string("evolve"));
  EXPECT_EQ(strategy_error("anneal"), "unknown strategy: anneal (expected evolve)");
  // The removed strategy is named as removed, not as a typo.
  EXPECT_EQ(strategy_error("halving"),
            "strategy halving was removed with the mixed backend (expected "
            "evolve)");
}

TEST(Search, DriverRejectsAZeroBudget) {
  const ConfigSpace space = ConfigSpace::smoke();
  Evaluator eval;
  SearchOptions opt;
  opt.budget = 0;  // a search that may evaluate nothing is a config bug
  EXPECT_THROW(SearchDriver(space, eval, opt), std::logic_error);
  opt.budget = 4;
  EXPECT_NO_THROW(SearchDriver(space, eval, opt));
}

TEST(Search, EvolveIsDeterministicAcrossThreadCounts) {
  const ConfigSpace space = ConfigSpace::paper_default();
  SearchOptions opt;
  opt.budget = 64;
  opt.seed = 5;
  std::string base;
  for (int threads : {1, 2, 4}) {
    EvaluatorOptions eopt;
    eopt.threads = threads;
    Evaluator eval(eopt);
    SearchDriver driver(space, eval, opt);
    const std::string csv = rows_csv(driver.run());
    if (threads == 1)
      base = csv;
    else
      EXPECT_EQ(base, csv) << "threads=" << threads;
  }
  EXPECT_FALSE(base.empty());
}

TEST(Search, EvolveRespectsTheBudgetAndReportsIt) {
  const ConfigSpace space = ConfigSpace::paper_default();
  SearchOptions opt;
  opt.budget = 48;
  Evaluator eval;
  SearchDriver driver(space, eval, opt);
  const auto rows = driver.run();
  // Every row is budget-charged: the archive can never outgrow the
  // budget.
  EXPECT_LE(static_cast<i64>(rows.size()), opt.budget);
  EXPECT_EQ(driver.stats().evaluated, static_cast<index_t>(rows.size()));
  EXPECT_LE(driver.stats().evaluated, opt.budget);
  EXPECT_GT(driver.stats().rounds.size(), 0u);
  // Every returned row decodes back to the point it claims to be.
  for (const auto& [i, r] : rows)
    EXPECT_EQ(canonical_key(r.point), canonical_key(space.at(i)));
}

TEST(Search, EvolveStopsAfterTwoRoundsWithoutAFrontChange) {
  // With budget to spare, evolve stops as soon as the per-workload front
  // has come through two rounds in a row unchanged, and not a round
  // earlier.
  const ConfigSpace space = ConfigSpace::paper_default();
  SearchOptions opt;
  opt.budget = space.size();
  Evaluator eval;
  SearchDriver driver(space, eval, opt);
  const auto rows = driver.run();
  const SearchStats& st = driver.stats();
  ASSERT_LT(st.evaluated, opt.budget);
  const std::vector<SearchRoundStats>& rounds = st.rounds;
  ASSERT_GE(rounds.size(), 3u);
  const size_t last = rounds.size() - 1;
  EXPECT_TRUE(rounds[0].front_changed);
  EXPECT_FALSE(rounds[last].front_changed);
  EXPECT_FALSE(rounds[last - 1].front_changed);
  for (size_t r = 1; r + 1 < last; ++r)
    EXPECT_TRUE(rounds[r].front_changed || rounds[r + 1].front_changed)
        << "rounds " << r << " and " << r + 1 << " were both unchanged";
  index_t charged = 0;
  for (const SearchRoundStats& rs : rounds) charged += rs.evaluated_new;
  EXPECT_EQ(charged, st.evaluated);
  std::vector<EvalResult> archive;
  for (const auto& [i, r] : rows) archive.push_back(r);
  EXPECT_EQ(rounds[last].front_size,
            static_cast<index_t>(
                pareto_front_by_workload(archive, opt.objectives).size()));
}

TEST(Search, ChangingTheSeedChangesTheTrajectory) {
  const ConfigSpace space = ConfigSpace::paper_default();
  SearchOptions opt;
  opt.budget = 48;
  opt.seed = 1;
  Evaluator e1;
  SearchDriver d1(space, e1, opt);
  const auto r1 = d1.run();
  opt.seed = 99;
  Evaluator e2;
  SearchDriver d2(space, e2, opt);
  const auto r2 = d2.run();
  // Different seeds sample different points (the archives may overlap,
  // but not coincide on a 1248-point space with 48 evaluations).
  EXPECT_NE(rows_csv(r1), rows_csv(r2));
}

TEST(Search, WarmStoreReplayAnswersWithoutRunningTheDriver) {
  EvalStore store;
  SweepConfig cfg;
  cfg.space = "paper";
  cfg.mode = RunMode::kSearch;
  cfg.budget = 32;
  cfg.budget_set = true;
  cfg.search_seed = 3;
  cfg.search_seed_set = true;
  cfg.threads = 1;

  SweepSession cold(cfg, &store);
  const SweepOutcome cold_out = cold.run();
  EXPECT_GT(cold_out.fresh_evaluations, 0);
  EXPECT_EQ(cold_out.store_hits, 0);

  SweepSession warm(cfg, &store);
  const SweepOutcome warm_out = warm.run();
  EXPECT_EQ(warm_out.fresh_evaluations, 0);
  EXPECT_EQ(warm_out.store_hits,
            static_cast<index_t>(warm_out.results.size()));
  EXPECT_EQ(warm_out.results.size(), cold_out.results.size());
  EXPECT_EQ(results_csv(warm_out.front).to_string(),
            results_csv(cold_out.front).to_string());

  // A different search seed is a different answer set: it must not be
  // satisfied by the stored one.
  SweepConfig other = cfg;
  other.search_seed = 4;
  SweepSession reseeded(other, &store);
  EXPECT_GT(reseeded.run().fresh_evaluations, 0);
}

TEST(Search, FineSpaceSearchStaysSparse) {
  SweepConfig cfg;
  cfg.space = "fine";
  cfg.mode = RunMode::kSearch;
  cfg.budget = 96;
  cfg.budget_set = true;
  cfg.threads = 1;
  SweepSession session(cfg);
  EXPECT_GE(session.space().size(), index_t{1000000});
  const SweepOutcome out = session.run();
  // A budgeted search touches budget-many points of the million-point
  // space, never a dense vector of it.
  EXPECT_LE(static_cast<i64>(out.results.size()), cfg.budget);
  EXPECT_EQ(out.search.evaluated,
            static_cast<index_t>(out.results.size()));
  EXPECT_GT(out.front.size(), 0u);
}

/// FNV-1a (64-bit) of a CSV — a compact pin for a whole front's bytes.
u64 fnv1a64(const std::string& s) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// What a trajectory pin records: the per-workload front's bytes, the
/// per-workload and global front sizes, and each round's front size and
/// charged evaluations.
struct Trajectory {
  u64 front_digest = 0;
  size_t front = 0;
  size_t global_front = 0;
  std::vector<std::pair<index_t, index_t>> rounds;  ///< (front_size, evaluated_new)
  size_t repeated_points = 0;  ///< rows whose point an earlier row has
};

Trajectory trajectory_of(const ConfigSpace& space, i64 budget, u64 seed) {
  Evaluator eval;
  SearchOptions opt;
  opt.budget = budget;
  opt.seed = seed;
  SearchDriver driver(space, eval, opt);
  std::vector<EvalResult> rows;
  for (const auto& [i, r] : driver.run()) rows.push_back(r);
  Trajectory t;
  const std::vector<EvalResult> front = pareto_front_by_workload(rows);
  t.front_digest = fnv1a64(results_csv(front, "analytic").to_string());
  t.front = front.size();
  t.global_front = pareto_front(rows).size();
  for (const SearchRoundStats& rs : driver.stats().rounds)
    t.rounds.emplace_back(rs.front_size, rs.evaluated_new);
  std::set<std::string> keys;
  for (const EvalResult& r : rows)
    t.repeated_points += keys.insert(canonical_key(r.point)).second ? 0 : 1;
  return t;
}

void expect_trajectory(const Trajectory& t, u64 digest, size_t front,
                       size_t global_front,
                       const std::vector<std::pair<index_t, index_t>>& rounds) {
  std::ostringstream got;
  got << std::hex << "0x" << t.front_digest << std::dec << " " << t.front
      << " " << t.global_front << " {";
  for (const auto& [f, e] : t.rounds) got << "{" << f << ", " << e << "}, ";
  got << "}";
  EXPECT_EQ(t.front_digest, digest) << got.str();
  EXPECT_EQ(t.front, front) << got.str();
  EXPECT_EQ(t.global_front, global_front) << got.str();
  EXPECT_EQ(t.rounds, rounds) << got.str();
}

TEST(Search, FineSearchTrajectoryIsPinned) {
  // Recorded before the search kept its front live: the front bytes, the
  // front sizes and every round's accounting of a budget-8192 fine-space
  // search must not move when selection internals change. (The digest
  // was re-pinned when the CSV gained its act_bits/weight_bits columns;
  // the sizes and rounds did not move.)
  expect_trajectory(trajectory_of(ConfigSpace::fine_default(), 8192, 1),
                    0x8f714ef83ace5a28ULL, 656, 202,
                    {{279, 2048}, {600, 4473}, {656, 1671}});
}

TEST(Search, DuplicateDecodingTrajectoryIsPinned) {
  // Two indices decode to one point here: the fine ifmap axis overrides
  // the only field the two coarse buffer entries differ in. The first
  // index that scored a point must stay the one its neighbours come from.
  ConfigSpace space;
  space.workloads = {"bert", "segformer"};
  space.dataflows = {Dataflow::kIS, Dataflow::kWS, Dataflow::kOS};
  space.psum_configs = ConfigSpace::default_psum_axis();
  space.geometries = {PeGeometry{16, 8, 8}, PeGeometry{1, 32, 32},
                      PeGeometry{4, 16, 16}};
  space.buffers = {BufferSizing{256 * 1024, 256 * 1024, 128 * 1024},
                   BufferSizing{128 * 1024, 256 * 1024, 128 * 1024}};
  space.ifmap_bytes_axis = {64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024};
  ASSERT_EQ(canonical_key(space.at(0)), canonical_key(space.at(4)));
  const Trajectory t = trajectory_of(space, 1024, 1);
  // The search did score some point under both of its indices.
  EXPECT_GT(t.repeated_points, 0u);
  expect_trajectory(t, 0x67253f3ca62e16c6ULL, 30, 30,
                    {{32, 256}, {25, 296}, {27, 181}, {27, 97}, {28, 66},
                     {29, 61}, {30, 55}, {30, 12}});
}

/// The comma-separated fields of one CSV line (no field here is quoted).
std::vector<std::string> csv_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  for (std::string f; std::getline(in, f, ',');) fields.push_back(f);
  return fields;
}

TEST(Search, FineFrontCsvRowsHaveDistinctIdentities) {
  // The fine space varies the activation and weight bit widths, so two
  // front points can share every other field. Each CSV row must still
  // name its point: the columns before the first objective identify it.
  SweepConfig cfg;
  cfg.space = "fine";
  cfg.mode = RunMode::kSearch;
  cfg.budget = 4096;
  cfg.budget_set = true;
  cfg.search_seed = 9;
  cfg.search_seed_set = true;
  cfg.threads = 1;
  SweepSession session(cfg);
  const SweepOutcome out = session.run();
  std::istringstream lines(
      results_csv(out.front, cfg.scored_by_label()).to_string());
  std::string line;
  std::getline(lines, line);
  const std::vector<std::string> header = csv_fields(line);
  const auto first_objective =
      std::find(header.begin(), header.end(),
                objective_column(Objective::kEnergy));
  ASSERT_NE(first_objective, header.end()) << line;
  const size_t identity_columns =
      static_cast<size_t>(first_objective - header.begin());
  std::set<std::vector<std::string>> seen;
  size_t rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    std::vector<std::string> identity = csv_fields(line);
    identity.resize(identity_columns);
    EXPECT_TRUE(seen.insert(identity).second) << "repeated identity: " << line;
  }
  EXPECT_EQ(rows, out.front.size());
  EXPECT_GT(rows, 100u);
}

SweepConfig fine_search(i64 budget, u64 seed, int threads) {
  SweepConfig cfg;
  cfg.space = "fine";
  cfg.mode = RunMode::kSearch;
  cfg.budget = budget;
  cfg.budget_set = true;
  cfg.search_seed = seed;
  cfg.search_seed_set = true;
  cfg.threads = threads;
  return cfg;
}

/// The objective planes a fresh search's front is checked in: the core
/// quartet, a pair, and all seven.
const char* const kPlanes[] = {
    "energy,area,error,latency", "energy,latency",
    "energy,area,error,latency,pe_utilization,dram_bw_headroom,"
    "throughput_per_area"};

TEST(SweepSession, FreshSearchFrontIsTheFrontOfItsRows) {
  // A fresh unfiltered search reports the front of its live fronts. That
  // must be, byte for byte, the front of every row it scored, and what a
  // warm store replay (which extracts from the rows) reports.
  for (const char* name : kPlanes) {
    for (const u64 seed : {1, 9}) {
      for (const int threads : {1, 4}) {
        SweepConfig cfg = fine_search(4096, seed, threads);
        cfg.objectives = ObjectiveSet::parse(name);
        EvalStore store;
        SweepSession session(cfg, &store);
        const SweepOutcome out = session.run();
        ASSERT_GT(out.fresh_evaluations, 0);
        size_t global = 0;
        const std::string expect =
            results_csv(extract_front(cfg, {}, out.results, &global),
                        cfg.scored_by_label())
                .to_string();
        const std::string got =
            results_csv(out.front, cfg.scored_by_label()).to_string();
        EXPECT_EQ(got, expect) << name << " seed " << seed << " threads "
                               << threads;
        EXPECT_EQ(out.global_front_size, global) << name << " seed " << seed;
        if (threads != 1) continue;
        SweepSession warm(cfg, &store);
        const SweepOutcome replay = warm.run();
        EXPECT_EQ(replay.fresh_evaluations, 0);
        EXPECT_EQ(results_csv(replay.front, cfg.scored_by_label()).to_string(),
                  got)
            << name << " seed " << seed;
        EXPECT_EQ(replay.global_front_size, out.global_front_size);
      }
    }
  }
  // The same over the space of Search.DuplicateDecodingTrajectoryIsPinned,
  // where two indices decode to one point: the live fronts keep one
  // member per point, and the front of the rows collapses the repeat to
  // the same row.
  ConfigSpace space;
  space.workloads = {"bert", "segformer"};
  space.dataflows = {Dataflow::kIS, Dataflow::kWS, Dataflow::kOS};
  space.psum_configs = ConfigSpace::default_psum_axis();
  space.geometries = {PeGeometry{16, 8, 8}, PeGeometry{1, 32, 32},
                      PeGeometry{4, 16, 16}};
  space.buffers = {BufferSizing{256 * 1024, 256 * 1024, 128 * 1024},
                   BufferSizing{128 * 1024, 256 * 1024, 128 * 1024}};
  space.ifmap_bytes_axis = {64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024};
  for (const char* name : kPlanes) {
    SweepConfig cfg;
    cfg.objectives = ObjectiveSet::parse(name);
    Evaluator eval;
    SearchOptions opt;
    opt.budget = 1024;
    opt.objectives = cfg.objectives;
    SearchDriver driver(space, eval, opt);
    const SearchRows rows = driver.run_rows();
    size_t from_rows = 0, from_front = 0;
    EXPECT_EQ(results_csv(extract_front(cfg, {}, rows.front, &from_front))
                  .to_string(),
              results_csv(extract_front(cfg, {}, rows.results, &from_rows))
                  .to_string())
        << name;
    EXPECT_EQ(from_front, from_rows) << name;
    EXPECT_EQ(rows.front.size(),
              static_cast<size_t>(driver.stats().rounds.back().front_size));
  }
}

TEST(SweepSession, FilteredSearchFrontIsTheFrontOfItsFilteredRows) {
  // A filter can drop every live-front member that dominates a row it
  // keeps, so a filtered search extracts from its rows, not from its live
  // fronts. An upper bound on an objective of the plane drops no such
  // dominator; a bound on an objective outside it, or a lower bound, can.
  for (const auto& [name, where] :
       std::vector<std::pair<std::string, std::string>>{
           {"energy,area,error,latency", "area<=2.5e6"},
           {"energy,latency", "area<=2.5e6"},
           {"energy,area,error,latency", "area>=2.5e6"}}) {
    SweepConfig cfg = fine_search(4096, 9, 1);
    cfg.objectives = ObjectiveSet::parse(name);
    cfg.where = where;
    SweepSession session(cfg);
    const SweepOutcome out = session.run();
    size_t global = 0;
    const std::vector<EvalResult> expect =
        extract_front(cfg, parse_constraints(where), out.results, &global);
    EXPECT_EQ(results_csv(out.front, cfg.scored_by_label()).to_string(),
              results_csv(expect, cfg.scored_by_label()).to_string())
        << name << " where " << where;
    EXPECT_EQ(out.global_front_size, global) << name << " where " << where;
    EXPECT_GT(out.front.size(), 0u) << name << " where " << where;
  }
}

}  // namespace
}  // namespace apsq::dse
