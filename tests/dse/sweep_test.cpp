// The sweep engine's contract: SweepConfig::validate() is the single
// authority on cross-field consistency (same messages the CLI used to
// print), constraint filters parse strictly, scoring_key() separates what
// changes result values from what doesn't, and a SweepSession reproduces
// the hand-assembled orchestration byte-for-byte.
#include "dse/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "dse/names.hpp"
#include "dse/pareto.hpp"
#include "dse/report.hpp"

namespace apsq::dse {
namespace {

std::string validate_message(const SweepConfig& cfg) {
  std::ostringstream err;
  EXPECT_FALSE(cfg.validate(err));
  return err.str();
}

TEST(SweepConfig, DefaultConfigValidates) {
  std::ostringstream err;
  EXPECT_TRUE(SweepConfig{}.validate(err));
  EXPECT_EQ(err.str(), "");
}

TEST(SweepConfig, ValidateMessagesMatchTheCliFlagRules) {
  SweepConfig c;
  c.space = "nope";
  EXPECT_EQ(validate_message(c), "unknown space: nope (try --help)\n");

  // The space check runs before anything that would build the space.
  c.mode = RunMode::kSearch;
  c.budget = 8;
  c.budget_set = true;
  EXPECT_EQ(validate_message(c), "unknown space: nope (try --help)\n");
}

TEST(SweepConfig, SessionConstructorEnforcesValidation) {
  SweepConfig c;
  c.budget = 8;  // a budget outside search mode: inconsistent
  c.budget_set = true;
  EXPECT_THROW(SweepSession{c}, std::invalid_argument);
}

TEST(SweepConfig, ScoringKeyIgnoresThreadsSlicingAndOutputs) {
  SweepConfig a;
  a.threads = 1;
  SweepConfig b;
  b.threads = 7;
  b.objectives = ObjectiveSet::parse("energy,latency");
  b.store_out = "x.json";
  EXPECT_EQ(a.scoring_key(), b.scoring_key());
}

TEST(SweepConfig, ScoringKeySeparatesValueChangingKnobs) {
  const SweepConfig base;
  // The literal is what existing snapshots are keyed by: changing it
  // would cold-start every store.
  EXPECT_EQ(base.scoring_key(), "backend=analytic|seed=3422");
  SweepConfig c = base;
  c.seed = 1;
  EXPECT_NE(c.scoring_key(), base.scoring_key());
}

TEST(Constraints, ParseAcceptsBothSensesAndLists) {
  const auto cs = parse_constraints("area<=2.5e6,pe_utilization>=0.5");
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].objective, Objective::kArea);
  EXPECT_TRUE(cs[0].upper_bound);
  EXPECT_DOUBLE_EQ(cs[0].bound, 2.5e6);
  EXPECT_EQ(cs[1].objective, Objective::kPeUtilization);
  EXPECT_FALSE(cs[1].upper_bound);
  EXPECT_DOUBLE_EQ(cs[1].bound, 0.5);
  EXPECT_TRUE(parse_constraints("").empty());
}

TEST(Constraints, ParseRejectsUnknownNamesAndMalformedTerms) {
  EXPECT_THROW(parse_constraints("watts<=1"), std::invalid_argument);
  EXPECT_THROW(parse_constraints("area=1"), std::invalid_argument);
  EXPECT_THROW(parse_constraints("area<=abc"), std::invalid_argument);
  EXPECT_THROW(parse_constraints("<=5"), std::invalid_argument);
}

TEST(Constraints, UnknownNameErrorNamesTheMetricAndListsValid) {
  // The fix must be in the error: the mistyped metric by name, plus the
  // full valid-name list.
  try {
    parse_constraints("frobnication<=1");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown objective in constraint: frobnication"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(objective_name_list()), std::string::npos) << msg;
  }
}

TEST(SweepConfig, ParseRunModeRoundTripsAndRejects) {
  EXPECT_EQ(parse_run_mode("sweep"), RunMode::kSweep);
  EXPECT_EQ(parse_run_mode("search"), RunMode::kSearch);
  EXPECT_EQ(to_string(RunMode::kSweep), std::string("sweep"));
  EXPECT_EQ(to_string(RunMode::kSearch), std::string("search"));
  EXPECT_THROW(parse_run_mode("bogus"), std::invalid_argument);
}

TEST(SweepConfig, SearchValidateRulesMatchTheCliFlagRules) {
  SweepConfig c;
  c.strategy_set = true;
  EXPECT_EQ(validate_message(c), "--strategy: requires --mode search\n");

  c = SweepConfig{};
  c.budget = 8;
  c.budget_set = true;
  EXPECT_EQ(validate_message(c), "--budget: requires --mode search\n");

  c = SweepConfig{};
  c.search_seed_set = true;
  EXPECT_EQ(validate_message(c), "--search-seed: requires --mode search\n");

  c = SweepConfig{};
  c.mode = RunMode::kSearch;
  EXPECT_EQ(validate_message(c), "--mode search: requires --budget >= 1\n");

  c = SweepConfig{};
  c.mode = RunMode::kSearch;
  c.budget = 8;
  c.budget_set = true;
  c.strategy_set = true;
  std::ostringstream err;
  EXPECT_TRUE(c.validate(err)) << err.str();
}

TEST(SweepConfig, FineSpaceRequiresSearchMode) {
  SweepConfig c;
  c.space = "fine";
  const std::string msg = validate_message(c);
  EXPECT_NE(msg.find("beyond exhaustive sweep"), std::string::npos) << msg;
  EXPECT_NE(msg.find("--mode search"), std::string::npos) << msg;

  c.mode = RunMode::kSearch;
  c.budget = 64;
  c.budget_set = true;
  std::ostringstream err;
  EXPECT_TRUE(c.validate(err)) << err.str();
}

TEST(SweepConfig, ScoringKeySeparatesSearchKnobs) {
  SweepConfig sweep;
  sweep.space = "smoke";
  SweepConfig search = sweep;
  search.mode = RunMode::kSearch;
  search.budget = 8;
  search.budget_set = true;
  // A search answer set is not a sweep answer set, and every search knob
  // changes which points exist in it. The literal keys existing search
  // snapshots.
  EXPECT_EQ(search.scoring_key(),
            "backend=analytic|seed=3422|mode=search|strategy=evolve|budget=8"
            "|sseed=1|plane=energy,area,error,latency");
  EXPECT_NE(sweep.scoring_key(), search.scoring_key());
  SweepConfig seed2 = search;
  seed2.search_seed = 2;
  seed2.search_seed_set = true;
  EXPECT_NE(search.scoring_key(), seed2.scoring_key());
  SweepConfig budget9 = search;
  budget9.budget = 9;
  EXPECT_NE(search.scoring_key(), budget9.scoring_key());
  SweepConfig plane = search;
  plane.objectives = ObjectiveSet::parse("energy,latency");
  EXPECT_NE(search.scoring_key(), plane.scoring_key());
  // Thread count stays value-irrelevant in search mode too — that is the
  // determinism contract.
  SweepConfig threads = search;
  threads.threads = 7;
  EXPECT_EQ(search.scoring_key(), threads.scoring_key());
}

TEST(SweepConfig, SearchPlaneIsTheObjectiveSet) {
  // A search ranks its candidates in the plane of the objectives asked
  // for, and names that plane in its scoring key with the literal existing
  // search snapshots carry. A sweep has no plane: its objectives only
  // slice the answer set.
  SweepConfig search;
  search.space = "smoke";
  search.mode = RunMode::kSearch;
  search.budget = 4;
  search.budget_set = true;
  search.objectives = ObjectiveSet::parse("energy,latency,pe_utilization");
  EXPECT_EQ(search.scoring_key(),
            "backend=analytic|seed=3422|mode=search|strategy=evolve|budget=4"
            "|sseed=1|plane=energy,latency,pe_utilization");
  SweepConfig sweep;
  sweep.space = "smoke";
  sweep.objectives = search.objectives;
  EXPECT_EQ(sweep.scoring_key(), "backend=analytic|seed=3422");
}

TEST(Constraints, FilterKeepsExactlyTheSatisfyingResults) {
  std::vector<EvalResult> rs(3);
  rs[0].obj.area_um2 = 1.0;
  rs[1].obj.area_um2 = 2.0;
  rs[2].obj.area_um2 = 3.0;
  const auto kept = filter_results(rs, parse_constraints("area<=2"));
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[1].obj.area_um2, 2.0);
}

TEST(SweepSession, SmokeSweepMatchesHandAssembledOrchestration) {
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 1;
  SweepSession session(cfg);
  const SweepOutcome out = session.run();
  EXPECT_EQ(out.results.size(), 8u);
  EXPECT_EQ(out.fresh_evaluations, 8);
  EXPECT_EQ(out.store_hits, 0);
  // The front the session extracts is the front the pareto machinery
  // extracts from the same results.
  const auto expect = pareto_front_by_workload(out.results, cfg.objectives);
  EXPECT_EQ(results_csv(out.front).to_string(),
            results_csv(expect).to_string());
  EXPECT_EQ(out.global_front_size,
            pareto_front(out.results, cfg.objectives).size());
}

TEST(SweepSession, GlobalFrontIsTheFrontOfTheWorkloadFronts) {
  // extract_front counts the cross-workload front over the per-workload
  // fronts only; that must equal the front of the whole basis for every
  // objective subset and filter.
  Evaluator eval;
  const std::vector<EvalResult> rows =
      eval.evaluate_space(ConfigSpace::paper_default());
  for (const char* objectives :
       {"energy,area,error,latency", "energy,latency", "area,error",
        "energy,latency,pe_utilization",
        "energy,area,error,latency,pe_utilization,dram_bw_headroom,"
        "throughput_per_area"}) {
    for (const char* where : {"", "area<=1.5e6", "latency<=0.02"}) {
      SweepConfig cfg;
      cfg.objectives = ObjectiveSet::parse(objectives);
      const std::vector<Constraint> cs = parse_constraints(where);
      size_t global = 0;
      extract_front(cfg, cs, rows, &global);
      EXPECT_EQ(global,
                pareto_front(filter_results(rows, cs), cfg.objectives).size())
          << objectives << " where " << where;
    }
  }
}

TEST(SweepSession, WhereFilterShrinksTheFrontBasis) {
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 1;
  cfg.objectives = ObjectiveSet::parse("energy,latency");
  SweepSession unfiltered(cfg);
  const SweepOutcome all = unfiltered.run();
  // Constrain area below the smallest value present: nothing survives.
  cfg.where = "area<=1";
  SweepSession filtered(cfg);
  const SweepOutcome none = filtered.run();
  EXPECT_GT(all.front.size(), 0u);
  EXPECT_EQ(none.front.size(), 0u);
  EXPECT_EQ(none.global_front_size, 0u);
}

TEST(SweepSession, VerifySerialHoldsOnSmokeSpace) {
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 2;
  SweepSession session(cfg);
  const SweepOutcome out = session.run();
  std::ostringstream err;
  EXPECT_TRUE(session.verify_serial(out, err));
  EXPECT_EQ(err.str(), "");
}

TEST(SweepSession, StatsWriterReportsEvalAndStoreAccounting) {
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 1;
  SweepSession session(cfg);
  const SweepOutcome out = session.run();
  const std::string json = session.stats_writer(out).to_json();
  EXPECT_NE(json.find("\"stat\": \"eval_points\", \"value\": 8"),
            std::string::npos);
  EXPECT_NE(json.find("\"stat\": \"fresh_evaluations\", \"value\": 8"),
            std::string::npos);
  EXPECT_NE(json.find("\"stat\": \"store_hits\", \"value\": 0"),
            std::string::npos);
}

TEST(SweepSession, SerialSessionLeavesThePoolWidthUnpinned) {
  // A threads=1 session never touches the shared pool, so it must not pin
  // APSQ_POOL_THREADS for the parallel work a process runs after it.
  const char* prev = std::getenv("APSQ_POOL_THREADS");
  const std::string saved = prev != nullptr ? prev : "";
  unsetenv("APSQ_POOL_THREADS");
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 1;
  {
    SweepSession session(cfg);
    session.run();
  }
  EXPECT_EQ(std::getenv("APSQ_POOL_THREADS"), nullptr);
  if (prev != nullptr) setenv("APSQ_POOL_THREADS", saved.c_str(), 1);
}

}  // namespace
}  // namespace apsq::dse
