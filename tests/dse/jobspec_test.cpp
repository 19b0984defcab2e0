// The job-spec layer's contract: defaults merge field-by-field under each
// experiment, every recognized field maps onto SweepConfig exactly as the
// CLI flag would, and parsing is strict — unknown keys, wrong types, and
// out-of-range values throw naming the source, the experiment, and the
// key. Cross-field consistency stays with SweepConfig::validate(), so the
// spec path rejects inconsistent configs with the CLI's exact messages.
#include "dse/request.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace apsq::dse {
namespace {

JobSpec parse_text(const std::string& text) {
  return JobSpec::parse(json_parse(text), "<spec>");
}

void expect_parse_error(const std::string& text,
                        const std::string& fragment) {
  try {
    parse_text(text);
    FAIL() << "expected parse to throw for: " << text;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("<spec>"), 0u) << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
  }
}

TEST(JobSpec, DefaultsMergeUnderEachExperiment) {
  const JobSpec spec = parse_text(
      "{\"store_in\": \"in.json\", \"store_out\": \"out.json\","
      " \"defaults\": {\"space\": \"smoke\", \"threads\": 2, \"seed\": 7},"
      " \"experiments\": ["
      "   {\"name\": \"a\"},"
      "   {\"name\": \"b\", \"threads\": 3,"
      "    \"objectives\": \"energy,latency\", \"top\": 0}]}");
  EXPECT_EQ(spec.store_in, "in.json");
  EXPECT_EQ(spec.store_out, "out.json");
  ASSERT_EQ(spec.experiments.size(), 2u);
  const RequestSpec& a = spec.experiments[0];
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(a.config.space, "smoke");
  EXPECT_EQ(a.config.threads, 2);
  EXPECT_EQ(a.config.seed, 7u);
  EXPECT_EQ(a.config.objectives.to_string(), "energy,area,error,latency");
  EXPECT_EQ(a.top, 20);
  const RequestSpec& b = spec.experiments[1];
  EXPECT_EQ(b.config.space, "smoke");   // inherited
  EXPECT_EQ(b.config.threads, 3);       // overridden
  EXPECT_EQ(b.config.seed, 7u);         // inherited
  EXPECT_EQ(b.config.objectives.to_string(), "energy,latency");
  EXPECT_EQ(b.top, 0);
}

TEST(JobSpec, UnnamedExperimentsGetIndexNames) {
  const JobSpec spec =
      parse_text("{\"experiments\": [{}, {\"space\": \"smoke\"}]}");
  EXPECT_EQ(spec.experiments[0].name, "exp0");
  EXPECT_EQ(spec.experiments[1].name, "exp1");
}

TEST(JobSpec, FieldsMapOntoSweepConfigLikeTheFlags) {
  const JobSpec spec = parse_text(
      "{\"experiments\": [{"
      " \"backend\": \"analytic\", \"objectives\": \"energy,latency\","
      " \"where\": \"area<=2.5e6\","
      " \"csv\": \"pts.csv\", \"front_csv\": \"front.csv\"}]}");
  const RequestSpec& e = spec.experiments[0];
  EXPECT_EQ(e.config.objectives.to_string(), "energy,latency");
  EXPECT_EQ(e.config.where, "area<=2.5e6");
  EXPECT_EQ(e.csv, "pts.csv");
  EXPECT_EQ(e.front_csv, "front.csv");
  // The merged config passes the same consistency rules the CLI runs.
  std::ostringstream err;
  EXPECT_TRUE(e.config.validate(err));
}

TEST(JobSpec, RejectsUnknownKeysNamingExperimentAndKey) {
  expect_parse_error("{\"experiments\": [{\"nme\": \"x\"}]}",
                     "experiment 0: unknown key \"nme\"");
  expect_parse_error(
      "{\"defaults\": {\"spce\": \"paper\"}, \"experiments\": [{}]}",
      "defaults: unknown key \"spce\"");
  expect_parse_error("{\"experimnts\": []}", "spec: unknown key");
  expect_parse_error("{\"defaults\": {\"name\": \"x\"}, \"experiments\": [{}]}",
                     "\"name\" is not a defaults field");
}

TEST(JobSpec, RejectsWrongTypesAndOutOfRangeValues) {
  expect_parse_error("{\"experiments\": [{\"threads\": \"four\"}]}",
                     "\"threads\"");
  expect_parse_error("{\"experiments\": [{\"threads\": 0}]}",
                     "\"threads\" must be in [1, 4096]");
  expect_parse_error("{\"experiments\": [{\"threads\": 2.5}]}",
                     "expected an integer");
  expect_parse_error("{\"experiments\": [{\"seed\": -1}]}",
                     "\"seed\" must be >= 0");
  expect_parse_error("{\"experiments\": [{\"backend\": \"warp\"}]}",
                     "\"backend\"");
  expect_parse_error("{\"experiments\": [{\"objectives\": \"energy,joy\"}]}",
                     "unknown objective");
  expect_parse_error("{\"experiments\": [{\"where\": \"area=1\"}]}",
                     "\"where\"");
}

TEST(JobSpec, RejectsRemovedBackendsStrategiesAndFields) {
  // The simulator backends, the halving strategy and their knobs were
  // removed: a spec naming them fails loudly, naming what was removed,
  // instead of silently running an analytic sweep.
  expect_parse_error("{\"experiments\": [{\"backend\": \"sim\"}]}",
                     "\"backend\": backend sim was removed");
  expect_parse_error("{\"experiments\": [{\"backend\": \"mixed\"}]}",
                     "\"backend\": backend mixed was removed");
  expect_parse_error(
      "{\"experiments\": [{\"mode\": \"search\", \"strategy\": \"halving\"}]}",
      "\"strategy\": strategy halving was removed");
  for (const char* field :
       {"sim_threads", "shrink", "max_dim", "calibrate", "calibrate_per_class",
        "calibration_csv", "promote_band", "promote_adaptive",
        "promote_budget", "promote_objectives"})
    expect_parse_error(
        std::string("{\"experiments\": [{\"") + field + "\": 1}]}",
        std::string("experiment 0: unknown key \"") + field + "\"");
}

TEST(JobSpec, SearchFieldsMapOntoSweepConfigLikeTheFlags) {
  const JobSpec spec = parse_text(
      "{\"experiments\": [{"
      " \"space\": \"fine\", \"mode\": \"search\", \"strategy\": \"evolve\","
      " \"budget\": 512, \"search_seed\": 7}]}");
  const RequestSpec& e = spec.experiments[0];
  EXPECT_EQ(e.config.mode, RunMode::kSearch);
  EXPECT_TRUE(e.config.strategy_set);
  EXPECT_EQ(e.config.strategy, SearchStrategy::kEvolve);
  EXPECT_TRUE(e.config.budget_set);
  EXPECT_EQ(e.config.budget, 512);
  EXPECT_TRUE(e.config.search_seed_set);
  EXPECT_EQ(e.config.search_seed, 7u);
  std::ostringstream err;
  EXPECT_TRUE(e.config.validate(err)) << err.str();
}

TEST(JobSpec, V1SpecsWithoutSearchFieldsStillParseAsSweeps) {
  // Back-compat: the search fields are additions to schema v1 — a spec
  // written before they existed must parse to a plain exhaustive sweep.
  const JobSpec spec = parse_text(
      "{\"schema_version\": 1, \"experiments\": [{\"space\": \"smoke\"}]}");
  const RequestSpec& e = spec.experiments[0];
  EXPECT_EQ(e.config.mode, RunMode::kSweep);
  EXPECT_FALSE(e.config.strategy_set);
  EXPECT_FALSE(e.config.budget_set);
  EXPECT_FALSE(e.config.search_seed_set);
}

TEST(JobSpec, RejectsBadSearchValues) {
  expect_parse_error("{\"experiments\": [{\"mode\": \"speedrun\"}]}",
                     "\"mode\"");
  expect_parse_error("{\"experiments\": [{\"strategy\": \"anneal\"}]}",
                     "\"strategy\"");
  expect_parse_error("{\"experiments\": [{\"budget\": 0}]}",
                     "\"budget\" must be in");
  expect_parse_error("{\"experiments\": [{\"search_seed\": -1}]}",
                     "\"search_seed\" must be >= 0");
}

TEST(JobSpec, FutureVersionWithSearchFieldsStillRejectsAtTheGate) {
  // The version gate fires before any field —  including the new search
  // keys — can produce a misleading per-key error, and the message names
  // the source.
  expect_parse_error(
      "{\"schema_version\": 2, \"experiments\":"
      " [{\"mode\": \"search\", \"budget\": 4}]}",
      "unsupported schema_version 2 (supported: 1..1)");
}

TEST(JobSpec, SchemaVersionGateAcceptsV1AndRejectsTheFuture) {
  // An explicit v1 parses; an absent schema_version means v1; a future
  // version is rejected naming the source, the version, and the range —
  // before any other key can produce a misleading "unknown key" error.
  const JobSpec spec = parse_text(
      "{\"schema_version\": 1, \"experiments\": [{\"space\": \"smoke\"}]}");
  EXPECT_EQ(spec.experiments.size(), 1u);
  expect_parse_error("{\"schema_version\": 2, \"experiments\": [{}]}",
                     "unsupported schema_version 2 (supported: 1..1)");
  expect_parse_error(
      "{\"schema_version\": 3, \"futuristic_key\": true, \"experiments\": []}",
      "unsupported schema_version 3");
  expect_parse_error("{\"schema_version\": \"one\", \"experiments\": [{}]}",
                     "schema_version");
}

TEST(JobSpec, RejectsStructuralMistakes) {
  expect_parse_error("{}", "missing \"experiments\" array");
  expect_parse_error("{\"experiments\": []}", "\"experiments\" is empty");
  expect_parse_error("{\"experiments\": {}}", "expected an array");
  expect_parse_error("[]", "top-level value is not an object");
}

TEST(JobSpec, InconsistentConfigsFailValidateWithTheCliMessage) {
  // The spec parses — a budget is per-field legal — but the merged config
  // violates the same cross-field rule the CLI enforces, with the
  // identical message.
  const JobSpec spec = parse_text(
      "{\"experiments\": [{\"backend\": \"analytic\", \"budget\": 16}]}");
  std::ostringstream err;
  EXPECT_FALSE(spec.experiments[0].config.validate(err));
  EXPECT_EQ(err.str(), "--budget: requires --mode search\n");
}

TEST(JobSpec, ParseFilePrefixesErrorsWithThePath) {
  const std::string path = ::testing::TempDir() + "jobspec_test_bad.json";
  std::ofstream(path) << "{\"experiments\": [{\"zzz\": 1}]}";
  try {
    JobSpec::parse_file(path);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).find(path), 0u) << e.what();
  }
  std::remove(path.c_str());
}

/// The bundled specs, findable whether the test runs from the repo root
/// or from a build directory one level below it.
std::string bundled_spec(const std::string& name) {
  for (const char* prefix : {"examples/jobs/", "../examples/jobs/"}) {
    const std::string path = prefix + name;
    if (std::ifstream(path).good()) return path;
  }
  return "";
}

TEST(JobSpec, BundledExampleSpecsParse) {
  // The specs shipped under examples/jobs must stay loadable; CI runs the
  // smoke one end-to-end.
  const std::string smoke_path = bundled_spec("smoke_jobs.json");
  const std::string paper_path = bundled_spec("paper_space.json");
  const std::string search_path = bundled_spec("search_jobs.json");
  if (smoke_path.empty() || paper_path.empty() || search_path.empty())
    GTEST_SKIP() << "examples/jobs not reachable from the test cwd";
  const JobSpec smoke = JobSpec::parse_file(smoke_path);
  EXPECT_EQ(smoke.experiments.size(), 2u);
  const JobSpec paper = JobSpec::parse_file(paper_path);
  EXPECT_EQ(paper.experiments.size(), 4u);
  for (const RequestSpec& e : paper.experiments) {
    std::ostringstream err;
    EXPECT_TRUE(e.config.validate(err)) << e.name << ": " << err.str();
  }
  const JobSpec search = JobSpec::parse_file(search_path);
  EXPECT_EQ(search.experiments.size(), 1u);
  for (const RequestSpec& e : search.experiments) {
    EXPECT_EQ(e.config.mode, RunMode::kSearch) << e.name;
    std::ostringstream err;
    EXPECT_TRUE(e.config.validate(err)) << e.name << ": " << err.str();
  }
}

}  // namespace
}  // namespace apsq::dse
