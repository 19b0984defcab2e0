// The request grammar's contract: one field table serves the apsq_dse
// flags and the JSON keys of job specs and daemon queries. A flag and its
// JSON key set the same RequestSpec fields (the *_set markers included);
// each path keeps its own value conversion, so the CLI still reads hex
// and full-range u64 seeds, and its diagnostics read byte for byte as
// before the table existed.
#include "dse/request.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "common/json.hpp"

namespace apsq::dse {
namespace {

/// Every RequestSpec field, rendered so two specs compare as strings.
std::string dump(const RequestSpec& r) {
  const SweepConfig& c = r.config;
  std::ostringstream os;
  os << "name=" << r.name << " space=" << c.space
     << " mode=" << static_cast<int>(c.mode)
     << " strategy=" << static_cast<int>(c.strategy) << "/" << c.strategy_set
     << " budget=" << c.budget << "/" << c.budget_set
     << " search_seed=" << c.search_seed << "/" << c.search_seed_set
     << " objectives=" << c.objectives.to_string() << " threads=" << c.threads
     << " seed=" << c.seed << " store_in=" << c.store_in
     << " store_out=" << c.store_out << " where=" << c.where
     << " csv=" << r.csv << " front_csv=" << r.front_csv << " top=" << r.top;
  return os.str();
}

struct Pair {
  const char* name;  ///< the case name
  const char* flag;
  const char* text;  ///< the flag's value
  const char* key;
  const char* json;  ///< the key's value, as JSON
};

/// One case per field both paths accept, so a failure names the field.
class FieldPair : public ::testing::TestWithParam<Pair> {};

TEST_P(FieldPair, FlagAndJsonKeySetTheSameFields) {
  const Pair& p = GetParam();
  RequestSpec by_flag;
  std::ostringstream err;
  EXPECT_EQ(apply_request_flag(p.flag, p.text, by_flag, err),
            FlagResult::kApplied)
      << p.flag << ": " << err.str();
  EXPECT_EQ(err.str(), "") << p.flag;
  RequestSpec by_key;
  EXPECT_TRUE(apply_request_field(p.key, json_parse(p.json), by_key,
                                  "<test>", "request"))
      << p.key;
  EXPECT_EQ(dump(by_flag), dump(by_key)) << p.flag << " vs " << p.key;
  // Every field but the validate-only backend changes the request.
  if (std::string(p.key) != "backend") {
    EXPECT_NE(dump(by_flag), dump(RequestSpec{})) << p.flag;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RequestGrammar, FieldPair,
    ::testing::Values(
        Pair{"space", "--space", "smoke", "space", "\"smoke\""},
        Pair{"backend", "--backend", "analytic", "backend", "\"analytic\""},
        Pair{"mode", "--mode", "search", "mode", "\"search\""},
        Pair{"strategy", "--strategy", "evolve", "strategy", "\"evolve\""},
        Pair{"budget", "--budget", "512", "budget", "512"},
        Pair{"search_seed", "--search-seed", "7", "search_seed", "7"},
        Pair{"objectives", "--objectives", "energy,latency", "objectives",
             "\"energy,latency\""},
        Pair{"where", "--where", "area<=2.5e6", "where", "\"area<=2.5e6\""},
        Pair{"threads", "--threads", "3", "threads", "3"},
        Pair{"seed", "--seed", "7", "seed", "7"},
        Pair{"csv", "--csv", "pts.csv", "csv", "\"pts.csv\""},
        Pair{"front_csv", "--front-csv", "front.csv", "front_csv",
             "\"front.csv\""},
        Pair{"top", "--top", "0", "top", "0"}),
    [](const ::testing::TestParamInfo<Pair>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(RequestGrammar, MarkersAreSetByBothPaths) {
  RequestSpec by_flag;
  RequestSpec by_key;
  const char* const argv[][2] = {
      {"--strategy", "evolve"}, {"--budget", "16"}, {"--search-seed", "1"}};
  for (const auto& arg : argv)
    ASSERT_EQ(apply_request_flag(arg[0], arg[1], by_flag),
              FlagResult::kApplied);
  apply_request_object(
      json_parse("{\"strategy\": \"evolve\", \"budget\": 16,"
                 " \"search_seed\": 1}"),
      by_key, "<test>", "request", /*allow_name=*/false);
  for (const RequestSpec* r : {&by_flag, &by_key}) {
    // The values equal the defaults (evolve, seed 1); only the markers
    // record that they were given.
    EXPECT_TRUE(r->config.strategy_set);
    EXPECT_TRUE(r->config.budget_set);
    EXPECT_TRUE(r->config.search_seed_set);
  }
  EXPECT_EQ(dump(by_flag), dump(by_key));
}

TEST(RequestGrammar, CliKeepsHexAndFullRangeSeeds) {
  RequestSpec r;
  ASSERT_EQ(apply_request_flag("--seed", "0xD5E", r), FlagResult::kApplied);
  EXPECT_EQ(r.config.seed, 0xD5Eu);
  ASSERT_EQ(apply_request_flag("--search-seed", "18446744073709551615", r),
            FlagResult::kApplied);
  EXPECT_EQ(r.config.search_seed, ~u64{0});
  EXPECT_TRUE(r.config.search_seed_set);
}

TEST(RequestGrammar, FlagOnlyAndJsonOnlyFieldsStayOnTheirSide) {
  // store_in / store_out are flags only: a job spec names one shared
  // store, the daemon has its own.
  RequestSpec r;
  ASSERT_EQ(apply_request_flag("--store-in", "in.json", r),
            FlagResult::kApplied);
  ASSERT_EQ(apply_request_flag("--store-out", "out.json", r),
            FlagResult::kApplied);
  EXPECT_EQ(r.config.store_in, "in.json");
  EXPECT_EQ(r.config.store_out, "out.json");
  for (const char* key : {"store_in", "store_out"}) {
    RequestSpec j;
    EXPECT_FALSE(apply_request_field(key, json_parse("\"x.json\""), j,
                                     "<test>", "request"))
        << key;
    try {
      apply_request_object(json_parse(std::string("{\"") + key + "\": \"x\"}"),
                           j, "<test>", "request", /*allow_name=*/true);
      FAIL() << key << " accepted as a JSON key";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("<test>: request: unknown key \"") + key + "\"");
    }
    EXPECT_EQ(dump(j), dump(RequestSpec{}));
  }
  // name is JSON only; an unknown flag writes nothing, not even a
  // diagnostic (the CLI owns the "unknown flag" message).
  for (const char* flag : {"name", "--name", "--bogus", "--store_in"}) {
    RequestSpec f;
    std::ostringstream err;
    EXPECT_EQ(apply_request_flag(flag, "x", f, err), FlagResult::kUnknown)
        << flag;
    EXPECT_EQ(err.str(), "") << flag;
    EXPECT_EQ(dump(f), dump(RequestSpec{})) << flag;
  }
}

struct Diagnostic {
  const char* name;  ///< the case name
  const char* flag;
  const char* text;  ///< nullptr: the flag ended the command line
  const char* err;
};

/// One case per pinned CLI rejection.
class CliDiagnostic : public ::testing::TestWithParam<Diagnostic> {};

TEST_P(CliDiagnostic, CliDiagnosticsAreUnchanged) {
  const Diagnostic& c = GetParam();
  RequestSpec r;
  std::ostringstream err;
  EXPECT_EQ(apply_request_flag(c.flag, c.text, r, err), FlagResult::kRejected)
      << c.flag;
  EXPECT_EQ(err.str(), c.err);
  EXPECT_EQ(dump(r), dump(RequestSpec{})) << c.flag << " wrote on failure";
}

INSTANTIATE_TEST_SUITE_P(
    RequestGrammar, CliDiagnostic,
    ::testing::Values(
        Diagnostic{"budget_zero", "--budget", "0",
                   "--budget: value 0 out of range [1, 1099511627776]\n"},
        Diagnostic{"threads_zero", "--threads", "0",
                   "--threads: value 0 out of range [1, 4096]\n"},
        Diagnostic{"top_negative", "--top", "-1",
                   "--top: value -1 out of range [0, 1048576]\n"},
        Diagnostic{"seed_negative", "--seed", "-3",
                   "--seed: expected a non-negative integer, got '-3'\n"},
        Diagnostic{"backend_sim", "--backend", "sim",
                   "--backend: backend sim was removed: scoring is analytic "
                   "only (expected analytic)\n"},
        Diagnostic{"backend_bogus", "--backend", "bogus",
                   "--backend: unknown backend: bogus (expected analytic)\n"},
        Diagnostic{"strategy_halving", "--strategy", "halving",
                   "--strategy: strategy halving was removed with the mixed "
                   "backend (expected evolve)\n"},
        Diagnostic{"mode_bogus", "--mode", "bogus",
                   "--mode: unknown mode: bogus (expected sweep|search)\n"},
        Diagnostic{"objectives_bogus", "--objectives", "energy,bogus",
                   "--objectives: unknown objective: bogus (expected "
                   "energy|area|error|latency|pe_utilization|"
                   "dram_bw_headroom|throughput_per_area)\n"},
        Diagnostic{"where_malformed", "--where", "area<=x",
                   "--where: malformed constraint bound 'x' in 'area<=x'\n"},
        Diagnostic{"seed_missing", "--seed", nullptr,
                   "missing value for --seed\n"}),
    [](const ::testing::TestParamInfo<Diagnostic>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace apsq::dse
