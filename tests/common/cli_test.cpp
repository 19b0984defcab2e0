#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "dse/evaluator.hpp"

namespace apsq {
namespace {

TEST(CliParse, AcceptsWellFormedIntegers) {
  i64 v = -1;
  std::ostringstream err;
  EXPECT_TRUE(parse_i64_flag("--n", "42", 0, 100, v, err));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_i64_flag("--n", "-7", -10, 10, v, err));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(parse_i64_flag("--n", "0", 0, 0, v, err));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(err.str().empty());
}

TEST(CliParse, RejectsNonNumericTextByFlagName) {
  // The std::atoi failure mode this replaces: "--threads foo" became 0.
  i64 v = 123;
  std::ostringstream err;
  EXPECT_FALSE(parse_i64_flag("--threads", "foo", 1, 64, v, err));
  EXPECT_EQ(v, 123);  // untouched on failure
  EXPECT_NE(err.str().find("--threads"), std::string::npos);
  EXPECT_NE(err.str().find("foo"), std::string::npos);
}

TEST(CliParse, RejectsTrailingJunkAndEmpty) {
  i64 v = 0;
  std::ostringstream err;
  EXPECT_FALSE(parse_i64_flag("--n", "12abc", 0, 100, v, err));
  EXPECT_FALSE(parse_i64_flag("--n", "", 0, 100, v, err));
  EXPECT_FALSE(parse_i64_flag("--n", "1.5", 0, 100, v, err));
  EXPECT_FALSE(parse_i64_flag("--n", " 7", 0, 100, v, err));  // no trimming
}

TEST(CliParse, EnforcesRange) {
  // Negative --top / --shrink used to slip through inconsistently.
  i64 v = 0;
  std::ostringstream err;
  EXPECT_FALSE(parse_i64_flag("--top", "-3", 0, 1 << 20, v, err));
  EXPECT_NE(err.str().find("--top"), std::string::npos);
  EXPECT_FALSE(parse_i64_flag("--shrink", "0", 1, 100, v, err));
  EXPECT_FALSE(parse_i64_flag("--n", "101", 0, 100, v, err));
  EXPECT_FALSE(
      parse_i64_flag("--n", "99999999999999999999999", 0, 100, v, err));
}

TEST(CliParse, IntVariantNarrowsSafely) {
  int v = 0;
  std::ostringstream err;
  EXPECT_TRUE(parse_int_flag("--threads", "8", 1, 4096, v, err));
  EXPECT_EQ(v, 8);
  EXPECT_FALSE(parse_int_flag("--threads", "5000", 1, 4096, v, err));
}

TEST(CliParse, U64AcceptsHexAndDecimal) {
  u64 v = 0;
  std::ostringstream err;
  EXPECT_TRUE(parse_u64_flag("--seed", "0xD5E", v, err));
  EXPECT_EQ(v, 0xD5EULL);
  EXPECT_TRUE(parse_u64_flag("--seed", "12345", v, err));
  EXPECT_EQ(v, 12345ULL);
}

TEST(CliParse, U64RejectsNegativeAndJunk) {
  u64 v = 7;
  std::ostringstream err;
  EXPECT_FALSE(parse_u64_flag("--seed", "-1", v, err));  // strtoull would wrap
  EXPECT_FALSE(parse_u64_flag("--seed", "seed", v, err));
  EXPECT_FALSE(parse_u64_flag("--seed", "", v, err));
  EXPECT_EQ(v, 7ULL);
}

TEST(CliParse, EnumFlagRejectsUnknownValuesByFlagName) {
  // The silent-fallback failure mode: a typo'd --backend must fail the
  // parse (→ exit 1) with the flag named, never run a default sweep.
  dse::EvalBackend backend = dse::EvalBackend::kAnalytic;
  std::ostringstream err;
  EXPECT_FALSE(
      parse_enum_flag("--backend", "bogus", dse::parse_backend, backend, err));
  EXPECT_EQ(backend, dse::EvalBackend::kAnalytic);  // untouched
  EXPECT_NE(err.str().find("--backend"), std::string::npos);
  EXPECT_NE(err.str().find("bogus"), std::string::npos);

  std::ostringstream err2;
  dse::ObjectiveSet objectives;
  EXPECT_FALSE(parse_enum_flag("--objectives", "energy,throughput",
                               dse::ObjectiveSet::parse, objectives, err2));
  EXPECT_NE(err2.str().find("--objectives"), std::string::npos);
  EXPECT_NE(err2.str().find("throughput"), std::string::npos);
  // Untouched on failure: still the default core quartet.
  EXPECT_EQ(objectives.size(), static_cast<size_t>(dse::kCoreObjectiveCount));
}

TEST(CliParse, PromoteBudgetRejectsZeroByFlagName) {
  // A budget flag with a lower bound of 1 (the shape apsq_dse's --budget
  // has): a budget of 0 would evaluate nothing and report an empty front,
  // so it must exit 1 naming the flag instead of running a useless sweep.
  i64 v = 77;
  std::ostringstream err;
  EXPECT_FALSE(
      parse_i64_flag("--promote-budget", "0", 1, i64{1} << 40, v, err));
  EXPECT_EQ(v, 77);  // untouched on failure
  EXPECT_NE(err.str().find("--promote-budget"), std::string::npos);
  EXPECT_NE(err.str().find("out of range"), std::string::npos);
  EXPECT_FALSE(
      parse_i64_flag("--promote-budget", "-5", 1, i64{1} << 40, v, err));
  EXPECT_TRUE(
      parse_i64_flag("--promote-budget", "100", 1, i64{1} << 40, v, err));
  EXPECT_EQ(v, 100);
}

TEST(CliParse, FlagRequiresNamesTheFlagAndTheRequirement) {
  // A flag that is only meaningful next to another (the shape of
  // apsq_dse's --budget without --mode search): the combination exits 1
  // with both sides named rather than silently ignoring the flag.
  std::ostringstream err;
  EXPECT_FALSE(flag_requires(/*flag_given=*/true, "--promote-budget",
                             /*requirement_met=*/false, "--backend mixed",
                             err));
  EXPECT_NE(err.str().find("--promote-budget"), std::string::npos);
  EXPECT_NE(err.str().find("--backend mixed"), std::string::npos);
  // Flag absent, or requirement met: no complaint either way.
  std::ostringstream quiet;
  EXPECT_TRUE(flag_requires(false, "--promote-budget", false,
                            "--backend mixed", quiet));
  EXPECT_TRUE(flag_requires(true, "--promote-budget", true,
                            "--backend mixed", quiet));
  EXPECT_TRUE(quiet.str().empty());
}

TEST(CliParse, EnumFlagParsesAllBackends) {
  dse::EvalBackend backend = dse::EvalBackend::kAnalytic;
  std::ostringstream err;
  EXPECT_TRUE(parse_enum_flag("--backend", "analytic", dse::parse_backend,
                              backend, err));
  EXPECT_EQ(backend, dse::EvalBackend::kAnalytic);
  EXPECT_TRUE(err.str().empty());
  // The removed backends fail naming the flag and the removal.
  for (const char* removed : {"sim", "mixed"}) {
    std::ostringstream rerr;
    EXPECT_FALSE(parse_enum_flag("--backend", removed, dse::parse_backend,
                                 backend, rerr));
    EXPECT_EQ(rerr.str(), std::string("--backend: backend ") + removed +
                              " was removed: scoring is analytic only "
                              "(expected analytic)\n");
  }
}

}  // namespace
}  // namespace apsq
