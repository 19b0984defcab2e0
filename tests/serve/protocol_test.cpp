// The wire protocol's contract: one JSON line in, one versioned JSON
// line out; a query speaks the RequestSpec vocabulary (minus the output
// file fields) with the job-spec path's exact validation messages;
// malformed input becomes an ok:false response (never a dropped
// connection or a crash); future schema_versions are rejected naming the
// version and the supported range.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/json.hpp"
#include "dse/request.hpp"
#include "dse/store.hpp"
#include "dse/sweep.hpp"
#include "serve/dispatcher.hpp"
#include "serve/server.hpp"

namespace apsq::serve {
namespace {

/// Every response must itself be one valid, versioned JSON object.
JsonValue parsed_response(const LineResult& r) {
  const JsonValue doc = json_parse(r.response);
  EXPECT_TRUE(doc.is_object());
  EXPECT_EQ(doc.get("schema_version").as_i64(), kProtocolSchemaVersion);
  EXPECT_EQ(doc.get("ok").as_bool(), r.ok);
  return doc;
}

TEST(Protocol, PingStatsAndShutdownAnswerWithIdEcho) {
  dse::EvalStore store;
  Dispatcher d(store);

  const LineResult ping =
      handle_request_line(d, "{\"cmd\": \"ping\", \"id\": \"p1\"}");
  EXPECT_TRUE(ping.ok);
  EXPECT_FALSE(ping.shutdown);
  const JsonValue pdoc = parsed_response(ping);
  EXPECT_EQ(pdoc.get("id").as_string(), "p1");
  EXPECT_EQ(pdoc.get("cmd").as_string(), "ping");

  const LineResult stats = handle_request_line(d, "{\"cmd\": \"stats\"}");
  EXPECT_TRUE(stats.ok);
  const JsonValue sdoc = parsed_response(stats);
  EXPECT_EQ(sdoc.get("requests").as_i64(), 0);
  EXPECT_EQ(sdoc.get("store_entries").as_i64(), 0);

  const LineResult bye = handle_request_line(d, "{\"cmd\": \"shutdown\"}");
  EXPECT_TRUE(bye.ok);
  EXPECT_TRUE(bye.shutdown);
  EXPECT_EQ(parsed_response(bye).get("cmd").as_string(), "shutdown");
}

TEST(Protocol, QueryResponseCarriesFrontRowsAndTelemetry) {
  dse::EvalStore store;
  Dispatcher d(store);
  const std::string query =
      "{\"schema_version\": 1, \"id\": \"q1\", \"space\": \"smoke\","
      " \"threads\": 1}";

  const LineResult cold = handle_request_line(d, query);
  ASSERT_TRUE(cold.ok) << cold.response;
  const JsonValue cdoc = parsed_response(cold);
  EXPECT_EQ(cdoc.get("id").as_string(), "q1");
  EXPECT_EQ(cdoc.get("points").as_i64(), 8);
  EXPECT_EQ(static_cast<i64>(cdoc.get("front").size()),
            cdoc.get("front_size").as_i64());
  // Front rows carry the snapshot row vocabulary.
  const JsonValue& row = cdoc.get("front").at(0);
  EXPECT_EQ(row.get("workload").as_string(), "bert");
  EXPECT_TRUE(row.get("energy_pj").is_number());
  EXPECT_EQ(cdoc.get("stats").get("fresh_evaluations").as_i64(), 8);
  EXPECT_EQ(cdoc.get("stats").get("eval_batches").as_i64(), 1);

  // The identical request again is warm: same front bytes, 0 fresh.
  const LineResult warm = handle_request_line(d, query);
  ASSERT_TRUE(warm.ok);
  const JsonValue wdoc = parsed_response(warm);
  EXPECT_EQ(wdoc.get("stats").get("fresh_evaluations").as_i64(), 0);
  EXPECT_EQ(wdoc.get("stats").get("store_hits").as_i64(), 8);
  // CI greps the daemon's warm response for this exact fragment.
  EXPECT_NE(warm.response.find("\"fresh_evaluations\": 0"),
            std::string::npos);
}

TEST(Protocol, SeedAbove2To53AnswersWarmFromACliWrittenStore) {
  // 2^53 + 1 has no double. A smoke store written through the CLI flags
  // with that seed must answer a daemon query naming the same seed warm:
  // the JSON seed is read exactly, not rounded to 2^53 and re-scored.
  const std::string path =
      ::testing::TempDir() + "apsq_protocol_big_seed.json";
  dse::RequestSpec cli;
  std::ostringstream err;
  for (const auto& [flag, text] :
       {std::pair<const char*, std::string>{"--space", "smoke"},
        {"--threads", "1"},
        {"--seed", "9007199254740993"},
        {"--store-out", path}})
    ASSERT_EQ(dse::apply_request_flag(flag, text.c_str(), cli, err),
              dse::FlagResult::kApplied)
        << err.str();
  EXPECT_EQ(dse::SweepSession(cli.config).run().fresh_evaluations, 8);

  dse::EvalStore store;
  ASSERT_EQ(store.load_file(path), 1u);
  Dispatcher d(store);
  const LineResult warm = handle_request_line(
      d, "{\"space\": \"smoke\", \"threads\": 1,"
         " \"seed\": 9007199254740993}");
  ASSERT_TRUE(warm.ok) << warm.response;
  const JsonValue doc = parsed_response(warm);
  EXPECT_EQ(doc.get("stats").get("fresh_evaluations").as_i64(), 0);
  EXPECT_EQ(doc.get("stats").get("store_hits").as_i64(), 8);
  std::remove(path.c_str());
}

TEST(Protocol, SearchQueryAnswersSparseAndWarmRepliesFromTheStore) {
  dse::EvalStore store;
  Dispatcher d(store);
  const std::string query =
      "{\"schema_version\": 1, \"id\": \"s1\", \"space\": \"paper\","
      " \"mode\": \"search\", \"strategy\": \"evolve\", \"budget\": 32,"
      " \"search_seed\": 3, \"threads\": 1}";

  const LineResult cold = handle_request_line(d, query);
  ASSERT_TRUE(cold.ok) << cold.response;
  const JsonValue cdoc = parsed_response(cold);
  // Sparse: a budgeted search reports the points it evaluated, not the
  // 1248-point space.
  EXPECT_LE(cdoc.get("points").as_i64(), 32);
  EXPECT_GT(cdoc.get("points").as_i64(), 0);
  EXPECT_EQ(cdoc.get("stats").get("fresh_evaluations").as_i64(),
            cdoc.get("points").as_i64());

  // Warm: the same (strategy, budget, seed) identity answers from the
  // store without re-running the driver.
  const LineResult warm = handle_request_line(d, query);
  ASSERT_TRUE(warm.ok) << warm.response;
  const JsonValue wdoc = parsed_response(warm);
  EXPECT_EQ(wdoc.get("stats").get("fresh_evaluations").as_i64(), 0);
  EXPECT_EQ(wdoc.get("stats").get("store_hits").as_i64(),
            cdoc.get("points").as_i64());
}

TEST(Protocol, RejectsMalformedRequestsWithoutThrowing) {
  dse::EvalStore store;
  Dispatcher d(store);
  const auto expect_error = [&](const std::string& line,
                                const std::string& fragment) {
    const LineResult r = handle_request_line(d, line);
    EXPECT_FALSE(r.ok) << line;
    EXPECT_FALSE(r.shutdown);
    const JsonValue doc = parsed_response(r);
    EXPECT_NE(doc.get("error").as_string().find(fragment), std::string::npos)
        << r.response;
  };
  expect_error("not json", "request: ");
  expect_error("[1, 2]", "top-level value is not an object");
  expect_error("{\"schema_version\": 2}",
               "unsupported schema_version 2 (supported: 1..1)");
  expect_error("{\"cmd\": \"frobnicate\"}",
               "unknown cmd \"frobnicate\" (expected query|ping|stats|shutdown)");
  expect_error("{\"spce\": \"smoke\"}", "unknown key \"spce\"");
  // Field validation speaks the job-spec path's exact messages.
  expect_error("{\"threads\": 0}", "\"threads\" must be in [1, 4096]");
  expect_error("{\"objectives\": \"energy,joy\"}", "unknown objective");
  expect_error("{\"space\": \"nope\"}", "unknown space: nope");
  expect_error("{\"strategy\": \"anneal\"}", "unknown strategy: anneal");
  expect_error("{\"budget\": 0}", "\"budget\" must be in");
  expect_error("{\"mode\": \"search\"}",
               "--mode search: requires --budget >= 1");
  expect_error("{\"space\": \"fine\"}", "beyond exhaustive sweep");
  // An id in a failing request is still echoed, so clients can correlate.
  const LineResult r =
      handle_request_line(d, "{\"id\": \"x7\", \"space\": \"nope\"}");
  EXPECT_EQ(parsed_response(r).get("id").as_string(), "x7");
  // None of these reached the dispatcher as a served request.
  EXPECT_EQ(d.total_requests(), 0);
}

TEST(Protocol, RejectsRemovedBackendsStrategiesAndFields) {
  // The simulator backends, the halving strategy and their knobs were
  // removed: a request naming them is answered ok:false naming what was
  // removed, never with an analytic front it did not ask for.
  dse::EvalStore store;
  Dispatcher d(store);
  const auto expect_error = [&](const std::string& line,
                                const std::string& fragment) {
    const LineResult r = handle_request_line(d, line);
    EXPECT_FALSE(r.ok) << line;
    EXPECT_NE(parsed_response(r).get("error").as_string().find(fragment),
              std::string::npos)
        << r.response;
  };
  expect_error("{\"space\": \"smoke\", \"backend\": \"sim\"}",
               "\"backend\": backend sim was removed");
  expect_error("{\"space\": \"smoke\", \"backend\": \"mixed\"}",
               "\"backend\": backend mixed was removed");
  expect_error(
      "{\"space\": \"smoke\", \"mode\": \"search\", \"budget\": 4,"
      " \"strategy\": \"halving\"}",
      "\"strategy\": strategy halving was removed");
  for (const char* field :
       {"sim_threads", "shrink", "max_dim", "calibrate", "calibrate_per_class",
        "calibration_csv", "promote_band", "promote_adaptive",
        "promote_budget", "promote_objectives"})
    expect_error(std::string("{\"space\": \"smoke\", \"") + field + "\": 1}",
                 std::string("unknown key \"") + field + "\"");
  EXPECT_EQ(d.total_requests(), 0);
  // The accepted spellings still answer.
  EXPECT_TRUE(handle_request_line(
                  d, "{\"space\": \"smoke\", \"threads\": 1,"
                     " \"backend\": \"analytic\"}")
                  .ok);
}

TEST(Protocol, RejectsOutputFileFieldsWithoutWriting) {
  // A client must not make the daemon truncate or write a path it names:
  // csv / front_csv are CLI and --jobs fields only.
  dse::EvalStore store;
  Dispatcher d(store);
  for (const char* key : {"csv", "front_csv"}) {
    const std::string path =
        ::testing::TempDir() + "protocol_test_" + key + ".csv";
    std::remove(path.c_str());
    const LineResult r = handle_request_line(
        d, std::string("{\"id\": \"f\", \"space\": \"smoke\", \"threads\": 1, \"") +
               key + "\": \"" + path + "\"}");
    EXPECT_FALSE(r.ok) << r.response;
    const JsonValue doc = parsed_response(r);
    EXPECT_EQ(doc.get("id").as_string(), "f");
    EXPECT_EQ(doc.get("error").as_string(),
              std::string("request: query: \"") + key +
                  "\" is not accepted by the daemon (it writes no "
                  "client-named files)");
    EXPECT_FALSE(std::ifstream(path).good()) << path << " was created";
  }
  EXPECT_EQ(d.total_requests(), 0);
}

TEST(Protocol, ServeStreamAnswersEachLineAndStopsAtShutdown) {
  dse::EvalStore store;
  Dispatcher d(store);
  std::istringstream in(
      "{\"cmd\": \"ping\"}\n"
      "\n"
      "garbage\n"
      "{\"cmd\": \"shutdown\"}\n"
      "{\"cmd\": \"ping\", \"id\": \"after\"}\n");
  std::ostringstream out;
  const i64 errors = serve_stream(d, in, out);
  EXPECT_EQ(errors, 1);  // the garbage line; blanks are skipped
  // Three responses — the line after shutdown is never processed.
  std::istringstream lines(out.str());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_TRUE(json_parse(line).is_object()) << line;
    EXPECT_EQ(line.find("after"), std::string::npos);
  }
  EXPECT_EQ(n, 3);
}

}  // namespace
}  // namespace apsq::serve
