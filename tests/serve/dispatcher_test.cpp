// The daemon dispatcher's contract: a query is answered exactly as a
// batch SweepSession would answer it — warm queries from the store with
// zero fresh evaluations and byte-identical front CSVs, cold queries by
// batched evaluation — and concurrent requests missing under the same
// scoring identity coalesce into ONE evaluate_points batch, with the
// summed fresh_evaluations across responses equal to the number of
// unique cold points.
#include "serve/dispatcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dse/legacy_snapshots.hpp"
#include "dse/report.hpp"
#include "dse/store.hpp"
#include "dse/sweep.hpp"

namespace apsq::serve {
namespace {

dse::RequestSpec smoke_request() {
  dse::RequestSpec req;
  req.config.space = "smoke";
  req.config.threads = 1;
  return req;
}

/// What a batch SweepSession reports for the same config — the
/// byte-identity reference for every dispatcher front.
std::string serial_front_csv(const dse::SweepConfig& cfg) {
  dse::SweepSession session(cfg);
  const dse::SweepOutcome out = session.run();
  return dse::results_csv(out.front, cfg.scored_by_label()).to_string();
}

TEST(Dispatcher, WarmQueryMatchesSweepSessionWithZeroFreshEvaluations) {
  dse::EvalStore store;
  dse::RequestSpec req = smoke_request();

  // Warm the store the batch way: a session attached to it records the
  // full sweep.
  dse::SweepSession session(req.config, &store);
  const dse::SweepOutcome out = session.run();

  Dispatcher d(store);
  const QueryResult qr = d.query(req);
  EXPECT_EQ(qr.stats.fresh_evaluations, 0);
  EXPECT_EQ(qr.stats.eval_batches, 0);
  EXPECT_EQ(qr.stats.store_hits, 8);
  EXPECT_EQ(qr.results.size(), out.results.size());
  EXPECT_EQ(qr.front_size, out.front.size());
  EXPECT_EQ(qr.global_front_size, out.global_front_size);
  EXPECT_EQ(qr.front_csv,
            dse::results_csv(out.front, req.config.scored_by_label())
                .to_string());
}

TEST(Dispatcher, LegacySnapshotsAnswerWarm) {
  // Snapshots written before the simulator backends were removed serve
  // their sweep and their budgeted search from the store, with the front
  // a batch SweepSession computes from scratch.
  dse::EvalStore store;
  const std::string path =
      ::testing::TempDir() + "apsq_dispatcher_test_legacy.json";
  for (const char* snapshot :
       {dse::kLegacySmokeSnapshot, dse::kLegacySmokeSearchSnapshot}) {
    std::ofstream(path, std::ios::binary) << snapshot;
    store.load_file(path);
  }
  std::remove(path.c_str());
  Dispatcher d(store);

  const dse::RequestSpec sweep = smoke_request();
  const QueryResult qs = d.query(sweep);
  EXPECT_EQ(qs.stats.fresh_evaluations, 0);
  EXPECT_EQ(qs.stats.store_hits, 8);
  EXPECT_EQ(qs.front_csv, serial_front_csv(sweep.config));

  dse::RequestSpec search = smoke_request();
  search.config.mode = dse::RunMode::kSearch;
  search.config.budget = 4;
  search.config.budget_set = true;
  search.config.search_seed = 5;
  search.config.search_seed_set = true;
  const QueryResult qr = d.query(search);
  EXPECT_EQ(qr.stats.fresh_evaluations, 0);
  EXPECT_EQ(qr.stats.store_hits, 4);
  EXPECT_EQ(qr.front_csv, serial_front_csv(search.config));
  EXPECT_EQ(d.total_fresh_evaluations(), 0);
}

TEST(Dispatcher, WarmPaperSpaceQueryMatchesBatchSweepSession) {
  // The acceptance sweep: the full 1248-point paper space, snapshotted by
  // a batch session, re-served warm by the dispatcher with 0 fresh
  // evaluations and the identical front bytes — including under a
  // different slicing objective subset (re-slicing never re-evaluates).
  dse::EvalStore store;
  dse::RequestSpec req;
  req.config.space = "paper";

  dse::SweepSession session(req.config, &store);
  const dse::SweepOutcome out = session.run();
  ASSERT_EQ(out.results.size(), 1248u);

  Dispatcher d(store);
  const QueryResult qr = d.query(req);
  EXPECT_EQ(qr.stats.fresh_evaluations, 0);
  EXPECT_EQ(qr.stats.store_hits, 1248);
  EXPECT_EQ(qr.front_csv,
            dse::results_csv(out.front, req.config.scored_by_label())
                .to_string());

  dse::RequestSpec sliced = req;
  sliced.config.objectives = dse::ObjectiveSet::parse("energy,latency");
  const QueryResult qs = d.query(sliced);
  EXPECT_EQ(qs.stats.fresh_evaluations, 0);
  dse::SweepSession sliced_session(sliced.config, &store);
  const dse::SweepOutcome sliced_out = sliced_session.run();
  EXPECT_EQ(qs.front_csv,
            dse::results_csv(sliced_out.front,
                             sliced.config.scored_by_label())
                .to_string());
}

TEST(Dispatcher, WarmReslicesAcrossObjectiveSubsetsAndTruncation) {
  dse::EvalStore store;
  Dispatcher d(store);
  dse::RequestSpec req = smoke_request();
  const QueryResult cold = d.query(req);  // warms the store
  EXPECT_EQ(cold.stats.fresh_evaluations, 8);

  // Different slicing objectives share the scoring key — still warm.
  dse::RequestSpec sliced = smoke_request();
  sliced.config.objectives = dse::ObjectiveSet::parse("energy,latency");
  const QueryResult qr = d.query(sliced);
  EXPECT_EQ(qr.stats.fresh_evaluations, 0);
  EXPECT_EQ(qr.front_csv, serial_front_csv(sliced.config));

  // `top` truncates the returned rows, never the front accounting or the
  // front_csv bytes.
  dse::RequestSpec top1 = smoke_request();
  top1.top = 1;
  const QueryResult qt = d.query(top1);
  EXPECT_EQ(qt.stats.fresh_evaluations, 0);
  EXPECT_EQ(qt.front.size(), 1u);
  EXPECT_EQ(qt.front_size, cold.front_size);
  EXPECT_EQ(qt.front_csv, cold.front_csv);
}

TEST(Dispatcher, ConcurrentColdQueriesCoalesceIntoOneBatch) {
  // Two concurrent cold queries over overlapping slices of the same
  // space/scoring identity must trigger exactly ONE evaluate_points
  // batch, with the summed fresh_evaluations equal to the unique cold
  // points. The batch hook parks the leader after it takes leadership
  // and before it freezes the batch, until both requests have registered
  // their misses — making the race deterministic.
  dse::EvalStore store;
  Dispatcher d(store);
  d.set_batch_hook([&d] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (d.inflight_requests() < 2 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  });

  dse::RequestSpec req_a = smoke_request();
  dse::RequestSpec req_b = smoke_request();
  req_b.config.objectives = dse::ObjectiveSet::parse("energy,latency");

  QueryResult qr_a, qr_b;
  std::thread ta([&] { qr_a = d.query(req_a); });
  std::thread tb([&] { qr_b = d.query(req_b); });
  ta.join();
  tb.join();

  EXPECT_EQ(d.total_eval_batches(), 1);
  EXPECT_EQ(qr_a.stats.fresh_evaluations + qr_b.stats.fresh_evaluations, 8);
  EXPECT_EQ(qr_a.stats.coalesced + qr_b.stats.coalesced, 8);
  EXPECT_EQ(d.total_fresh_evaluations(), 8);
  EXPECT_EQ(qr_a.front_csv, serial_front_csv(req_a.config));
  EXPECT_EQ(qr_b.front_csv, serial_front_csv(req_b.config));
}

TEST(Dispatcher, MixedWarmAndColdThreadsFreshEqualsUniqueColdPoints) {
  dse::EvalStore store;
  Dispatcher d(store);
  const QueryResult warmup = d.query(smoke_request());
  ASSERT_EQ(warmup.stats.fresh_evaluations, 8);

  // Three warm requests (the snapshotted scoring identity) race three
  // cold ones (a different seed = a different scoring key). However the
  // cold trio interleaves, the daemon evaluates each unique cold point
  // exactly once: summed fresh across every response stays 8 + 8.
  dse::RequestSpec cold_req = smoke_request();
  cold_req.config.seed = 0x5EED;

  constexpr int kThreads = 6;
  std::vector<QueryResult> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      results[static_cast<size_t>(t)] =
          d.query(t % 2 == 0 ? smoke_request() : cold_req);
    });
  for (std::thread& t : threads) t.join();

  index_t fresh = 0;
  for (const QueryResult& qr : results) fresh += qr.stats.fresh_evaluations;
  EXPECT_EQ(fresh, 8);
  EXPECT_EQ(d.total_fresh_evaluations(), 16);  // warmup + the cold trio
  const std::string warm_csv = serial_front_csv(smoke_request().config);
  const std::string cold_csv = serial_front_csv(cold_req.config);
  for (int t = 0; t < kThreads; ++t) {
    const QueryResult& qr = results[static_cast<size_t>(t)];
    if (t % 2 == 0) {
      EXPECT_EQ(qr.stats.fresh_evaluations, 0) << "warm request evaluated";
      EXPECT_EQ(qr.stats.store_hits, 8);
      EXPECT_EQ(qr.front_csv, warm_csv);
    } else {
      EXPECT_EQ(qr.front_csv, cold_csv);
    }
  }
}

TEST(Dispatcher, ConcurrentSearchQueriesCoalesceIntoOneDriverRun) {
  // Cold search queries under one scoring identity coalesce whole: ONE
  // SearchDriver run (one leader), everyone else answered from the
  // merged store rows — however the requests interleave.
  dse::EvalStore store;
  Dispatcher d(store);

  dse::RequestSpec req;
  req.config.space = "paper";
  req.config.threads = 1;
  req.config.mode = dse::RunMode::kSearch;
  req.config.budget = 24;
  req.config.budget_set = true;

  constexpr int kThreads = 4;
  std::vector<QueryResult> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { results[static_cast<size_t>(t)] = d.query(req); });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(d.total_eval_batches(), 1);
  index_t fresh = 0;
  for (const QueryResult& qr : results) fresh += qr.stats.fresh_evaluations;
  const index_t rows = static_cast<index_t>(results[0].results.size());
  EXPECT_GT(rows, 0);
  EXPECT_LE(rows, 24);
  EXPECT_EQ(fresh, rows);  // only the leader evaluated
  EXPECT_EQ(d.total_fresh_evaluations(), rows);
  // Every response is byte-identical to the batch session's answer.
  const std::string want = serial_front_csv(req.config);
  for (const QueryResult& qr : results) {
    EXPECT_EQ(qr.front_csv, want);
    EXPECT_EQ(qr.results.size(), results[0].results.size());
  }
  // A repeat answers warm, straight from the sparse snapshot.
  const QueryResult warm = d.query(req);
  EXPECT_EQ(warm.stats.fresh_evaluations, 0);
  EXPECT_EQ(warm.stats.store_hits, rows);
  EXPECT_EQ(warm.front_csv, want);
}

TEST(Dispatcher, PartialSnapshotEvaluatesOnlyTheMisses) {
  // Build a snapshot missing its last row (the on-disk shape a partially
  // scored space loads as), and check the dispatcher fills exactly the
  // hole: store_hits 7, fresh 1, front bytes unchanged.
  const std::string path = ::testing::TempDir() + "dispatcher_partial.json";
  {
    dse::EvalStore store;
    Dispatcher d(store);
    d.query(smoke_request());
    ASSERT_TRUE(store.save_file(path));
  }
  std::stringstream buf;
  buf << std::ifstream(path).rdbuf();
  std::string whole = buf.str();
  const size_t row = whole.rfind(",\n      {\"i\": ");
  ASSERT_NE(row, std::string::npos);
  const size_t row_end = whole.find("}\n    ]", row);
  ASSERT_NE(row_end, std::string::npos);
  whole.erase(row, row_end + 1 - row);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << whole;

  dse::EvalStore store;
  ASSERT_EQ(store.load_file(path), 1u);
  Dispatcher d(store);
  const QueryResult qr = d.query(smoke_request());
  EXPECT_EQ(qr.stats.store_hits, 7);
  EXPECT_EQ(qr.stats.fresh_evaluations, 1);
  EXPECT_EQ(qr.stats.eval_batches, 1);
  EXPECT_EQ(qr.front_csv, serial_front_csv(smoke_request().config));
  std::remove(path.c_str());
}

TEST(Dispatcher, RejectsInvalidConfigsWithTheCliMessage) {
  dse::EvalStore store;
  Dispatcher d(store);
  dse::RequestSpec bad_space = smoke_request();
  bad_space.config.space = "nope";
  try {
    d.query(bad_space);
    FAIL() << "expected an invalid-space query to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown space: nope"),
              std::string::npos)
        << e.what();
  }
  dse::RequestSpec bad_budget = smoke_request();
  bad_budget.config.budget = 16;
  bad_budget.config.budget_set = true;
  try {
    d.query(bad_budget);
    FAIL() << "expected an inconsistent config to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--budget: requires --mode search\n");
  }
  // Rejected requests never count as served.
  EXPECT_EQ(d.total_requests(), 0);
}

TEST(Dispatcher, SerialGroupLeavesThePoolWidthUnpinned) {
  // A threads=1 group scores serially, so it must not pin
  // APSQ_POOL_THREADS for later parallel groups.
  const char* prev = std::getenv("APSQ_POOL_THREADS");
  const std::string saved = prev != nullptr ? prev : "";
  unsetenv("APSQ_POOL_THREADS");
  dse::EvalStore store;
  Dispatcher d(store);
  d.query(smoke_request());
  EXPECT_EQ(std::getenv("APSQ_POOL_THREADS"), nullptr);
  if (prev != nullptr) setenv("APSQ_POOL_THREADS", saved.c_str(), 1);
}

}  // namespace
}  // namespace apsq::serve
