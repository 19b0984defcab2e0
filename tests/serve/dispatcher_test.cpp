// The daemon dispatcher's contract: a query is answered exactly as a
// batch SweepSession would answer it — warm queries from the store with
// zero fresh evaluations and byte-identical front CSVs, cold queries by
// one evaluation per scoring key — and concurrent requests missing under
// the same scoring identity coalesce: whatever the schedule, the summed
// fresh_evaluations across responses equals the number of unique cold
// points.
#include "serve/dispatcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
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
  // Concurrent cold queries under one scoring identity (over two objective
  // slices of it) run ONE evaluation: the request holding the key scores
  // the 8 points, and every other request either waited for it and reads
  // them as coalesced, or came after it and reads them as store hits.
  // That holds for any schedule; each fresh seed is a new race, released
  // by a start barrier so the requests overlap.
  constexpr int kThreads = 4;
  for (const u64 seed : {0x101ULL, 0x202ULL, 0x303ULL, 0x404ULL, 0x505ULL}) {
    dse::EvalStore store;
    Dispatcher d(store);
    std::vector<dse::RequestSpec> reqs(kThreads, smoke_request());
    for (int t = 0; t < kThreads; ++t) {
      reqs[static_cast<size_t>(t)].config.seed = seed;
      if (t % 2 != 0)
        reqs[static_cast<size_t>(t)].config.objectives =
            dse::ObjectiveSet::parse("energy,latency");
    }
    std::vector<QueryResult> results(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        results[static_cast<size_t>(t)] = d.query(reqs[static_cast<size_t>(t)]);
      });
    for (std::thread& t : threads) t.join();

    EXPECT_EQ(d.total_eval_batches(), 1) << "seed " << seed;
    EXPECT_EQ(d.total_fresh_evaluations(), 8) << "seed " << seed;
    index_t fresh = 0;
    int leaders = 0;
    for (const QueryResult& qr : results) {
      fresh += qr.stats.fresh_evaluations;
      if (qr.stats.fresh_evaluations > 0) {
        ++leaders;
        EXPECT_EQ(qr.stats.eval_batches, 1);
        EXPECT_EQ(qr.stats.coalesced, 0);
      } else {
        EXPECT_EQ(qr.stats.eval_batches, 0);
        EXPECT_EQ(qr.stats.coalesced + qr.stats.store_hits, 8);
      }
    }
    EXPECT_EQ(fresh, 8) << "seed " << seed;
    EXPECT_EQ(leaders, 1) << "seed " << seed;
    const std::string want_a = serial_front_csv(reqs[0].config);
    const std::string want_b = serial_front_csv(reqs[1].config);
    for (int t = 0; t < kThreads; ++t)
      EXPECT_EQ(results[static_cast<size_t>(t)].front_csv,
                t % 2 == 0 ? want_a : want_b)
          << "seed " << seed << " thread " << t;
  }
}

TEST(Dispatcher, ThrowingColdRunReleasesItsKey) {
  // A partial snapshot whose row 0 holds point 1's result: the store cannot
  // answer, so the query takes its key, and its run throws on the stale
  // row. The key must be released on the throw — a second query under it
  // gets the same error instead of waiting forever.
  dse::EvalStore store;
  const dse::RequestSpec req = smoke_request();
  {
    dse::SweepSession session(req.config);
    const dse::SweepOutcome out = session.run();
    std::vector<index_t> indices{0};
    std::vector<dse::EvalResult> rows{out.results[1]};
    for (index_t i = 1; i < 7; ++i) {
      indices.push_back(i);
      rows.push_back(out.results[static_cast<size_t>(i)]);
    }
    store.merge_rows(session.space_hash(), req.config.scoring_key(),
                     req.config.scored_by_label(), 8, indices, rows);
  }
  Dispatcher d(store);
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      d.query(req);
      FAIL() << "expected the stale row to be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "snapshot point 0 does not match the space"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(d.total_fresh_evaluations(), 0);
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
  // SearchDriver run (the request holding the key), everyone else
  // answered from the merged store rows — however the requests
  // interleave.
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
  EXPECT_EQ(fresh, rows);  // only the key holder evaluated
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
  // A threads=1 query scores serially, so it must not pin
  // APSQ_POOL_THREADS for later parallel queries.
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
