// The evaluated-space store's contract: snapshots round-trip
// byte-stably; a warm reload answers re-slices over any objective subset
// with zero fresh evaluations and a front byte-identical to a fresh
// sweep; and every cold-path failure — corrupt, truncated, wrong-format,
// wrong-version, index-damaged, or space-mismatched snapshots — throws a
// std::runtime_error naming the file and the reason, never crashes, and
// never silently stands in for real results.
#include "dse/store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "dse/legacy_snapshots.hpp"
#include "dse/report.hpp"
#include "dse/sweep.hpp"

namespace apsq::dse {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "apsq_store_test_" + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// EXPECT the load to throw a runtime_error whose message contains both
/// the file path and `reason_fragment` (the "names file and reason"
/// contract), and leave the store empty.
void expect_load_error(const std::string& path,
                       const std::string& reason_fragment) {
  EvalStore store;
  try {
    store.load_file(path);
    FAIL() << "expected load_file(" << path << ") to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(reason_fragment), std::string::npos) << what;
  }
  EXPECT_EQ(store.entry_count(), 0u);
}

TEST(ConfigSpaceHash, IdenticalSpacesHashEqualDifferentSpacesDont) {
  EXPECT_EQ(config_space_hash(ConfigSpace::smoke()),
            config_space_hash(ConfigSpace::smoke()));
  EXPECT_NE(config_space_hash(ConfigSpace::smoke()),
            config_space_hash(ConfigSpace::paper_default()));
  ConfigSpace tweaked = ConfigSpace::smoke();
  tweaked.act_bits = 16;
  EXPECT_NE(config_space_hash(tweaked), config_space_hash(ConfigSpace::smoke()));
}

TEST(EvalStore, RoundTripPreservesEveryResultByteExactly) {
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 1;
  SweepSession session(cfg);
  const SweepOutcome out = session.run();
  const std::string hash = config_space_hash(session.space());

  EvalStore store;
  store.put(hash, cfg.scoring_key(), cfg.scored_by_label(), 8, out.results);
  const std::string path = temp_path("roundtrip.json");
  ASSERT_TRUE(store.save_file(path));

  EvalStore reloaded;
  EXPECT_EQ(reloaded.load_file(path), 1u);
  EXPECT_EQ(reloaded.source(), path);
  const std::shared_ptr<const EvalStore::Entry> e =
      reloaded.find(hash, cfg.scoring_key());
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->complete());
  EXPECT_EQ(e->backend, "analytic");
  std::vector<EvalResult> restored;
  for (const auto& [idx, r] : e->results) restored.push_back(r);
  EXPECT_EQ(results_csv(restored, "analytic").to_string(),
            results_csv(out.results, "analytic").to_string());
  // Serialization is byte-stable: saving the reloaded store reproduces
  // the file.
  EXPECT_EQ(reloaded.to_json(), read_file(path));
  std::remove(path.c_str());
}

TEST(EvalStore, ColdPathRejectsCorruptAndTruncatedSnapshots) {
  const std::string bad = temp_path("corrupt.json");
  write_file(bad, "{\"format\": \"apsq-evalstore\", ");
  expect_load_error(bad, "expected a string key");

  // A truncated tail of a real snapshot: valid prefix, severed mid-array.
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 1;
  cfg.store_out = temp_path("whole.json");
  SweepSession(cfg).run();
  const std::string whole = read_file(cfg.store_out);
  // Sever inside a string value so the parse error is deterministic.
  const size_t mid = whole.find("\"workload\": \"");
  ASSERT_NE(mid, std::string::npos);
  write_file(bad, whole.substr(0, mid + 14));
  expect_load_error(bad, "unterminated");

  expect_load_error(temp_path("absent.json"), "cannot open file");
  std::remove(bad.c_str());
  std::remove(cfg.store_out.c_str());
}

TEST(EvalStore, ColdPathRejectsWrongFormatVersionAndDamagedRows) {
  const std::string path = temp_path("damaged.json");
  write_file(path, "[1, 2, 3]");
  expect_load_error(path, "not an evaluated-space snapshot");
  write_file(path, "{\"format\": \"something-else\", \"version\": 1}");
  expect_load_error(path, "not an evaluated-space snapshot");

  // Build one genuine snapshot, then damage it in targeted ways.
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 1;
  cfg.store_out = temp_path("genuine.json");
  SweepSession(cfg).run();
  const std::string good = read_file(cfg.store_out);
  std::remove(cfg.store_out.c_str());

  auto replace_first = [&](const std::string& from, const std::string& to) {
    std::string s = good;
    const size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    s.replace(at, from.size(), to);
    return s;
  };

  write_file(path,
             replace_first("\"schema_version\": 1", "\"schema_version\": 99"));
  expect_load_error(path, "unsupported schema_version 99");
  // The pre-daemon spelling ("version") is the same schema: it loads as
  // v1 and rejects future versions with the same message.
  write_file(path, replace_first("\"schema_version\": 1", "\"version\": 99"));
  expect_load_error(path, "unsupported schema_version 99");
  {
    write_file(path, replace_first("\"schema_version\": 1", "\"version\": 1"));
    EvalStore legacy;
    EXPECT_EQ(legacy.load_file(path), 1u);
  }
  write_file(path, replace_first("\"i\": 3", "\"i\": 12"));
  expect_load_error(path, "out of range");
  write_file(path, replace_first("\"i\": 3", "\"i\": 0"));
  expect_load_error(path, "duplicate point index 0");
  write_file(path, replace_first("\"points\": 8", "\"points\": 0"));
  // 8 results against a claimed 0-point space: rejected either as a bad
  // count or as too many results — both name the entry.
  expect_load_error(path, "entry 0");
  write_file(path, replace_first("\"error\": ", "\"error\": 1e999; "));
  expect_load_error(path, "");  // any parse/range error, file named
  std::remove(path.c_str());
}

TEST(EvalStore, SessionRejectsSnapshotsOfADifferentSpace) {
  // Snapshot the smoke space, then ask a paper-space sweep to answer from
  // it: the scoring key matches but the hash doesn't, so --store-in must
  // fail loudly instead of silently re-evaluating.
  SweepConfig cold;
  cold.space = "smoke";
  cold.threads = 1;
  cold.store_out = temp_path("smoke_space.json");
  SweepSession(cold).run();

  SweepConfig warm;
  warm.space = "paper";
  warm.threads = 1;
  warm.store_in = cold.store_out;
  SweepSession session(warm);
  try {
    session.run();
    FAIL() << "expected run() to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(cold.store_out), std::string::npos) << what;
    EXPECT_NE(what.find("no snapshot for space hash"), std::string::npos)
        << what;
  }
  std::remove(cold.store_out.c_str());
}

TEST(EvalStore, SessionRejectsPointCountAndIdentityMismatches) {
  SweepConfig cold;
  cold.space = "smoke";
  cold.threads = 1;
  cold.store_out = temp_path("tampered.json");
  SweepSession(cold).run();
  const std::string good = read_file(cold.store_out);

  auto run_warm = [&]() {
    SweepConfig warm;
    warm.space = "smoke";
    warm.threads = 1;
    warm.store_in = cold.store_out;
    SweepSession session(warm);
    return session.run();
  };

  // Same hash, different recorded size: a corrupted or colliding entry.
  std::string tampered = good;
  const size_t at = tampered.find("\"points\": 8");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, 11, "\"points\": 9");
  write_file(cold.store_out, tampered);
  EXPECT_THROW(run_warm(), std::runtime_error);

  // Same hash and size, but a row denotes a different configuration than
  // the space enumerates at its index — the per-row canonical-key guard.
  tampered = good;
  const size_t wl = tampered.find("\"workload\": \"bert\"");
  ASSERT_NE(wl, std::string::npos);
  tampered.replace(wl, 18, "\"workload\": \"zzzz\"");
  write_file(cold.store_out, tampered);
  try {
    run_warm();
    FAIL() << "expected run() to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("does not match the space"),
              std::string::npos)
        << e.what();
  }
  std::remove(cold.store_out.c_str());
}

/// Satellite 3 — re-slice equivalence: a front re-sliced from a loaded
/// store over a different ObjectiveSet subset must be byte-identical to a
/// fresh sweep run directly with those objectives, and must pay zero
/// fresh evaluations.
void expect_reslice_equivalence(SweepConfig base, const std::string& tag,
                                const std::string& new_objectives) {
  const std::string path = temp_path("reslice_" + tag + ".json");
  SweepConfig cold = base;
  cold.store_out = path;
  SweepSession(cold).run();

  SweepConfig warm = base;
  warm.store_in = path;
  warm.objectives = ObjectiveSet::parse(new_objectives);
  SweepSession warm_session(warm);
  const SweepOutcome warm_out = warm_session.run();
  EXPECT_EQ(warm_out.fresh_evaluations, 0) << tag;
  EXPECT_EQ(warm_out.store_hits, 8) << tag;

  SweepConfig fresh = base;
  fresh.objectives = warm.objectives;
  SweepSession fresh_session(fresh);
  const SweepOutcome fresh_out = fresh_session.run();
  EXPECT_GT(fresh_out.fresh_evaluations, 0) << tag;

  EXPECT_EQ(
      results_csv(warm_out.front, warm.scored_by_label()).to_string(),
      results_csv(fresh_out.front, fresh.scored_by_label()).to_string())
      << tag;
  std::remove(path.c_str());
}

TEST(EvalStore, ResliceEquivalenceAnalytic) {
  SweepConfig base;
  base.space = "smoke";
  base.threads = 1;
  expect_reslice_equivalence(base, "analytic", "energy,latency");
  expect_reslice_equivalence(base, "analytic_max",
                             "energy,latency,pe_utilization");
}

TEST(EvalStore, LegacyAnalyticSnapshotAnswersWarm) {
  const std::string path = temp_path("legacy_smoke.json");
  write_file(path, kLegacySmokeSnapshot);
  SweepConfig warm;
  warm.space = "smoke";
  warm.threads = 1;
  warm.store_in = path;
  SweepSession warm_session(warm);
  const SweepOutcome warm_out = warm_session.run();
  EXPECT_EQ(warm_out.fresh_evaluations, 0);
  EXPECT_EQ(warm_out.store_hits, 8);

  SweepConfig fresh = warm;
  fresh.store_in.clear();
  const SweepOutcome fresh_out = SweepSession(fresh).run();
  EXPECT_EQ(results_csv(warm_out.results, "analytic").to_string(),
            results_csv(fresh_out.results, "analytic").to_string());
  EXPECT_EQ(results_csv(warm_out.front, "analytic").to_string(),
            results_csv(fresh_out.front, "analytic").to_string());
  // Today's writer reproduces the legacy bytes.
  EvalStore reloaded;
  reloaded.load_file(path);
  EXPECT_EQ(reloaded.to_json(), kLegacySmokeSnapshot);
  std::remove(path.c_str());
}

TEST(EvalStore, LegacySearchSnapshotAnswersWarm) {
  const std::string path = temp_path("legacy_smoke_search.json");
  write_file(path, kLegacySmokeSearchSnapshot);
  SweepConfig warm;
  warm.space = "smoke";
  warm.mode = RunMode::kSearch;
  warm.budget = 4;
  warm.budget_set = true;
  warm.search_seed = 5;
  warm.search_seed_set = true;
  warm.threads = 1;
  warm.store_in = path;
  const SweepOutcome warm_out = SweepSession(warm).run();
  EXPECT_EQ(warm_out.fresh_evaluations, 0);
  EXPECT_EQ(warm_out.store_hits, 4);
  ASSERT_EQ(warm_out.results.size(), 4u);

  SweepConfig fresh = warm;
  fresh.store_in.clear();
  const SweepOutcome fresh_out = SweepSession(fresh).run();
  EXPECT_EQ(fresh_out.fresh_evaluations, 4);
  EXPECT_EQ(results_csv(warm_out.results, "analytic").to_string(),
            results_csv(fresh_out.results, "analytic").to_string());
  EXPECT_EQ(results_csv(warm_out.front, "analytic").to_string(),
            results_csv(fresh_out.front, "analytic").to_string());
  EvalStore reloaded;
  reloaded.load_file(path);
  EXPECT_EQ(reloaded.to_json(), kLegacySmokeSearchSnapshot);
  std::remove(path.c_str());
}

TEST(EvalStore, LoadRejectsSnapshotsOfRemovedBackends) {
  // A snapshot holding any entry scored by a removed backend is rejected
  // whole, naming the backend — even when an analytic entry precedes it.
  const std::string legacy = kLegacySmokeSnapshot;
  const std::string entry_head = "    {\"space_hash\"";
  const size_t first = legacy.find(entry_head);
  const size_t tail = legacy.rfind("\n  ]\n}");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(tail, std::string::npos);
  const std::string analytic_entry = legacy.substr(first, tail - first);
  const std::string path = temp_path("removed_backend.json");
  for (const char* label : {"sim", "sim+cal", "mixed"}) {
    std::string other = analytic_entry;
    const std::string from = "\"backend\": \"analytic\"";
    other.replace(other.find(from), from.size(),
                  std::string("\"backend\": \"") + label + "\"");
    other.replace(other.find("seed=3422"), 9, "seed=7");
    write_file(path, legacy.substr(0, first) + analytic_entry + ",\n" + other +
                         legacy.substr(tail));
    expect_load_error(path, std::string("entry 1: backend \"") + label +
                                "\" was removed");
  }
  std::remove(path.c_str());
}

TEST(EvalStore, PartialSnapshotBatchesOnlyTheMisses) {
  // Evaluate the space, drop half the rows, and reload: the session must
  // answer the surviving rows from the store and evaluate exactly the
  // missing ones, and the merged front must match a fresh sweep's.
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 1;
  SweepSession full(cfg);
  const SweepOutcome full_out = full.run();

  ConfigSpace space = ConfigSpace::smoke();
  const std::string hash = config_space_hash(space);
  EvalStore store;
  std::vector<EvalResult> half(full_out.results.begin(),
                               full_out.results.begin() + 4);
  store.put(hash, cfg.scoring_key(), cfg.scored_by_label(), 8, half);

  SweepSession warm(cfg, &store);
  const SweepOutcome warm_out = warm.run();
  EXPECT_EQ(warm_out.store_hits, 4);
  EXPECT_EQ(warm_out.fresh_evaluations, 4);
  EXPECT_EQ(results_csv(warm_out.front).to_string(),
            results_csv(full_out.front).to_string());
  // The merged sweep was recorded back: the entry is now complete.
  const std::shared_ptr<const EvalStore::Entry> e =
      store.find(hash, cfg.scoring_key());
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->complete());
}

TEST(EvalStore, SharedStoreAnswersAcrossSessions) {
  // The batch-runner pattern: two sessions over one external store — the
  // second pays nothing.
  EvalStore store;
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 1;
  SweepSession first(cfg, &store);
  EXPECT_EQ(first.run().fresh_evaluations, 8);
  SweepConfig resliced = cfg;
  resliced.objectives = ObjectiveSet::parse("energy,area");
  SweepSession second(resliced, &store);
  const SweepOutcome out = second.run();
  EXPECT_EQ(out.fresh_evaluations, 0);
  EXPECT_EQ(out.store_hits, 8);
}

TEST(EvalStore, LoadIsAllOrNothing) {
  // A multi-entry file whose LATER entry is malformed must load nothing:
  // a half-merged snapshot would silently answer queries for a file that
  // was rejected. (Regression for the staged-commit load path.)
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 1;
  SweepSession session(cfg);
  const SweepOutcome out = session.run();
  const std::string hash = config_space_hash(session.space());

  // Two entries: the real one plus a copy under an all-f hash, which
  // sorts last among 16-digit lowercase-hex keys — so damaging the text
  // after its marker damages the second entry in file order.
  const std::string fake_hash(16, 'f');
  EvalStore two;
  two.put(hash, cfg.scoring_key(), cfg.scored_by_label(), 8, out.results);
  two.put(fake_hash, cfg.scoring_key(), cfg.scored_by_label(), 8, out.results);
  std::string text = two.to_json();
  const size_t marker = text.find("\"space_hash\": \"" + fake_hash + "\"");
  ASSERT_NE(marker, std::string::npos);
  const size_t damage = text.find("\"i\": 3", marker);
  ASSERT_NE(damage, std::string::npos);
  text.replace(damage, 6, "\"i\": 99");

  const std::string path = temp_path("all_or_nothing.json");
  write_file(path, text);

  // Cold store: the throw leaves it empty — entry 0 must not survive.
  expect_load_error(path, "out of range");

  // Warm store: prior entries and provenance survive a failed merge
  // untouched.
  EvalStore warm;
  warm.put(hash, cfg.scoring_key(), cfg.scored_by_label(), 8, out.results);
  EXPECT_THROW(warm.load_file(path), std::runtime_error);
  EXPECT_EQ(warm.entry_count(), 1u);
  EXPECT_EQ(warm.source(), "");
  const std::shared_ptr<const EvalStore::Entry> e =
      warm.find(hash, cfg.scoring_key());
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->complete());
  std::remove(path.c_str());
}

TEST(EvalStore, SaveIsAtomicAgainstKilledWriters) {
  // save_file stages into path+".tmp" and renames: a writer killed
  // mid-save leaves a partial temp beside the target, never a truncated
  // snapshot under the target itself. Simulate the aftermath of such a
  // kill and check the old snapshot still answers.
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 1;
  SweepSession session(cfg);
  const SweepOutcome out = session.run();
  const std::string hash = config_space_hash(session.space());

  EvalStore store;
  store.put(hash, cfg.scoring_key(), cfg.scored_by_label(), 8, out.results);
  const std::string path = temp_path("atomic.json");
  ASSERT_TRUE(store.save_file(path));
  const std::string good = read_file(path);

  // Kill-style partial write: a truncated temp next to an intact target.
  write_file(path + ".tmp", good.substr(0, good.size() / 3));
  EvalStore reloaded;
  EXPECT_EQ(reloaded.load_file(path), 1u);  // the old snapshot is intact
  EXPECT_EQ(read_file(path), good);

  // The next successful save replaces the target and consumes the temp.
  ASSERT_TRUE(store.save_file(path));
  EXPECT_EQ(read_file(path), good);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  // An unwritable destination fails cleanly: no target, no stray temp.
  const std::string nodir = temp_path("no_such_dir/atomic.json");
  EXPECT_FALSE(store.save_file(nodir));
  EXPECT_FALSE(std::ifstream(nodir).good());
  EXPECT_FALSE(std::ifstream((nodir + ".tmp")).good());
  std::remove(path.c_str());
}

TEST(EvalStore, ConcurrentPutFindSaveSeesOnlyWholeEntries) {
  // The store's thread-safety contract (the shape the resident daemon
  // will lean on): concurrent put / find / snapshot never exposes a
  // half-written entry. find() hands back an immutable copy-on-write
  // entry, so a reader's view stays complete even while a writer
  // replaces the entry under the same key, and to_json() pins a
  // consistent point-in-time set. Runs under TSan in CI.
  SweepConfig cfg;
  cfg.space = "smoke";
  cfg.threads = 1;
  SweepSession session(cfg);
  const SweepOutcome out = session.run();
  const std::string hash = config_space_hash(session.space());
  const std::string scoring = cfg.scoring_key();

  EvalStore store;
  store.put(hash, scoring, "analytic", 8, out.results);
  const std::string baseline = store.to_json();

  constexpr int kIters = 200;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Writers: republish the same entry (copy-on-write swap each time).
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i)
        store.put(hash, scoring, "analytic", 8, out.results);
    });
  }
  // Readers: every observed entry must be whole — 8 results, complete().
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        const std::shared_ptr<const EvalStore::Entry> e =
            store.find(hash, scoring);
        if (e == nullptr || !e->complete() || e->results.size() != 8u)
          failed.store(true);
      }
    });
  }
  // Snapshotter: a racing serialization always matches the (stable)
  // single-entry rendering, because put() republishes identical bytes.
  threads.emplace_back([&] {
    for (int i = 0; i < kIters / 10; ++i)
      if (store.to_json() != baseline) failed.store(true);
  });
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(store.to_json(), baseline);
}

}  // namespace
}  // namespace apsq::dse
