#include "dse/pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dse/report.hpp"

namespace apsq::dse {
namespace {

EvalResult make(const std::string& wl, int bits, index_t gs, double e,
                double a, double err) {
  EvalResult r;
  r.point.workload = wl;
  r.point.psum = PsumConfig{bits, true, gs};
  r.obj = Objectives{e, a, err};
  return r;
}

TEST(Dominance, StrictInAllObjectives) {
  EXPECT_TRUE(dominates({1, 1, 1}, {2, 2, 2}));
  EXPECT_FALSE(dominates({2, 2, 2}, {1, 1, 1}));
}

TEST(Dominance, EqualObjectivesDoNotDominate) {
  EXPECT_FALSE(dominates({1, 2, 3}, {1, 2, 3}));
}

TEST(Dominance, OneBetterRestEqualDominates) {
  EXPECT_TRUE(dominates({1, 2, 3}, {1, 2, 4}));
  EXPECT_TRUE(dominates({0, 2, 3}, {1, 2, 3}));
}

TEST(Dominance, TradeOffNeitherDominates) {
  EXPECT_FALSE(dominates({1, 5, 1}, {2, 2, 2}));
  EXPECT_FALSE(dominates({2, 2, 2}, {1, 5, 1}));
}

TEST(Dominance, LatencyIsAFullObjective) {
  // Equal on the classic three, better latency → dominates under the
  // default (all-objective) set.
  EXPECT_TRUE(dominates({1, 2, 3, 4}, {1, 2, 3, 5}));
  // A latency win can break three-objective dominance.
  EXPECT_FALSE(dominates({1, 2, 3, 9}, {2, 3, 4, 5}));
}

TEST(ObjectiveSet, DefaultIsTheCoreQuartet) {
  // The default set stays the paper's four objectives so existing sweeps
  // and their goldens are untouched by the maximize-objective additions;
  // opting into the full seven takes an explicit all().
  const ObjectiveSet core;
  EXPECT_EQ(core.size(), static_cast<size_t>(kCoreObjectiveCount));
  for (int i = 0; i < kCoreObjectiveCount; ++i)
    EXPECT_TRUE(core.contains(static_cast<Objective>(i)));
  EXPECT_FALSE(core.contains(Objective::kPeUtilization));
  EXPECT_FALSE(core.contains(Objective::kDramBwHeadroom));
  EXPECT_FALSE(core.contains(Objective::kThroughputPerArea));
  EXPECT_EQ(core.to_string(), "energy,area,error,latency");
  EXPECT_EQ(ObjectiveSet::core().to_string(), core.to_string());

  const ObjectiveSet all = ObjectiveSet::all();
  EXPECT_EQ(all.size(), static_cast<size_t>(kObjectiveCount));
  for (int i = 0; i < kObjectiveCount; ++i)
    EXPECT_TRUE(all.contains(static_cast<Objective>(i)));
  EXPECT_EQ(all.to_string(),
            "energy,area,error,latency,pe_utilization,dram_bw_headroom,"
            "throughput_per_area");
}

TEST(ObjectiveSet, MaximizeObjectivesCompareInMinimizedSpace) {
  // pe_utilization / dram_bw_headroom / throughput_per_area are maximized:
  // a point that is better (higher) on one of them must dominate in the
  // minimized space every comparison runs in.
  EXPECT_EQ(objective_direction(Objective::kEnergy), Direction::kMinimize);
  EXPECT_EQ(objective_direction(Objective::kPeUtilization),
            Direction::kMaximize);
  EXPECT_EQ(objective_direction(Objective::kDramBwHeadroom),
            Direction::kMaximize);
  EXPECT_EQ(objective_direction(Objective::kThroughputPerArea),
            Direction::kMaximize);

  Objectives hi, lo;
  hi.pe_utilization = 0.9;
  lo.pe_utilization = 0.2;
  EXPECT_LT(hi.minimized(Objective::kPeUtilization),
            lo.minimized(Objective::kPeUtilization));
  // Minimize objectives pass through untouched — byte-identical behavior.
  hi.energy_pj = 123.25;
  EXPECT_EQ(hi.minimized(Objective::kEnergy), 123.25);

  ObjectiveSet set = ObjectiveSet::parse("energy,pe_utilization");
  Objectives a, b;
  a.energy_pj = 1.0;
  a.pe_utilization = 0.9;
  b.energy_pj = 1.0;
  b.pe_utilization = 0.2;
  EXPECT_TRUE(dominates(a, b, set));
  EXPECT_FALSE(dominates(b, a, set));
  // throughput_per_area's transform is finite at the default value 0, so
  // a point that never filled it still participates in dominance.
  EXPECT_EQ(a.minimized(Objective::kThroughputPerArea), 1.0);
}

TEST(ObjectiveSet, ParseSubsetInAnyOrderIsCanonical) {
  const ObjectiveSet s = ObjectiveSet::parse("latency,energy");
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(Objective::kEnergy));
  EXPECT_TRUE(s.contains(Objective::kLatency));
  EXPECT_FALSE(s.contains(Objective::kArea));
  EXPECT_FALSE(s.contains(Objective::kError));
  // list()/to_string are in storage order, not parse order.
  EXPECT_EQ(s.to_string(), "energy,latency");
}

TEST(ObjectiveSet, ParseRejectsBadInput) {
  EXPECT_THROW(ObjectiveSet::parse(""), std::logic_error);
  EXPECT_THROW(ObjectiveSet::parse("energy,throughput"), std::logic_error);
  EXPECT_THROW(ObjectiveSet::parse("energy,energy"), std::logic_error);
}

TEST(Dominance, SubsetChangesTheVerdict) {
  const ObjectiveSet el = ObjectiveSet::parse("energy,latency");
  const Objectives a{1, 9, 9, 1};  // best energy+latency, terrible rest
  const Objectives b{2, 1, 1, 2};
  EXPECT_TRUE(dominates(a, b, el));
  EXPECT_FALSE(dominates(a, b));  // full set: area/error trade off
}

TEST(ParetoFront, ObjectiveSubsetReslicesTheFront) {
  // c is dominated in the energy×latency plane but survives the full
  // 4-objective front through its area advantage.
  const std::vector<EvalResult> pts = {
      make("w", 4, 1, 1.0, 9.0, 9.0),  // a: best energy
      make("w", 6, 1, 9.0, 1.0, 9.0),  // b: best area
      make("w", 8, 1, 2.0, 5.0, 9.0),  // c: dominated by a on energy/latency
  };
  // (error and latency default to the same value for all three points.)
  EXPECT_EQ(pareto_front(pts).size(), 3u);
  const ObjectiveSet el = ObjectiveSet::parse("energy,latency");
  const std::vector<EvalResult> front = pareto_front(pts, el);
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].point.psum.psum_bits, 4);
}

TEST(ParetoFront, HandBuiltThreeObjectiveSet) {
  // Front: a (best energy), b (best area), c (best error).
  // d is dominated by a; e is dominated by everything.
  const std::vector<EvalResult> pts = {
      make("w", 4, 1, 1.0, 9.0, 9.0),   // a
      make("w", 6, 1, 9.0, 1.0, 9.0),   // b
      make("w", 8, 1, 9.0, 9.0, 1.0),   // c
      make("w", 4, 2, 2.0, 9.5, 9.5),   // d — dominated by a
      make("w", 4, 3, 10.0, 10.0, 10.0) // e — dominated by all
  };
  const std::vector<EvalResult> front = pareto_front(pts);
  ASSERT_EQ(front.size(), 3u);
  for (const auto& f : front)
    EXPECT_FALSE(is_dominated(f, pts)) << canonical_key(f.point);
  // Dominated points really are dominated.
  EXPECT_TRUE(is_dominated(pts[3], pts));
  EXPECT_TRUE(is_dominated(pts[4], pts));
}

TEST(ParetoFront, TiedObjectivesBothKept) {
  const std::vector<EvalResult> pts = {
      make("w", 4, 1, 1.0, 2.0, 3.0),
      make("w", 8, 2, 1.0, 2.0, 3.0),  // identical objectives, different config
  };
  EXPECT_EQ(pareto_front(pts).size(), 2u);
}

TEST(ParetoFront, ExactDuplicateConfigCollapsed) {
  const std::vector<EvalResult> pts = {
      make("w", 4, 1, 1.0, 2.0, 3.0),
      make("w", 4, 1, 1.0, 2.0, 3.0),
  };
  EXPECT_EQ(pareto_front(pts).size(), 1u);
}

TEST(ParetoFront, DuplicateConfigKeepsFirstInputOccurrence) {
  // Hand-built duplicates may disagree on objectives; the first in input
  // order is the one kept, in either order.
  const EvalResult worse = make("w", 4, 1, 2.0, 2.0, 2.0);
  const EvalResult better = make("w", 4, 1, 1.0, 1.0, 1.0);
  std::vector<EvalResult> front = pareto_front({worse, better});
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].obj.energy_pj, 2.0);
  front = pareto_front({better, worse});
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].obj.energy_pj, 1.0);
  // Dedupe happens before dominance: the kept first occurrence is
  // dominated here, and the later, better copy does not stand in for it.
  const EvalResult other = make("w", 6, 1, 1.5, 1.5, 1.5);
  front = pareto_front({worse, other, better});
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].point.psum.psum_bits, 6);
}

TEST(ParetoFront, SingletonAndEmpty) {
  EXPECT_TRUE(pareto_front({}).empty());
  const std::vector<EvalResult> one = {make("w", 8, 1, 1, 1, 1)};
  EXPECT_EQ(pareto_front(one).size(), 1u);
}

TEST(ParetoFront, OutputSortedByCanonicalKey) {
  const std::vector<EvalResult> pts = {
      make("zeta", 8, 1, 1.0, 9.0, 9.0),
      make("alpha", 8, 1, 9.0, 1.0, 9.0),
      make("mid", 8, 1, 9.0, 9.0, 1.0),
  };
  const std::vector<EvalResult> front = pareto_front(pts);
  ASSERT_EQ(front.size(), 3u);
  for (size_t i = 1; i < front.size(); ++i)
    EXPECT_LT(canonical_key(front[i - 1].point), canonical_key(front[i].point));
}

TEST(ParetoFront, PermutationInvariant) {
  // Random objective cloud; shuffling the input must not change the front.
  Rng rng(42);
  std::vector<EvalResult> pts;
  for (int i = 0; i < 64; ++i)
    pts.push_back(make("w" + std::to_string(i), 4 + (i % 13), 1 + (i % 4),
                       rng.uniform(0, 10), rng.uniform(0, 10),
                       rng.uniform(0, 10)));
  const std::vector<EvalResult> front_a = pareto_front(pts);

  std::vector<index_t> perm(pts.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<index_t>(i);
  rng.shuffle(perm);
  std::vector<EvalResult> shuffled;
  for (index_t i : perm) shuffled.push_back(pts[static_cast<size_t>(i)]);
  const std::vector<EvalResult> front_b = pareto_front(shuffled);

  ASSERT_EQ(front_a.size(), front_b.size());
  for (size_t i = 0; i < front_a.size(); ++i)
    EXPECT_EQ(canonical_key(front_a[i].point), canonical_key(front_b[i].point));
}

TEST(ParetoFrontByWorkload, CrossWorkloadDominationIsIgnored) {
  // b's point is strictly worse than a's on every objective, but it is the
  // only point of workload "b" — per-workload it survives; globally not.
  const std::vector<EvalResult> pts = {
      make("a", 8, 1, 1.0, 1.0, 1.0),
      make("b", 8, 1, 2.0, 2.0, 2.0),
  };
  EXPECT_EQ(pareto_front(pts).size(), 1u);
  const std::vector<EvalResult> front = pareto_front_by_workload(pts);
  ASSERT_EQ(front.size(), 2u);
  // Groups are emitted in workload-name order.
  EXPECT_EQ(front[0].point.workload, "a");
  EXPECT_EQ(front[1].point.workload, "b");
}

TEST(ParetoFrontByWorkload, MatchesPerGroupExtraction) {
  Rng rng(11);
  std::vector<EvalResult> pts;
  for (int i = 0; i < 40; ++i)
    pts.push_back(make(i % 2 ? "odd" : "even", 4 + (i % 13), 1 + (i % 4),
                       rng.uniform(0, 4), rng.uniform(0, 4),
                       rng.uniform(0, 4)));
  const std::vector<EvalResult> combined = pareto_front_by_workload(pts);
  std::vector<EvalResult> evens, odds;
  for (const auto& p : pts)
    (p.point.workload == "even" ? evens : odds).push_back(p);
  const std::vector<EvalResult> fe = pareto_front(evens);
  const std::vector<EvalResult> fo = pareto_front(odds);
  ASSERT_EQ(combined.size(), fe.size() + fo.size());
  for (size_t i = 0; i < fe.size(); ++i)
    EXPECT_EQ(canonical_key(combined[i].point), canonical_key(fe[i].point));
  for (size_t i = 0; i < fo.size(); ++i)
    EXPECT_EQ(canonical_key(combined[fe.size() + i].point),
              canonical_key(fo[i].point));
}

TEST(ParetoFront, EveryNonFrontPointIsDominated) {
  Rng rng(7);
  std::vector<EvalResult> pts;
  for (int i = 0; i < 48; ++i)
    pts.push_back(make("w" + std::to_string(i), 4 + (i % 13), 1 + (i % 4),
                       rng.uniform(0, 4), rng.uniform(0, 4),
                       rng.uniform(0, 4)));
  const std::vector<EvalResult> front = pareto_front(pts);
  for (const auto& p : pts) {
    const bool in_front =
        std::any_of(front.begin(), front.end(), [&](const EvalResult& f) {
          return canonical_key(f.point) == canonical_key(p.point);
        });
    EXPECT_EQ(!in_front, is_dominated(p, pts)) << canonical_key(p.point);
  }
}

TEST(ParetoFront, NonFiniteObjectivesNeverEnterAFront) {
  // NaN breaks dominance transitivity (a NaN point neither dominates nor
  // is dominated), so extraction refuses it outright instead of emitting
  // a schedule-dependent front.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    std::vector<EvalResult> pts = {make("w", 4, 1, 1.0, 1.0, 1.0),
                                   make("w", 6, 1, bad, 2.0, 2.0)};
    EXPECT_THROW(pareto_front(pts), std::logic_error);
    EXPECT_THROW(pareto_front_by_workload(pts), std::logic_error);
  }
  // Only *active* objectives are checked: an unused field may hold a
  // sentinel without blocking extraction over the rest.
  std::vector<EvalResult> pts = {make("w", 4, 1, 1.0, 1.0, 1.0),
                                 make("w", 6, 1, 2.0, 2.0, 2.0)};
  pts[1].obj.latency_s = nan;
  EXPECT_THROW(pareto_front(pts), std::logic_error);
  EXPECT_EQ(pareto_front(pts, ObjectiveSet::parse("energy,area")).size(), 1u);

  // The guard sits on ingestion into Objectives too.
  Objectives o;
  o.set(Objective::kLatency, nan);
  EXPECT_FALSE(o.all_finite());
  EXPECT_TRUE((Objectives{1.0, 2.0, 3.0, 4.0}).all_finite());
}

TEST(ParetoFront, SweepPrefilterMatchesBruteForceScan) {
  // The sort-based sweep must emit the byte-identical front the full
  // O(n²) scan would. Brute force re-derived here from dominates().
  auto brute_force = [](const std::vector<EvalResult>& pts,
                        const ObjectiveSet& objectives) {
    std::vector<EvalResult> front;
    std::vector<std::string> seen;
    std::vector<std::pair<std::string, const EvalResult*>> keyed;
    for (const auto& p : pts) keyed.emplace_back(canonical_key(p.point), &p);
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    const std::string* prev = nullptr;
    for (const auto& [key, p] : keyed) {
      if (prev && key == *prev) continue;
      prev = &key;
      bool dom = false;
      for (const auto& [okey, o] : keyed)
        if (okey != key && dominates(o->obj, p->obj, objectives)) {
          dom = true;
          break;
        }
      if (!dom) front.push_back(*p);
    }
    return front;
  };

  Rng rng(0xF117E5);
  for (const char* objs : {"energy,area,error,latency", "energy,latency",
                           "energy", "area,error"}) {
    const ObjectiveSet objectives = ObjectiveSet::parse(objs);
    for (int round = 0; round < 4; ++round) {
      std::vector<EvalResult> pts;
      const int n = 20 + round * 40;
      for (int i = 0; i < n; ++i) {
        // Coarse integer grid: plenty of exact ties and duplicates.
        EvalResult r = make("w" + std::to_string(i % 7), 4 + (i % 13),
                            1 + (i % 4), rng.uniform(0, 4), rng.uniform(0, 4),
                            rng.uniform(0, 4));
        r.obj.latency_s = std::floor(rng.uniform(0, 3));
        pts.push_back(r);
      }
      const std::vector<EvalResult> fast = pareto_front(pts, objectives);
      const std::vector<EvalResult> slow = brute_force(pts, objectives);
      ASSERT_EQ(fast.size(), slow.size()) << objs << " round " << round;
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(canonical_key(fast[i].point), canonical_key(slow[i].point));
        for (int k = 0; k < kObjectiveCount; ++k)
          EXPECT_EQ(fast[i].obj.get(static_cast<Objective>(k)),
                    slow[i].obj.get(static_cast<Objective>(k)));
      }
    }
  }
}

TEST(IncrementalFront, RandomBatchSplitsMatchTheBatchFront) {
  // Merging points batch by batch into one live front per workload must
  // give the byte-identical front pareto_front_by_workload extracts from
  // all of them at once. Points are drawn with replacement from a pool of
  // configurations whose objectives sit on a coarse grid, so the stream
  // repeats points (with their objectives, as a memoized scorer does) and
  // ties objectives across distinct points.
  Rng rng(0x1AC4E);
  for (const char* objs : {"energy,area,error,latency", "energy,latency",
                           "energy", "area,error"}) {
    const ObjectiveSet objectives = ObjectiveSet::parse(objs);
    for (int round = 0; round < 6; ++round) {
      std::vector<EvalResult> pool;
      for (int i = 0; i < 30 + round * 20; ++i) {
        EvalResult r = make(i % 3 == 0 ? "a" : i % 3 == 1 ? "b" : "c",
                            4 + (i % 13), 1 + (i / 13), 0, 0, 0);
        r.obj.energy_pj = std::floor(rng.uniform(0, 5));
        r.obj.area_um2 = std::floor(rng.uniform(0, 5));
        r.obj.error = std::floor(rng.uniform(0, 5));
        r.obj.latency_s = std::floor(rng.uniform(0, 3));
        pool.push_back(r);
      }
      std::vector<EvalResult> stream;
      for (size_t i = 0; i < pool.size() * 2; ++i)
        stream.push_back(pool[static_cast<size_t>(
            rng.uniform_index(static_cast<index_t>(pool.size())))]);

      std::map<std::string, IncrementalFront> fronts;
      size_t pos = 0;
      while (pos < stream.size()) {
        const size_t len = 1 + static_cast<size_t>(rng.uniform_index(
                                   static_cast<index_t>(stream.size() / 4)));
        std::map<std::string, std::vector<IncrementalFront::Candidate>> batch;
        for (size_t j = pos; j < std::min(stream.size(), pos + len); ++j)
          batch[stream[j].point.workload].push_back(
              {static_cast<index_t>(j), &stream[j]});
        pos += len;
        for (const auto& [wl, cands] : batch) {
          IncrementalFront& f =
              fronts.try_emplace(wl, objectives).first->second;
          std::vector<std::string> before;
          for (const auto& m : f.members())
            before.push_back(canonical_key(m.result.point));
          const bool changed = f.merge(cands);
          std::vector<std::string> after;
          for (const auto& m : f.members())
            after.push_back(canonical_key(m.result.point));
          std::sort(before.begin(), before.end());
          std::sort(after.begin(), after.end());
          EXPECT_EQ(changed, before != after) << objs << " round " << round;
        }
      }

      std::vector<EvalResult> live;
      for (const auto& [wl, f] : fronts) {
        std::vector<IncrementalFront::Member> members = f.members();
        std::sort(members.begin(), members.end(),
                  [](const auto& x, const auto& y) {
                    return canonical_key(x.result.point) <
                           canonical_key(y.result.point);
                  });
        for (const auto& m : members) {
          live.push_back(m.result);
          // The tag is the stream position that first had the point.
          size_t first = 0;
          while (canonical_key(stream[first].point) !=
                 canonical_key(m.result.point))
            ++first;
          EXPECT_EQ(m.tag, static_cast<index_t>(first));
        }
      }
      EXPECT_EQ(results_csv(live).to_string(),
                results_csv(pareto_front_by_workload(stream, objectives))
                    .to_string())
          << objs << " round " << round;
    }
  }
}

}  // namespace
}  // namespace apsq::dse
