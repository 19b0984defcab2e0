// N-objective Pareto-front extraction with deterministic output: exact
// duplicate configurations collapse to their first occurrence, the
// dominance sweep runs over one flat array of minimized objective values,
// and the survivors are emitted in canonical-key order — so serial and
// parallel sweeps, and any permutation of a duplicate-free input, produce
// byte-identical fronts. Every comparison happens in minimized space
// (Objectives::minimized), so maximize objectives such as pe_utilization
// participate with the right sense. The active objective subset (default:
// the core minimize quartet energy, area, error, latency) parameterizes
// dominance, so the same scored sweep can be re-sliced into e.g. an
// energy × latency front without re-evaluation. IncrementalFront keeps a
// front live under batch merges, the way SearchDriver grows its archive.
#pragma once

#include <vector>

#include "dse/design_point.hpp"

namespace apsq::dse {

/// The non-dominated subset of `points` under the active objectives,
/// sorted by canonical_key. Points with identical objectives but different
/// configurations tie and are all kept; exact duplicates (equal PointKey)
/// are collapsed to their first occurrence in input order, through one
/// flat open-addressing table of candidate positions (no heap node per
/// key). Extraction uses a sort-based sweep over a flat row per candidate
/// (candidates in ascending lexicographic objective order are only ever
/// dominated by the front built so far), so large sweeps cost roughly
/// O(n·|front|) comparisons instead of O(n²); a front row that dominates
/// a candidate swaps places with the head of the scan. canonical_key is built for
/// the survivors only. Every *active* objective must be finite — NaN breaks dominance
/// transitivity — and non-finite candidates throw; inactive objective
/// fields are never read and may hold sentinels.
std::vector<EvalResult> pareto_front(
    const std::vector<EvalResult>& points,
    const ObjectiveSet& objectives = ObjectiveSet::core());

/// The "scenario" view: the workload is something the accelerator must
/// serve, not a knob to tune, so dominance is only meaningful between
/// points of the same workload. Partitions by workload, extracts each
/// group's front, and concatenates them in workload-name order (each
/// group internally in canonical-key order — still fully deterministic).
std::vector<EvalResult> pareto_front_by_workload(
    const std::vector<EvalResult>& points,
    const ObjectiveSet& objectives = ObjectiveSet::core());

/// True iff `candidate` is dominated by some element of `points` under the
/// active objectives (comparison against itself — an equal PointKey — is
/// skipped). Exposed for the front-verification tests.
bool is_dominated(const EvalResult& candidate,
                  const std::vector<EvalResult>& points,
                  const ObjectiveSet& objectives = ObjectiveSet::core());

/// A Pareto front kept live under batch merges: each merge() sets
/// front ← non-dominated(front ∪ batch). Dominance is transitive over
/// finite values, so after any sequence of merges the members are exactly
/// the front of every candidate ever merged — without revisiting the
/// dominated ones — provided a repeated point always carries the same
/// objectives, as pure scoring guarantees. Members carry a caller-chosen
/// tag (SearchDriver: the index that first scored the point). Membership is by point identity:
/// a candidate whose PointKey equals a member's, or an earlier
/// candidate's, is dropped, so the first one seen keeps its tag. Since
/// an equal PointKey means an identical row, pareto_front over the
/// members equals pareto_front over every merged candidate, byte for
/// byte, in the front's objectives: SearchDriver hands its final members
/// to SweepSession as the basis of an unfiltered search's front.
class IncrementalFront {
 public:
  struct Member {
    index_t tag = 0;
    EvalResult result;
  };
  /// One merge input. `result` is read during merge() only; survivors
  /// are copied in.
  struct Candidate {
    index_t tag = 0;
    const EvalResult* result = nullptr;
  };

  explicit IncrementalFront(ObjectiveSet objectives);

  /// Merge a batch. Returns true iff the membership changed (a candidate
  /// joined or a member was dominated out). Throws like pareto_front on a
  /// non-finite active objective.
  bool merge(const std::vector<Candidate>& batch);

  /// Members in merge order: survivors of earlier merges first.
  const std::vector<Member>& members() const { return members_; }
  size_t size() const { return members_.size(); }

 private:
  ObjectiveSet objectives_;
  std::vector<Member> members_;
};

}  // namespace apsq::dse
