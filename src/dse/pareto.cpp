#include "dse/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/check.hpp"

namespace apsq::dse {

bool is_dominated(const EvalResult& candidate,
                  const std::vector<EvalResult>& points,
                  const ObjectiveSet& objectives) {
  const std::string key = canonical_key(candidate.point);
  for (const EvalResult& other : points) {
    if (!dominates(other.obj, candidate.obj, objectives)) continue;
    if (canonical_key(other.point) == key) continue;
    return true;
  }
  return false;
}

namespace {

/// Lexicographic order over the active objectives in minimized space. A
/// dominator is ≤ the dominated point in every active objective and < in
/// at least one, so it sorts strictly earlier — the invariant the sweep
/// in pareto_front builds on. (This is also why non-finite objectives are
/// rejected: NaN breaks both this order and dominance transitivity.)
bool objectives_less(const Objectives& a, const Objectives& b,
                     const ObjectiveSet& objectives) {
  for (Objective o : objectives.list()) {
    const double av = a.minimized(o), bv = b.minimized(o);
    if (av != bv) return av < bv;
  }
  return false;
}

/// Candidates in canonical-key order with exact duplicate configurations
/// collapsed to the first occurrence.
std::vector<const EvalResult*> deduped_in_key_order(
    const std::vector<EvalResult>& points) {
  struct Keyed {
    std::string key;
    const EvalResult* result;
  };
  std::vector<Keyed> sorted;
  sorted.reserve(points.size());
  for (const EvalResult& p : points)
    sorted.push_back({canonical_key(p.point), &p});
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  std::vector<const EvalResult*> candidates;
  candidates.reserve(sorted.size());
  const std::string* prev_key = nullptr;
  for (const Keyed& cand : sorted) {
    if (prev_key && cand.key == *prev_key) continue;  // exact duplicate config
    prev_key = &cand.key;
    candidates.push_back(cand.result);
  }
  return candidates;
}

/// The dominance filter of pareto_front over already-validated, deduped,
/// key-ordered candidates. Survivors come back in key order.
std::vector<const EvalResult*> front_of(
    const std::vector<const EvalResult*>& candidates,
    const ObjectiveSet& objectives) {
  // Sweep in ascending lexicographic objective order: any dominator of a
  // point sorts strictly before it, and (by transitivity over finite
  // values) every dominated point is dominated by a member of the
  // incremental front. Each candidate is therefore compared against the
  // front built so far — typically far smaller than the candidate set —
  // instead of every other point, and the scan stops at the first
  // dominator found.
  std::vector<size_t> order(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return objectives_less(candidates[a]->obj, candidates[b]->obj, objectives);
  });

  std::vector<bool> dominated(candidates.size(), false);
  std::vector<size_t> front_members;  // sweep order, non-dominated so far
  for (const size_t idx : order) {
    bool dom = false;
    for (const size_t f : front_members) {
      if (dominates(candidates[f]->obj, candidates[idx]->obj, objectives)) {
        dom = true;
        break;
      }
    }
    if (dom)
      dominated[idx] = true;
    else
      front_members.push_back(idx);
  }

  // Emit survivors in key order — byte-identical to the full O(n²) scan.
  std::vector<const EvalResult*> front;
  front.reserve(front_members.size());
  for (size_t i = 0; i < candidates.size(); ++i)
    if (!dominated[i]) front.push_back(candidates[i]);
  return front;
}

}  // namespace

std::vector<EvalResult> pareto_front(const std::vector<EvalResult>& points,
                                     const ObjectiveSet& objectives) {
  // Sort by precomputed key first: the filter below then emits the front
  // in key order no matter how the caller ordered the input, and exact
  // duplicate configurations collapse to one candidate.
  for (const EvalResult& p : points)
    for (const Objective o : objectives.list())
      APSQ_CHECK_MSG(std::isfinite(p.obj.get(o)),
                     "non-finite " << to_string(o)
                                   << " in pareto_front candidate "
                                   << canonical_key(p.point));
  const std::vector<const EvalResult*> candidates =
      deduped_in_key_order(points);
  const std::vector<const EvalResult*> survivors =
      front_of(candidates, objectives);
  std::vector<EvalResult> front;
  front.reserve(survivors.size());
  for (const EvalResult* s : survivors) front.push_back(*s);
  return front;
}

std::vector<EvalResult> pareto_front_by_workload(
    const std::vector<EvalResult>& points, const ObjectiveSet& objectives) {
  std::map<std::string, std::vector<EvalResult>> groups;  // sorted by name
  for (const EvalResult& p : points) groups[p.point.workload].push_back(p);
  std::vector<EvalResult> out;
  for (const auto& [name, group] : groups) {
    (void)name;
    std::vector<EvalResult> front = pareto_front(group, objectives);
    out.insert(out.end(), std::make_move_iterator(front.begin()),
               std::make_move_iterator(front.end()));
  }
  return out;
}

}  // namespace apsq::dse
