#include "dse/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace apsq::dse {

bool is_dominated(const EvalResult& candidate,
                  const std::vector<EvalResult>& points,
                  const ObjectiveSet& objectives) {
  const PointKey key = PointKey::of(candidate.point);
  for (const EvalResult& other : points) {
    if (!dominates(other.obj, candidate.obj, objectives)) continue;
    if (PointKey::of(other.point) == key) continue;
    return true;
  }
  return false;
}

namespace {

/// Strict dominance between two rows of `k` minimized objective values.
bool row_dominates(const double* a, const double* b, size_t k) {
  bool strictly_better = false;
  for (size_t j = 0; j < k; ++j) {
    if (a[j] > b[j]) return false;
    if (a[j] < b[j]) strictly_better = true;
  }
  return strictly_better;
}

/// Positions in `cands` of the first occurrence of each distinct
/// PointKey, ascending. An open-addressing table of candidate positions,
/// probed by key hash: one flat allocation instead of a heap node per
/// key, and keys are rebuilt only to confirm a hash match.
std::vector<size_t> first_occurrences(
    const std::vector<const EvalResult*>& cands) {
  struct Slot {
    size_t hash = 0;
    size_t pos = 0;  ///< candidate position + 1; 0 marks an empty slot
  };
  size_t capacity = 1;
  while (capacity < 2 * cands.size()) capacity <<= 1;
  std::vector<Slot> slots(capacity);
  std::vector<size_t> unique;
  unique.reserve(cands.size());
  for (size_t i = 0; i < cands.size(); ++i) {
    const PointKey key = PointKey::of(cands[i]->point);
    const size_t h = key.hash();
    size_t s = h & (capacity - 1);
    for (; slots[s].pos != 0; s = (s + 1) & (capacity - 1))
      if (slots[s].hash == h &&
          PointKey::of(cands[slots[s].pos - 1]->point) == key)
        break;
    if (slots[s].pos != 0) continue;  // a repeat: the first one stays
    slots[s] = {h, i + 1};
    unique.push_back(i);
  }
  return unique;
}

/// Positions in `cands` of its non-dominated candidates, ascending.
/// Exact duplicate configurations (equal PointKey) are first collapsed to
/// their first occurrence.
std::vector<size_t> nondominated(const std::vector<const EvalResult*>& cands,
                                 const ObjectiveSet& objectives) {
  const std::vector<Objective>& list = objectives.list();
  for (const EvalResult* c : cands)
    for (const Objective o : list)
      APSQ_CHECK_MSG(std::isfinite(c->obj.get(o)),
                     "non-finite " << to_string(o)
                                   << " in pareto_front candidate "
                                   << canonical_key(c->point));
  const std::vector<size_t> unique = first_occurrences(cands);

  // One flat row of minimized values per candidate, so the sort and the
  // sweep read contiguous doubles instead of switching per objective.
  const size_t k = list.size();
  std::vector<double> rows(unique.size() * k);
  for (size_t u = 0; u < unique.size(); ++u)
    for (size_t j = 0; j < k; ++j)
      rows[u * k + j] = cands[unique[u]]->obj.minimized(list[j]);

  // Sweep in ascending lexicographic objective order: any dominator of a
  // point sorts strictly before it, and (by transitivity over finite
  // values) every dominated point is dominated by a member of the front
  // built so far. Each candidate is therefore compared against that
  // front — typically far smaller than the candidate set — and the scan
  // stops at the first dominator found, which then swaps places with the
  // head of the scan: a member that dominated one candidate tends to
  // dominate its neighbours in the order. Neither ties in the order nor
  // the scan order change the surviving set.
  std::vector<size_t> order(unique.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double* ra = rows.data() + a * k;
    const double* rb = rows.data() + b * k;
    for (size_t j = 0; j < k; ++j)
      if (ra[j] != rb[j]) return ra[j] < rb[j];
    return a < b;
  });
  std::vector<double> front_rows;
  std::vector<size_t> survivors;
  for (const size_t u : order) {
    const double* row = rows.data() + u * k;
    size_t f = 0;
    while (f < front_rows.size() &&
           !row_dominates(front_rows.data() + f, row, k))
      f += k;
    if (f < front_rows.size()) {
      if (f != 0)
        std::swap_ranges(front_rows.begin() + static_cast<std::ptrdiff_t>(f),
                         front_rows.begin() + static_cast<std::ptrdiff_t>(f + k),
                         front_rows.begin());
      continue;
    }
    front_rows.insert(front_rows.end(), row, row + k);
    survivors.push_back(unique[u]);
  }
  std::sort(survivors.begin(), survivors.end());
  return survivors;
}

/// The front of `cands` in canonical-key order — the only place a
/// canonical_key is built, and only for survivors.
std::vector<EvalResult> front_in_key_order(
    const std::vector<const EvalResult*>& cands,
    const ObjectiveSet& objectives) {
  struct Keyed {
    std::string key;
    const EvalResult* result;
  };
  std::vector<Keyed> keyed;
  for (const size_t s : nondominated(cands, objectives))
    keyed.push_back({canonical_key(cands[s]->point), cands[s]});
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  std::vector<EvalResult> front;
  front.reserve(keyed.size());
  for (const Keyed& k : keyed) front.push_back(*k.result);
  return front;
}

}  // namespace

std::vector<EvalResult> pareto_front(const std::vector<EvalResult>& points,
                                     const ObjectiveSet& objectives) {
  std::vector<const EvalResult*> cands;
  cands.reserve(points.size());
  for (const EvalResult& p : points) cands.push_back(&p);
  return front_in_key_order(cands, objectives);
}

std::vector<EvalResult> pareto_front_by_workload(
    const std::vector<EvalResult>& points, const ObjectiveSet& objectives) {
  // Sorted by name; points arrive in runs of one workload, so the map is
  // searched once per run, not once per point.
  std::map<std::string, std::vector<const EvalResult*>> groups;
  std::pair<const std::string, std::vector<const EvalResult*>>* group =
      nullptr;
  for (const EvalResult& p : points) {
    if (group == nullptr || group->first != p.point.workload)
      group = &*groups.try_emplace(p.point.workload).first;
    group->second.push_back(&p);
  }
  std::vector<EvalResult> out;
  for (const auto& [name, cands] : groups) {
    (void)name;
    std::vector<EvalResult> front = front_in_key_order(cands, objectives);
    out.insert(out.end(), std::make_move_iterator(front.begin()),
               std::make_move_iterator(front.end()));
  }
  return out;
}

IncrementalFront::IncrementalFront(ObjectiveSet objectives)
    : objectives_(std::move(objectives)) {}

bool IncrementalFront::merge(const std::vector<Candidate>& batch) {
  // Members go first, so a candidate repeating a member's point is the
  // duplicate that collapses.
  const size_t old = members_.size();
  std::vector<const EvalResult*> cands;
  cands.reserve(old + batch.size());
  for (const Member& m : members_) cands.push_back(&m.result);
  for (const Candidate& c : batch) cands.push_back(c.result);
  const std::vector<size_t> survivors = nondominated(cands, objectives_);
  // Survivors are ascending: the membership is unchanged iff exactly the
  // `old` members survived.
  const bool changed =
      survivors.size() != old || (!survivors.empty() && survivors.back() >= old);
  std::vector<Member> next;
  next.reserve(survivors.size());
  for (const size_t s : survivors) {
    if (s < old)
      next.push_back(std::move(members_[s]));
    else
      next.push_back({batch[s - old].tag, *batch[s - old].result});
  }
  members_ = std::move(next);
  return changed;
}

}  // namespace apsq::dse
