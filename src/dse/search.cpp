#include "dse/search.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "dse/pareto.hpp"

namespace apsq::dse {

namespace {

using clock_t_ = std::chrono::steady_clock;

/// Rounds in a row without a front change after which the search stops.
constexpr int kStableRounds = 2;

double secs_since(clock_t_::time_point t0) {
  return std::chrono::duration<double>(clock_t_::now() - t0).count();
}

}  // namespace

const char* to_string(SearchStrategy) { return "evolve"; }

SearchStrategy parse_strategy(const std::string& name) {
  if (name == "evolve") return SearchStrategy::kEvolve;
  if (name == "halving")
    throw std::invalid_argument(
        "strategy halving was removed with the mixed backend (expected "
        "evolve)");
  throw std::invalid_argument("unknown strategy: " + name +
                              " (expected evolve)");
}

SearchDriver::SearchDriver(const ConfigSpace& space, Evaluator& eval,
                           SearchOptions opt)
    : space_(space), eval_(eval), opt_(opt) {
  space_.validate();
  APSQ_CHECK_MSG(opt_.budget >= 1, "search budget must be >= 1");
}

std::vector<index_t> SearchDriver::stratified_sample(index_t n, index_t count,
                                                     Rng rng) const {
  APSQ_CHECK_MSG(count >= 1 && count <= n,
                 "stratified sample count out of range");
  // Stratum boundaries are n·k/count; guard the product — a space large
  // enough to overflow it is far beyond what sampling counts here reach.
  index_t check = 0;
  APSQ_CHECK_MSG(!__builtin_mul_overflow(n, count, &check),
                 "stratified sample boundaries overflow 64-bit arithmetic");
  std::vector<index_t> out;
  out.reserve(static_cast<size_t>(count));
  for (index_t k = 0; k < count; ++k) {
    const index_t lo = n * k / count;
    const index_t hi = n * (k + 1) / count;
    out.push_back(lo + rng.uniform_index(hi - lo));
  }
  return out;
}

std::map<index_t, EvalResult> SearchDriver::run() {
  SearchRows rows = run_rows();
  std::map<index_t, EvalResult> out;
  for (size_t k = 0; k < rows.indices.size(); ++k)
    out.emplace_hint(out.end(), rows.indices[k], std::move(rows.results[k]));
  return out;
}

SearchRows SearchDriver::run_rows() {
  const auto t0 = clock_t_::now();
  stats_ = SearchStats{};
  stats_.budget = opt_.budget;
  const index_t n = space_.size();
  // Per-axis radices for neighbour moves: a candidate's mixed-radix
  // digits, each nudged ±1 within its axis.
  const AxisList axes = space_.axes();
  using Digits = std::array<index_t, kAxisCount>;
  const auto digits_of = [&](index_t i) {
    Digits d{};
    for (size_t a = axes.size(); a-- > 0;) {
      d[a] = i % axes[a].count;
      i /= axes[a].count;
    }
    return d;
  };
  const auto index_of = [&](const Digits& d) {
    index_t i = 0;
    for (size_t a = 0; a < axes.size(); ++a) i = i * axes[a].count + d[a];
    return i;
  };

  // The archive: every scored row, in a deque (small fixed-size blocks
  // that never move, so a row's address holds while later batches are
  // appended), and one slot per row, ascending by index, pointing at it.
  // The output is one vector of budget size, built at the end; keeping
  // the rows in small blocks until then leaves no second block of that
  // size whose hole the next search's allocations would have to fit
  // around, so a run of searches settles on one peak footprint.
  struct Slot {
    index_t index;
    EvalResult* row;
  };
  std::deque<EvalResult> scored;
  std::vector<Slot> archived;
  archived.reserve(static_cast<size_t>(std::min<i64>(opt_.budget, n)));
  // The live per-workload front of everything archived so far: one
  // IncrementalFront per distinct workload name, and front_of[w] the one
  // that holds the points at workload position w. The workload is the
  // slowest axis, so a point's position is its index over per_workload.
  // Each member's tag is the index that first scored its point: the index
  // its neighbours are generated from.
  APSQ_CHECK(axes[0].axis == Axis::kWorkload);
  const index_t per_workload = n / axes[0].count;
  std::vector<size_t> front_of(space_.workloads.size());
  for (size_t w = 0; w < front_of.size(); ++w)
    front_of[w] = static_cast<size_t>(
        std::find(space_.workloads.begin(), space_.workloads.end(),
                  space_.workloads[w]) -
        space_.workloads.begin());
  std::vector<IncrementalFront> fronts(front_of.size(),
                                       IncrementalFront(opt_.objectives));
  std::vector<std::vector<IncrementalFront::Candidate>> grouped(fronts.size());
  i64 remaining = opt_.budget;
  // Score a batch (ascending, none archived yet), archive it and merge it
  // into the live front. Returns true iff the front's membership changed.
  const auto score_batch = [&](const std::vector<index_t>& batch) {
    const size_t first = scored.size();
    for (const index_t i : batch) scored.push_back({space_.at(i), {}});
    const auto row = [&](size_t j) -> EvalResult& { return scored[first + j]; };
    eval_.evaluate_rows(static_cast<index_t>(batch.size()),
                        [&](index_t j) -> EvalResult& {
                          return row(static_cast<size_t>(j));
                        });
    // Merge the batch's slots in, from the back, in place.
    size_t a = archived.size(), b = batch.size();
    archived.resize(a + b);
    for (size_t k = a + b; b > 0; --k) {
      if (a > 0 && archived[a - 1].index > batch[b - 1]) {
        archived[k - 1] = archived[--a];
      } else {
        --b;
        archived[k - 1] = {batch[b], &row(b)};
      }
    }
    for (auto& cands : grouped) cands.clear();
    for (size_t j = 0; j < batch.size(); ++j)
      grouped[front_of[static_cast<size_t>(batch[j] / per_workload)]]
          .push_back({batch[j], &row(j)});
    remaining -= static_cast<i64>(batch.size());
    stats_.evaluated += static_cast<index_t>(batch.size());
    bool changed = false;
    for (size_t f = 0; f < fronts.size(); ++f)
      if (!grouped[f].empty()) changed |= fronts[f].merge(grouped[f]);
    return changed;
  };
  const auto front_size = [&] {
    index_t size = 0;
    for (const IncrementalFront& front : fronts)
      size += static_cast<index_t>(front.size());
    return size;
  };

  // Seed generation: a stratified sample sized a quarter of the budget
  // (floor 16) — enough spread to give the neighbourhood moves footholds
  // in every region, leaving most of the budget to exploitation.
  {
    const auto r0 = clock_t_::now();
    const index_t seeds = std::min<index_t>(
        std::min<index_t>(remaining, n),
        std::max<index_t>(16, static_cast<index_t>(opt_.budget / 4)));
    score_batch(stratified_sample(n, seeds, Rng::stream(opt_.seed, 0)));
    SearchRoundStats rs;
    rs.candidates = seeds;
    rs.evaluated_new = seeds;
    rs.front_size = front_size();
    rs.front_changed = true;
    rs.secs = secs_since(r0);
    stats_.rounds.push_back(rs);
  }

  int stable = 0;
  std::vector<index_t> candidates;
  std::vector<index_t> batch;
  for (u64 round = 1; remaining > 0; ++round) {
    const auto r0 = clock_t_::now();
    // Candidates: every ±1-per-axis neighbour of the current per-workload
    // front, plus random injections to keep exploring. Sorted and deduped,
    // so the order is ascending — hence deterministic.
    candidates.clear();
    for (const IncrementalFront& front : fronts) {
      for (const IncrementalFront::Member& m : front.members()) {
        Digits d = digits_of(m.tag);
        for (size_t a = 0; a < axes.size(); ++a) {
          const index_t own = d[a];
          for (index_t step : {index_t{-1}, index_t{1}}) {
            if (own + step < 0 || own + step >= axes[a].count) continue;
            d[a] = own + step;
            candidates.push_back(index_of(d));
          }
          d[a] = own;
        }
      }
    }
    Rng rng = Rng::stream(opt_.seed, round);
    const index_t injections =
        std::max<index_t>(8, static_cast<index_t>(opt_.budget / 16));
    for (index_t j = 0; j < injections; ++j)
      candidates.push_back(rng.uniform_index(n));
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    const index_t considered = static_cast<index_t>(candidates.size());

    // The unseen candidates, in order, up to the budget: the candidates
    // and the archive slots are both ascending, so one walk over the two
    // finds every archived candidate.
    batch.clear();
    size_t slot = 0;
    for (const index_t c : candidates) {
      while (slot < archived.size() && archived[slot].index < c) ++slot;
      if (slot < archived.size() && archived[slot].index == c) continue;
      if (static_cast<i64>(batch.size()) >= remaining) break;
      batch.push_back(c);
    }
    if (batch.empty()) break;  // neighbourhood exhausted, budget unspent

    SearchRoundStats rs;
    rs.candidates = considered;
    rs.evaluated_new = static_cast<index_t>(batch.size());
    rs.front_changed = score_batch(batch);
    rs.front_size = front_size();
    rs.secs = secs_since(r0);
    stats_.rounds.push_back(rs);
    stable = rs.front_changed ? 0 : stable + 1;
    if (stable >= kStableRounds) break;
  }
  stats_.secs = secs_since(t0);

  SearchRows out;  // ascending by index: the slots' order
  out.indices.reserve(archived.size());
  out.results.reserve(archived.size());
  for (const Slot& slot : archived) {
    out.indices.push_back(slot.index);
    out.results.push_back(std::move(*slot.row));
  }
  out.front.reserve(static_cast<size_t>(front_size()));
  for (const IncrementalFront& front : fronts)
    for (const IncrementalFront::Member& m : front.members())
      out.front.push_back(m.result);
  return out;
}

}  // namespace apsq::dse
