// N-objective Pareto-front extraction with deterministic output:
// candidates are ordered by canonical key before the dominance filter, so
// serial and parallel sweeps — and any permutation of the input — produce
// byte-identical fronts. Every comparison happens in minimized space
// (Objectives::minimized), so maximize objectives such as pe_utilization
// participate with the right sense. The active objective subset (default:
// the core minimize quartet energy, area, error, latency) parameterizes
// dominance, so the same scored sweep can be re-sliced into e.g. an
// energy × latency front without re-evaluation.
#pragma once

#include <vector>

#include "dse/design_point.hpp"

namespace apsq::dse {

/// The non-dominated subset of `points` under the active objectives,
/// sorted by canonical_key. Points with identical objectives but different
/// configurations tie and are all kept; exact duplicates (same canonical
/// key) are collapsed to one entry. Extraction uses a sort-based sweep
/// (candidates in ascending lexicographic objective order are only ever
/// dominated by the incremental front built so far), so large sweeps cost
/// roughly O(n·|front|) comparisons instead of O(n²) while emitting a
/// byte-identical front. Every *active* objective must be finite — NaN
/// breaks dominance transitivity — and non-finite candidates throw;
/// inactive objective fields are never read and may hold sentinels.
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
/// active objectives (comparison against itself — same canonical key — is
/// skipped). Exposed for the front-verification tests.
bool is_dominated(const EvalResult& candidate,
                  const std::vector<EvalResult>& points,
                  const ObjectiveSet& objectives = ObjectiveSet::core());

}  // namespace apsq::dse
