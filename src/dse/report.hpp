// CSV / table rendering for DSE results. Formatting is centralized here
// so the CLI, the bench, and the determinism tests all agree: doubles are
// printed with "%.17g" (round-trip exact), making "parallel == serial"
// checkable as byte equality on the emitted CSV.
#pragma once

#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "dse/design_point.hpp"

// Forward-declared (not included) so report.hpp doesn't re-export
// apsq::format_double next to apsq::dse::format_double — consumers of
// layer_stats_writer include common/stats_writer.hpp themselves.
namespace apsq {
class StatsWriter;
}

namespace apsq::dse {

class Evaluator;

/// Round-trip-exact decimal rendering of a double.
std::string format_double(double v);

/// One row per result: every point-identity field, in the snapshot row's
/// order (bit widths included, so two rows of a fine-space front never
/// read alike), plus every objective (one column per Objective, in enum
/// order). A non-empty `scored_by` label
/// ("analytic") appends a `scored_by` column so a persisted CSV records
/// which models stand behind its absolute numbers. Rows carrying their
/// own EvalResult::scored_by provenance (every evaluator-produced result)
/// print that instead of the sweep-level label.
CsvWriter results_csv(const std::vector<EvalResult>& results,
                      const std::string& scored_by = "");

/// Human-readable front table, rows ordered as given.
Table front_table(const std::vector<EvalResult>& front);

/// Per-layer telemetry of the leading `k` front rows (0 = every row): each
/// point's closed-form telemetry (Evaluator::telemetry_for) contributes
/// one row per layer instance — cycles, utilization, stall/idle split,
/// SRAM/DRAM traffic by operand, bandwidth occupancy — prefixed with the
/// same point-identity columns results_csv uses, so the two files join on
/// them. The apsq_dse --layer-stats-csv table.
StatsWriter layer_stats_writer(Evaluator& eval,
                               const std::vector<EvalResult>& front, size_t k);

}  // namespace apsq::dse
