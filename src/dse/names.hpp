// Single source of truth for the engine's name strings: the objective
// table (flag/spec name, CSV column, optimization direction) and the
// config-space names. Every consumer that turns a string into an enum or
// prints an enum as a string — design_point's
// to_string/objective_column/ObjectiveSet::parse, SweepConfig::validate()'s
// space check, `--where` constraint parsing, job-spec and daemon-request
// parsing, and the report/CSV headers — reads these tables, so a new
// objective is added in exactly one place and the name↔enum mapping
// cannot drift between the CLI, the JSON paths, and the persisted formats.
#pragma once

#include <array>
#include <string>

#include "dse/design_point.hpp"

namespace apsq::dse {

/// One row of the objective naming table.
struct ObjectiveName {
  Objective objective;
  const char* name;    ///< flag / spec / constraint name ("pe_utilization")
  const char* column;  ///< CSV / snapshot column name ("energy_pj")
  Direction direction;
};

/// The table, in Objective enum (storage) order: row i describes
/// static_cast<Objective>(i).
const std::array<ObjectiveName, kObjectiveCount>& objective_names();

/// "energy|area|error|latency|..." — the canonical list for diagnostics.
std::string objective_name_list(char sep = '|');

/// Name → Objective. Throws std::invalid_argument naming the input and
/// listing the valid names (the message ObjectiveSet::parse and
/// constraint parsing both surface verbatim).
Objective parse_objective(const std::string& name);

inline constexpr int kSpaceCount = 3;

/// The named config spaces SweepConfig::space accepts ("paper", "smoke",
/// "fine").
const std::array<const char*, kSpaceCount>& space_names();

/// "paper|smoke|fine".
std::string space_name_list(char sep = '|');

bool known_space_name(const std::string& name);

}  // namespace apsq::dse
