#include "dse/names.hpp"

#include <stdexcept>


namespace apsq::dse {

const std::array<ObjectiveName, kObjectiveCount>& objective_names() {
  static const std::array<ObjectiveName, kObjectiveCount> kTable = {{
      {Objective::kEnergy, "energy", "energy_pj", Direction::kMinimize},
      {Objective::kArea, "area", "area_um2", Direction::kMinimize},
      {Objective::kError, "error", "error", Direction::kMinimize},
      {Objective::kLatency, "latency", "latency_s", Direction::kMinimize},
      {Objective::kPeUtilization, "pe_utilization", "pe_utilization",
       Direction::kMaximize},
      {Objective::kDramBwHeadroom, "dram_bw_headroom", "dram_bw_headroom",
       Direction::kMaximize},
      {Objective::kThroughputPerArea, "throughput_per_area",
       "throughput_per_area", Direction::kMaximize},
  }};
  return kTable;
}

std::string objective_name_list(char sep) {
  std::string out;
  for (const ObjectiveName& row : objective_names()) {
    if (!out.empty()) out += sep;
    out += row.name;
  }
  return out;
}

Objective parse_objective(const std::string& name) {
  for (const ObjectiveName& row : objective_names())
    if (name == row.name) return row.objective;
  // invalid_argument (not APSQ_CHECK) keeps the message clean for CLI
  // diagnostics — parse_enum_flag prints it verbatim after the flag name.
  throw std::invalid_argument("unknown objective: " + name + " (expected " +
                              objective_name_list() + ")");
}

const std::array<const char*, kSpaceCount>& space_names() {
  static const std::array<const char*, kSpaceCount> kTable = {"paper", "smoke",
                                                              "fine"};
  return kTable;
}

std::string space_name_list(char sep) {
  std::string out;
  for (const char* name : space_names()) {
    if (!out.empty()) out += sep;
    out += name;
  }
  return out;
}

bool known_space_name(const std::string& name) {
  for (const char* known : space_names())
    if (name == known) return true;
  return false;
}

}  // namespace apsq::dse
