// A single point in the accelerator design space and its scoring
// objectives. The DSE engine (config_space / evaluator / pareto) sweeps
// thousands of these across the paper's four workloads.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "energy/access_counts.hpp"
#include "energy/accelerator_config.hpp"
#include "energy/psum_config.hpp"

namespace apsq::dse {

/// One fully-specified accelerator + workload configuration.
///
/// `workload` names one of the bundled models ("bert", "llama2",
/// "segformer", "efficientvit" — see evaluator.hpp's registry); the rest
/// is exactly what the analytical models in src/energy and src/rae take.
struct DesignPoint {
  std::string workload = "bert";
  Dataflow dataflow = Dataflow::kWS;
  PsumConfig psum;
  AcceleratorConfig acc;

  void validate() const;
};

/// Stable, fully-identifying text key for a design point: the output and
/// ordering key. Fronts and CSVs are emitted in canonical_key order, so
/// its format must stay deterministic (pure integers, fixed field order,
/// no doubles). Identity checks on the scoring and selection paths use
/// PointKey instead; a string is built only where one is emitted.
std::string canonical_key(const DesignPoint& p);

/// Fixed-size, hashable identity of a design point: every field
/// canonical_key encodes, the workload as a process-wide interned id
/// (assigned in first-seen order, so an identity only: never an ordering,
/// never persisted). Two points have equal PointKeys iff they have equal
/// canonical keys. A key holds no heap memory, so the memo tables, the
/// Pareto dedupe and the search front compare points without formatting
/// strings. Its field order is not canonical_key's string order (pb=16
/// sorts before pb=8 there): sort output by canonical_key.
struct PointKey {
  u32 workload = 0;  ///< interned DesignPoint::workload
  i32 dataflow = 0;
  i32 psum_bits = 0;
  i32 apsq = 0;
  index_t group_size = 0;
  index_t po = 0;
  index_t pci = 0;
  index_t pco = 0;
  i64 ifmap_buf_bytes = 0;
  i64 ofmap_buf_bytes = 0;
  i64 weight_buf_bytes = 0;
  i32 act_bits = 0;
  i32 weight_bits = 0;

  static PointKey of(const DesignPoint& p);

  size_t hash() const;
};

bool operator==(const PointKey& a, const PointKey& b);
inline bool operator!=(const PointKey& a, const PointKey& b) {
  return !(a == b);
}

/// The DSE objectives, in storage order. The first four (the core set)
/// are minimized; the telemetry-derived trio is maximized — dominance and
/// Pareto extraction read them through Objectives::minimized(), which maps
/// every objective into minimize-space, so the front machinery stays
/// uniform. Extending the engine with a new objective means adding an
/// enumerator here, a field + switch case in Objectives, a direction in
/// objective_direction, and a name in to_string/objective_column;
/// dominance, Pareto extraction, and CSV emission pick it up generically.
enum class Objective : int {
  kEnergy = 0,   ///< workload energy in pJ
  kArea = 1,     ///< accelerator area in µm²
  kError = 2,    ///< PSUM quantization-error accuracy proxy
  kLatency = 3,  ///< end-to-end workload latency in seconds
  kPeUtilization = 4,     ///< MAC-weighted mean PE-array utilization (max)
  kDramBwHeadroom = 5,    ///< 1 − DRAM-bandwidth occupancy (max)
  kThroughputPerArea = 6, ///< effective GMAC/s per mm² (max)
};

inline constexpr int kObjectiveCount = 7;
/// The always-on minimize quartet (energy, area, error, latency) — the
/// default objective set.
inline constexpr int kCoreObjectiveCount = 4;

/// Whether better means smaller or larger for an objective.
enum class Direction { kMinimize, kMaximize };

Direction objective_direction(Objective o);

/// Short flag-style name ("energy", ..., "pe_utilization").
const char* to_string(Objective o);
/// CSV column name ("energy_pj", "area_um2", "error", "latency_s",
/// "pe_utilization", "dram_bw_headroom", "throughput_per_area").
const char* objective_column(Objective o);

/// The DSE objective values for one point, stored in natural units (a
/// maximize objective stores the value a user would want to see — e.g.
/// utilization 0.92 — not its minimized transform).
struct Objectives {
  double energy_pj = 0.0;  ///< workload energy (Eq. 1; analytic or measured)
  double area_um2 = 0.0;   ///< synthesis-area model (Table II composition)
  double error = 0.0;      ///< PSUM quantization-error accuracy proxy (MSE)
  double latency_s = 0.0;  ///< workload latency (performance model)
  /// MAC-weighted mean per-layer PE-array utilization in [0, 1]
  /// (telemetry registry, sim/stats.hpp). Maximized.
  double pe_utilization = 0.0;
  /// 1 − DRAM-bandwidth occupancy (occupancy = total DRAM time / total
  /// latency) in [0, 1]. Maximized: headroom left for co-located traffic.
  double dram_bw_headroom = 0.0;
  /// Effective throughput per silicon area, GMAC/s per mm². Maximized.
  double throughput_per_area = 0.0;

  double get(Objective o) const;
  void set(Objective o, double v);

  /// The value the dominance/front machinery compares: the natural value
  /// for a minimize objective, a monotone-decreasing non-negative
  /// transform for a maximize one (1 − v for the two unit-interval
  /// metrics, 1 / (1 + v) for throughput_per_area — finite even at the
  /// default 0). Finite natural values map to finite minimized values.
  double minimized(Objective o) const;

  /// True iff every objective is a finite number. NaN breaks the
  /// transitivity Pareto dominance relies on (a NaN point is dominated by
  /// nothing and dominates nothing), so scorers reject non-finite values
  /// at ingestion and pareto_front refuses them outright.
  bool all_finite() const;
};

/// An ordered subset of the objectives, used to parameterize dominance and
/// Pareto extraction. Defaults to the core quartet; parse() accepts a
/// comma list of to_string names (e.g. "energy,area,latency" or
/// "energy,latency,pe_utilization").
class ObjectiveSet {
 public:
  /// The core objectives (energy, area, error, latency) — the default.
  ObjectiveSet();

  static ObjectiveSet core() { return ObjectiveSet(); }

  /// Every objective, telemetry trio included.
  static ObjectiveSet all();

  /// Parse a comma-separated name list. Throws on unknown or duplicate
  /// names and on an empty list.
  static ObjectiveSet parse(const std::string& csv);

  bool contains(Objective o) const {
    return active_[static_cast<size_t>(o)];
  }

  /// Active objectives in enum (storage) order, independent of the order
  /// names were listed in parse() — keeps downstream iteration canonical.
  const std::vector<Objective>& list() const { return list_; }

  size_t size() const { return list_.size(); }

  /// Canonical comma list of the active objective names.
  std::string to_string() const;

 private:
  std::array<bool, kObjectiveCount> active_{};
  std::vector<Objective> list_;
  void rebuild_list();
};

/// Strict Pareto dominance over the active objectives, compared in
/// minimized space (so maximize objectives participate with the right
/// sense): `a` is no worse than `b` in every active objective and
/// strictly better in at least one.
bool dominates(const Objectives& a, const Objectives& b,
               const ObjectiveSet& objectives = ObjectiveSet::core());

/// A scored design point. Every result is scored by the one closed-form
/// fidelity, so a result carries no provenance of its own: the
/// "analytic" label snapshots and CSVs persist is written where they are
/// emitted (results_csv, append_result_json, layer_stats_writer).
struct EvalResult {
  DesignPoint point;
  Objectives obj;
};

}  // namespace apsq::dse

namespace std {
template <>
struct hash<apsq::dse::PointKey> {
  size_t operator()(const apsq::dse::PointKey& k) const { return k.hash(); }
};
}  // namespace std
