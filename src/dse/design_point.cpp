#include "dse/design_point.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/annotations.hpp"
#include "common/check.hpp"
#include "dse/names.hpp"

namespace apsq::dse {

namespace {

/// Row of the shared naming table (dse/names.hpp) for one objective —
/// the single place the name/column/direction strings live.
const ObjectiveName& name_row(Objective o) {
  const auto& table = objective_names();
  const size_t i = static_cast<size_t>(o);
  APSQ_CHECK_MSG(i < table.size() && table[i].objective == o,
                 "objective naming table out of sync");
  return table[i];
}

/// The interned id of a workload name: equal names get equal ids,
/// distinct names distinct ones. Thread-safe.
u32 workload_id(const std::string& name) {
  // Points arrive in long runs of one workload, so a one-entry cache per
  // thread answers nearly every call without touching the shared table.
  thread_local std::string last_name;
  thread_local u32 last_id = 0;
  thread_local bool cached = false;
  if (cached && name == last_name) return last_id;
  struct Table {
    Mutex mu;
    std::unordered_map<std::string, u32> ids APSQ_GUARDED_BY(mu);
  };
  static Table table;
  u32 id = 0;
  {
    MutexLock lock(table.mu);
    id = table.ids.emplace(name, static_cast<u32>(table.ids.size()))
             .first->second;
  }
  last_name = name;
  last_id = id;
  cached = true;
  return id;
}

}  // namespace

void DesignPoint::validate() const {
  APSQ_CHECK_MSG(!workload.empty(), "design point needs a workload name");
  psum.validate();
  acc.validate();
}

std::string canonical_key(const DesignPoint& p) {
  std::ostringstream os;
  os << "wl=" << p.workload << "|df=" << to_string(p.dataflow)
     << "|pb=" << p.psum.psum_bits << "|apsq=" << (p.psum.apsq ? 1 : 0)
     << "|gs=" << p.psum.group_size << "|po=" << p.acc.po
     << "|pci=" << p.acc.pci << "|pco=" << p.acc.pco
     << "|bi=" << p.acc.ifmap_buf_bytes << "|bo=" << p.acc.ofmap_buf_bytes
     << "|bw=" << p.acc.weight_buf_bytes << "|ab=" << p.acc.act_bits
     << "|wb=" << p.acc.weight_bits;
  return os.str();
}

PointKey PointKey::of(const DesignPoint& p) {
  PointKey k;
  k.workload = workload_id(p.workload);
  k.dataflow = static_cast<i32>(p.dataflow);
  k.psum_bits = p.psum.psum_bits;
  k.apsq = p.psum.apsq ? 1 : 0;
  k.group_size = p.psum.group_size;
  k.po = p.acc.po;
  k.pci = p.acc.pci;
  k.pco = p.acc.pco;
  k.ifmap_buf_bytes = p.acc.ifmap_buf_bytes;
  k.ofmap_buf_bytes = p.acc.ofmap_buf_bytes;
  k.weight_buf_bytes = p.acc.weight_buf_bytes;
  k.act_bits = p.acc.act_bits;
  k.weight_bits = p.acc.weight_bits;
  return k;
}

size_t PointKey::hash() const {
  // Fold each field through a multiply-xorshift step, then finalize with
  // splitmix64's mixer so the low bits (shard choice) are well spread.
  const auto pair = [](i32 hi, i32 lo) {
    return static_cast<u64>(static_cast<u32>(hi)) << 32 |
           static_cast<u32>(lo);
  };
  u64 h = 0x9E3779B97F4A7C15ULL;
  for (const u64 v :
       {static_cast<u64>(workload) << 32 | static_cast<u32>(dataflow),
        pair(psum_bits, apsq), static_cast<u64>(group_size),
        static_cast<u64>(po), static_cast<u64>(pci), static_cast<u64>(pco),
        static_cast<u64>(ifmap_buf_bytes), static_cast<u64>(ofmap_buf_bytes),
        static_cast<u64>(weight_buf_bytes), pair(act_bits, weight_bits)}) {
    h = (h ^ v) * 0xFF51AFD7ED558CCDULL;
    h ^= h >> 32;
  }
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return static_cast<size_t>(h);
}

bool operator==(const PointKey& a, const PointKey& b) {
  return a.workload == b.workload && a.dataflow == b.dataflow &&
         a.psum_bits == b.psum_bits && a.apsq == b.apsq &&
         a.group_size == b.group_size && a.po == b.po && a.pci == b.pci &&
         a.pco == b.pco && a.ifmap_buf_bytes == b.ifmap_buf_bytes &&
         a.ofmap_buf_bytes == b.ofmap_buf_bytes &&
         a.weight_buf_bytes == b.weight_buf_bytes &&
         a.act_bits == b.act_bits && a.weight_bits == b.weight_bits;
}

const char* to_string(Objective o) { return name_row(o).name; }

const char* objective_column(Objective o) { return name_row(o).column; }

Direction objective_direction(Objective o) { return name_row(o).direction; }

double Objectives::get(Objective o) const {
  switch (o) {
    case Objective::kEnergy: return energy_pj;
    case Objective::kArea: return area_um2;
    case Objective::kError: return error;
    case Objective::kLatency: return latency_s;
    case Objective::kPeUtilization: return pe_utilization;
    case Objective::kDramBwHeadroom: return dram_bw_headroom;
    case Objective::kThroughputPerArea: return throughput_per_area;
  }
  APSQ_CHECK_MSG(false, "unknown objective");
  return 0.0;
}

double Objectives::minimized(Objective o) const {
  switch (o) {
    case Objective::kPeUtilization:
    case Objective::kDramBwHeadroom:
      // Both live in [0, 1]; clamp so a value slightly above 1 can never
      // produce a negative minimized objective.
      return std::max(0.0, 1.0 - get(o));
    case Objective::kThroughputPerArea:
      // Monotone-decreasing and finite for every v >= 0, including the
      // default-constructed 0 (1/v would be +inf there and trip the
      // finiteness gate on hand-built results).
      return 1.0 / (1.0 + std::max(0.0, get(o)));
    default:
      return get(o);
  }
}

bool Objectives::all_finite() const {
  for (int i = 0; i < kObjectiveCount; ++i)
    if (!std::isfinite(get(static_cast<Objective>(i)))) return false;
  return true;
}

void Objectives::set(Objective o, double v) {
  switch (o) {
    case Objective::kEnergy: energy_pj = v; return;
    case Objective::kArea: area_um2 = v; return;
    case Objective::kError: error = v; return;
    case Objective::kLatency: latency_s = v; return;
    case Objective::kPeUtilization: pe_utilization = v; return;
    case Objective::kDramBwHeadroom: dram_bw_headroom = v; return;
    case Objective::kThroughputPerArea: throughput_per_area = v; return;
  }
  APSQ_CHECK_MSG(false, "unknown objective");
}

ObjectiveSet::ObjectiveSet() {
  active_.fill(false);
  for (int i = 0; i < kCoreObjectiveCount; ++i)
    active_[static_cast<size_t>(i)] = true;
  rebuild_list();
}

ObjectiveSet ObjectiveSet::all() {
  ObjectiveSet s;
  s.active_.fill(true);
  s.rebuild_list();
  return s;
}

void ObjectiveSet::rebuild_list() {
  list_.clear();
  for (int i = 0; i < kObjectiveCount; ++i)
    if (active_[static_cast<size_t>(i)])
      list_.push_back(static_cast<Objective>(i));
}

ObjectiveSet ObjectiveSet::parse(const std::string& csv) {
  // invalid_argument (a logic_error, but without APSQ_CHECK's file/line
  // prefix) keeps the message clean for CLI diagnostics — parse_enum_flag
  // prints it verbatim after the flag name.
  ObjectiveSet s;
  s.active_.fill(false);
  std::stringstream in(csv);
  std::string name;
  bool any = false;
  while (std::getline(in, name, ',')) {
    if (name.empty()) continue;
    // parse_objective names the valid list in its message (the shared
    // naming table), so the CLI, spec, and daemon paths all reject with
    // identical text.
    const Objective o = parse_objective(name);
    if (s.active_[static_cast<size_t>(o)])
      throw std::invalid_argument("duplicate objective: " + name);
    s.active_[static_cast<size_t>(o)] = true;
    any = true;
  }
  if (!any) throw std::invalid_argument("objective list is empty");
  s.rebuild_list();
  return s;
}

std::string ObjectiveSet::to_string() const {
  std::string out;
  for (Objective o : list_) {
    if (!out.empty()) out += ',';
    out += dse::to_string(o);
  }
  return out;
}

bool dominates(const Objectives& a, const Objectives& b,
               const ObjectiveSet& objectives) {
  bool strictly_better = false;
  for (Objective o : objectives.list()) {
    const double av = a.minimized(o), bv = b.minimized(o);
    if (av > bv) return false;
    if (av < bv) strictly_better = true;
  }
  return strictly_better;
}

}  // namespace apsq::dse
