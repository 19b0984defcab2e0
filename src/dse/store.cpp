#include "dse/store.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/stats_writer.hpp"

namespace apsq::dse {

namespace {

constexpr const char* kFormat = "apsq-evalstore";
constexpr int kSchemaVersion = 1;
/// The one scoring fidelity's label: every entry's "backend" and every
/// row's "scored_by" hold it.
constexpr const char* kAnalytic = "analytic";

Dataflow parse_dataflow(const std::string& name) {
  if (name == "IS") return Dataflow::kIS;
  if (name == "WS") return Dataflow::kWS;
  if (name == "OS") return Dataflow::kOS;
  throw std::invalid_argument("unknown dataflow: " + name +
                              " (expected IS|WS|OS)");
}

/// FNV-1a over a byte string — deterministic, dependency-free, and plenty
/// for addressing (a collision additionally has to survive the per-row
/// canonical-key check the consumer runs).
u64 fnv1a(const std::string& s) {
  u64 h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<u64>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

std::string entry_key(const std::string& space_hash,
                      const std::string& scoring) {
  return space_hash + '\n' + scoring;
}

}  // namespace

std::string config_space_hash(const ConfigSpace& space) {
  // A canonical text rendering of every axis value, in axis order. The
  // mixed-radix enumeration is a pure function of this description, so
  // equal descriptions ⇒ identical point sequences.
  std::ostringstream os;
  os << "workloads=";
  for (const std::string& w : space.workloads) os << w << ';';
  os << "|dataflows=";
  for (const Dataflow df : space.dataflows) os << to_string(df) << ';';
  os << "|psum=";
  for (const PsumConfig& pc : space.psum_configs)
    os << pc.psum_bits << ',' << (pc.apsq ? 1 : 0) << ',' << pc.group_size
       << ';';
  os << "|geom=";
  for (const PeGeometry& g : space.geometries)
    os << g.po << ',' << g.pci << ',' << g.pco << ';';
  os << "|buf=";
  for (const BufferSizing& b : space.buffers)
    os << b.ifmap_bytes << ',' << b.ofmap_bytes << ',' << b.weight_bytes
       << ';';
  os << "|ab=" << space.act_bits << "|wb=" << space.weight_bits;
  // Fine axes append new sections only when present, so every legacy
  // space's hash input — hence its hash, and every snapshot keyed by it —
  // is byte-identical to before they existed.
  const auto fine_i64 = [&os](const char* tag, const std::vector<i64>& axis) {
    if (axis.empty()) return;
    os << '|' << tag << '=';
    for (const i64 v : axis) os << v << ';';
  };
  fine_i64("fbi", space.ifmap_bytes_axis);
  fine_i64("fbo", space.ofmap_bytes_axis);
  fine_i64("fbw", space.weight_bytes_axis);
  const auto fine_int = [&os](const char* tag, const std::vector<int>& axis) {
    if (axis.empty()) return;
    os << '|' << tag << '=';
    for (const int v : axis) os << v << ';';
  };
  fine_int("fab", space.act_bits_axis);
  fine_int("fwb", space.weight_bits_axis);
  const u64 h = fnv1a(os.str());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(hex);
}

void append_result_json(std::ostream& os, const EvalResult& r) {
  const DesignPoint& p = r.point;
  os << "\"workload\": \"" << json_escape(p.workload) << "\", \"dataflow\": \""
     << to_string(p.dataflow) << "\", \"psum_bits\": " << p.psum.psum_bits
     << ", \"apsq\": " << (p.psum.apsq ? 1 : 0)
     << ", \"group_size\": " << p.psum.group_size << ", \"po\": " << p.acc.po
     << ", \"pci\": " << p.acc.pci << ", \"pco\": " << p.acc.pco
     << ", \"ifmap_buf_bytes\": " << p.acc.ifmap_buf_bytes
     << ", \"ofmap_buf_bytes\": " << p.acc.ofmap_buf_bytes
     << ", \"weight_buf_bytes\": " << p.acc.weight_buf_bytes
     << ", \"act_bits\": " << p.acc.act_bits
     << ", \"weight_bits\": " << p.acc.weight_bits
     << ", \"scored_by\": \"" << kAnalytic << "\"";
  for (int o = 0; o < kObjectiveCount; ++o) {
    const Objective obj = static_cast<Objective>(o);
    os << ", \"" << objective_column(obj)
       << "\": " << format_double(r.obj.get(obj));
  }
}

std::shared_ptr<const EvalStore::Entry> EvalStore::find(
    const std::string& space_hash, const std::string& scoring) const {
  MutexLock lock(mu_);
  const auto it = entries_.find(entry_key(space_hash, scoring));
  return it != entries_.end() ? it->second : nullptr;
}

void EvalStore::put(const std::string& space_hash, const std::string& scoring,
                    const std::string& backend_label, index_t space_points,
                    const std::vector<EvalResult>& results) {
  // Build the entry outside the lock (copying 10³–10⁶ results is the
  // expensive part), publish it with a pointer swap under it.
  auto e = std::make_shared<Entry>();
  e->space_hash = space_hash;
  e->scoring = scoring;
  e->backend = backend_label;
  e->space_points = space_points;
  for (size_t i = 0; i < results.size(); ++i)
    e->results.emplace(static_cast<index_t>(i), results[i]);
  MutexLock lock(mu_);
  entries_[entry_key(space_hash, scoring)] = std::move(e);
}

void EvalStore::merge_rows(const std::string& space_hash,
                           const std::string& scoring,
                           const std::string& backend_label,
                           index_t space_points,
                           const std::vector<index_t>& indices,
                           const std::vector<EvalResult>& results) {
  APSQ_CHECK(indices.size() == results.size());
  auto e = std::make_shared<Entry>();
  e->space_hash = space_hash;
  e->scoring = scoring;
  e->backend = backend_label;
  e->space_points = space_points;
  // Read-modify-write of the published entry: the whole merge holds mu_,
  // so two concurrent merges can never lose each other's rows. The row
  // sets are sparse (search results, bounded by the budget), so copying
  // under the lock is cheap — unlike put(), which copies whole spaces and
  // therefore builds outside it.
  MutexLock lock(mu_);
  const auto it = entries_.find(entry_key(space_hash, scoring));
  if (it != entries_.end()) e->results = it->second->results;
  for (size_t k = 0; k < indices.size(); ++k) e->results[indices[k]] = results[k];
  entries_[entry_key(space_hash, scoring)] = std::move(e);
}

size_t EvalStore::entry_count() const {
  MutexLock lock(mu_);
  return entries_.size();
}

std::string EvalStore::source() const {
  MutexLock lock(mu_);
  return source_;
}

index_t EvalStore::result_count() const {
  MutexLock lock(mu_);
  index_t n = 0;
  for (const auto& [key, e] : entries_)
    n += static_cast<index_t>(e->results.size());
  return n;
}

std::string EvalStore::to_json() const {
  // Pin a consistent view: copy the (small) pointer map under the lock,
  // then serialize the immutable entries without holding it — a put()
  // racing a save lands wholly before or wholly after this snapshot.
  std::map<std::string, std::shared_ptr<const Entry>> entries;
  {
    MutexLock lock(mu_);
    entries = entries_;
  }
  std::ostringstream os;
  os << "{\n  \"format\": \"" << kFormat
     << "\",\n  \"schema_version\": " << kSchemaVersion
     << ",\n  \"entries\": [";
  bool first_entry = true;
  for (const auto& [key, ep] : entries) {
    const Entry& e = *ep;
    os << (first_entry ? "\n" : ",\n");
    first_entry = false;
    os << "    {\"space_hash\": \"" << json_escape(e.space_hash)
       << "\", \"scoring\": \"" << json_escape(e.scoring)
       << "\", \"backend\": \"" << json_escape(e.backend)
       << "\", \"points\": " << e.space_points << ", \"results\": [";
    bool first_row = true;
    for (const auto& [idx, r] : e.results) {
      os << (first_row ? "\n" : ",\n");
      first_row = false;
      os << "      {\"i\": " << idx << ", ";
      append_result_json(os, r);
      os << "}";
    }
    os << (first_row ? "]}" : "\n    ]}");
  }
  os << (first_entry ? "]\n}\n" : "\n  ]\n}\n");
  return os.str();
}

bool EvalStore::save_file(const std::string& path) const {
  // Write-to-temp + rename: a crash (or disk-full) mid-write must never
  // leave a truncated snapshot under `path` — the strict loader would
  // reject it and the evaluated space would be lost. The temp lives next
  // to the target so the rename stays within one filesystem.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f << to_json();
    f.flush();
    if (!f) {
      f.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

size_t EvalStore::load_file(const std::string& path) {
  // Every failure below names the file and the reason — a snapshot that
  // cannot be trusted must be rejected loudly, never crashed on or
  // silently replaced by a fresh evaluation the caller didn't ask for.
  const auto bad = [&](const std::string& reason) -> std::runtime_error {
    return std::runtime_error(path + ": " + reason);
  };
  JsonValue doc = json_parse_file(path);  // already path-prefixed
  try {
    if (!doc.is_object()) throw bad("not an evaluated-space snapshot (top-level value is not an object)");
    const JsonValue* format = doc.find("format");
    if (format == nullptr || !format->is_string() ||
        format->as_string() != kFormat)
      throw bad(std::string("not an evaluated-space snapshot (missing ") +
                "\"format\": \"" + kFormat + "\")");
    // Pre-daemon snapshots carried the schema version under "version" —
    // same integer, same meaning — so both spellings load as v1 and both
    // reject a future version with the same message.
    const char* vkey = doc.find("schema_version") == nullptr &&
                               doc.find("version") != nullptr
                           ? "version"
                           : "schema_version";
    json_schema_version(doc, path, 1, kSchemaVersion, vkey);
    const JsonValue& entries = doc.get("entries");
    // Stage into a local list and commit in one step at the end: a file
    // whose 40th entry is malformed must not leave entries 1–39 merged
    // (they would silently answer queries for a snapshot that was
    // rejected).
    std::vector<std::shared_ptr<const Entry>> staged;
    for (size_t ei = 0; ei < entries.size(); ++ei) {
      const JsonValue& je = entries.at(ei);
      Entry e;
      e.space_hash = je.get("space_hash").as_string();
      e.scoring = je.get("scoring").as_string();
      e.backend = je.get("backend").as_string();
      if (e.backend != kAnalytic)
        throw bad("entry " + std::to_string(ei) + ": backend \"" +
                  e.backend + "\" was removed; only analytic snapshots load");
      e.space_points = je.get("points").as_i64();
      if (e.space_points <= 0)
        throw bad("entry " + std::to_string(ei) +
                  ": non-positive point count");
      const JsonValue& rows = je.get("results");
      if (static_cast<index_t>(rows.size()) > e.space_points)
        throw bad("entry " + std::to_string(ei) + ": " +
                  std::to_string(rows.size()) + " results for a " +
                  std::to_string(e.space_points) + "-point space");
      for (size_t ri = 0; ri < rows.size(); ++ri) {
        const JsonValue& row = rows.at(ri);
        const index_t idx = row.get("i").as_i64();
        if (idx < 0 || idx >= e.space_points)
          throw bad("entry " + std::to_string(ei) + ": point index " +
                    std::to_string(idx) + " out of range [0, " +
                    std::to_string(e.space_points) + ")");
        EvalResult r;
        DesignPoint& p = r.point;
        p.workload = row.get("workload").as_string();
        p.dataflow = parse_dataflow(row.get("dataflow").as_string());
        p.psum.psum_bits = static_cast<int>(row.get("psum_bits").as_i64());
        p.psum.apsq = row.get("apsq").as_i64() != 0;
        p.psum.group_size = row.get("group_size").as_i64();
        p.acc.po = row.get("po").as_i64();
        p.acc.pci = row.get("pci").as_i64();
        p.acc.pco = row.get("pco").as_i64();
        p.acc.ifmap_buf_bytes = row.get("ifmap_buf_bytes").as_i64();
        p.acc.ofmap_buf_bytes = row.get("ofmap_buf_bytes").as_i64();
        p.acc.weight_buf_bytes = row.get("weight_buf_bytes").as_i64();
        p.acc.act_bits = static_cast<int>(row.get("act_bits").as_i64());
        p.acc.weight_bits = static_cast<int>(row.get("weight_bits").as_i64());
        p.validate();
        const std::string& scored_by = row.get("scored_by").as_string();
        if (scored_by != kAnalytic)
          throw bad("entry " + std::to_string(ei) + ", point " +
                    std::to_string(idx) + ": scored_by \"" + scored_by +
                    "\" was removed; only analytic rows load");
        for (int o = 0; o < kObjectiveCount; ++o) {
          const Objective obj = static_cast<Objective>(o);
          r.obj.set(obj, row.get(objective_column(obj)).as_number());
        }
        if (!r.obj.all_finite())
          throw bad("entry " + std::to_string(ei) + ", point " +
                    std::to_string(idx) + ": non-finite objective value");
        if (!e.results.emplace(idx, std::move(r)).second)
          throw bad("entry " + std::to_string(ei) + ": duplicate point index " +
                    std::to_string(idx));
      }
      staged.push_back(std::make_shared<const Entry>(std::move(e)));
    }
    MutexLock lock(mu_);
    for (std::shared_ptr<const Entry>& ep : staged)
      entries_[entry_key(ep->space_hash, ep->scoring)] = std::move(ep);
    source_ = path;
    return staged.size();
  } catch (const std::runtime_error&) {
    throw;  // already file-prefixed
  } catch (const std::exception& e) {
    // JsonValue accessor / DesignPoint::validate failures: wrap with the
    // file name so "missing key \"po\"" is attributable.
    throw bad(std::string("malformed snapshot: ") + e.what());
  }
}

}  // namespace apsq::dse
