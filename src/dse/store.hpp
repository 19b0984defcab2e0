// Persistent evaluated-space store: snapshot / reload of scored design
// points, so follow-up queries re-slice a paid-for sweep instead of
// re-paying it.
//
// A snapshot entry is keyed by the *canonical config-space hash* (what
// was swept) plus a *scoring key* (how it was scored —
// SweepConfig::scoring_key(): the accuracy-proxy seed and, for a budgeted
// search, its trajectory). Every entry holds closed-form scores, the one
// scoring fidelity, so rows carry no provenance: each entry's "backend"
// and row's "scored_by" is the format constant "analytic". Within an
// entry, results are keyed by point index in the space's enumeration
// order; each row carries the full point identity and every objective of
// ObjectiveSet::all() — so a reloaded entry can be
// re-sliced over any objective subset or constraint-filtered without
// touching the evaluator, and the fronts come out byte-identical to a
// fresh sweep (doubles round-trip through "%.17g").
//
// Snapshots are JSON (the emit side mirrors StatsWriter's conventions;
// the read side is common/json.hpp). Loading is strict *and atomic*: an
// unreadable, truncated, malformed, or version-mismatched file — or one
// holding an entry or a row scored by a removed backend (any label but
// "analytic") — throws std::runtime_error naming the file and the
// reason, and leaves the in-memory store exactly as it was — a corrupt
// snapshot must never crash the process, silently stand in for real
// results, or leave a half-merged entry set behind.
//
// Thread safety: the store is internally synchronized (one batch of job
// specs shares a single store across sessions; the resident daemon
// serves it to concurrent front queries). Entries are copy-on-write —
// find() hands out a shared_ptr to an immutable Entry, so a reader
// re-slicing a snapshot is never invalidated by a concurrent put() or
// load_file() replacing the entry under the same key. The map and source
// path are APSQ_GUARDED_BY(mu_); entries themselves are immutable once
// published and need no lock.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "dse/config_space.hpp"
#include "dse/design_point.hpp"

namespace apsq::dse {

/// Canonical 64-bit FNV-1a hash (16 hex digits) of a config space: every
/// axis value in order, plus the shared precisions. Two spaces with equal
/// hashes enumerate the identical point sequence, which is what lets a
/// snapshot be addressed by (hash, index) instead of shipping the space.
std::string config_space_hash(const ConfigSpace& space);

/// Append one scored result as JSON object members (no braces): the full
/// point identity, "scored_by": "analytic", and every objective column —
/// field names and order exactly as snapshot rows persist them. Shared by
/// the snapshot serializer and the daemon's wire responses, so the two
/// formats cannot drift.
void append_result_json(std::ostream& os, const EvalResult& r);

class EvalStore {
 public:
  /// One snapshot: a scored space under one scoring identity. Immutable
  /// once published into a store (copy-on-write: put() replaces the whole
  /// entry).
  struct Entry {
    std::string space_hash;
    std::string scoring;       ///< SweepConfig::scoring_key()
    std::string backend;       ///< sweep-level provenance label
    index_t space_points = 0;  ///< space size when snapshotted
    std::map<index_t, EvalResult> results;  ///< point index → scored result

    bool complete() const {
      return static_cast<index_t>(results.size()) == space_points;
    }
  };

  EvalStore() = default;

  /// Merge-load a snapshot file. An entry with the same (hash, scoring)
  /// key replaces any in-memory one. Returns the number of entries
  /// loaded. Throws std::runtime_error — message prefixed with `path` —
  /// on an unreadable file, a parse error, a wrong format marker or
  /// version, an entry's backend or a row's scored_by other than
  /// "analytic", or any malformed/duplicate/out-of-range row; on a throw
  /// the store is left unchanged (all-or-nothing merge).
  size_t load_file(const std::string& path) APSQ_EXCLUDES(mu_);

  /// Serialize every entry (sorted by key — byte-stable across runs).
  std::string to_json() const APSQ_EXCLUDES(mu_);
  /// Write to `path`; false on I/O failure. The snapshot is a consistent
  /// point-in-time view: a concurrent put() lands either wholly before or
  /// wholly after it, never half-way through a row.
  bool save_file(const std::string& path) const APSQ_EXCLUDES(mu_);

  /// The entry for (space_hash, scoring), or nullptr. The returned entry
  /// is an immutable snapshot: it stays valid (and unchanged) even if a
  /// concurrent put() replaces the store's entry under the same key.
  std::shared_ptr<const Entry> find(const std::string& space_hash,
                                    const std::string& scoring) const
      APSQ_EXCLUDES(mu_);

  /// Record a full sweep: results[i] is point index i of the space.
  /// Replaces any existing entry under the same key.
  void put(const std::string& space_hash, const std::string& scoring,
           const std::string& backend_label, index_t space_points,
           const std::vector<EvalResult>& results) APSQ_EXCLUDES(mu_);

  /// Record a sparse subset (budgeted search over a space too large to
  /// materialize densely): union-merge the rows — results[k] scores the
  /// point at index indices[k] — into any existing entry under the key,
  /// new rows winning collisions (one scoring identity ⇒ identical
  /// values, so a collision only re-asserts a row). Copy-on-write like
  /// put(): readers holding the old entry are unaffected.
  void merge_rows(const std::string& space_hash, const std::string& scoring,
                  const std::string& backend_label, index_t space_points,
                  const std::vector<index_t>& indices,
                  const std::vector<EvalResult>& results) APSQ_EXCLUDES(mu_);

  size_t entry_count() const APSQ_EXCLUDES(mu_);
  index_t result_count() const APSQ_EXCLUDES(mu_);

  /// The last load_file path ("" before any load) — for diagnostics that
  /// should name the snapshot a stale result came from.
  std::string source() const APSQ_EXCLUDES(mu_);

 private:
  /// key = space_hash + '\n' + scoring (neither contains '\n'). Values
  /// are shared with readers; replaced, never mutated, under mu_.
  std::map<std::string, std::shared_ptr<const Entry>> entries_
      APSQ_GUARDED_BY(mu_);
  std::string source_ APSQ_GUARDED_BY(mu_);
  mutable Mutex mu_;
};

}  // namespace apsq::dse
