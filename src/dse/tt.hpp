// Sharded, thread-safe transposition table: the memo behind the
// Evaluator's accuracy table, the one sub-result it caches. The key type
// is a parameter; the Evaluator keys it by a sub-key projected from the
// point's PointKey (dse/design_point.hpp), so a lookup hashes a
// fixed-size struct instead of formatting a string. Values are computed
// at most once per shard winner: lookup checks under the shard lock,
// computes outside it, and the first inserter wins — a loser's identical
// value is discarded and counted as a `race`, so results are
// schedule-independent and only the counters vary. Sharding by key hash
// keeps 8–16 parallel workers from serializing on one mutex.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/types.hpp"

namespace apsq::dse {

/// Counters for one table (aggregated across shards). Under contention
/// two workers may both compute the same missing entry; the loser's
/// insert is counted as a `race` (the cached value is identical either
/// way, so only the counters — never the results — are
/// schedule-dependent). A batch fill (TranspositionTable::fill) counts
/// like a lookup that missed: one miss per filled key, or a race if
/// another writer got there first. For any schedule,
/// hits + misses + races == number of lookups + fills.
struct CacheStats {
  i64 hits = 0;
  i64 misses = 0;
  i64 races = 0;

  i64 lookups() const { return hits + misses + races; }
};

template <typename K, typename V, typename Hash = std::hash<K>>
class TranspositionTable {
 public:
  /// `shard_count` is rounded up to a power of two (mask-selectable).
  explicit TranspositionTable(size_t shard_count = 16) {
    size_t n = 1;
    while (n < shard_count) n <<= 1;
    shards_.reserve(n);
    for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  }

  /// Return the memoized value for `key`, computing it via `compute()`
  /// (outside any lock) on a miss. First writer wins; every path returns
  /// the table's value.
  template <typename Fn>
  V lookup_or_compute(const K& key, Fn&& compute) {
    Shard& s = shard_for(key);
    {
      MutexLock lock(s.mu);
      auto it = s.map.find(key);
      if (it != s.map.end()) {
        ++s.stats.hits;
        return it->second;
      }
    }
    V value = compute();
    MutexLock lock(s.mu);
    auto [it, inserted] = s.map.emplace(key, std::move(value));
    if (inserted)
      ++s.stats.misses;
    else
      ++s.stats.races;
    return it->second;
  }

  /// True iff `key` is memoized. Counts nothing.
  bool contains(const K& key) const {
    Shard& s = shard_for(key);
    MutexLock lock(s.mu);
    return s.map.count(key) != 0;
  }

  /// Memoize a value computed ahead of its lookups (a batch fill). First
  /// writer wins, as in lookup_or_compute.
  void fill(const K& key, V value) {
    Shard& s = shard_for(key);
    MutexLock lock(s.mu);
    if (s.map.emplace(key, std::move(value)).second)
      ++s.stats.misses;
    else
      ++s.stats.races;
  }

  /// Counters summed over shards (a consistent-enough snapshot: each
  /// shard is read under its own lock).
  CacheStats stats() const {
    CacheStats total;
    for (const auto& s : shards_) {
      MutexLock lock(s->mu);
      total.hits += s->stats.hits;
      total.misses += s->stats.misses;
      total.races += s->stats.races;
    }
    return total;
  }

 private:
  /// One shard: map and counters move together under one mutex, so a
  /// counter update outside the map's critical section is a compile error
  /// under Clang -Wthread-safety, not a TSan-lottery ticket.
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<K, V, Hash> map APSQ_GUARDED_BY(mu);
    CacheStats stats APSQ_GUARDED_BY(mu);
  };

  Shard& shard_for(const K& key) const {
    // Shard choice only spreads contention — it never affects results —
    // so any hash with well-mixed low bits will do.
    const size_t h = Hash{}(key);
    return *shards_[h & (shards_.size() - 1)];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace apsq::dse
