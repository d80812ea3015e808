// Sharded direct-mapped cache for repeated TSPLIB distance queries.
//
// Coordinate instances recompute d(i,j) from scratch on every call —
// sqrt + rounding under the metric — and the annealer's hot paths
// (exact_swap_delta recompute, window building, ring scoring) ask for the
// same handful of pairs many times within an epoch. This cache trades a
// few hundred KiB for those repeats. Properties the callers rely on:
//
//   * deterministic: the fill/evict order is a pure function of the query
//     sequence (direct-mapped, no clocks, no randomness), so cached and
//     uncached runs are bit-identical;
//   * NOT thread-safe: one owner per instance (the annealer's level-0
//     solve keeps exactly one, shared by its window build, swap deltas
//     and ring scoring);
//   * stats are plain counters the owner flushes to telemetry in bulk —
//     no per-query atomics on the hot path.
#pragma once

#include <cstdint>
#include <vector>

#include "tsp/instance.hpp"

namespace cim::tsp {

class DistanceCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Cache-line traffic model: bytes of cache entries read or written.
    std::uint64_t bytes_touched = 0;
  };

  /// `capacity_log2` picks the total slot count (2^capacity_log2 entries,
  /// 16 bytes each); the table is split into 16 shards so unrelated pair
  /// populations evict independently.
  explicit DistanceCache(const Instance& instance,
                         std::size_t capacity_log2 = 14);

  /// d(a,b) through the cache. Symmetric: (a,b) and (b,a) share a slot.
  long long distance(CityId a, CityId b);

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Drops all cached pairs (stats are kept).
  void clear();

  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::uint64_t key;
    long long value;
  };

  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr std::size_t kShardBits = 4;

  const Instance* instance_;
  std::vector<Slot> slots_;
  std::size_t shard_mask_ = 0;  // slots per shard - 1
  Stats stats_;
};

}  // namespace cim::tsp
