// Copyright 2026 The pkgstream Authors.
// SPACESAVING (Metwally, Agrawal, El Abbadi, ICDT 2005): approximate heavy
// hitters in constant space, with the mergeable-summary extension of
// Berinde et al. (TODS 2010) that Section VI-C builds on.
//
// Guarantees: with capacity c, every key's estimate satisfies
//   true_count <= Estimate(key) <= true_count + min_count
// and any key with true count > m/c is present in the summary. Merging two
// summaries adds their error terms — which is exactly the paper's argument
// for PKG: each key lives in at most 2 summaries, so the merged error has 2
// terms instead of W (shuffle grouping).

#ifndef PKGSTREAM_STATS_SPACE_SAVING_H_
#define PKGSTREAM_STATS_SPACE_SAVING_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace pkgstream {
namespace stats {

/// \brief One tracked item: estimated count and maximum overestimation.
struct SpaceSavingEntry {
  Key key = 0;
  uint64_t count = 0;  ///< estimated count (upper bound on the true count)
  uint64_t error = 0;  ///< count - error is a lower bound on the true count
};

/// \brief The SPACESAVING sketch with O(1) amortized updates.
///
/// Internally a min-heap on estimated counts with an index map for O(log c)
/// increment and O(log c) eviction.
class SpaceSaving {
 public:
  /// `capacity` is the number of tracked counters (the paper's c = O(1/eps)).
  explicit SpaceSaving(size_t capacity);

  /// Processes `increment` occurrences of `key` and returns its estimated
  /// count afterwards. The key always owns a counter after Add, so the
  /// result equals Estimate(key) — one index probe instead of two.
  uint64_t Add(Key key, uint64_t increment = 1);

  /// Estimated count of `key`: its counter when tracked, otherwise the
  /// summary's minimum count (the standard upper bound).
  uint64_t Estimate(Key key) const;

  /// True when the key currently owns a counter.
  bool Contains(Key key) const;

  /// The entry for a tracked key; count == 0 sentinel when untracked.
  SpaceSavingEntry Entry(Key key) const;

  /// Smallest tracked count (0 while the summary is not full).
  uint64_t MinCount() const;

  /// Items sorted by decreasing estimated count (ties by key), top k only
  /// when k > 0. A key is a *guaranteed* heavy hitter when
  /// count - error >= the (k+1)-th count; callers can check via `error`.
  std::vector<SpaceSavingEntry> TopK(size_t k = 0) const;

  /// Total stream length processed (sum of increments).
  uint64_t processed() const { return processed_; }

  /// Number of live counters (<= capacity).
  size_t size() const { return heap_.size(); }
  size_t capacity() const { return capacity_; }

  /// Merges `other` into this summary (Berinde et al.): per-key estimates
  /// and errors add; the combined summary is then re-truncated to this
  /// summary's capacity, folding truncated mass into the error floor.
  void Merge(const SpaceSaving& other);

 private:
  struct HeapNode {
    Key key;
    uint64_t count;
    uint64_t error;
  };

  void SiftDown(size_t i);
  void SiftUp(size_t i);
  void HeapSwap(size_t a, size_t b);

  size_t capacity_;
  std::vector<HeapNode> heap_;            // min-heap on count
  std::unordered_map<Key, size_t> index_; // key -> heap position
  uint64_t processed_ = 0;
};

}  // namespace stats
}  // namespace pkgstream

#endif  // PKGSTREAM_STATS_SPACE_SAVING_H_
