// Copyright 2026 The pkgstream Authors.
// Exact key-frequency accounting: used by the Off-Greedy baseline (which
// needs the true frequencies ahead of time), by dataset statistics
// (Table I's K and p1), and as ground truth for the heavy-hitter tests.

#ifndef PKGSTREAM_STATS_FREQUENCY_H_
#define PKGSTREAM_STATS_FREQUENCY_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_counter.h"
#include "common/types.h"

namespace pkgstream {
namespace stats {

/// \brief Exact frequency table over 64-bit keys.
class FrequencyTable {
 public:
  /// Records one occurrence of `key`.
  void Add(Key key) {
    counts_.Add(key);
    ++total_;
  }

  /// Records `count` occurrences of `key`; a count of 0 records nothing.
  void Add(Key key, uint64_t count) {
    counts_.Add(key, count);
    total_ += count;
  }

  /// Total number of recorded occurrences (m).
  uint64_t total() const { return total_; }

  /// Number of distinct keys (K).
  uint64_t distinct() const { return counts_.size(); }

  /// Count of `key`; 0 when unseen.
  uint64_t Count(Key key) const { return counts_.Count(key); }

  /// (key, count) pairs sorted by decreasing count, ties by key for
  /// determinism. When k > 0, only the top k are returned.
  std::vector<std::pair<Key, uint64_t>> TopK(size_t k = 0) const;

  /// Probability of the most frequent key (Table I's p1); 0 when empty.
  double HeadProbability() const;

 private:
  FlatCounter counts_{/*seed=*/0};
  uint64_t total_ = 0;
};

}  // namespace stats
}  // namespace pkgstream

#endif  // PKGSTREAM_STATS_FREQUENCY_H_
