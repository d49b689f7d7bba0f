// Copyright 2026 The pkgstream Authors.
// Tests for FlatCounter: differential against std::unordered_map, the
// "count 0 = absent" contract, and the per-seed clustering regression.

#include "common/flat_counter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"

namespace pkgstream {
namespace {

using Pairs = std::vector<std::pair<Key, uint64_t>>;

Pairs Sorted(const FlatCounter& table) {
  Pairs items(table.begin(), table.end());
  std::sort(items.begin(), items.end());
  return items;
}

Pairs Sorted(const std::unordered_map<Key, uint64_t>& map) {
  Pairs items(map.begin(), map.end());
  std::sort(items.begin(), items.end());
  return items;
}

TEST(FlatCounterTest, MatchesUnorderedMapAcrossGrowthAndClear) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    FlatCounter table(Fmix64(seed));
    std::unordered_map<Key, uint64_t> reference;
    for (int round = 0; round < 2; ++round) {
      // Enough distinct keys for several doublings past the minimum size;
      // a narrow key range for many repeats.
      const uint64_t range = round == 0 ? 5000 : 300;
      for (int i = 0; i < 20000; ++i) {
        const Key key = rng.Next() % range;
        if (rng.Next() % 2 == 0) {
          table.Add(key);
          ++reference[key];
        } else {
          const uint64_t delta = 1 + rng.Next() % 9;
          table.Add(key, delta);
          reference[key] += delta;
        }
        if (i % 997 == 0) {
          ASSERT_EQ(table.size(), reference.size());
          ASSERT_EQ(table.Count(key), reference[key]);
        }
      }
      EXPECT_EQ(table.size(), reference.size());
      EXPECT_EQ(Sorted(table), Sorted(reference));
      for (const auto& [key, count] : reference) {
        ASSERT_EQ(table.Count(key), count);
      }
      EXPECT_EQ(table.Count(range + 1), 0u);
      EXPECT_LE(2 * table.size(), table.capacity());

      const size_t capacity = table.capacity();
      table.clear();
      reference.clear();
      EXPECT_TRUE(table.empty());
      EXPECT_EQ(table.capacity(), capacity);  // clear() keeps the slots
      EXPECT_EQ(table.begin(), table.end());
      EXPECT_EQ(table.Count(1), 0u);
    }
  }
}

TEST(FlatCounterTest, ZeroCountMeansAbsent) {
  FlatCounter table(7);
  EXPECT_EQ(table.Count(0), 0u);
  EXPECT_EQ(table.begin(), table.end());

  table.Add(42, 0);
  table.Max(43, 0);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Count(42), 0u);
  EXPECT_EQ(table.begin(), table.end());

  // Key 0 is an ordinary key: there is no sentinel key.
  table.Add(0, 5);
  table.Add(0, 0);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Count(0), 5u);
  EXPECT_EQ(Sorted(table), (Pairs{{0, 5}}));
}

TEST(FlatCounterTest, MaxKeepsTheLargerCount) {
  FlatCounter table(9);
  table.Max(4, 3);
  table.Max(4, 2);
  EXPECT_EQ(table.Count(4), 3u);
  table.Max(4, 8);
  EXPECT_EQ(table.Count(4), 8u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatCounterTest, IteratesLikeAMap) {
  FlatCounter table(11);
  for (Key k = 1; k <= 100; ++k) table.Add(k, k * 2);
  std::map<Key, uint64_t> as_map(table.begin(), table.end());
  ASSERT_EQ(as_map.size(), 100u);
  for (const auto& [key, count] : as_map) EXPECT_EQ(count, key * 2);
  uint64_t sum = 0;
  for (auto it = table.begin(); it != table.end(); ++it) sum += it->second;
  EXPECT_EQ(sum, 100u * 101u);
}

TEST(FlatCounterTest, DrainVisitsEachKeyOnceInSlotOrderAndEmpties) {
  FlatCounter table(13);
  for (Key k = 0; k < 1000; ++k) table.Add(k * 7919, k + 1);
  const Pairs slot_order(table.begin(), table.end());
  const size_t capacity = table.capacity();

  Pairs drained;
  table.Drain([&](Key key, uint64_t count) { drained.emplace_back(key, count); });
  EXPECT_EQ(drained, slot_order);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_EQ(table.begin(), table.end());
  EXPECT_EQ(table.Count(7919), 0u);

  // Reused after the drain.
  table.Add(5, 2);
  EXPECT_EQ(Sorted(table), (Pairs{{5, 2}}));
}

TEST(FlatCounterTest, ReseedKeepsContentsAndChangesOrder) {
  FlatCounter table(1);
  for (Key k = 0; k < 500; ++k) table.Add(k, k + 1);
  const Pairs before(table.begin(), table.end());
  table.Reseed(2);
  EXPECT_EQ(table.seed(), 2u);
  const Pairs after(table.begin(), table.end());
  EXPECT_NE(after, before);
  EXPECT_EQ(Sorted(table), [&] {
    Pairs s = before;
    std::sort(s.begin(), s.end());
    return s;
  }());
}

// Merging one table into another in slot order is what every word-count
// flush does. The destination must not see the source's hash order as its
// own: probe runs stay short at every point of the merge, not only once the
// destination has finished growing.
TEST(FlatCounterTest, SlotOrderMergeWithOtherSeedDoesNotCluster) {
  // 1.8M keys leave the source at load ~0.43 of 4M slots. The destination
  // doubles from empty, and while it is smaller than the source its keys
  // wrap around it; with a shared hash that doubles the load of the wrapped
  // region to ~0.86 before the next doubling.
  constexpr uint64_t kKeys = 1800000;
  FlatCounter source(Fmix64(1ULL << 32));
  for (uint64_t i = 0; i < kKeys; ++i) source.Add(i, 1 + i % 5);
  ASSERT_EQ(source.size(), kKeys);

  FlatCounter merged(Fmix64(2ULL << 32));
  size_t longest = 0, added = 0;
  for (const auto& [key, count] : source) {
    merged.Add(key, count);
    if (++added % 65536 == 0) {
      longest = std::max(longest, merged.LongestProbeRun());
    }
  }
  longest = std::max(longest, merged.LongestProbeRun());
  EXPECT_EQ(merged.size(), kKeys);
  // A random layout at load <= 1/2 over 4M slots has a longest run well
  // under 128; the same merge with a shared seed reaches the hundreds.
  EXPECT_LT(longest, 128u);
}

}  // namespace
}  // namespace pkgstream
