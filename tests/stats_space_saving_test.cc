// Copyright 2026 The pkgstream Authors.
// Hardening suite for the SPACESAVING sketch (stats/space_saving.h): the
// two Metwally guarantees — true <= Estimate <= true + MinCount, and every
// key above m/c tracked — are load-bearing for the D-Choices heavy-hitter
// classifier (partition/heavy_hitter_pkg.cc derives per-key choice counts
// from Estimate/processed), so they are checked here as *running*
// invariants under adversarial eviction churn, not just at end of stream.
// The Merge tests pin the Berinde combine rule including the one-sided-key
// case: a key tracked in only one full summary must absorb the absent
// summary's MinCount() into count and error, or the upper bound silently
// breaks after a merge (a real bug this suite was written against).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "stats/space_saving.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace stats {
namespace {

/// Drives a sketch and an exact table in lockstep, checking the
/// overestimate bound for every tracked key after every `check_period`
/// additions (checking after every Add keeps the suite honest but cheap
/// streams only).
class CrossCheck {
 public:
  explicit CrossCheck(size_t capacity) : ss_(capacity) {}

  void Add(Key key) {
    ss_.Add(key);
    ++truth_[key];
  }

  /// The Metwally bounds, for every tracked key and a set of probes:
  ///   true <= count <= true + min_count   and   count - error <= true.
  void CheckBounds(const char* where) {
    const uint64_t floor = ss_.MinCount();
    for (const auto& e : ss_.TopK(0)) {
      const uint64_t true_count = truth_.count(e.key) ? truth_[e.key] : 0;
      EXPECT_GE(e.count, true_count) << where << ": key " << e.key;
      EXPECT_LE(e.count, true_count + floor) << where << ": key " << e.key;
      EXPECT_LE(e.count - e.error, true_count)
          << where << ": key " << e.key << " (count-error lower bound)";
    }
    // Untracked keys estimate MinCount — an upper bound on anything absent.
    for (const auto& [key, count] : truth_) {
      EXPECT_GE(ss_.Estimate(key), count) << where << ": key " << key;
    }
  }

  SpaceSaving& sketch() { return ss_; }
  const std::unordered_map<Key, uint64_t>& truth() const { return truth_; }

 private:
  SpaceSaving ss_;
  std::unordered_map<Key, uint64_t> truth_;
};

TEST(SpaceSavingHardeningTest, BoundsHoldUnderAdversarialEvictionChurn) {
  // Worst case for SPACESAVING: a rotating cohort of "almost heavy" keys
  // that each arrive just often enough to evict the previous cohort, so
  // every counter is recycled many times and errors pile up. The bound
  // must hold at every checkpoint anyway.
  CrossCheck cc(16);
  uint64_t next = 1000;
  for (int round = 0; round < 200; ++round) {
    // A fresh cohort of 16 keys, each seen twice: evicts everything.
    for (int i = 0; i < 16; ++i) {
      ++next;
      cc.Add(next);
      cc.Add(next);
    }
    // Two persistent keys fight through the churn.
    cc.Add(1);
    cc.Add(2);
    if (round % 10 == 0) cc.CheckBounds("churn");
  }
  cc.CheckBounds("churn end");
}

TEST(SpaceSavingHardeningTest, BoundsHoldOnSawtoothPromotions) {
  // Keys that oscillate between tracked and evicted: each key returns
  // exactly when its old counter has been recycled, maximizing inherited
  // error. Exercises eviction -> re-insert -> increment chains.
  CrossCheck cc(8);
  for (int sweep = 0; sweep < 64; ++sweep) {
    for (Key key = 0; key < 24; ++key) {  // 3x capacity, round-robin
      cc.Add(key);
    }
    cc.CheckBounds("sawtooth");
  }
}

TEST(SpaceSavingHardeningTest, ZipfStreamCrossChecksExactCounts) {
  // Deterministic skewed stream: the sketch must (a) keep the bounds for
  // every tracked key and (b) rank the true head correctly — head keys on
  // a Zipf stream clear the m/c guarantee, so they cannot be missing.
  const std::vector<double> weights = workload::ZipfWeights(2000, 1.25);
  std::vector<double> cdf(weights.size());
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) cdf[i] = (acc += weights[i]);
  Rng rng(7);
  CrossCheck cc(64);
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.UniformDouble() * acc;
    const size_t key =
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    cc.Add(static_cast<Key>(key));
    if (i % 20000 == 0) cc.CheckBounds("zipf");
  }
  cc.CheckBounds("zipf end");
  // Guaranteed heavy hitters: true count > m/c = 200000/64 = 3125.
  for (const auto& [key, count] : cc.truth()) {
    if (count > 200000 / 64) {
      EXPECT_TRUE(cc.sketch().Contains(key))
          << "guaranteed heavy hitter " << key << " (count " << count
          << ") missing";
    }
  }
}

TEST(SpaceSavingHardeningTest, RandomizedStreamsKeepBoundsAcrossSeeds) {
  for (uint64_t seed : {1u, 42u, 99u}) {
    Rng rng(seed);
    CrossCheck cc(12);
    for (int i = 0; i < 20000; ++i) {
      // Mixed regime: a small hot set, a medium warm set, a huge cold
      // tail — keeps counters constantly contested.
      Key key;
      const double u = rng.UniformDouble();
      if (u < 0.4) {
        key = rng.UniformInt(4);
      } else if (u < 0.7) {
        key = 100 + rng.UniformInt(40);
      } else {
        key = 10000 + rng.UniformInt(100000);
      }
      cc.Add(key);
      if (i % 2000 == 0) cc.CheckBounds("random");
    }
    cc.CheckBounds("random end");
  }
}

TEST(SpaceSavingHardeningTest, MergeKeepsUpperBoundForOneSidedKeys) {
  // Regression: key 7 lives only in summary A; summary B is full, so B's
  // stream may have contained key 7 up to B.MinCount() times. The merged
  // estimate must cover true_A(7) + true_B(7) for ANY B-stream consistent
  // with B's state — i.e. count_merged(7) >= count_A(7) + B.MinCount().
  SpaceSaving a(4);
  for (int i = 0; i < 10; ++i) a.Add(7);
  for (int i = 0; i < 8; ++i) a.Add(8);
  a.Add(9);
  a.Add(10);  // full, MinCount() = 1

  SpaceSaving b(4);
  // B's stream: keys 20..23 plus THREE occurrences of key 7 that get
  // evicted. End state: 7 untracked, MinCount() >= 3.
  for (int i = 0; i < 3; ++i) b.Add(7);
  for (int i = 0; i < 5; ++i) b.Add(20);
  for (int i = 0; i < 5; ++i) b.Add(21);
  for (int i = 0; i < 5; ++i) b.Add(22);
  for (int i = 0; i < 5; ++i) b.Add(23);
  ASSERT_FALSE(b.Contains(7));
  const uint64_t b_floor = b.MinCount();
  ASSERT_GE(b_floor, 3u);

  const uint64_t a7 = a.Entry(7).count;
  a.Merge(b);
  // True total for key 7 is 13; the merged upper bound must cover it.
  ASSERT_TRUE(a.Contains(7));
  EXPECT_GE(a.Entry(7).count, 13u) << "one-sided merge lost the bound";
  EXPECT_GE(a.Entry(7).count, a7 + b_floor);
  // And it must still be a sane overestimate, not unbounded:
  EXPECT_LE(a.Entry(7).count, 13u + a.Entry(7).error);
}

TEST(SpaceSavingHardeningTest, MergeBoundsHoldOnRandomizedSplitStreams) {
  // Property form of the merge guarantee: split one stream across two
  // sketches, merge, and demand true <= count <= true + error for every
  // surviving key (errors already fold in both floors).
  for (uint64_t seed : {3u, 11u, 77u}) {
    Rng rng(seed);
    SpaceSaving a(16);
    SpaceSaving b(16);
    std::unordered_map<Key, uint64_t> truth;
    for (int i = 0; i < 30000; ++i) {
      const Key key = rng.UniformInt(512) < 8 ? rng.UniformInt(8)
                                              : 64 + rng.UniformInt(4000);
      ++truth[key];
      (i % 2 == 0 ? a : b).Add(key);
    }
    a.Merge(b);
    EXPECT_EQ(a.processed(), 30000u);
    for (const auto& e : a.TopK(0)) {
      const uint64_t true_count = truth.count(e.key) ? truth[e.key] : 0;
      EXPECT_GE(e.count, true_count) << "seed " << seed << " key " << e.key;
      EXPECT_LE(e.count - e.error, true_count)
          << "seed " << seed << " key " << e.key;
    }
  }
}

TEST(SpaceSavingHardeningTest, MergeIntoUnderfullSummaryAddsNoPhantomError) {
  // While either summary has spare capacity its MinCount() is 0, so the
  // one-sided floor must degenerate to zero — disjoint under-capacity
  // merges stay exact.
  SpaceSaving a(8);
  SpaceSaving b(8);
  a.Add(1, 5);
  a.Add(2, 3);
  b.Add(3, 4);
  b.Add(1, 2);
  a.Merge(b);
  EXPECT_EQ(a.Entry(1).count, 7u);
  EXPECT_EQ(a.Entry(1).error, 0u);
  EXPECT_EQ(a.Entry(2).count, 3u);
  EXPECT_EQ(a.Entry(2).error, 0u);
  EXPECT_EQ(a.Entry(3).count, 4u);
  EXPECT_EQ(a.Entry(3).error, 0u);
}

TEST(SpaceSavingHardeningTest, AddReturnsTheCountEstimateReadsBack) {
  // The D-Choices classifier takes Add's result in place of Estimate, so
  // the two must agree on every path through Add.
  SpaceSaving ss(2);
  EXPECT_EQ(ss.Add(1), 1u);  // insert into spare capacity
  EXPECT_EQ(ss.Estimate(1), 1u);
  EXPECT_EQ(ss.Add(2, 3), 3u);  // insert, weighted
  EXPECT_EQ(ss.Estimate(2), 3u);
  EXPECT_EQ(ss.Add(1, 4), 5u);  // increment
  EXPECT_EQ(ss.Estimate(1), 5u);
  EXPECT_EQ(ss.Add(2), 4u);  // increment that moves the key in the heap
  EXPECT_EQ(ss.Estimate(2), 4u);
  EXPECT_EQ(ss.Add(9), 5u);  // evict key 2 (min 4): 4 + 1
  EXPECT_FALSE(ss.Contains(2));
  EXPECT_EQ(ss.Estimate(9), 5u);
  EXPECT_EQ(ss.Entry(9).error, 4u);

  // And over a churning stream, every Add.
  SpaceSaving churn(16);
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const Key key = rng.UniformInt(64);
    const uint64_t returned = churn.Add(key);
    ASSERT_TRUE(churn.Contains(key));
    ASSERT_EQ(returned, churn.Estimate(key)) << "add " << i;
  }
}

}  // namespace
}  // namespace stats
}  // namespace pkgstream
