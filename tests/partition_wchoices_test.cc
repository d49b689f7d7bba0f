// Copyright 2026 The pkgstream Authors.
// Tests for heavy-hitter-aware PKG (W-Choices / D-Choices): the extension
// that restores balance when the head probability exceeds the two-choice
// limit p1 ~ 2/n of Section IV.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "partition/factory.h"
#include "partition/heavy_hitter_pkg.h"
#include "partition/load_estimator.h"
#include "partition/pkg.h"
#include "stats/imbalance.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace partition {
namespace {

std::unique_ptr<HeavyHitterAwarePkg> MakeWChoices(
    uint32_t workers, HeavyHitterPkgOptions options = {}) {
  return std::make_unique<HeavyHitterAwarePkg>(
      1, workers, std::make_unique<GlobalLoadEstimator>(1, workers), options);
}

TEST(WChoicesTest, TailKeysKeepTwoChoiceSpread) {
  auto p = MakeWChoices(16);
  // Uniform keys: nothing is heavy (each key ~1/1000 << 1/16), so every key
  // must stay within its two hash candidates.
  Rng rng(3);
  std::map<Key, std::set<WorkerId>> spread;
  for (int i = 0; i < 100000; ++i) {
    Key k = rng.UniformInt(1000);
    spread[k].insert(p->Route(0, k));
  }
  EXPECT_EQ(p->heavy_routings(), 0u);
  for (const auto& [key, workers] : spread) {
    EXPECT_LE(workers.size(), 2u) << "tail key " << key << " spread too far";
  }
}

TEST(WChoicesTest, HeadKeyDetectedAndSpread) {
  auto p = MakeWChoices(16);
  Rng rng(5);
  // One key carries 50% of the stream: p1 >> 2/16.
  std::set<WorkerId> hot_spread;
  for (int i = 0; i < 50000; ++i) {
    Key k = rng.Bernoulli(0.5) ? 0 : 1 + rng.UniformInt(5000);
    WorkerId w = p->Route(0, k);
    if (k == 0) hot_spread.insert(w);
  }
  EXPECT_TRUE(p->IsHeavy(0, 0));
  EXPECT_GT(p->heavy_routings(), 10000u);
  // The hot key must have been spread over (nearly) all workers.
  EXPECT_GE(hot_spread.size(), 12u);
}

TEST(WChoicesTest, RestoresBalanceBeyondTwoChoiceLimit) {
  // zipf(1.4) over 10k keys: p1 ~ 0.32. With W = 16, 2/W = 0.125 << p1:
  // plain PKG provably cannot balance (imbalance grows ~(p1/2 - 1/n)m);
  // W-Choices should crush it.
  auto dist = std::make_shared<workload::StaticDistribution>(
      workload::ZipfWeights(10000, 1.4), "zipf");
  const uint32_t workers = 16;
  PkgOptions pkg_options;
  PartialKeyGrouping pkg(1, workers,
                         std::make_unique<GlobalLoadEstimator>(1, workers),
                         pkg_options);
  auto wchoices = MakeWChoices(workers);
  std::vector<uint64_t> pkg_loads(workers, 0);
  std::vector<uint64_t> w_loads(workers, 0);
  Rng rng(7);
  const int m = 200000;
  for (int i = 0; i < m; ++i) {
    Key k = dist->Sample(&rng);
    ++pkg_loads[pkg.Route(0, k)];
    ++w_loads[wchoices->Route(0, k)];
  }
  double pkg_imb = stats::ImbalanceOf(pkg_loads);
  double w_imb = stats::ImbalanceOf(w_loads);
  EXPECT_GT(pkg_imb, 0.05 * m / workers);  // PKG visibly imbalanced here
  EXPECT_LT(w_imb * 20, pkg_imb);          // W-Choices at least 20x better
}

TEST(WChoicesTest, DChoicesUsesBoundedCandidates) {
  HeavyHitterPkgOptions options;
  options.head_choices = 4;  // D-Choices with d_head = 4
  auto p = MakeWChoices(16, options);
  EXPECT_EQ(p->MaxWorkersPerKey(), 4u);
  Rng rng(9);
  std::set<WorkerId> hot_spread;
  for (int i = 0; i < 50000; ++i) {
    Key k = rng.Bernoulli(0.5) ? 0 : 1 + rng.UniformInt(5000);
    WorkerId w = p->Route(0, k);
    if (k == 0) hot_spread.insert(w);
  }
  EXPECT_LE(hot_spread.size(), 4u + 2u);  // 4 head candidates + the 2 tail
                                          // candidates used before warm-up
}

TEST(WChoicesTest, WarmUpSuppressesEarlyDetection) {
  HeavyHitterPkgOptions options;
  options.min_messages = 10000;
  auto p = MakeWChoices(8, options);
  for (int i = 0; i < 5000; ++i) p->Route(0, /*key=*/0);
  EXPECT_EQ(p->heavy_routings(), 0u);  // still warming up
  EXPECT_FALSE(p->IsHeavy(0, 0));
  for (int i = 0; i < 10000; ++i) p->Route(0, /*key=*/0);
  EXPECT_TRUE(p->IsHeavy(0, 0));
}

TEST(WChoicesTest, PerSourceDetectionIsIndependent) {
  HeavyHitterPkgOptions options;
  options.min_messages = 100;
  HeavyHitterAwarePkg p(2, 8, std::make_unique<LocalLoadEstimator>(2, 8),
                        options);
  // Source 0 sees a hot key; source 1 sees uniform keys.
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    p.Route(0, rng.Bernoulli(0.6) ? 7 : 100 + rng.UniformInt(1000));
    p.Route(1, 100 + rng.UniformInt(1000));
  }
  EXPECT_TRUE(p.IsHeavy(0, 7));
  EXPECT_FALSE(p.IsHeavy(1, 7));
}

TEST(WChoicesTest, AdaptiveHeadChoicesOnAFreshSourceIsTheBaseFloor) {
  // No message routed yet means no share to measure: the answer is the
  // base_choices floor, never a 0/0 share pushed through the d_k cast.
  HeavyHitterPkgOptions options;
  options.adaptive_head = true;
  options.base_choices = 3;
  HeavyHitterAwarePkg p(2, 64, std::make_unique<LocalLoadEstimator>(2, 64),
                        options);
  EXPECT_EQ(p.HeadChoicesFor(0, 7), 3u);
  EXPECT_EQ(p.HeadChoicesFor(1, 7), 3u);
  // Source 1 stays fresh while source 0 routes.
  for (int i = 0; i < 100; ++i) p.Route(0, 7);
  EXPECT_EQ(p.HeadChoicesFor(1, 7), 3u);
  EXPECT_EQ(p.HeadChoicesFor(0, 7), 64u);  // share 1: every worker
}

TEST(WChoicesTest, NameReflectsPolicy) {
  EXPECT_EQ(MakeWChoices(8)->Name(), "W-Choices-G");
  HeavyHitterPkgOptions options;
  options.head_choices = 4;
  EXPECT_EQ(MakeWChoices(8, options)->Name(), "D-Choices(4)-G");
}

TEST(WChoicesTest, FactoryIntegration) {
  PartitionerConfig config;
  config.technique = Technique::kWChoices;
  config.sources = 2;
  config.workers = 8;
  auto p = MakePartitioner(config);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->MaxWorkersPerKey(), 8u);
  EXPECT_EQ((*p)->Name(), "W-Choices-L");
  EXPECT_EQ(*ParseTechnique("W-Choices"), Technique::kWChoices);
  EXPECT_EQ(*ParseTechnique(TechniqueName(Technique::kWChoices)),
            Technique::kWChoices);

  config.sketch_capacity = 0;
  EXPECT_TRUE(MakePartitioner(config).status().IsInvalidArgument());
}

TEST(WChoicesTest, UniformStreamMatchesPkgBehaviour) {
  // With no heavy keys, W-Choices IS plain PKG (same hash family, same
  // estimator protocol) — decisions must match exactly.
  const uint32_t workers = 8;
  HeavyHitterPkgOptions options;
  auto wchoices = MakeWChoices(workers, options);
  PkgOptions pkg_options;
  pkg_options.num_choices = options.base_choices;
  pkg_options.hash_seed = options.hash_seed;
  PartialKeyGrouping pkg(1, workers,
                         std::make_unique<GlobalLoadEstimator>(1, workers),
                         pkg_options);
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    Key k = rng.UniformInt(2000);
    ASSERT_EQ(wchoices->Route(0, k), pkg.Route(0, k)) << "at message " << i;
  }
}

}  // namespace
}  // namespace partition
}  // namespace pkgstream
