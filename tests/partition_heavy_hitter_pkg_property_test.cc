// Copyright 2026 The pkgstream Authors.
// Property suite for HeavyHitterAwarePkg (D-Choices / W-Choices): the
// sequel's contract, stated as invariants over adversarial streams.
//
//  * Containment: a tail key's decision never leaves its base_choices tail
//    candidates; a heavy key's decision never leaves the first-d_k prefix
//    of the head hash family (or, >= workers, the full worker set). The
//    oracle exploits that Route classifies AFTER feeding the sketch, so
//    IsHeavy/HeadChoicesFor queried right after Route(key) returns reflect
//    exactly the state that decision used.
//  * Warm-up: nothing routes through the expanded-choice path before
//    min_messages per source, no matter how hot the key.
//  * Bit-equality: RouteBatch == n scalar Routes (decisions AND state),
//    and Clone() == original, across policies x workers {16, 256, 500,
//    1024} x seeds x ragged interleaved batches with a rotating source —
//    the same matrix partition_route_batch_test.cc pins for the other
//    techniques, here driven through direct construction so every
//    estimator frame (L, G, LP) and every head policy is covered,
//    including the fused SIMD tail path at wide worker counts. 500 is not
//    a multiple of 64, so the batch path's min-level bitset runs with a
//    partial last word.
//  * The same bit-equality over two adversarial streams aimed at the
//    batch path's min-level tracker (L and G frames): one drains the
//    minimum level on nearly every send, forcing refills, and one keeps
//    every D-Choices candidate above the minimum, forcing the fallback
//    scan over the buffered head hashes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "partition/heavy_hitter_pkg.h"
#include "partition/load_estimator.h"

namespace pkgstream {
namespace partition {
namespace {

constexpr uint32_t kSources = 3;
constexpr size_t kMessages = 4096;
constexpr size_t kStateProbeMessages = 512;

/// Deterministic head-heavy key sequence (squared-uniform skew), same
/// construction as partition_route_batch_test.cc.
Key TestKey(uint64_t seed, size_t i) {
  const uint64_t r = Fmix64(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
  const uint64_t u = r % 1024;
  return (u * u) / 1024;
}

/// The property stream: the squared-skew tail plus one red-hot key at ~25%
/// of messages, so every worker count in the matrix (threshold 2/W, W up
/// to 1024... down to 16) produces both genuine heavy and tail routings.
Key PropertyKey(uint64_t seed, size_t i) {
  const uint64_t r = Fmix64(seed ^ (0x51ed270b35a4c1e9ULL * (i + 1)));
  if ((r & 7) < 2) return 5;
  return TestKey(seed, i);
}

enum class HeadPolicy {
  kWChoices,         // head_choices = 0, fixed: full scan for heavy keys
  kFixedD,           // head_choices = 4, fixed d for every heavy key
  kAdaptive,         // the sequel's epsilon policy, uncapped
  kAdaptiveCapped,   // epsilon policy capped at 8 candidates
};

enum class EstimatorKind { kLocal, kGlobal, kProbing };

struct PropertyCase {
  HeadPolicy policy;
  EstimatorKind estimator;
  uint32_t workers;
  uint64_t seed;
};

HeavyHitterPkgOptions OptionsFor(const PropertyCase& c) {
  HeavyHitterPkgOptions options;
  options.base_choices = 2;
  options.sketch_capacity = 256;
  // share > 2/W: the Section IV wall, so the squared-skew stream always
  // produces genuine heavy keys at every worker count in the matrix.
  options.threshold_factor = 2.0;
  options.min_messages = 256;
  options.hash_seed = c.seed;
  switch (c.policy) {
    case HeadPolicy::kWChoices:
      options.head_choices = 0;
      break;
    case HeadPolicy::kFixedD:
      options.head_choices = 4;
      break;
    case HeadPolicy::kAdaptive:
      options.adaptive_head = true;
      options.head_choices = 0;
      options.epsilon = 0.05;
      break;
    case HeadPolicy::kAdaptiveCapped:
      options.adaptive_head = true;
      options.head_choices = 8;
      options.epsilon = 0.05;
      break;
  }
  return options;
}

LoadEstimatorPtr MakeEstimator(EstimatorKind kind, uint32_t workers) {
  switch (kind) {
    case EstimatorKind::kLocal:
      return std::make_unique<LocalLoadEstimator>(kSources, workers);
    case EstimatorKind::kGlobal:
      return std::make_unique<GlobalLoadEstimator>(kSources, workers);
    case EstimatorKind::kProbing:
      return std::make_unique<ProbingLoadEstimator>(kSources, workers, 300);
  }
  return nullptr;
}

/// `preload[w]` sends to worker w, made through the estimator's own
/// protocol for every source before the partitioner routes anything.
std::unique_ptr<HeavyHitterAwarePkg> MakePkg(
    const PropertyCase& c, const std::vector<uint64_t>& preload = {}) {
  LoadEstimatorPtr estimator = MakeEstimator(c.estimator, c.workers);
  for (SourceId s = 0; s < kSources; ++s) {
    for (WorkerId w = 0; w < preload.size(); ++w) {
      for (uint64_t i = 0; i < preload[w]; ++i) estimator->OnSend(s, w);
    }
  }
  return std::make_unique<HeavyHitterAwarePkg>(
      kSources, c.workers, std::move(estimator), OptionsFor(c));
}

/// The documented hash families: tail = (base_choices, W, seed); head =
/// (head cap, W, Fmix64(seed) | 1).
HashFamily TailFamily(const HeavyHitterPkgOptions& options,
                      uint32_t workers) {
  return HashFamily(options.base_choices, workers, options.hash_seed);
}

uint32_t HeadCap(const HeavyHitterPkgOptions& options, uint32_t workers) {
  return options.head_choices == 0
             ? (options.adaptive_head ? workers : 1)
             : std::min(options.head_choices, workers);
}

HashFamily HeadFamily(const HeavyHitterPkgOptions& options,
                      uint32_t workers) {
  return HashFamily(std::max(1u, HeadCap(options, workers)), workers,
                    Fmix64(options.hash_seed) | 1);
}

const char* PolicyName(HeadPolicy p) {
  switch (p) {
    case HeadPolicy::kWChoices:
      return "WChoices";
    case HeadPolicy::kFixedD:
      return "FixedD4";
    case HeadPolicy::kAdaptive:
      return "Adaptive";
    case HeadPolicy::kAdaptiveCapped:
      return "AdaptiveCap8";
  }
  return "?";
}

const char* EstimatorName(EstimatorKind e) {
  switch (e) {
    case EstimatorKind::kLocal:
      return "L";
    case EstimatorKind::kGlobal:
      return "G";
    case EstimatorKind::kProbing:
      return "LP";
  }
  return "?";
}

std::string CaseName(const testing::TestParamInfo<PropertyCase>& info) {
  return std::string(PolicyName(info.param.policy)) + "_" +
         EstimatorName(info.param.estimator) + "_w" +
         std::to_string(info.param.workers) + "_seed" +
         std::to_string(info.param.seed);
}

std::vector<PropertyCase> AllCases() {
  std::vector<PropertyCase> cases;
  for (HeadPolicy policy :
       {HeadPolicy::kWChoices, HeadPolicy::kFixedD, HeadPolicy::kAdaptive,
        HeadPolicy::kAdaptiveCapped}) {
    for (uint32_t workers : {16u, 256u, 500u, 1024u}) {
      for (uint64_t seed : {7ull, 42ull}) {
        cases.push_back(
            PropertyCase{policy, EstimatorKind::kLocal, workers, seed});
      }
    }
    // The non-local frames take the same fused loop through different
    // estimator protocols; one wide configuration each pins them.
    cases.push_back(
        PropertyCase{policy, EstimatorKind::kGlobal, 256u, 42ull});
    cases.push_back(
        PropertyCase{policy, EstimatorKind::kProbing, 256u, 42ull});
  }
  return cases;
}

class HeavyHitterPkgPropertyTest
    : public testing::TestWithParam<PropertyCase> {};

TEST_P(HeavyHitterPkgPropertyTest, DecisionsStayInTheirCandidateSets) {
  const PropertyCase& c = GetParam();
  auto pkg = MakePkg(c);
  const HeavyHitterPkgOptions options = OptionsFor(c);
  // Twin hash families, rebuilt from the documented construction.
  const HashFamily tail = TailFamily(options, c.workers);
  const uint32_t head_cap = HeadCap(options, c.workers);
  const HashFamily head = HeadFamily(options, c.workers);

  uint64_t heavy_seen = 0;
  uint64_t tail_seen = 0;
  for (size_t i = 0; i < kMessages; ++i) {
    const Key key = PropertyKey(c.seed, i);
    const SourceId source = static_cast<SourceId>(i % kSources);
    const WorkerId w = pkg->Route(source, key);
    ASSERT_LT(w, c.workers);
    // Route classifies after feeding the sketch; nothing has touched the
    // sketch since, so this is the classification the decision used.
    if (pkg->IsHeavy(source, key)) {
      ++heavy_seen;
      const uint32_t dk = pkg->HeadChoicesFor(source, key);
      EXPECT_GE(dk, options.base_choices);
      if (options.adaptive_head) {
        EXPECT_LE(dk, head_cap) << "adaptive d_k above the configured cap";
      }
      if (dk < c.workers) {
        bool in_prefix = false;
        for (uint32_t m = 0; m < dk && !in_prefix; ++m) {
          in_prefix = head.Bucket(m, key) == w;
        }
        EXPECT_TRUE(in_prefix)
            << "message " << i << ": heavy key " << key << " routed to " << w
            << " outside its d_k=" << dk << " head prefix";
      }
    } else {
      ++tail_seen;
      bool in_tail = false;
      for (uint32_t m = 0; m < tail.d() && !in_tail; ++m) {
        in_tail = tail.Bucket(m, key) == w;
      }
      EXPECT_TRUE(in_tail) << "message " << i << ": tail key " << key
                           << " routed to " << w
                           << " outside its base candidates";
    }
    if (HasFailure()) return;
  }
  // The stream is skewed past the threshold by construction: both classes
  // must actually occur or the test proves nothing.
  EXPECT_GT(heavy_seen, 0u) << "stream produced no heavy routings";
  EXPECT_GT(tail_seen, 0u) << "stream produced no tail routings";
  EXPECT_EQ(pkg->heavy_routings(), heavy_seen);
}

TEST_P(HeavyHitterPkgPropertyTest, WarmUpKeepsEverythingOnTheTailPath) {
  const PropertyCase& c = GetParam();
  auto pkg = MakePkg(c);
  const HeavyHitterPkgOptions options = OptionsFor(c);
  const HashFamily tail(options.base_choices, c.workers, options.hash_seed);
  // One source, a single red-hot key (share ~ 1): the most adversarial
  // warm-up stream there is. Until min_messages the expanded path must
  // stay cold and every decision must sit in the tail candidates.
  const SourceId source = 0;
  for (uint64_t i = 0; i + 1 < options.min_messages; ++i) {
    const Key key = (i % 4 == 3) ? TestKey(c.seed, i) : 99;
    const WorkerId w = pkg->Route(source, key);
    bool in_tail = false;
    for (uint32_t m = 0; m < tail.d() && !in_tail; ++m) {
      in_tail = tail.Bucket(m, key) == w;
    }
    ASSERT_TRUE(in_tail) << "warm-up message " << i
                         << " left the tail candidates";
  }
  EXPECT_EQ(pkg->heavy_routings(), 0u)
      << "expanded-choice path used during warm-up";
  // And immediately after warm-up the hot key flips heavy.
  pkg->Route(source, 99);
  EXPECT_TRUE(pkg->IsHeavy(source, 99));
  EXPECT_GT(pkg->heavy_routings(), 0u);
}

/// Routes `keys` through `batch` in ragged RouteBatch calls with a
/// rotating source and one by one through `scalar`, then checks that the
/// two agree in state too: their Clone()s and the originals keep routing
/// identically on a probe stream.
void ExpectBatchMatchesScalar(HeavyHitterAwarePkg* scalar,
                              HeavyHitterAwarePkg* batch,
                              const std::vector<Key>& keys,
                              uint64_t probe_seed) {
  const size_t chunk_sizes[] = {1, 7, 64, 29};  // ragged, non-power-of-2 mix
  std::vector<Key> key_buf;
  std::vector<WorkerId> batch_out;
  size_t pos = 0;
  size_t chunk = 0;
  SourceId source = 0;
  while (pos < keys.size()) {
    const size_t len = std::min(chunk_sizes[chunk % 4], keys.size() - pos);
    key_buf.assign(keys.begin() + pos, keys.begin() + pos + len);
    batch_out.assign(len, kInvalidWorker);
    batch->RouteBatch(source, key_buf.data(), batch_out.data(), len);
    for (size_t j = 0; j < len; ++j) {
      const WorkerId expected = scalar->Route(source, key_buf[j]);
      ASSERT_EQ(batch_out[j], expected)
          << "diverged at message " << pos + j << " (chunk " << chunk
          << ", source " << source << ")";
    }
    pos += len;
    ++chunk;
    source = static_cast<SourceId>(chunk % kSources);
  }
  // Sketch-visible state must agree too, not just the decisions.
  EXPECT_EQ(batch->heavy_routings(), scalar->heavy_routings());

  // Clone() lockstep: clones continue scalar and must walk identically —
  // including identical heavy classifications.
  auto scalar_clone = scalar->Clone();
  auto batch_clone = batch->Clone();
  auto* batch_clone_hh = static_cast<HeavyHitterAwarePkg*>(batch_clone.get());
  auto* scalar_clone_hh =
      static_cast<HeavyHitterAwarePkg*>(scalar_clone.get());
  for (size_t i = 0; i < kStateProbeMessages; ++i) {
    const Key key = PropertyKey(probe_seed ^ 0xabcdef, i);
    const SourceId s = static_cast<SourceId>(i % kSources);
    ASSERT_EQ(batch_clone->Route(s, key), scalar_clone->Route(s, key))
        << "clone state diverged at probe message " << i;
    ASSERT_EQ(batch_clone_hh->IsHeavy(s, key),
              scalar_clone_hh->IsHeavy(s, key))
        << "clone sketch diverged at probe message " << i;
  }
  // ... and on the originals.
  for (size_t i = 0; i < kStateProbeMessages; ++i) {
    const Key key = PropertyKey(probe_seed ^ 0x123457, i);
    const SourceId s = static_cast<SourceId>(i % kSources);
    ASSERT_EQ(batch->Route(s, key), scalar->Route(s, key))
        << "post-batch state diverged at probe message " << i;
  }
  EXPECT_EQ(batch->heavy_routings(), scalar->heavy_routings());
}

TEST_P(HeavyHitterPkgPropertyTest, RouteBatchAndCloneAreBitIdentical) {
  const PropertyCase& c = GetParam();
  auto scalar = MakePkg(c);
  auto batch = MakePkg(c);
  std::vector<Key> keys(kMessages);
  for (size_t i = 0; i < kMessages; ++i) keys[i] = PropertyKey(c.seed, i);
  ExpectBatchMatchesScalar(scalar.get(), batch.get(), keys, c.seed);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, HeavyHitterPkgPropertyTest,
                         testing::ValuesIn(AllCases()), CaseName);

// Adversarial streams for the min-level tracker the batch path keeps over
// the L and G frames' estimate rows.
enum class Stream {
  // Every worker but the last (in the partial bitset word at W=500) is
  // preloaded far above it, so the minimum level is that one worker and
  // each send to it empties the level. Two thirds of the stream is one
  // red-hot key whose full-scan rows do exactly that; the rest are
  // once-only keys with the last worker among their tail candidates, so a
  // tail row lifts it again before the next refill, which then finds
  // nothing at the expected level and falls back to a min pass.
  kDrain,
  // Every head candidate the hot keys could ever get (their whole head
  // hash prefix) is preloaded far above the rest, so no D-Choices prefix
  // holds a minimum-level worker and heavy prefix rows take the fallback
  // scan over the buffered hashes. The keys sit at 20% of the stream
  // (heavy at every W) and at 2% (heavy at W >= 256, with d_k well below
  // W under the adaptive policy).
  kMiss,
};

struct AdversarialCase {
  PropertyCase base;
  Stream stream;
};

std::string AdversarialName(
    const testing::TestParamInfo<AdversarialCase>& info) {
  const PropertyCase& c = info.param.base;
  return std::string(info.param.stream == Stream::kDrain ? "Drain" : "Miss") +
         "_" + PolicyName(c.policy) + "_" + EstimatorName(c.estimator) +
         "_w" + std::to_string(c.workers);
}

std::vector<AdversarialCase> AdversarialCases() {
  std::vector<AdversarialCase> cases;
  for (Stream stream : {Stream::kDrain, Stream::kMiss}) {
    for (HeadPolicy policy :
         {HeadPolicy::kWChoices, HeadPolicy::kFixedD, HeadPolicy::kAdaptive,
          HeadPolicy::kAdaptiveCapped}) {
      for (EstimatorKind estimator :
           {EstimatorKind::kLocal, EstimatorKind::kGlobal}) {
        for (uint32_t workers : {16u, 256u, 500u, 1024u}) {
          cases.push_back(AdversarialCase{
              PropertyCase{policy, estimator, workers, 42ull}, stream});
        }
      }
    }
  }
  return cases;
}

class HeavyHitterPkgAdversarialTest
    : public testing::TestWithParam<AdversarialCase> {};

TEST_P(HeavyHitterPkgAdversarialTest, RouteBatchAndCloneAreBitIdentical) {
  const PropertyCase& c = GetParam().base;
  const HeavyHitterPkgOptions options = OptionsFor(c);
  constexpr Key kHot = 5;
  constexpr Key kWarm = 6;
  std::vector<uint64_t> preload(c.workers, 0);
  std::vector<Key> keys(kMessages);
  if (GetParam().stream == Stream::kDrain) {
    const WorkerId last = c.workers - 1;
    for (WorkerId w = 0; w < last; ++w) preload[w] = kMessages;
    const HashFamily tail = TailFamily(options, c.workers);
    Key next = 1000000;
    for (size_t i = 0; i < kMessages; ++i) {
      if (i % 3 != 2) {
        keys[i] = kHot;
        continue;
      }
      bool touches_last = false;
      while (!touches_last) {
        ++next;
        for (uint32_t m = 0; m < tail.d(); ++m) {
          touches_last = touches_last || tail.Bucket(m, next) == last;
        }
      }
      keys[i] = next;
    }
  } else {
    const HashFamily head = HeadFamily(options, c.workers);
    for (uint32_t m = 0; m < head.d(); ++m) {
      preload[head.Bucket(m, kHot)] = kMessages;
      preload[head.Bucket(m, kWarm)] = kMessages;
    }
    for (size_t i = 0; i < kMessages; ++i) {
      keys[i] = i % 5 == 0 ? kHot : i % 50 == 1 ? kWarm : 1000000 + i;
    }
  }
  auto scalar = MakePkg(c, preload);
  auto batch = MakePkg(c, preload);
  ExpectBatchMatchesScalar(scalar.get(), batch.get(), keys, c.seed);
  EXPECT_GT(scalar->heavy_routings(), 0u) << "stream produced no heavy rows";
}

INSTANTIATE_TEST_SUITE_P(MinLevel, HeavyHitterPkgAdversarialTest,
                         testing::ValuesIn(AdversarialCases()),
                         AdversarialName);

}  // namespace
}  // namespace partition
}  // namespace pkgstream
