// Copyright 2026 The pkgstream Authors.
// Tests for ThreadedRuntime's shard scheduling. Suite names contain
// "Threaded" so the CI thread-sanitizer job (ctest -R 'Threaded|SpscRing')
// race-checks the shard drain loop, the shard-granularity parked-consumer
// gate, and the help-drain path under real concurrency.
//
// The contract under test (see threaded_runtime.h): the shard count
// changes the thread count and scheduling, never the results. Routed
// counts are byte-identical for every shard count and every technique
// (routing is producer-side), and with a single source the per-sink
// arrival order — hence the virtual-service latency histograms — is
// bit-identical too. The reference in each comparison is the default,
// one shard per operator instance.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/wordcount.h"
#include "engine/cpu_affinity.h"
#include "engine/logical_runtime.h"
#include "engine/open_loop.h"
#include "engine/threaded_runtime.h"
#include "partition/factory.h"
#include "workload/arrival_schedule.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace engine {
namespace {

std::shared_ptr<const workload::StaticDistribution> TestDist() {
  return std::make_shared<const workload::StaticDistribution>(
      workload::ZipfWeights(100, 1.2), "zipf(1.2,K=100)");
}

/// Merged-histogram fingerprint for bit-equality comparisons.
struct Fingerprint {
  uint64_t count, min, max, p50, p95, p99, p999, saturated;
  double mean;
  bool operator==(const Fingerprint& o) const {
    return count == o.count && min == o.min && max == o.max && p50 == o.p50 &&
           p95 == o.p95 && p99 == o.p99 && p999 == o.p999 &&
           saturated == o.saturated && mean == o.mean;
  }
};

Fingerprint FingerprintOf(const stats::LatencyHistogram& h) {
  return {h.count(), h.min(),  h.max(),       h.P50(),  h.P95(),
          h.P99(),   h.P999(), h.saturated(), h.mean()};
}

struct CellOutcome {
  Fingerprint latency{};
  std::vector<uint64_t> routed;  // Processed(sink): per-instance counts
};

/// Single source -> `workers` virtual-service LatencySinks: a fixed,
/// precomputed Poisson-arrival message sequence injected flat out. The
/// sink arrival order equals injection order per instance, so both the
/// routed counts and every histogram statistic must replay exactly for
/// every shard count.
CellOutcome RunLatencyCell(const partition::PartitionerConfig& config,
                           uint32_t workers, size_t shards, bool pin_shards) {
  const uint64_t kMessages = 6000;
  // 20k/s offered to `workers` sinks of capacity 1/75us: the hot workers
  // queue, so latencies are nontrivial and order-sensitive.
  workload::PoissonSchedule schedule(20000.0, 17);
  workload::IidKeyStream keys(TestDist(), 17);
  std::vector<Message> msgs(kMessages);
  std::vector<uint64_t> when(kMessages);
  std::vector<Key> key_buf(kMessages);
  schedule.NextBatchMicros(when.data(), kMessages);
  keys.NextBatch(key_buf.data(), kMessages);
  for (uint64_t i = 0; i < kMessages; ++i) {
    msgs[i].key = key_buf[i];
    msgs[i].ts = when[i];
  }

  LatencySink::Options sink_options;
  sink_options.service_us = 75;
  Topology topology;
  NodeId spout = topology.AddSpout("src", 1);
  NodeId sink = topology.AddOperator(
      "sink", LatencySink::MakeFactory(sink_options), workers);
  EXPECT_TRUE(topology.Connect(spout, sink, config).ok());

  ThreadedRuntimeOptions options;
  options.queue_capacity = 64;  // some backpressure at every shard count
  options.shards = shards;
  options.pin_shards = pin_shards;
  auto rt = ThreadedRuntime::Create(&topology, options);
  EXPECT_TRUE(rt.ok()) << rt.status();
  constexpr size_t kInjectChunk = 500;
  for (size_t at = 0; at < kMessages; at += kInjectChunk) {
    (*rt)->InjectBatch(spout, 0, msgs.data() + at, kInjectChunk);
  }
  (*rt)->Finish();

  CellOutcome out;
  out.latency = FingerprintOf(
      LatencySink::MergedHistogram(rt->get(), sink, workers, sink_options));
  out.routed = (*rt)->Processed(sink);
  EXPECT_EQ((*rt)->ApproxInboxDepth(sink), 0u);  // drained after Finish
  return out;
}

partition::PartitionerConfig ConfigFor(partition::Technique technique,
                                       uint32_t workers) {
  partition::PartitionerConfig config;
  config.technique = technique;
  config.seed = 42;
  if (technique == partition::Technique::kDChoices ||
      technique == partition::Technique::kWChoices) {
    config.sketch_capacity = 2 * workers;
    if (technique == partition::Technique::kDChoices) {
      config.heavy_threshold_factor = 0.5;
    }
  }
  return config;
}

using ShardedParam = std::tuple<partition::Technique, size_t>;

class ThreadedShardedTest : public testing::TestWithParam<ShardedParam> {};

TEST_P(ThreadedShardedTest, ShardedIsBitIdenticalToThreadPerInstance) {
  const auto [technique, shards] = GetParam();
  const uint32_t kWorkers = 16;
  const partition::PartitionerConfig config = ConfigFor(technique, kWorkers);
  const CellOutcome reference =
      RunLatencyCell(config, kWorkers, /*shards=*/0, /*pin_shards=*/false);
  const CellOutcome sharded =
      RunLatencyCell(config, kWorkers, shards, /*pin_shards=*/false);
  EXPECT_EQ(sharded.routed, reference.routed);
  EXPECT_TRUE(sharded.latency == reference.latency);
  EXPECT_EQ(reference.latency.count, 6000u);
}

INSTANTIATE_TEST_SUITE_P(
    TechniquesByShards, ThreadedShardedTest,
    testing::Combine(testing::Values(partition::Technique::kHashing,
                                     partition::Technique::kPkgLocal,
                                     partition::Technique::kDChoices,
                                     partition::Technique::kWChoices),
                     testing::Values<size_t>(1, 3, 8)),
    [](const testing::TestParamInfo<ShardedParam>& info) {
      std::string name = partition::TechniqueName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name + "_Shards" + std::to_string(std::get<1>(info.param));
    });

TEST(ThreadedShardedTest, PinnedShardsMatchToo) {
  // Pinning is a pure locality hint: results identical, pin failures
  // silently tolerated (CpuAffinity is best-effort by contract).
  const uint32_t kWorkers = 16;
  const partition::PartitionerConfig config =
      ConfigFor(partition::Technique::kPkgLocal, kWorkers);
  const CellOutcome reference = RunLatencyCell(config, kWorkers, 0, false);
  const CellOutcome pinned = RunLatencyCell(config, kWorkers, 4, true);
  EXPECT_EQ(pinned.routed, reference.routed);
  EXPECT_TRUE(pinned.latency == reference.latency);
  EXPECT_GE(CpuAffinity::AvailableCpus(), 1u);
}

TEST(ThreadedShardedTest, ManyMoreInstancesThanShards) {
  // The headline configuration: hundreds of sink instances multiplexed on
  // a handful of shard threads, still bit-identical to 200 one-instance
  // shards.
  const uint32_t kWorkers = 200;
  const partition::PartitionerConfig config =
      ConfigFor(partition::Technique::kDChoices, kWorkers);
  const CellOutcome reference = RunLatencyCell(config, kWorkers, 0, false);
  const CellOutcome sharded = RunLatencyCell(config, kWorkers, 4, false);
  EXPECT_EQ(sharded.routed, reference.routed);
  EXPECT_TRUE(sharded.latency == reference.latency);
}

// --- Multi-stage stress: wordcount through the sharded runtime ----------

constexpr uint32_t kSources = 4;
constexpr uint32_t kWorkers = 8;
constexpr int kPerSource = 8000;

/// The key sequence of one source, deterministic from its id.
std::vector<Key> SourceKeys(uint32_t source) {
  workload::IidKeyStream stream(TestDist(), /*seed=*/700 + source);
  std::vector<Key> keys;
  keys.reserve(kPerSource);
  for (int i = 0; i < kPerSource; ++i) keys.push_back(stream.Next());
  return keys;
}

std::map<Key, uint64_t> AggregatorTotals(Operator* agg) {
  auto* topk = static_cast<apps::TopKAggregator*>(agg);
  return std::map<Key, uint64_t>(topk->totals().begin(),
                                 topk->totals().end());
}

/// Reference totals through the deterministic LogicalRuntime.
std::map<Key, uint64_t> LogicalTotals(partition::Technique technique) {
  apps::WordCountTopology wc = apps::MakeWordCountTopology(
      technique, kSources, kWorkers, /*tick=*/0, /*topk=*/5, 42);
  auto rt = LogicalRuntime::Create(&wc.topology);
  EXPECT_TRUE(rt.ok());
  for (uint32_t s = 0; s < kSources; ++s) {
    for (Key k : SourceKeys(s)) {
      Message m;
      m.key = k;
      m.tag = apps::kTagWord;
      (*rt)->Inject(wc.spout, s, m);
    }
  }
  (*rt)->Finish();
  return AggregatorTotals((*rt)->GetOperator(wc.aggregator, 0));
}

using StressParam = std::tuple<partition::Technique, size_t>;

class ThreadedShardedStressTest : public testing::TestWithParam<StressParam> {
};

TEST_P(ThreadedShardedStressTest, WordCountTotalsMatchLogical) {
  // The TSan workhorse for shard scheduling: a multi-stage topology
  // (spout -> counter x8 -> aggregator) at queue_capacity=2, concurrent
  // InjectBatch from one thread per source. Tiny rings force constant
  // backpressure, so shard threads exercise the help-drain path (a shard
  // blocked pushing counter->aggregator drains its own aggregator/counters
  // of higher rank) on every run. Totals must match LogicalRuntime exactly.
  const auto [technique, shards] = GetParam();
  apps::WordCountTopology wc = apps::MakeWordCountTopology(
      technique, kSources, kWorkers, /*tick=*/0, /*topk=*/5, 42);
  ThreadedRuntimeOptions options;
  options.queue_capacity = 2;
  options.emit_batch = 3;  // never divides the stream; partial flushes
  options.shards = shards;
  auto rt = ThreadedRuntime::Create(&wc.topology, options);
  ASSERT_TRUE(rt.ok());

  std::vector<std::thread> injectors;
  injectors.reserve(kSources);
  for (uint32_t s = 0; s < kSources; ++s) {
    injectors.emplace_back([&, s] {
      const std::vector<Key> keys = SourceKeys(s);
      std::vector<Message> msgs(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        msgs[i].key = keys[i];
        msgs[i].tag = apps::kTagWord;
      }
      constexpr size_t kChunk = 256;
      for (size_t at = 0; at < msgs.size(); at += kChunk) {
        const size_t len = std::min(kChunk, msgs.size() - at);
        (*rt)->InjectBatch(wc.spout, s, msgs.data() + at, len);
      }
    });
  }
  for (auto& t : injectors) t.join();
  (*rt)->Finish();

  auto threaded = AggregatorTotals((*rt)->GetOperator(wc.aggregator, 0));
  EXPECT_EQ(threaded, LogicalTotals(technique));

  // Conservation at the counter stage: every injected message processed
  // by exactly one counter instance, none lost to the shard scheduler.
  uint64_t counter_total = 0;
  for (uint64_t l : (*rt)->Processed(wc.counter)) counter_total += l;
  EXPECT_EQ(counter_total,
            static_cast<uint64_t>(kSources) * kPerSource);
}

INSTANTIATE_TEST_SUITE_P(
    TechniquesByShards, ThreadedShardedStressTest,
    testing::Combine(testing::Values(partition::Technique::kHashing,
                                     partition::Technique::kShuffle,
                                     partition::Technique::kPkgLocal),
                     testing::Values<size_t>(1, 3, 8)),
    [](const testing::TestParamInfo<StressParam>& info) {
      std::string name = partition::TechniqueName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name + "_Shards" + std::to_string(std::get<1>(info.param));
    });

TEST(ThreadedShardedStressTest, SingleShardMultiStageCannotDeadlock) {
  // The adversarial help-drain case: ONE shard owns every instance of a
  // three-stage pipeline with 2-slot rings and an emit batch far larger
  // than the rings. Any scheduling mistake (e.g. help-draining at equal
  // rank, or re-entering the blocked producer) livelocks here; the
  // strictly-increasing-rank rule must complete the run with exact
  // totals.
  apps::WordCountTopology wc = apps::MakeWordCountTopology(
      partition::Technique::kPkgLocal, /*sources=*/2, kWorkers,
      /*tick=*/0, /*topk=*/5, 42);
  ThreadedRuntimeOptions options;
  options.queue_capacity = 2;
  options.emit_batch = 64;  // every flush needs many partial publications
  options.shards = 1;
  auto rt = ThreadedRuntime::Create(&wc.topology, options);
  ASSERT_TRUE(rt.ok());
  uint64_t injected = 0;
  for (uint32_t s = 0; s < 2; ++s) {
    for (Key k : SourceKeys(s)) {
      Message m;
      m.key = k;
      m.tag = apps::kTagWord;
      (*rt)->Inject(wc.spout, s, m);
      ++injected;
    }
  }
  (*rt)->Finish();
  uint64_t counter_total = 0;
  for (uint64_t l : (*rt)->Processed(wc.counter)) counter_total += l;
  EXPECT_EQ(counter_total, injected);
  uint64_t agg_total = 0;
  for (const auto& [key, count] :
       AggregatorTotals((*rt)->GetOperator(wc.aggregator, 0))) {
    agg_total += count;
  }
  EXPECT_EQ(agg_total, injected);
}

}  // namespace
}  // namespace engine
}  // namespace pkgstream
