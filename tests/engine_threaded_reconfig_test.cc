// Copyright 2026 The pkgstream Authors.
// Tests for live worker reconfiguration under fault injection: FaultPlans
// replayed through the OpenLoopDriver, the ReconfigureWorkers epoch
// broadcast, conservation across crash+rejoin, Abort() unblocking wedged
// injectors, and shard-count independence with faults in the loop. Suite names contain "Threaded" so the CI thread-sanitizer job
// (ctest -R 'Threaded|SpscRing') races the whole reconfiguration protocol:
// the injector thread publishing epochs while executor threads apply them
// at batch boundaries is exactly the cross-thread edge TSan must see.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "engine/fault_injection.h"
#include "engine/open_loop.h"
#include "engine/threaded_runtime.h"
#include "partition/factory.h"
#include "partition/rebalancing.h"
#include "workload/arrival_schedule.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace engine {
namespace {

std::shared_ptr<const workload::StaticDistribution> TestDist() {
  return std::make_shared<const workload::StaticDistribution>(
      workload::ZipfWeights(100, 1.0), "zipf(1.0,K=100)");
}

/// The canonical outage plan: crash `crashed` at t1, rejoin them at t2.
FaultPlan OutagePlan(uint32_t workers, const std::vector<uint32_t>& crashed,
                     uint64_t t1, uint64_t t2) {
  std::vector<FaultEvent> events;
  for (uint32_t w : crashed) {
    events.push_back({FaultKind::kCrash, w, t1, 0, 1.0});
  }
  for (uint32_t w : crashed) {
    events.push_back({FaultKind::kRejoin, w, t2, 0, 1.0});
  }
  auto plan = FaultPlan::Create(workers, std::move(events));
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

struct FaultCell {
  stats::LatencyHistogram merged{1ULL << 30, 32};
  std::vector<uint64_t> processed;
  std::vector<uint64_t> phase_counts;  // per instance x phase, flattened
  OpenLoopSourceReport report;
  const partition::Partitioner* partitioner = nullptr;  // replica 0
  std::unique_ptr<ThreadedRuntime> rt;                  // keeps it valid
};

/// One spout -> `workers` virtual-service sinks, the plan's crash/rejoin
/// events applied by the injector and its stall/slowdown windows folded by
/// the sinks; phases split at the plan's outage boundaries {t1, t2}.
FaultCell RunFaultCell(const partition::PartitionerConfig& config,
                       uint32_t workers, size_t shards, const FaultPlan& plan,
                       uint64_t t1, uint64_t t2, uint64_t messages,
                       uint64_t seed) {
  Topology topology;
  NodeId spout = topology.AddSpout("src", 1);
  LatencySink::Options sink_options;
  sink_options.model = LatencySink::ServiceModel::kVirtualService;
  sink_options.service_us = 50;
  sink_options.fault_plan = &plan;
  sink_options.phase_boundaries_us = {t1, t2};
  NodeId sink = topology.AddOperator(
      "sink", LatencySink::MakeFactory(sink_options), workers);
  EXPECT_TRUE(topology.Connect(spout, sink, config).ok());
  ThreadedRuntimeOptions rt_options;
  rt_options.queue_capacity = 128;
  rt_options.shards = shards;
  auto rt = ThreadedRuntime::Create(&topology, rt_options);
  EXPECT_TRUE(rt.ok()) << rt.status();

  OpenLoopClock clock;
  OpenLoopOptions driver_options;
  driver_options.pace = false;
  OpenLoopDriver driver(rt->get(), spout, &clock, driver_options);
  workload::PoissonSchedule schedule(100000.0, seed);
  workload::IidKeyStream keys(TestDist(), seed * 31);
  OpenLoopDriver::Source source;
  source.source = 0;
  source.schedule = &schedule;
  source.keys = &keys;
  source.messages = messages;
  source.faults = &plan;
  source.fault_target = sink;
  auto reports = driver.Run({source});
  (*rt)->Finish();

  FaultCell cell;
  cell.report = reports[0];
  cell.merged =
      LatencySink::MergedHistogram(rt->get(), sink, workers, sink_options);
  cell.processed = (*rt)->Processed(sink);
  for (uint32_t i = 0; i < workers; ++i) {
    auto* op = dynamic_cast<LatencySink*>((*rt)->GetOperator(sink, i));
    EXPECT_NE(op, nullptr);
    for (size_t p = 0; p < op->phases(); ++p) {
      cell.phase_counts.push_back(op->phase_histogram(p).count());
    }
  }
  cell.partitioner = (*rt)->GetPartitioner(spout, sink, 0);
  cell.rt = std::move(*rt);
  return cell;
}

partition::PartitionerConfig TechniqueConfig(partition::Technique technique,
                                             uint32_t workers) {
  partition::PartitionerConfig config;
  config.technique = technique;
  config.seed = 42;
  if (technique == partition::Technique::kDChoices) {
    config.sketch_capacity = 2 * workers;
    config.heavy_threshold_factor = 0.5;
    config.heavy_min_messages = 100;
  }
  if (technique == partition::Technique::kRebalancing) {
    config.rebalance_period = 1000;
    // Effectively disable load-triggered migration so the migration stats
    // below count only the crash-driven failovers and rejoin restores.
    config.rebalance_threshold = 1e9;
  }
  return config;
}

// ---------------------------------------------------------------------------
// Conservation + outage isolation, across techniques and shard counts.
// ---------------------------------------------------------------------------

struct ConservationCase {
  partition::Technique technique;
  const char* name;
  size_t shards;
};

class ThreadedReconfigConservationTest
    : public testing::TestWithParam<ConservationCase> {};

TEST_P(ThreadedReconfigConservationTest, CrashRejoinLosesNothing) {
  const ConservationCase& c = GetParam();
  const uint32_t kWorkers = 8;
  const uint64_t kMessages = 6000;  // ~60ms of schedule at 100k/s
  const uint64_t kT1 = 20000, kT2 = 40000;
  const std::vector<uint32_t> crashed = {1, 2};
  FaultPlan plan = OutagePlan(kWorkers, crashed, kT1, kT2);
  FaultCell cell =
      RunFaultCell(TechniqueConfig(c.technique, kWorkers), kWorkers, c.shards,
                   plan, kT1, kT2, kMessages, /*seed=*/7);

  // Conservation: every scheduled message was injected, routed to a live
  // worker, processed and recorded — across the crash AND the rejoin.
  EXPECT_EQ(cell.report.injected, kMessages);
  EXPECT_FALSE(cell.report.aborted);
  EXPECT_EQ(cell.report.reconfigs_applied, plan.routing_events().size());
  uint64_t processed = 0;
  for (uint64_t n : cell.processed) processed += n;
  EXPECT_EQ(processed, kMessages) << c.name;
  EXPECT_EQ(cell.merged.count(), kMessages) << c.name;

  // Outage isolation: no message *scheduled during the outage* reached a
  // crashed worker (phase 1 = [t1, t2)); phase counts add back up.
  uint64_t phase_total = 0;
  for (uint64_t n : cell.phase_counts) phase_total += n;
  EXPECT_EQ(phase_total, kMessages);
  for (uint32_t w : crashed) {
    EXPECT_EQ(cell.phase_counts[w * 3 + 1], 0u)
        << c.name << ": crashed worker " << w
        << " was routed messages during its outage";
  }
  // The rejoined workers carry load again after t2 (phase 2).
  for (uint32_t w : crashed) {
    EXPECT_GT(cell.phase_counts[w * 3 + 2], 0u)
        << c.name << ": worker " << w << " got nothing after rejoining";
  }
}

INSTANTIATE_TEST_SUITE_P(
    TechniquesAndModes, ThreadedReconfigConservationTest,
    testing::Values(
        ConservationCase{partition::Technique::kPkgLocal, "pkg_local", 0},
        ConservationCase{partition::Technique::kPkgLocal, "pkg_local_sharded",
                         3},
        ConservationCase{partition::Technique::kDChoices, "d_choices", 0},
        ConservationCase{partition::Technique::kShuffle, "shuffle", 0},
        ConservationCase{partition::Technique::kRebalancing, "kg_migration",
                         3}),
    [](const testing::TestParamInfo<ConservationCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Shard-count independence with faults in the loop.
// ---------------------------------------------------------------------------

TEST(ThreadedReconfigTest, ShardedModeMatchesThreadPerInstance) {
  // Shard-count independence must survive reconfiguration: with a single
  // source, routing (including the degraded paths) happens producer-side
  // at deterministic stream positions, so per-sink arrival orders — and
  // every histogram bucket, per phase — are identical for one shard per
  // instance and for three shards.
  const uint32_t kWorkers = 8;
  const uint64_t kT1 = 20000, kT2 = 40000;
  FaultPlan plan = OutagePlan(kWorkers, {0, 5}, kT1, kT2);
  auto run = [&](size_t shards) {
    return RunFaultCell(
        TechniqueConfig(partition::Technique::kPkgLocal, kWorkers), kWorkers,
        shards, plan, kT1, kT2, /*messages=*/6000, /*seed=*/11);
  };
  FaultCell a = run(0);
  FaultCell b = run(3);
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_EQ(a.phase_counts, b.phase_counts);
  EXPECT_EQ(a.merged.count(), b.merged.count());
  EXPECT_EQ(a.merged.P50(), b.merged.P50());
  EXPECT_EQ(a.merged.P99(), b.merged.P99());
  EXPECT_EQ(a.merged.P999(), b.merged.P999());
  EXPECT_EQ(a.merged.max(), b.merged.max());
  EXPECT_DOUBLE_EQ(a.merged.mean(), b.merged.mean());
}

TEST(ThreadedReconfigTest, RepeatedRunsAreBitDeterministic) {
  const uint32_t kWorkers = 8;
  const uint64_t kT1 = 20000, kT2 = 40000;
  FaultPlan plan = OutagePlan(kWorkers, {3}, kT1, kT2);
  auto run = [&] {
    return RunFaultCell(
        TechniqueConfig(partition::Technique::kDChoices, kWorkers), kWorkers,
        /*shards=*/2, plan, kT1, kT2, /*messages=*/6000, /*seed=*/13);
  };
  FaultCell a = run();
  FaultCell b = run();
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_EQ(a.phase_counts, b.phase_counts);
  EXPECT_EQ(a.merged.P50(), b.merged.P50());
  EXPECT_EQ(a.merged.P99(), b.merged.P99());
  EXPECT_DOUBLE_EQ(a.merged.mean(), b.merged.mean());
}

// ---------------------------------------------------------------------------
// KG-with-migration: crash-driven failover + rejoin restore accounting.
// ---------------------------------------------------------------------------

TEST(ThreadedReconfigTest, RebalancingFailoverHandoffIsAccounted) {
  const uint32_t kWorkers = 8;
  const uint64_t kT1 = 20000, kT2 = 40000;
  FaultPlan plan = OutagePlan(kWorkers, {0, 1, 2}, kT1, kT2);
  FaultCell cell = RunFaultCell(
      TechniqueConfig(partition::Technique::kRebalancing, kWorkers), kWorkers,
      /*shards=*/0, plan, kT1, kT2, /*messages=*/6000, /*seed=*/17);
  auto* kg = dynamic_cast<const partition::RebalancingKeyGrouping*>(
      cell.partitioner);
  ASSERT_NE(kg, nullptr);
  const partition::RebalancingStats& stats = kg->stats();
  // Keys living on the three crashed workers failed over during the
  // outage, and the rejoin migrated each one straight back: with the
  // load-triggered rebalancer disabled, every move is a failover or its
  // inverse, so the handoff is exactly accounted.
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.keys_moved, 2 * stats.failovers);
  EXPECT_GT(stats.state_moved, 0u);
}

// ---------------------------------------------------------------------------
// ReconfigureWorkers validation.
// ---------------------------------------------------------------------------

TEST(ThreadedReconfigTest, ReconfigureValidatesHostileInput) {
  Topology topology;
  NodeId spout = topology.AddSpout("src", 1);
  LatencySink::Options sink_options;
  NodeId pkg_sink = topology.AddOperator(
      "pkg_sink", LatencySink::MakeFactory(sink_options), 4);
  NodeId kg_sink = topology.AddOperator(
      "kg_sink", LatencySink::MakeFactory(sink_options), 4);
  ASSERT_TRUE(
      topology.Connect(spout, pkg_sink, partition::Technique::kPkgLocal).ok());
  ASSERT_TRUE(
      topology.Connect(spout, kg_sink, partition::Technique::kHashing).ok());
  auto rt = ThreadedRuntime::Create(&topology);
  ASSERT_TRUE(rt.ok());

  const std::vector<bool> three_alive = {true, false, true, true};
  // Healthy call on a reconfigurable edge.
  EXPECT_TRUE((*rt)->ReconfigureWorkers(pkg_sink, three_alive).ok());
  // Unknown node id.
  EXPECT_TRUE((*rt)->ReconfigureWorkers(NodeId{99}, three_alive)
                  .IsInvalidArgument());
  // Size mismatch.
  EXPECT_TRUE((*rt)->ReconfigureWorkers(pkg_sink, {true, true})
                  .IsInvalidArgument());
  // Empty alive set.
  EXPECT_TRUE(
      (*rt)->ReconfigureWorkers(pkg_sink, {false, false, false, false})
          .IsInvalidArgument());
  // A spout has no inbound edges to reconfigure.
  EXPECT_TRUE(
      (*rt)->ReconfigureWorkers(spout, {true}).IsInvalidArgument());
  // Plain hashing cannot drop a worker: Unimplemented, and nothing applied.
  EXPECT_TRUE((*rt)->ReconfigureWorkers(kg_sink, three_alive)
                  .IsUnimplemented());

  (*rt)->Finish();
  // After Finish the executor threads that would apply epochs are gone.
  EXPECT_TRUE((*rt)->ReconfigureWorkers(pkg_sink, three_alive)
                  .IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Abort() unblocks injectors wedged on full rings.
// ---------------------------------------------------------------------------

/// Holds every message until released: with a tiny ring this wedges the
/// whole pipeline behind one in-flight message.
class GatedSink final : public Operator {
 public:
  explicit GatedSink(const std::atomic<bool>* release) : release_(release) {}
  void Process(const Message&, Emitter*) override {
    while (!release_->load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

 private:
  const std::atomic<bool>* release_;
};

/// Parameter: ThreadedRuntimeOptions::shards. 0 gives each of the two
/// sink instances its own shard; 1 packs the wedged instance beside the
/// live one on a single shard.
class ThreadedReconfigAbortTest : public testing::TestWithParam<size_t> {};

TEST_P(ThreadedReconfigAbortTest, AbortUnblocksInjectorOnFullRing) {
  // Regression test: an injector blocked in PushBlocking on a full ring
  // must observe Abort(), drop its items and exit cleanly with
  // report.aborted set — and Finish() must still join. Sink instance 0 is
  // gated; instance 1 never blocks.
  std::atomic<bool> release{false};
  const std::atomic<bool> open{true};
  Topology topology;
  NodeId spout = topology.AddSpout("src", 1);
  NodeId sink = topology.AddOperator(
      "sink",
      [&](uint32_t i) {
        return std::make_unique<GatedSink>(i == 0 ? &release : &open);
      },
      2);
  ASSERT_TRUE(topology.Connect(spout, sink, partition::Technique::kShuffle)
                  .ok());
  ThreadedRuntimeOptions options;
  options.queue_capacity = 4;
  options.emit_batch = 1;
  options.shards = GetParam();
  auto rt = ThreadedRuntime::Create(&topology, options);
  ASSERT_TRUE(rt.ok());

  OpenLoopClock clock;
  OpenLoopOptions driver_options;
  driver_options.pace = false;
  OpenLoopDriver driver(rt->get(), spout, &clock, driver_options);
  workload::ConstantRateSchedule schedule(1e9);
  workload::IidKeyStream keys(TestDist(), 3);
  OpenLoopDriver::Source source;
  source.source = 0;
  source.schedule = &schedule;
  source.keys = &keys;
  source.messages = 100000;

  std::vector<OpenLoopSourceReport> reports;
  std::thread injector(
      [&] { reports = driver.Run({source}); });
  // Let the injector wedge against the gated sink, then abort the run.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (*rt)->Abort();
  injector.join();  // must return promptly — this is the regression
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].aborted);
  EXPECT_LT(reports[0].injected, source.messages);

  release.store(true, std::memory_order_release);
  (*rt)->Finish();  // joins cleanly after an abort
  EXPECT_TRUE((*rt)->aborted());
}

INSTANTIATE_TEST_SUITE_P(Shards, ThreadedReconfigAbortTest,
                         testing::Values<size_t>(0, 1));

// ---------------------------------------------------------------------------
// Randomized fault plans under real concurrency (the TSan workhorse).
// ---------------------------------------------------------------------------

TEST(ThreadedReconfigStressTest, RandomPlansConserveEveryMessage) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto plan = MakeRandomFaultPlan(/*workers=*/16, /*rounds=*/2,
                                    /*max_kill=*/8, /*horizon_us=*/40000,
                                    seed);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const uint64_t kMessages = 4000;  // ~40ms at 100k/s
    FaultCell cell = RunFaultCell(
        TechniqueConfig(partition::Technique::kPkgLocal, 16), 16,
        /*shards=*/2, *plan, /*t1=*/10000, /*t2=*/30000, kMessages, seed);
    EXPECT_FALSE(cell.report.aborted);
    EXPECT_EQ(cell.report.reconfigs_applied, plan->routing_events().size());
    uint64_t processed = 0;
    for (uint64_t n : cell.processed) processed += n;
    EXPECT_EQ(processed, kMessages) << "seed " << seed;
    EXPECT_EQ(cell.merged.count(), kMessages) << "seed " << seed;
  }
}

}  // namespace
}  // namespace engine
}  // namespace pkgstream
