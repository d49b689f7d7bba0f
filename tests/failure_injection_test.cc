// Copyright 2026 The pkgstream Authors.
// Failure injection and hostile-input tests: corrupt files, truncated
// traces, invalid configurations, death-on-contract-violation. The library
// must fail loudly and precisely, never silently.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "apps/heavy_hitters.h"
#include "common/logging.h"
#include "common/table.h"
#include "engine/event_sim.h"
#include "engine/fault_injection.h"
#include "engine/logical_runtime.h"
#include "engine/threaded_runtime.h"
#include "partition/factory.h"
#include "workload/dataset.h"
#include "workload/trace.h"

namespace pkgstream {
namespace {

// ------------------------- Corrupt trace files ----------------------------

std::string WriteBytes(const std::string& name, const std::string& bytes) {
  std::string path = testing::TempDir() + "/" + name;
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(FailureInjectionTest, EmptyTraceFileRejected) {
  std::string path = WriteBytes("pkgstream_empty.trace", "");
  EXPECT_TRUE(workload::TraceKeyStream::Open(path).status().IsIOError());
  std::remove(path.c_str());
}

TEST(FailureInjectionTest, TraceWithWrongMagicRejected) {
  std::string path =
      WriteBytes("pkgstream_magic.trace", "XXXXXXXX\x05\x00\x00\x00");
  EXPECT_TRUE(workload::TraceKeyStream::Open(path).status().IsIOError());
  std::remove(path.c_str());
}

TEST(FailureInjectionTest, TraceWithTruncatedHeaderRejected) {
  std::string path = WriteBytes("pkgstream_short.trace", "PKGTRC01\x01");
  EXPECT_TRUE(workload::TraceKeyStream::Open(path).status().IsIOError());
  std::remove(path.c_str());
}

TEST(FailureInjectionTest, TraceTruncatedBodyDiesOnRead) {
  // Header promises 100 keys but the body holds 2: reading past the end
  // must abort with a clear message, never return garbage.
  std::string body(16, '\x01');  // two 8-byte keys
  std::string header = "PKGTRC01";
  uint64_t count = 100;
  header.append(reinterpret_cast<const char*>(&count), sizeof(count));
  std::string path = WriteBytes("pkgstream_trunc.trace", header + body);
  auto reader = workload::TraceKeyStream::Open(path);
  ASSERT_TRUE(reader.ok());
  (*reader)->Next();
  (*reader)->Next();
  EXPECT_DEATH((*reader)->Next(), "trace read failed");
  std::remove(path.c_str());
}

// ------------------------- Contract violations ----------------------------

TEST(FailureInjectionDeathTest, TableRowArityChecked) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "cells");
}

TEST(FailureInjectionDeathTest, InjectIntoNonSpoutDies) {
  engine::Topology topo;
  engine::NodeId spout = topo.AddSpout("s", 1);
  engine::NodeId op = topo.AddOperator(
      "op", [](uint32_t) { return nullptr; }, 1);
  (void)spout;
  (void)op;
  // Null factory would CHECK at Create; build a real one instead.
  engine::Topology topo2;
  engine::NodeId s2 = topo2.AddSpout("s", 1);
  class Nop final : public engine::Operator {
   public:
    void Process(const engine::Message&, engine::Emitter*) override {}
  };
  engine::NodeId o2 = topo2.AddOperator(
      "op", [](uint32_t) { return std::make_unique<Nop>(); }, 1);
  ASSERT_TRUE(topo2.Connect(s2, o2, partition::Technique::kShuffle).ok());
  auto rt = engine::LogicalRuntime::Create(&topo2);
  ASSERT_TRUE(rt.ok());
  engine::Message m;
  EXPECT_DEATH((*rt)->Inject(o2, 0, m), "spout");
}

TEST(FailureInjectionDeathTest, InjectAfterFinishDies) {
  engine::Topology topo;
  engine::NodeId s = topo.AddSpout("s", 1);
  class Nop final : public engine::Operator {
   public:
    void Process(const engine::Message&, engine::Emitter*) override {}
  };
  engine::NodeId o = topo.AddOperator(
      "op", [](uint32_t) { return std::make_unique<Nop>(); }, 1);
  ASSERT_TRUE(topo.Connect(s, o, partition::Technique::kShuffle).ok());
  auto rt = engine::LogicalRuntime::Create(&topo);
  ASSERT_TRUE(rt.ok());
  (*rt)->Finish();
  engine::Message m;
  EXPECT_DEATH((*rt)->Inject(s, 0, m), "Finish");
}

// ------------------------- Configuration errors ---------------------------

TEST(FailureInjectionTest, EveryBadConfigIsRejectedNotCrashed) {
  using partition::MakePartitioner;
  using partition::PartitionerConfig;
  using partition::Technique;
  struct Case {
    const char* what;
    PartitionerConfig config;
  };
  std::vector<Case> cases;
  {
    PartitionerConfig c;
    c.sources = 0;
    cases.push_back({"zero sources", c});
  }
  {
    PartitionerConfig c;
    c.workers = 0;
    cases.push_back({"zero workers", c});
  }
  {
    PartitionerConfig c;
    c.technique = Technique::kPkgLocal;
    c.num_choices = 0;
    cases.push_back({"zero choices", c});
  }
  {
    PartitionerConfig c;
    c.technique = Technique::kOffGreedy;
    cases.push_back({"off-greedy without frequencies", c});
  }
  {
    PartitionerConfig c;
    c.technique = Technique::kConsistent;
    c.ring_replicas = 100;
    c.workers = 4;
    cases.push_back({"replicas > workers", c});
  }
  for (const auto& test_case : cases) {
    auto result = MakePartitioner(test_case.config);
    EXPECT_FALSE(result.ok()) << test_case.what;
  }
}

// --------------------- Threaded runtime hostile options -------------------

/// Minimal valid spout -> operator topology for runtime-option tests.
engine::Topology MakeNopTopology() {
  engine::Topology topo;
  engine::NodeId s = topo.AddSpout("s", 1);
  class Nop final : public engine::Operator {
   public:
    void Process(const engine::Message&, engine::Emitter*) override {}
  };
  engine::NodeId o = topo.AddOperator(
      "op", [](uint32_t) { return std::make_unique<Nop>(); }, 4);
  EXPECT_TRUE(topo.Connect(s, o, partition::Technique::kShuffle).ok());
  return topo;
}

TEST(FailureInjectionTest, ThreadedRuntimeRejectsHostileOptions) {
  engine::Topology topo = MakeNopTopology();
  {
    engine::ThreadedRuntimeOptions options;
    options.queue_capacity = 0;
    auto rt = engine::ThreadedRuntime::Create(&topo, options);
    EXPECT_TRUE(rt.status().IsInvalidArgument());
  }
  {
    engine::ThreadedRuntimeOptions options;
    options.emit_batch = 0;
    auto rt = engine::ThreadedRuntime::Create(&topo, options);
    EXPECT_TRUE(rt.status().IsInvalidArgument());
  }
  {
    // More shards than operator instances is not an error: the shard count
    // clamps to the instance count and the run completes normally.
    engine::ThreadedRuntimeOptions options;
    options.shards = 64;
    auto rt = engine::ThreadedRuntime::Create(&topo, options);
    ASSERT_TRUE(rt.ok()) << rt.status();
    (*rt)->Finish();
  }
}

TEST(FailureInjectionDeathTest, ThreadedInjectAfterFinishDies) {
  engine::Topology topo = MakeNopTopology();
  auto rt = engine::ThreadedRuntime::Create(&topo);
  ASSERT_TRUE(rt.ok());
  (*rt)->Finish();
  engine::Message m;
  EXPECT_DEATH((*rt)->Inject(engine::NodeId{0}, 0, m), "Finish");
}

/// Parameter: ThreadedRuntimeOptions::shards. 0 gives each of the two
/// operator instances its own shard; 1 packs the wedged instance beside
/// the live one on a single shard.
class ThreadedFinishDeadlineDeathTest
    : public testing::TestWithParam<size_t> {};

TEST_P(ThreadedFinishDeadlineDeathTest, FinishDeadlineDumpsStateAndAborts) {
  // A consumer wedged inside Process forever: Finish() with a deadline must
  // dump the per-instance last-progress picture and abort loudly instead of
  // hanging until the ctest timeout. Everything (threads included) is built
  // inside the death-test child so the wedge is real. Instance 0 wedges on
  // its first message; instance 1 processes normally.
  const size_t shards = GetParam();
  EXPECT_DEATH(
      {
        engine::Topology topo;
        engine::NodeId s = topo.AddSpout("s", 1);
        class MaybeWedged final : public engine::Operator {
         public:
          explicit MaybeWedged(bool wedge) : wedge_(wedge) {}
          void Process(const engine::Message&, engine::Emitter*) override {
            while (wedge_) {
              std::this_thread::sleep_for(std::chrono::seconds(1));
            }
          }

         private:
          const bool wedge_;
        };
        engine::NodeId o = topo.AddOperator(
            "op",
            [](uint32_t i) { return std::make_unique<MaybeWedged>(i == 0); },
            2);
        PKGSTREAM_CHECK_OK(topo.Connect(s, o, partition::Technique::kShuffle));
        engine::ThreadedRuntimeOptions options;
        options.emit_batch = 1;
        options.finish_deadline_ms = 200;
        options.shards = shards;
        auto rt = engine::ThreadedRuntime::Create(&topo, options);
        PKGSTREAM_CHECK_OK(rt.status());
        engine::Message m;
        // Shuffle grouping round-robins: one message reaches each instance.
        (*rt)->Inject(s, 0, m);
        (*rt)->Inject(s, 0, m);
        (*rt)->Finish();
      },
      "exceeded finish_deadline_ms");
}

INSTANTIATE_TEST_SUITE_P(Shards, ThreadedFinishDeadlineDeathTest,
                         testing::Values<size_t>(0, 1));

// --------------------------- Fault plan validation ------------------------

TEST(FailureInjectionTest, FaultPlanRejectsHostileSchedules) {
  using engine::FaultEvent;
  using engine::FaultKind;
  using engine::FaultPlan;
  // Zero-worker cluster.
  EXPECT_TRUE(FaultPlan::Create(0, {}).status().IsInvalidArgument());
  // Events out of time order.
  EXPECT_TRUE(FaultPlan::Create(
                  4, {{FaultKind::kCrash, 0, 2000, 0, 1.0},
                      {FaultKind::kRejoin, 0, 1000, 0, 1.0}})
                  .status()
                  .IsInvalidArgument());
  // Unknown worker id.
  EXPECT_TRUE(FaultPlan::Create(4, {{FaultKind::kCrash, 9, 0, 0, 1.0}})
                  .status()
                  .IsInvalidArgument());
  // Crash of an already-dead worker.
  EXPECT_TRUE(FaultPlan::Create(
                  4, {{FaultKind::kCrash, 1, 0, 0, 1.0},
                      {FaultKind::kCrash, 1, 100, 0, 1.0}})
                  .status()
                  .IsInvalidArgument());
  // Rejoin of a live worker.
  EXPECT_TRUE(FaultPlan::Create(4, {{FaultKind::kRejoin, 1, 0, 0, 1.0}})
                  .status()
                  .IsInvalidArgument());
  // Crashing the whole cluster.
  EXPECT_TRUE(FaultPlan::Create(
                  2, {{FaultKind::kCrash, 0, 0, 0, 1.0},
                      {FaultKind::kCrash, 1, 100, 0, 1.0}})
                  .status()
                  .IsInvalidArgument());
  // Zero-length stall window and non-positive slowdown factor.
  EXPECT_TRUE(FaultPlan::Create(4, {{FaultKind::kStall, 0, 0, 0, 1.0}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FaultPlan::Create(4, {{FaultKind::kSlowdown, 0, 0, 100, 0.0}})
                  .status()
                  .IsInvalidArgument());
  // Overlapping service windows on one worker.
  EXPECT_TRUE(FaultPlan::Create(
                  4, {{FaultKind::kStall, 2, 0, 1000, 1.0},
                      {FaultKind::kSlowdown, 2, 500, 1000, 2.0}})
                  .status()
                  .IsInvalidArgument());
  // The same windows on *different* workers are fine.
  EXPECT_TRUE(FaultPlan::Create(
                  4, {{FaultKind::kStall, 2, 0, 1000, 1.0},
                      {FaultKind::kSlowdown, 3, 500, 1000, 2.0}})
                  .ok());
}

TEST(FailureInjectionTest, RandomFaultPlanGeneratorValidatesItsInputs) {
  EXPECT_TRUE(engine::MakeRandomFaultPlan(1, 1, 1, 10000, 42)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine::MakeRandomFaultPlan(8, 0, 1, 10000, 42)
                  .status()
                  .IsInvalidArgument());
  // Valid inputs give a valid plan for every seed (spot-check a few).
  for (uint64_t seed = 0; seed < 8; ++seed) {
    auto plan = engine::MakeRandomFaultPlan(8, 2, 4, 100000, seed);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_GE(plan->routing_events().size(), 2u);
  }
}

TEST(FailureInjectionTest, EventSimWithUnknownDatasetScaleStillBounded) {
  // Absurdly tiny scale: floors kick in, stream still valid.
  const auto& tw = workload::GetDataset(workload::DatasetId::kTW);
  auto stream = workload::MakeKeyStream(tw, 1e-12, 42);
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT((*stream)->Next(), (*stream)->KeySpace());
  }
}

TEST(FailureInjectionTest, MergerToleratesEmptySummaries) {
  apps::HeavyHitterWorker worker(8);
  class CollectingEmitter : public engine::Emitter {
   public:
    void Emit(const engine::Message& m) override { messages.push_back(m); }
    std::vector<engine::Message> messages;
  } emitter;
  // No items processed: Close must not emit an empty summary.
  worker.Close(&emitter);
  EXPECT_TRUE(emitter.messages.empty());
}

TEST(FailureInjectionDeathTest, SummaryWithoutPayloadDies) {
  apps::HeavyHitterMerger merger(8);
  engine::Message bogus;
  bogus.tag = apps::kTagSummary;  // tag says summary, but box is empty
  class Nop : public engine::Emitter {
   public:
    void Emit(const engine::Message&) override {}
  } nop;
  EXPECT_DEATH(merger.Process(bogus, &nop), "payload");
}

}  // namespace
}  // namespace pkgstream
