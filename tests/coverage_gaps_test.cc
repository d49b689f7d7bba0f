// Copyright 2026 The pkgstream Authors.
// Targeted tests for corners the main suites do not reach: multi-instance
// spouts in the event simulator, word-encoding boundaries, diamond
// topologies under the threaded runtime, formatter rounding edges, the
// bit utilities.

#include <gtest/gtest.h>

#include <atomic>

#include "apps/wordcount.h"
#include "common/bits.h"
#include "common/table.h"
#include "engine/event_sim.h"
#include "engine/threaded_runtime.h"
#include "workload/static_distribution.h"
#include "workload/words.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace {

TEST(EventSimMultiSourceTest, RootsSplitAcrossSpoutInstances) {
  apps::WordCountTopology wc = apps::MakeWordCountTopology(
      partition::Technique::kPkgLocal, /*sources=*/4, /*workers=*/3, 0, 5,
      42);
  auto dist = std::make_shared<workload::StaticDistribution>(
      workload::ZipfWeights(200, 1.0), "zipf");
  workload::IidKeyStream stream(dist, 7);
  engine::EventSimOptions options;
  options.messages = 8000;
  options.source_service_us = 10;
  options.worker_overhead_us = 20;
  options.network_delay_us = 100;
  auto sim =
      engine::EventSimulator::Create(&wc.topology, &stream, options);
  ASSERT_TRUE(sim.ok());
  engine::EventSimReport report = (*sim)->Run();
  EXPECT_EQ(report.roots_acked, 8000u);
  // All four spout instances emitted a similar share.
  ASSERT_EQ(report.processed[wc.spout.index].size(), 4u);
  for (uint64_t emitted : report.processed[wc.spout.index]) {
    EXPECT_GT(emitted, 8000u / 4 / 2);
  }
  // Aggregate spout emissions equal the roots.
  uint64_t total = 0;
  for (uint64_t e : report.processed[wc.spout.index]) total += e;
  EXPECT_EQ(total, 8000u);
}

TEST(EventSimMultiSourceTest, FourSourcesFasterThanOne) {
  // With the spout as bottleneck, parallel spout instances raise
  // throughput (each has its own service pipeline).
  auto run = [](uint32_t sources) {
    apps::WordCountTopology wc = apps::MakeWordCountTopology(
        partition::Technique::kShuffle, sources, 8, 0, 5, 42);
    auto dist = std::make_shared<workload::StaticDistribution>(
        workload::ZipfWeights(200, 0.5), "zipf");
    workload::IidKeyStream stream(dist, 7);
    engine::EventSimOptions options;
    options.messages = 20000;
    options.source_service_us = 200;  // slow spout
    options.worker_overhead_us = 10;
    auto sim =
        engine::EventSimulator::Create(&wc.topology, &stream, options);
    EXPECT_TRUE(sim.ok());
    return (*sim)->Run().throughput_per_s;
  };
  EXPECT_GT(run(4), run(1) * 2.5);
}

TEST(WordsBoundaryTest, SyllableSuffixBoundary) {
  // 5625 syllables per suffix block; check keys straddling block edges.
  for (Key k : {uint64_t{64}, uint64_t{64 + 5624}, uint64_t{64 + 5625},
                uint64_t{64 + 2 * 5625 - 1}, uint64_t{64 + 2 * 5625}}) {
    Key back = 0;
    ASSERT_TRUE(workload::WordToKey(workload::KeyToWord(k), &back));
    EXPECT_EQ(back, k);
  }
}

TEST(WordsBoundaryTest, LargeKeysStillBijective) {
  for (Key k = 1000000; k < 1000100; ++k) {
    Key back = 0;
    ASSERT_TRUE(workload::WordToKey(workload::KeyToWord(k), &back));
    EXPECT_EQ(back, k);
  }
}

TEST(ThreadedRuntimeDiamondTest, FanOutFanInConserves) {
  // spout -> {left, right} -> sink: every message takes both branches, so
  // the sink must see exactly 2x the injected count.
  engine::Topology topo;
  engine::NodeId spout = topo.AddSpout("s", 1);

  class Forward final : public engine::Operator {
   public:
    void Process(const engine::Message& m, engine::Emitter* out) override {
      out->Emit(m);
    }
  };
  class Count final : public engine::Operator {
   public:
    void Process(const engine::Message&, engine::Emitter*) override {
      ++seen;
    }
    std::atomic<uint64_t> seen{0};
  };

  engine::NodeId left = topo.AddOperator(
      "left", [](uint32_t) { return std::make_unique<Forward>(); }, 2);
  engine::NodeId right = topo.AddOperator(
      "right", [](uint32_t) { return std::make_unique<Forward>(); }, 3);
  Count* sink_op = nullptr;
  engine::NodeId sink = topo.AddOperator(
      "sink",
      [&sink_op](uint32_t) {
        auto op = std::make_unique<Count>();
        sink_op = op.get();
        return op;
      },
      1);
  ASSERT_TRUE(topo.Connect(spout, left, partition::Technique::kShuffle).ok());
  ASSERT_TRUE(topo.Connect(spout, right, partition::Technique::kShuffle).ok());
  ASSERT_TRUE(topo.Connect(left, sink, partition::Technique::kHashing).ok());
  ASSERT_TRUE(topo.Connect(right, sink, partition::Technique::kHashing).ok());

  auto rt = engine::ThreadedRuntime::Create(&topo);
  ASSERT_TRUE(rt.ok());
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    engine::Message m;
    m.key = static_cast<Key>(i % 13);
    (*rt)->Inject(spout, 0, m);
  }
  (*rt)->Finish();
  ASSERT_NE(sink_op, nullptr);
  EXPECT_EQ(sink_op->seen.load(), 2ull * n);
}

TEST(BitsTest, PopCountMatchesABitLoop) {
  EXPECT_EQ(PopCount(0), 0u);
  EXPECT_EQ(PopCount(~uint64_t{0}), 64u);
  EXPECT_EQ(PopCount(uint64_t{1} << 63), 1u);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 64; ++i, x = x * 6364136223846793005ULL + 1) {
    uint32_t expected = 0;
    for (int b = 0; b < 64; ++b) expected += (x >> b) & 1;
    EXPECT_EQ(PopCount(x), expected) << std::hex << x;
  }
}

TEST(FormatCompactEdgeTest, RoundingBoundaries) {
  EXPECT_EQ(FormatCompact(99.96), "100");   // rounds across the threshold
  EXPECT_EQ(FormatCompact(0.9996), "1");    // strips to integer
  EXPECT_EQ(FormatCompact(0.001), "0.001");
  EXPECT_EQ(FormatCompact(0.0009999), "1.0e-3");
}

}  // namespace
}  // namespace pkgstream
