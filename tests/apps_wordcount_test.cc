// Copyright 2026 The pkgstream Authors.
// Unit + integration tests for the streaming top-k word count application.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "apps/wordcount.h"
#include "engine/logical_runtime.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace apps {
namespace {

using engine::LogicalRuntime;
using engine::Message;

/// Drives `messages` zipf-keyed words through a word-count topology on the
/// logical runtime and returns the aggregator's final totals.
std::map<Key, uint64_t> RunWordCount(partition::Technique technique,
                                     uint32_t sources, uint32_t workers,
                                     uint64_t tick, int messages,
                                     std::map<Key, uint64_t>* exact) {
  WordCountTopology wc =
      MakeWordCountTopology(technique, sources, workers, tick, 5, 42);
  auto rt = LogicalRuntime::Create(&wc.topology);
  EXPECT_TRUE(rt.ok());
  auto dist = std::make_shared<workload::StaticDistribution>(
      workload::ZipfWeights(50, 1.2), "zipf");
  Rng rng(7);
  for (int i = 0; i < messages; ++i) {
    Message m;
    m.key = dist->Sample(&rng);
    m.tag = kTagWord;
    if (exact) ++(*exact)[m.key];
    (*rt)->Inject(wc.spout, static_cast<SourceId>(i % sources), m);
  }
  (*rt)->Finish();
  auto* agg =
      static_cast<TopKAggregator*>((*rt)->GetOperator(wc.aggregator, 0));
  std::map<Key, uint64_t> totals(agg->totals().begin(), agg->totals().end());
  return totals;
}

TEST(WordCountTest, PkgTotalsAreExact) {
  std::map<Key, uint64_t> exact;
  auto totals = RunWordCount(partition::Technique::kPkgLocal, 2, 4,
                             /*tick=*/100, 5000, &exact);
  EXPECT_EQ(totals, exact);
}

TEST(WordCountTest, ShuffleTotalsAreExact) {
  std::map<Key, uint64_t> exact;
  auto totals = RunWordCount(partition::Technique::kShuffle, 2, 4,
                             /*tick=*/250, 5000, &exact);
  EXPECT_EQ(totals, exact);
}

TEST(WordCountTest, KeyGroupingTotalsAreExact) {
  std::map<Key, uint64_t> exact;
  auto totals = RunWordCount(partition::Technique::kHashing, 1, 4,
                             /*tick=*/0, 5000, &exact);
  EXPECT_EQ(totals, exact);
}

TEST(WordCountTest, NoTickStillFlushedAtClose) {
  std::map<Key, uint64_t> exact;
  auto totals = RunWordCount(partition::Technique::kPkgLocal, 1, 3,
                             /*tick=*/0, 1000, &exact);
  EXPECT_EQ(totals, exact);
}

TEST(WordCountTest, TopKOrderedByCount) {
  WordCountTopology wc = MakeWordCountTopology(partition::Technique::kPkgLocal,
                                               1, 3, 0, 3, 42);
  auto rt = LogicalRuntime::Create(&wc.topology);
  ASSERT_TRUE(rt.ok());
  // key 1 x5, key 2 x3, key 3 x1.
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.key = 1;
    (*rt)->Inject(wc.spout, 0, m);
  }
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.key = 2;
    (*rt)->Inject(wc.spout, 0, m);
  }
  Message m;
  m.key = 3;
  (*rt)->Inject(wc.spout, 0, m);
  (*rt)->Finish();
  auto* agg =
      static_cast<TopKAggregator*>((*rt)->GetOperator(wc.aggregator, 0));
  auto top = agg->TopK();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 1u);
  EXPECT_EQ(top[0].second, 5u);
  EXPECT_EQ(top[1].first, 2u);
  EXPECT_EQ(top[2].first, 3u);
}

TEST(WordCountTest, KgModeUsesRunningTotals) {
  WordCountTopology wc =
      MakeWordCountTopology(partition::Technique::kHashing, 1, 2, 10, 5, 42);
  EXPECT_EQ(wc.mode, CounterMode::kRunningTotals);
  WordCountTopology pkg =
      MakeWordCountTopology(partition::Technique::kPkgLocal, 1, 2, 10, 5, 42);
  EXPECT_EQ(pkg.mode, CounterMode::kPartialCounts);
}

TEST(WordCountTest, PartialModeClearsCountersOnTick) {
  WordCountCounter counter(CounterMode::kPartialCounts, 5);
  class NullEmitter : public engine::Emitter {
   public:
    void Emit(const Message&) override { ++count; }
    int count = 0;
  } emitter;
  Message m;
  m.key = 9;
  m.tag = kTagWord;
  counter.Process(m, &emitter);
  EXPECT_EQ(counter.MemoryCounters(), 1u);
  counter.Tick(0, &emitter);
  EXPECT_EQ(counter.MemoryCounters(), 0u);
  EXPECT_EQ(emitter.count, 1);
}

TEST(WordCountTest, RunningModeKeepsCountersOnTick) {
  WordCountCounter counter(CounterMode::kRunningTotals, 5);
  class NullEmitter : public engine::Emitter {
   public:
    void Emit(const Message&) override {}
  } emitter;
  Message m;
  m.key = 9;
  m.tag = kTagWord;
  counter.Process(m, &emitter);
  counter.Tick(0, &emitter);
  EXPECT_EQ(counter.MemoryCounters(), 1u);
}

/// Records every message it sees, in arrival order.
class RecordingEmitter : public engine::Emitter {
 public:
  void Emit(const Message& m) override { seen.emplace_back(m.key, m.i64); }
  std::vector<std::pair<Key, int64_t>> seen;
};

TEST(WordCountTest, PartialFlushEmitsEachKeyOnceThenHoldsNothing) {
  for (bool at_close : {false, true}) {
    WordCountCounter counter(CounterMode::kPartialCounts, 5);
    RecordingEmitter emitter;
    std::map<Key, int64_t> held;
    Rng rng(3);
    for (int i = 0; i < 5000; ++i) {
      Message m;
      m.key = rng.Next() % 700;
      m.tag = kTagWord;
      ++held[m.key];
      counter.Process(m, &emitter);
    }
    ASSERT_TRUE(emitter.seen.empty());
    ASSERT_EQ(counter.MemoryCounters(), held.size());
    if (at_close) {
      counter.Close(&emitter);
    } else {
      counter.Tick(0, &emitter);
    }
    // Exactly once per key, each with its full count.
    ASSERT_EQ(emitter.seen.size(), held.size());
    std::map<Key, int64_t> emitted(emitter.seen.begin(), emitter.seen.end());
    EXPECT_EQ(emitted, held);
    EXPECT_EQ(counter.MemoryCounters(), 0u);
    EXPECT_TRUE(counter.counts().empty());
    // Nothing is left to flush a second time.
    emitter.seen.clear();
    counter.Tick(1, &emitter);
    EXPECT_TRUE(emitter.seen.empty());
  }
}

/// Passes every message into a shared log, in arrival order.
class LogOperator final : public engine::Operator {
 public:
  explicit LogOperator(std::vector<std::pair<Key, int64_t>>* log)
      : log_(log) {}
  void Process(const Message& m, engine::Emitter*) override {
    log_->emplace_back(m.key, m.i64);
  }

 private:
  std::vector<std::pair<Key, int64_t>>* log_;
};

TEST(WordCountTest, SlotOrderFlushIsDeterministicAcrossRuns) {
  auto run = [] {
    std::vector<std::pair<Key, int64_t>> log;
    engine::Topology topology;
    auto spout = topology.AddSpout("words", 2);
    auto counter = topology.AddOperator(
        "counter",
        [](uint32_t) {
          return std::make_unique<WordCountCounter>(
              CounterMode::kPartialCounts, 5);
        },
        4);
    auto sink = topology.AddOperator(
        "log", [&log](uint32_t) { return std::make_unique<LogOperator>(&log); },
        1);
    topology.SetTickPeriod(counter, 700);
    EXPECT_TRUE(
        topology.Connect(spout, counter, partition::Technique::kPkgLocal, 42)
            .ok());
    EXPECT_TRUE(
        topology.Connect(counter, sink, partition::Technique::kHashing, 43)
            .ok());
    auto rt = LogicalRuntime::Create(&topology);
    EXPECT_TRUE(rt.ok());
    auto dist = std::make_shared<workload::StaticDistribution>(
        workload::ZipfWeights(2000, 1.0), "zipf");
    Rng rng(11);
    for (int i = 0; i < 6000; ++i) {
      Message m;
      m.key = dist->Sample(&rng);
      m.tag = kTagWord;
      (*rt)->Inject(spout, static_cast<SourceId>(i % 2), m);
    }
    (*rt)->Finish();
    return log;
  };
  const auto first = run();
  ASSERT_FALSE(first.empty());
  int64_t total = 0;
  for (const auto& [_, count] : first) total += count;
  EXPECT_EQ(total, 6000);
  EXPECT_EQ(run(), first);
}

TEST(WordCountTest, MemoryOrderingPkgBetweenKgAndSg) {
  // End-of-run distinct (worker, key) state: KG <= PKG <= SG (the paper's
  // 2.9M / 3.6M / 7.2M comparison, scaled down).
  auto measure = [](partition::Technique technique) {
    WordCountTopology wc =
        MakeWordCountTopology(technique, 1, 8, /*tick=*/0, 5, 42);
    auto rt = LogicalRuntime::Create(&wc.topology);
    EXPECT_TRUE(rt.ok());
    auto dist = std::make_shared<workload::StaticDistribution>(
        workload::ZipfWeights(300, 1.0), "zipf");
    Rng rng(5);
    for (int i = 0; i < 30000; ++i) {
      Message m;
      m.key = dist->Sample(&rng);
      (*rt)->Inject(wc.spout, 0, m);
    }
    uint64_t memory = 0;
    for (uint32_t w = 0; w < 8; ++w) {
      memory += (*rt)->GetOperator(wc.counter, w)->MemoryCounters();
    }
    return memory;
  };
  uint64_t kg = measure(partition::Technique::kHashing);
  uint64_t pkg = measure(partition::Technique::kPkgLocal);
  uint64_t sg = measure(partition::Technique::kShuffle);
  EXPECT_LE(kg, pkg);
  EXPECT_LT(pkg, sg);
  EXPECT_LE(pkg, 2 * kg);  // at most 2x: each key lives on <= 2 workers
}

TEST(WordCountTest, LoadImbalanceOrderingOnSkew) {
  auto imbalance = [](partition::Technique technique) {
    WordCountTopology wc =
        MakeWordCountTopology(technique, 1, 5, /*tick=*/0, 5, 42);
    auto rt = LogicalRuntime::Create(&wc.topology);
    EXPECT_TRUE(rt.ok());
    auto dist = std::make_shared<workload::StaticDistribution>(
        workload::ZipfWeights(1000, 1.0), "zipf");
    Rng rng(5);
    for (int i = 0; i < 50000; ++i) {
      Message m;
      m.key = dist->Sample(&rng);
      (*rt)->Inject(wc.spout, 0, m);
    }
    return (*rt)->Metrics()[wc.counter.index].imbalance;
  };
  double kg = imbalance(partition::Technique::kHashing);
  double pkg = imbalance(partition::Technique::kPkgLocal);
  double sg = imbalance(partition::Technique::kShuffle);
  EXPECT_LT(pkg, kg / 10);  // PKG crushes KG on skew
  EXPECT_LE(sg, 1.0);       // SG is near-perfect
}

}  // namespace
}  // namespace apps
}  // namespace pkgstream
