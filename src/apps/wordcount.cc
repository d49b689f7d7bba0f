// Copyright 2026 The pkgstream Authors.

#include "apps/wordcount.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace pkgstream {
namespace apps {
namespace {

// Table-seed roles (see wordcount.h for why counter and aggregator differ).
constexpr uint64_t kCounterRole = 1;
constexpr uint64_t kAggregatorRole = 2;

/// Fmix64 is a bijection, so distinct (role, instance) pairs never share a
/// seed.
uint64_t TableSeed(uint64_t role, uint32_t instance) {
  return Fmix64(role << 32 | instance);
}

void EmitCount(engine::Emitter* out, Key key, uint64_t count) {
  engine::Message m;
  m.key = key;
  m.i64 = static_cast<int64_t>(count);
  m.tag = kTagPartialCount;
  out->Emit(m);
}

}  // namespace

WordCountCounter::WordCountCounter(CounterMode mode, size_t topk)
    : mode_(mode), topk_(topk), counts_(TableSeed(kCounterRole, 0)) {}

void WordCountCounter::Open(const engine::OperatorContext& ctx) {
  counts_.Reseed(TableSeed(kCounterRole, ctx.instance));
}

void WordCountCounter::Process(const engine::Message& msg,
                               engine::Emitter* out) {
  (void)out;
  PKGSTREAM_DCHECK(msg.tag == kTagWord);
  counts_.Add(msg.key);
}

void WordCountCounter::Tick(uint64_t /*now*/, engine::Emitter* out) {
  if (mode_ == CounterMode::kRunningTotals) {
    // KG: only the local top-k needs to travel; totals stay here.
    std::vector<std::pair<Key, uint64_t>> items(counts_.begin(),
                                                counts_.end());
    size_t k = std::min(topk_, items.size());
    std::partial_sort(items.begin(), items.begin() + static_cast<long>(k),
                      items.end(), [](const auto& a, const auto& b) {
                        if (a.second != b.second) return a.second > b.second;
                        return a.first < b.first;
                      });
    for (size_t i = 0; i < k; ++i) {
      EmitCount(out, items[i].first, items[i].second);
    }
    return;
  }
  // Periodic partial flush, in key order (see wordcount.h).
  std::vector<std::pair<Key, uint64_t>> items;
  items.reserve(counts_.size());
  counts_.Drain(
      [&items](Key key, uint64_t count) { items.emplace_back(key, count); });
  std::sort(items.begin(), items.end());
  for (const auto& [key, count] : items) EmitCount(out, key, count);
}

void WordCountCounter::Close(engine::Emitter* out) {
  // Final flush: every counter, straight from the table in slot order.
  auto emit = [out](Key key, uint64_t count) { EmitCount(out, key, count); };
  if (mode_ == CounterMode::kPartialCounts) {
    counts_.Drain(emit);
  } else {
    for (const auto& [key, count] : counts_) emit(key, count);
  }
}

TopKAggregator::TopKAggregator(CounterMode mode, size_t topk)
    : mode_(mode), topk_(topk), totals_(TableSeed(kAggregatorRole, 0)) {}

void TopKAggregator::Open(const engine::OperatorContext& ctx) {
  totals_.Reseed(TableSeed(kAggregatorRole, ctx.instance));
}

void TopKAggregator::Process(const engine::Message& msg,
                             engine::Emitter* out) {
  (void)out;
  PKGSTREAM_DCHECK(msg.tag == kTagPartialCount);
  if (mode_ == CounterMode::kPartialCounts) {
    totals_.Add(msg.key, static_cast<uint64_t>(msg.i64));
  } else {
    // Running totals: later snapshots supersede earlier ones.
    totals_.Max(msg.key, static_cast<uint64_t>(msg.i64));
  }
}

void TopKAggregator::Tick(uint64_t /*now*/, engine::Emitter* /*out*/) {
  // The paper's aggregator publishes the top-k at intervals; here the
  // publication is the TopK() accessor, so the tick is a no-op kept for
  // symmetry (the cost model charges the flush at the counters).
}

std::vector<std::pair<Key, uint64_t>> TopKAggregator::TopK() const {
  std::vector<std::pair<Key, uint64_t>> items(totals_.begin(), totals_.end());
  size_t k = std::min(topk_, items.size());
  std::partial_sort(items.begin(), items.begin() + static_cast<long>(k),
                    items.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  items.resize(k);
  return items;
}

WordCountTopology MakeWordCountTopology(partition::Technique technique,
                                        uint32_t sources, uint32_t workers,
                                        uint64_t tick_period, size_t topk,
                                        uint64_t seed) {
  WordCountTopology wc;
  wc.mode = technique == partition::Technique::kHashing
                ? CounterMode::kRunningTotals
                : CounterMode::kPartialCounts;
  wc.spout = wc.topology.AddSpout("words", sources);
  CounterMode mode = wc.mode;
  wc.counter = wc.topology.AddOperator(
      "counter",
      [mode, topk](uint32_t) {
        return std::make_unique<WordCountCounter>(mode, topk);
      },
      workers);
  wc.aggregator = wc.topology.AddOperator(
      "aggregator",
      [mode, topk](uint32_t) {
        return std::make_unique<TopKAggregator>(mode, topk);
      },
      1);
  if (tick_period > 0) wc.topology.SetTickPeriod(wc.counter, tick_period);

  partition::PartitionerConfig upstream;
  upstream.technique = technique;
  upstream.seed = seed;
  PKGSTREAM_CHECK_OK(wc.topology.Connect(wc.spout, wc.counter, upstream));
  // Counter -> aggregator is always key grouping (single aggregator).
  PKGSTREAM_CHECK_OK(wc.topology.Connect(wc.counter, wc.aggregator,
                                         partition::Technique::kHashing,
                                         seed + 1));
  return wc;
}

}  // namespace apps
}  // namespace pkgstream
