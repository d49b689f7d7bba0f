// Copyright 2026 The pkgstream Authors.
// Streaming top-k word count — the paper's running example (Section II) and
// the application deployed on Storm for the Q4 experiments (Section V).
//
// Topology:  spout --[technique]--> counter xW --[key grouping]--> aggregator
//
// Two counter modes mirror the paper's implementations:
//  * kRunningTotals (key grouping): each word lives on one worker, the
//    counter keeps the total and periodically emits only its local top-k.
//  * kPartialCounts (PKG / shuffle grouping): a word's count is split over
//    several workers; on every tick the counter flushes *all* partial
//    counters downstream and clears them. Memory and aggregation costs are
//    the O(2K) vs O(WK) comparison of Section III-A.
//
// Counter and aggregator state are FlatCounter tables (common/flat_counter.h).
// The final flush (Close) walks the counter's table once in slot order,
// emitting and emptying each slot: no copy, no sort. A periodic partial flush
// (Tick) still emits in key order: the event simulator samples the
// aggregator's distinct keys while such a flush is in flight, so its order is
// part of Figure 5(b)'s memory curve (slot order moves it by up to 0.2%).
//
// Slot order is hash order, so the aggregator receives each counter's final
// flush sorted by that counter's hash. Were the aggregator to hash the same
// way, those keys would arrive sorted by its own home slots and pile into one
// region of its growing table, clustering its linear probing. Each table
// therefore gets its own seed, derived from a per-role constant and the
// instance index (never from addresses or time): counters and aggregator
// never share one, and the emitted order stays reproducible run to run.

#ifndef PKGSTREAM_APPS_WORDCOUNT_H_
#define PKGSTREAM_APPS_WORDCOUNT_H_

#include <cstdint>
#include <vector>

#include "common/flat_counter.h"
#include "engine/operator.h"
#include "engine/topology.h"
#include "partition/factory.h"

namespace pkgstream {
namespace apps {

/// Message tags on the word-count streams.
inline constexpr uint32_t kTagWord = 0;        ///< spout -> counter
inline constexpr uint32_t kTagPartialCount = 1;  ///< counter -> aggregator

/// \brief How counters manage per-word state.
enum class CounterMode {
  kRunningTotals,  ///< KG: never flushed; tick emits local top-k snapshots
  kPartialCounts,  ///< PKG/SG: tick flushes and clears all partials
};

/// \brief The counter PE instance.
class WordCountCounter final : public engine::Operator {
 public:
  WordCountCounter(CounterMode mode, size_t topk);

  /// Seeds the table for this instance.
  void Open(const engine::OperatorContext& ctx) override;
  void Process(const engine::Message& msg, engine::Emitter* out) override;
  void Tick(uint64_t now, engine::Emitter* out) override;
  void Close(engine::Emitter* out) override;
  uint64_t MemoryCounters() const override { return counts_.size(); }

  const FlatCounter& counts() const { return counts_; }

 private:
  CounterMode mode_;
  size_t topk_;
  FlatCounter counts_;
};

/// \brief The single-instance aggregator computing the global top-k.
class TopKAggregator final : public engine::Operator {
 public:
  TopKAggregator(CounterMode mode, size_t topk);

  /// Seeds the table for this instance.
  void Open(const engine::OperatorContext& ctx) override;
  void Process(const engine::Message& msg, engine::Emitter* out) override;
  void Tick(uint64_t now, engine::Emitter* out) override;
  uint64_t MemoryCounters() const override { return totals_.size(); }

  /// Current top-k (key, count), recomputed on access.
  std::vector<std::pair<Key, uint64_t>> TopK() const;

  const FlatCounter& totals() const { return totals_; }

 private:
  CounterMode mode_;
  size_t topk_;
  /// kPartialCounts: accumulated totals; kRunningTotals: latest snapshot.
  FlatCounter totals_;
};

/// \brief Assembled word-count topology handles.
struct WordCountTopology {
  engine::Topology topology;
  engine::NodeId spout;
  engine::NodeId counter;
  engine::NodeId aggregator;
  CounterMode mode = CounterMode::kPartialCounts;
};

/// \brief Builds the paper's topology: `sources` spout instances, `workers`
/// counters partitioned by `technique`, one aggregator reached by hashing.
///
/// `tick_period` (runtime units; 0 = only flush at Close) drives both the
/// counter flush and the aggregator's bookkeeping. KG implies
/// kRunningTotals; every other technique uses kPartialCounts.
WordCountTopology MakeWordCountTopology(partition::Technique technique,
                                        uint32_t sources, uint32_t workers,
                                        uint64_t tick_period, size_t topk,
                                        uint64_t seed);

}  // namespace apps
}  // namespace pkgstream

#endif  // PKGSTREAM_APPS_WORDCOUNT_H_
