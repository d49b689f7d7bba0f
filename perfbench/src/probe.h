// Copyright 2026 The pkgstream Authors.
// Benchmark-side instrumentation: a clock, the span log, and the wrapper
// operator that every benchmark topology puts around the program's own
// operators. Nothing here is inside the engine; the wrapper sees exactly
// what the engine hands to an Operator.
#ifndef PKGSTREAM_PERFBENCH_PROBE_H_
#define PKGSTREAM_PERFBENCH_PROBE_H_

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/operator.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Order-independent digest of a key multiset: sum of mixed keys. Every
/// delivered message adds its key's mix once, so the sum over all instances
/// equals the sum over the injected keys iff no key was lost, duplicated or
/// changed (up to 2^-64 collisions).
inline uint64_t MixKey(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// A closed interval of work: one Create, InjectBatch, Close or Finish.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t messages = 0;  // InjectBatch: batch size; others 0
  uint32_t owner = 0;     // client index or operator instance
};

/// Latency sampling shared by every first-stage wrapper of one slice. Each
/// wrapper times one in 2^sample_shift of its deliveries, from the message's
/// arrival (epoch_ns + ts * ts_to_ns) to the start of Process, and appends
/// the wait to `slots` in delivery order.
struct LatencyProbe {
  /// Whether a wrapper's delivery number `delivery` (from 0) is timed.
  bool Sampled(uint64_t delivery) const {
    return (delivery & ((uint64_t{1} << sample_shift) - 1)) == 0;
  }
  /// Samples a wrapper with `deliveries` deliveries records.
  uint64_t SamplesFor(uint64_t deliveries) const {
    return (deliveries + (uint64_t{1} << sample_shift) - 1) >> sample_shift;
  }
  /// Appends one wait in ns (saturating); samples beyond `slots` are
  /// dropped, which the slice check sees as `next` past the end.
  void Record(int64_t waited_ns) {
    const size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i < slots.size()) {
      slots[i] = static_cast<uint32_t>(
          std::min<int64_t>(waited_ns, int64_t{UINT32_MAX}));
    }
  }

  int sample_shift = 0;
  int64_t epoch_ns = 0;
  int64_t ts_to_ns = 1;
  std::atomic<size_t> next{0};
  std::vector<uint32_t> slots;
};

/// \brief Wraps one program operator: counts deliveries, digests keys,
/// samples latency (first stage only) and, when traced, times Process and
/// Close.
class ProbeOperator final : public pkgstream::engine::Operator {
 public:
  ProbeOperator(std::unique_ptr<pkgstream::engine::Operator> inner,
                LatencyProbe* latency, bool traced)
      : inner_(std::move(inner)), latency_(latency), traced_(traced) {}

  void Open(const pkgstream::engine::OperatorContext& ctx) override {
    instance_ = ctx.instance;
    inner_->Open(ctx);
  }

  void Process(const pkgstream::engine::Message& msg,
               pkgstream::engine::Emitter* out) override {
    if (latency_ != nullptr && latency_->Sampled(count_)) {
      const int64_t ts = static_cast<int64_t>(msg.ts);
      const int64_t arrival = latency_->epoch_ns + ts * latency_->ts_to_ns;
      latency_->Record(std::max<int64_t>(0, NowNs() - arrival));
    }
    ++count_;
    key_digest_ += MixKey(msg.key);
    if (!traced_) {
      inner_->Process(msg, out);
      return;
    }
    const int64_t t0 = NowNs();
    inner_->Process(msg, out);
    busy_ns_ += NowNs() - t0;
  }

  void Close(pkgstream::engine::Emitter* out) override {
    // Partial counters clear their state in Close; read it first.
    state_keys_ = inner_->MemoryCounters();
    close_cpu_ = sched_getcpu();
    close_.owner = instance_;
    close_.start_ns = NowNs();
    inner_->Close(out);
    close_.end_ns = NowNs();
  }

  uint64_t MemoryCounters() const override { return inner_->MemoryCounters(); }

  pkgstream::engine::Operator* inner() const { return inner_.get(); }
  uint64_t count() const { return count_; }
  uint64_t key_digest() const { return key_digest_; }
  int64_t busy_ns() const { return busy_ns_; }
  uint64_t state_keys() const { return state_keys_; }
  int close_cpu() const { return close_cpu_; }
  const Span& close_span() const { return close_; }

 private:
  std::unique_ptr<pkgstream::engine::Operator> inner_;
  LatencyProbe* latency_;  // null: no latency sampling at this stage
  bool traced_;
  uint32_t instance_ = 0;
  uint64_t count_ = 0;
  uint64_t key_digest_ = 0;
  int64_t busy_ns_ = 0;
  uint64_t state_keys_ = 0;
  int close_cpu_ = -1;
  Span close_;
};

}  // namespace perfbench

#endif  // PKGSTREAM_PERFBENCH_PROBE_H_
