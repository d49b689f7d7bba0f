// Copyright 2026 The pkgstream Authors.

#include "layers.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "common/hash.h"
#include "common/logging.h"
#include "engine/cpu_affinity.h"
#include "engine/message.h"
#include "engine/spsc_ring.h"
#include "probe.h"

namespace perfbench {

namespace {

using pkgstream::Key;
using pkgstream::WorkerId;

constexpr int kRepeats = 5;
constexpr size_t kBatch = 256;         // the benchmark's InjectBatch size
constexpr size_t kEmitBatch = 16;      // ThreadedRuntimeOptions default
constexpr size_t kPopBatch = 64;       // the engine's consumer pop batch
constexpr size_t kRingCapacity = 1024;  // ThreadedRuntimeOptions default

/// Keeps a result observable so the timed loop cannot be dropped.
volatile uint64_t g_sink = 0;

template <typename Fn>
double MedianNs(size_t units, Fn&& run_once) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    const int64_t t0 = NowNs();
    run_once();
    samples.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(units));
  }
  std::nth_element(samples.begin(), samples.begin() + kRepeats / 2,
                   samples.end());
  return samples[kRepeats / 2];
}

struct Slot {
  pkgstream::engine::Message msg;
  bool eos = false;
};

}  // namespace

double HashNsPerKey(const std::vector<Key>& keys, uint32_t d,
                    uint32_t workers) {
  const pkgstream::HashFamily family(d, workers, /*seed=*/42);
  std::vector<uint32_t> out(kBatch);
  return MedianNs(keys.size(), [&] {
    uint64_t acc = 0;
    for (size_t i = 0; i < keys.size(); i += kBatch) {
      const size_t n = std::min(kBatch, keys.size() - i);
      for (uint32_t f = 0; f < d; ++f) {
        family.BucketBatch(f, keys.data() + i, out.data(), n);
        acc += out[0];
      }
    }
    g_sink = g_sink + acc;
  });
}

double RouteNsPerMsg(const pkgstream::partition::PartitionerConfig& config,
                     const std::vector<Key>& keys) {
  std::vector<WorkerId> out(kBatch);
  std::vector<pkgstream::partition::PartitionerPtr> replicas;
  for (int r = 0; r < kRepeats; ++r) {
    auto replica = pkgstream::partition::MakePartitioner(config);
    PKGSTREAM_CHECK_OK(replica.status());
    replicas.push_back(std::move(*replica));
  }
  int next = 0;
  return MedianNs(keys.size(), [&] {
    pkgstream::partition::Partitioner& p = *replicas[next++];
    uint64_t acc = 0;
    for (size_t i = 0; i < keys.size(); i += kBatch) {
      const size_t n = std::min(kBatch, keys.size() - i);
      p.RouteBatch(/*source=*/0, keys.data() + i, out.data(), n);
      acc += out[0];
    }
    g_sink = g_sink + acc;
  });
}

double RingNsPerMsg(size_t rings, uint64_t messages) {
  std::vector<std::unique_ptr<pkgstream::engine::SpscRing<Slot>>> ring_set;
  for (size_t r = 0; r < rings; ++r) {
    ring_set.push_back(
        std::make_unique<pkgstream::engine::SpscRing<Slot>>(kRingCapacity));
  }
  return MedianNs(messages, [&] {
    std::atomic<int> ready{0};
    std::atomic<uint64_t> checksum{0};
    std::thread consumer([&] {
      pkgstream::engine::CpuAffinity::PinCurrentThread(1);
      ready.fetch_add(1);
      std::vector<Slot> buf(kPopBatch);
      uint64_t got = 0, sum = 0;
      size_t r = 0;
      while (got < messages) {
        const size_t n = ring_set[r]->TryPopBatch(buf.data(), kPopBatch);
        for (size_t i = 0; i < n; ++i) sum += buf[i].msg.key;
        got += n;
        if (++r == rings) r = 0;
      }
      checksum.store(sum);
    });
    std::thread producer([&] {
      pkgstream::engine::CpuAffinity::PinCurrentThread(0);
      ready.fetch_add(1);
      while (ready.load() < 2) pkgstream::engine::Backoff::CpuRelax();
      std::vector<Slot> batch(kEmitBatch);
      uint64_t sent = 0;
      size_t r = 0;
      while (sent < messages) {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(kEmitBatch, messages - sent));
        for (size_t i = 0; i < n; ++i) batch[i].msg.key = sent + i;
        size_t pushed = 0;
        while (pushed < n) {
          const size_t k =
              ring_set[r]->TryPushBatch(batch.data() + pushed, n - pushed);
          if (k == 0) pkgstream::engine::Backoff::CpuRelax();
          pushed += k;
        }
        sent += n;
        if (++r == rings) r = 0;
      }
    });
    producer.join();
    consumer.join();
    PKGSTREAM_CHECK(checksum.load() == messages * (messages - 1) / 2)
        << "ring replay lost or duplicated slots";
  });
}

}  // namespace perfbench
