// Copyright 2026 The pkgstream Authors.
// ThreadedRuntime scaling sweep (ROADMAP "threaded-runtime scaling"): how
// fast can the in-process DSPE route messages as parallelism grows?
//
// The paper's premise — and its follow-ups ("When Two Choices Are not
// Enough", Nasir et al. 2015) — is that each source routes independently
// from purely local state, so the routing hot path should scale linearly
// with sources. This bench measures exactly that, end to end (inject ->
// partition -> queue -> drain) through ThreadedRuntime: a partitioner
// replica per source (no lock), one bounded lock-free SPSC ring per
// producer->consumer pair with batched pops, and sources feeding through
// InjectBatch (one lock take + one fused RouteBatch per 256-message chunk,
// filling the per-edge emit out-buffers directly).
//
// --json=PATH writes the structured report (bench/report.h): wall-clock
// msgs/sec land in host_metrics (host-dependent, never baseline-compared),
// routed message counts in metrics (deterministic, diffed against
// bench/baselines/bench_threaded_scaling.json by tools/bench_check).
//
// Sweep: parallelism P in {1,2,4,8,16} (P sources x P workers) x
// technique in {KG, SG, PKG-L}. Override with --parallelisms=1,8,1000.
// Large-P knobs (all default-off, so the committed baseline is unchanged):
//   --parallelisms=CSV        replace the sweep (e.g. a single 1000 cell);
//   --shards=N                run the P sink instances on N shard threads
//                             instead of one shard per instance;
//   --injectors=N             cap injector threads (sources are split into
//                             N contiguous slices, one thread per slice —
//                             per-source injection order is unchanged, so
//                             routed counts stay deterministic);
//   --queue_capacity=N        per producer->consumer ring slots (default
//                             1024, the historical value). The all-to-all
//                             P sources x P workers topology allocates
//                             P^2 rings, so a P=1000 cell at the default
//                             is ~P^2*1024*sizeof(Message) of ring memory
//                             alone — pass e.g. 16 at large P.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "common/hash.h"
#include "common/logging.h"
#include "engine/threaded_runtime.h"
#include "partition/factory.h"

namespace pkgstream {
namespace {

/// Decorrelated synthetic key for message `i` of source `s`.
Key BenchKey(uint32_t s, uint64_t i, uint64_t seed) {
  return Fmix64(seed ^ (static_cast<uint64_t>(s) << 48) ^ i) % 4096;
}

/// Checksum sink: trivial per-message work, so the sweep isolates
/// partitioning + queueing.
class ChecksumSink final : public engine::Operator {
 public:
  void Process(const engine::Message& msg, engine::Emitter*) override {
    sum_ += msg.key;
  }
  uint64_t MemoryCounters() const override { return 0; }

 private:
  uint64_t sum_ = 0;
};

struct RunResult {
  double msgs_per_sec = 0;
  uint64_t processed = 0;
};

/// Contiguous source slices for a capped injector-thread count: thread t
/// of `threads` handles sources [bounds[t], bounds[t+1]). One thread per
/// source when the cap is 0 or >= parallelism (the historical layout).
std::vector<uint32_t> InjectorBounds(uint32_t parallelism,
                                     uint32_t injector_cap) {
  const uint32_t threads =
      (injector_cap == 0 || injector_cap > parallelism) ? parallelism
                                                        : injector_cap;
  std::vector<uint32_t> bounds(threads + 1);
  for (uint32_t t = 0; t <= threads; ++t) {
    bounds[t] = static_cast<uint32_t>(
        static_cast<uint64_t>(t) * parallelism / threads);
  }
  return bounds;
}

RunResult RunCell(partition::Technique technique, uint32_t parallelism,
                  uint64_t messages, uint64_t seed, size_t shards,
                  uint32_t injector_cap, size_t queue_capacity) {
  engine::Topology topology;
  engine::NodeId spout = topology.AddSpout("src", parallelism);
  engine::NodeId sink = topology.AddOperator(
      "sink", [](uint32_t) { return std::make_unique<ChecksumSink>(); },
      parallelism);
  PKGSTREAM_CHECK_OK(topology.Connect(spout, sink, technique, seed));
  engine::ThreadedRuntimeOptions options;
  options.queue_capacity = queue_capacity;
  options.shards = shards;
  auto rt = engine::ThreadedRuntime::Create(&topology, options);
  PKGSTREAM_CHECK_OK(rt.status());
  const uint64_t per_source = messages / parallelism;
  const std::vector<uint32_t> bounds =
      InjectorBounds(parallelism, injector_cap);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> injectors;
  for (size_t t = 0; t + 1 < bounds.size(); ++t) {
    injectors.emplace_back([&, t] {
      constexpr uint64_t kInjectBatch = 256;
      engine::Message batch[kInjectBatch];
      for (uint32_t s = bounds[t]; s < bounds[t + 1]; ++s) {
        for (uint64_t i = 0; i < per_source;) {
          const uint64_t len = std::min(kInjectBatch, per_source - i);
          for (uint64_t j = 0; j < len; ++j) {
            batch[j].key = BenchKey(s, i + j, seed);
          }
          (*rt)->InjectBatch(spout, s, batch, len);
          i += len;
        }
      }
    });
  }
  for (auto& t : injectors) t.join();
  (*rt)->Finish();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  RunResult r;
  uint64_t processed = 0;
  for (uint64_t l : (*rt)->Processed(sink)) processed += l;
  r.processed = processed;
  r.msgs_per_sec = static_cast<double>(processed) / elapsed.count();
  return r;
}

std::string FormatMps(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  return buf;
}

}  // namespace
}  // namespace pkgstream

int main(int argc, char** argv) {
  using namespace pkgstream;
  Flags flags;
  Status s = Flags::Parse(argc, argv, &flags);
  if (!s.ok()) {
    std::cerr << "flag error: " << s << "\n";
    return 2;
  }
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  bench::PrintBanner(
      "ThreadedRuntime scaling: lock-free inboxes + per-source replicas",
      "ROADMAP 'threaded-runtime scaling'; Nasir et al. 2015 follow-up "
      "'When Two Choices Are not Enough' (cheap routing at scale)",
      args);
  bench::Report report(
      "bench_threaded_scaling",
      "ThreadedRuntime scaling: lock-free inboxes + per-source replicas",
      "ROADMAP 'threaded-runtime scaling'; Nasir et al. 2015 follow-up "
      "'When Two Choices Are not Enough' (cheap routing at scale)",
      args);

  uint64_t messages = args.quick ? 40000 : 400000;
  if (args.full) messages = 4000000;
  messages = static_cast<uint64_t>(
      flags.GetInt("messages", static_cast<int64_t>(messages)));
  std::vector<uint32_t> parallelisms =
      args.quick ? std::vector<uint32_t>{1, 4, 8}
                 : std::vector<uint32_t>{1, 2, 4, 8, 16};
  const std::string parallelisms_csv = flags.GetString("parallelisms", "");
  if (!parallelisms_csv.empty()) {
    parallelisms.clear();
    size_t at = 0;
    while (at < parallelisms_csv.size()) {
      size_t comma = parallelisms_csv.find(',', at);
      if (comma == std::string::npos) comma = parallelisms_csv.size();
      const long v = std::stol(parallelisms_csv.substr(at, comma - at));
      PKGSTREAM_CHECK(v >= 1) << "--parallelisms entries must be >= 1";
      parallelisms.push_back(static_cast<uint32_t>(v));
      at = comma + 1;
    }
  }
  const size_t shards =
      static_cast<size_t>(flags.GetInt("shards", 0));
  const uint32_t injector_cap =
      static_cast<uint32_t>(flags.GetInt("injectors", 0));
  const size_t queue_capacity =
      static_cast<size_t>(flags.GetInt("queue_capacity", 1024));
  const std::vector<std::pair<partition::Technique, std::string>> techniques =
      {{partition::Technique::kHashing, "KG"},
       {partition::Technique::kShuffle, "SG"},
       {partition::Technique::kPkgLocal, "PKG-L"}};

  std::cout << "hardware_concurrency="
            << std::thread::hardware_concurrency()
            << "  messages_per_config=" << messages << "\n\n";
  // Recorded as a metric so a --messages mismatch between a fresh report
  // and the baseline fails as an explicit parameter diff, not as opaque
  // per-cell "processed" drift.
  report.AddMetric("messages_per_config", static_cast<double>(messages));

  Table table({"P (SxW)", "technique", "msg/s"});
  for (uint32_t p : parallelisms) {
    for (const auto& [technique, name] : techniques) {
      const RunResult result = RunCell(technique, p, messages, args.seed,
                                       shards, injector_cap, queue_capacity);
      const std::string prefix =
          "P=" + std::to_string(p) + "/" + name + "/";
      // Routed message counts are deterministic (every injected message
      // must be routed); wall-clock rates are host-dependent.
      report.AddMetric(prefix + "processed",
                       static_cast<double>(result.processed));
      report.AddHostMetric(prefix + "lockfree_msgs_per_sec",
                           result.msgs_per_sec);
      table.AddRow({std::to_string(p), name, FormatMps(result.msgs_per_sec)});
    }
  }
  report.AddTable(std::move(table));
  return bench::Finish(report, args);
}
