// Copyright 2026 The pkgstream Authors.
// The sequel's regime through the real engine (ROADMAP "sharded many-worker
// runtime"): W in {100, 500, 1000} worker instances executed on <= 8 shard
// threads (ThreadedRuntimeOptions::shards), per technique in
// {PKG-L, D-Choices, W-Choices, SG, KG}. Until this bench, the
// D-Choices / W-Choices family had only ever run through the *simulated*
// router sweep (bench_seq_dchoices); here every message crosses the actual
// lock-free mailboxes of a sharded ThreadedRuntime.
//
// Latency sweep (deterministic, baseline-pinned): each cell replays the
// byte-identical checksummed open-loop Poisson schedule + Zipf(1.5,K=1000)
// key sequence (the bench_latency_under_load methodology) through
// 1 source -> W kVirtualService LatencySinks with service_us = 5000 —
// per-worker capacity exactly 200 msgs/sec, host-independent. Offered load
// is 40*W msgs/sec (20% of aggregate capacity): nobody should hurt, except
// that a single head key carries p1 ~ 0.39 of the stream:
//
//   KG     the head's worker is offered ~0.39*40*W >> 200 msgs/sec —
//          saturated at every W; its queue grows for the whole cell.
//   PKG-L  the head is split over its TWO candidates (~0.195 share each):
//          still >> 200 msgs/sec at W >= 100 — the Section IV wall; the
//          sequel's point is that plain PKG fails exactly here.
//   D/W-Choices detect the head and spread it over d_k ~ p*W/eps (or all)
//          workers: every worker stays far below capacity and the tail
//          stays within a small factor of SG — the sequel's headline,
//          pinned by the committed baseline at W >= 500.
//
// With a single source the runtime's routing and per-sink arrival orders
// are byte-identical for every shard count (engine_threaded_sharded_test
// pins this), so the quantiles land in the
// deterministic "metrics" section and are exact-pinned on any host, under
// any sanitizer. D/W-Choices run with heavy_min_messages = 100 (vs the
// 1000-message default): these cells replay short streams and the warm-up
// transient — heavy keys still on the 2-choice path — must stay well under
// 1% of the stream so it cannot masquerade as steady-state tail.
//
// Throughput leg (host-dependent, host_metrics + host invariants): the
// multi-stage wordcount pipeline (2 spouts -> 8 counters -> 1 aggregator,
// PKG-L) run closed-loop twice — one shard per instance vs shards=4 —
// must agree on totals (deterministic metric) and stay within a generous
// wall-clock factor of each other (throughput with 4 shards within a
// factor of one shard per instance at W = 8).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/wordcount.h"
#include "bench/bench_util.h"
#include "bench/report.h"
#include "common/logging.h"
#include "engine/open_loop.h"
#include "engine/threaded_runtime.h"
#include "partition/factory.h"
#include "stats/latency_histogram.h"
#include "workload/arrival_schedule.h"
#include "workload/key_stream.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace {

/// Replays a pre-generated arrival-time vector (so every technique in a cell
/// is offered the byte-identical schedule, and the checksum covers exactly
/// what was injected).
class VectorSchedule final : public workload::ArrivalSchedule {
 public:
  explicit VectorSchedule(const std::vector<uint64_t>* times)
      : times_(times) {}

  uint64_t NextMicros() override {
    PKGSTREAM_CHECK(pos_ < times_->size());
    return (*times_)[pos_++];
  }

  void NextBatchMicros(uint64_t* out, size_t n) override {
    PKGSTREAM_CHECK(pos_ + n <= times_->size());
    for (size_t i = 0; i < n; ++i) out[i] = (*times_)[pos_ + i];
    pos_ += n;
  }

  std::string Name() const override { return "replay"; }

 private:
  const std::vector<uint64_t>* times_;
  size_t pos_ = 0;
};

/// Replays a pre-generated key vector (same rationale as VectorSchedule).
class VectorKeyStream final : public workload::KeyStream {
 public:
  VectorKeyStream(const std::vector<Key>* keys, uint64_t key_space)
      : keys_(keys), key_space_(key_space) {}

  Key Next() override {
    PKGSTREAM_CHECK(pos_ < keys_->size());
    return (*keys_)[pos_++];
  }

  void NextBatch(Key* out, size_t n) override {
    PKGSTREAM_CHECK(pos_ + n <= keys_->size());
    for (size_t i = 0; i < n; ++i) out[i] = (*keys_)[pos_ + i];
    pos_ += n;
  }

  uint64_t KeySpace() const override { return key_space_; }
  std::string Name() const override { return "replay"; }

 private:
  const std::vector<Key>* keys_;
  uint64_t key_space_;
  size_t pos_ = 0;
};

/// Cell config, mirroring bench_seq_dchoices: heavy detection guaranteed
/// (sketch capacity 2W covers every key above the 1/W threshold), D-Choices
/// flagged from half the Section IV wall.
partition::PartitionerConfig ConfigFor(partition::Technique technique,
                                       uint32_t workers, uint64_t seed) {
  partition::PartitionerConfig config;
  config.technique = technique;
  config.sources = 1;
  config.workers = workers;
  config.seed = seed;
  config.sketch_capacity = 2 * workers;
  if (technique == partition::Technique::kDChoices) {
    config.heavy_threshold_factor = 0.5;
  }
  if (technique == partition::Technique::kDChoices ||
      technique == partition::Technique::kWChoices) {
    // Short replayed streams: keep the detection warm-up (heavy keys still
    // routing through 2 choices) well under 1% of the cell so the
    // steady-state tail quantiles are not a warm-up artifact.
    config.heavy_min_messages = 100;
  }
  return config;
}

struct CellResult {
  stats::LatencyHistogram hist{1ULL << 30, 32};
  uint64_t processed = 0;
  double wall_seconds = 0;
  uint64_t max_lag_us = 0;
};

CellResult RunCell(const partition::PartitionerConfig& config,
                   uint32_t workers, size_t shards, uint64_t service_us,
                   const std::vector<uint64_t>& times,
                   const std::vector<Key>& keys, uint64_t key_space,
                   bool pace) {
  engine::Topology topology;
  engine::NodeId spout = topology.AddSpout("src", /*parallelism=*/1);
  engine::LatencySink::Options sink_options;
  sink_options.model = engine::LatencySink::ServiceModel::kVirtualService;
  sink_options.service_us = service_us;
  engine::NodeId sink = topology.AddOperator(
      "sink", engine::LatencySink::MakeFactory(sink_options), workers);
  PKGSTREAM_CHECK_OK(topology.Connect(spout, sink, config));
  engine::ThreadedRuntimeOptions options;
  options.queue_capacity = 128;
  options.shards = shards;
  auto rt = engine::ThreadedRuntime::Create(&topology, options);
  PKGSTREAM_CHECK_OK(rt.status());

  engine::OpenLoopClock clock;
  engine::OpenLoopOptions driver_options;
  driver_options.pace = pace;
  engine::OpenLoopDriver driver(rt->get(), spout, &clock, driver_options);
  VectorSchedule schedule(&times);
  VectorKeyStream key_stream(&keys, key_space);
  engine::OpenLoopDriver::Source source;
  source.source = 0;
  source.schedule = &schedule;
  source.keys = &key_stream;
  source.messages = times.size();
  auto reports = driver.Run({source});
  (*rt)->Finish();

  CellResult result;
  result.hist = engine::LatencySink::MergedHistogram(rt->get(), sink, workers,
                                                     sink_options);
  for (uint64_t n : (*rt)->Processed(sink)) result.processed += n;
  result.wall_seconds = static_cast<double>(clock.NowMicros()) / 1e6;
  result.max_lag_us = reports[0].max_lag_us;
  return result;
}

struct WordCountResult {
  double msgs_per_sec = 0;
  uint64_t total = 0;  // sum of aggregator totals == messages injected
};

/// Closed-loop multi-stage run: 2 spouts -> `workers` counters (PKG-L) ->
/// 1 aggregator, one injector thread per spout instance.
WordCountResult RunWordCount(size_t shards, uint32_t workers,
                             uint64_t messages_per_source, uint64_t seed) {
  constexpr uint32_t kSources = 2;
  apps::WordCountTopology wc = apps::MakeWordCountTopology(
      partition::Technique::kPkgLocal, kSources, workers, /*tick_period=*/0,
      /*topk=*/5, seed);
  engine::ThreadedRuntimeOptions options;
  options.queue_capacity = 256;
  options.shards = shards;
  auto rt = engine::ThreadedRuntime::Create(&wc.topology, options);
  PKGSTREAM_CHECK_OK(rt.status());
  auto dist = std::make_shared<const workload::StaticDistribution>(
      workload::ZipfWeights(1000, 1.5), "zipf(1.5,K=1000)");
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> injectors;
  for (uint32_t s = 0; s < kSources; ++s) {
    injectors.emplace_back([&, s] {
      workload::IidKeyStream stream(dist, seed * 131 + s);
      constexpr size_t kBatch = 256;
      Key keys[kBatch];
      engine::Message batch[kBatch];
      for (uint64_t i = 0; i < messages_per_source;) {
        const size_t len = static_cast<size_t>(
            std::min<uint64_t>(kBatch, messages_per_source - i));
        stream.NextBatch(keys, len);
        for (size_t j = 0; j < len; ++j) {
          batch[j].key = keys[j];
          batch[j].tag = apps::kTagWord;
        }
        (*rt)->InjectBatch(wc.spout, s, batch, len);
        i += len;
      }
    });
  }
  for (auto& t : injectors) t.join();
  (*rt)->Finish();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  WordCountResult r;
  auto* agg = static_cast<apps::TopKAggregator*>(
      (*rt)->GetOperator(wc.aggregator, 0));
  for (const auto& [key, count] : agg->totals()) r.total += count;
  r.msgs_per_sec =
      static_cast<double>(kSources * messages_per_source) / elapsed.count();
  return r;
}

std::string FormatUs(uint64_t us) {
  char buf[32];
  if (us >= 10000) {
    std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(us) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluus",
                  static_cast<unsigned long long>(us));
  }
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
  const char* title =
      "Many-worker sharded runtime: D/W-Choices vs PKG at W=100-1000";
  const char* paper_ref =
      "Nasir et al. 2016 (When Two Choices Are Not Enough) run through the "
      "real sharded engine; Nasir et al. 2015 Section V methodology";
  bench::PrintBanner(title, paper_ref, args);
  bench::Report report("bench_threaded_manyworkers", title, paper_ref, args);

  // Flat stream length per cell: the D/W warm-up transient (see file
  // comment) is a fixed message count, so a fixed length keeps its share
  // of every cell identical.
  uint64_t messages = args.quick ? 20000 : 40000;
  if (args.full) messages = 100000;
  messages = static_cast<uint64_t>(
      flags.GetInt("messages", static_cast<int64_t>(messages)));
  const uint64_t service_us =
      static_cast<uint64_t>(flags.GetInt("service_us", 5000));
  const size_t shards = static_cast<size_t>(flags.GetInt("shards", 8));
  const bool pace = flags.GetBool("pace", false);
  PKGSTREAM_CHECK(messages > 0 && service_us > 0 && shards > 0);

  const std::vector<uint32_t> worker_counts = {100, 500, 1000};
  const std::vector<std::pair<partition::Technique, std::string>> techniques =
      {{partition::Technique::kPkgLocal, "PKG-L"},
       {partition::Technique::kDChoices, "D-Choices"},
       {partition::Technique::kWChoices, "W-Choices"},
       {partition::Technique::kShuffle, "SG"},
       {partition::Technique::kHashing, "KG"}};

  auto dist = std::make_shared<const workload::StaticDistribution>(
      workload::ZipfWeights(1000, 1.5), "zipf(1.5,K=1000)");

  report.AddMetric("messages_per_cell", static_cast<double>(messages));
  report.AddMetric("service_us", static_cast<double>(service_us));
  report.AddMetric("shards", static_cast<double>(shards));

  std::cout << "shards=" << shards << "  service_us=" << service_us
            << "  messages_per_cell=" << messages
            << "  pace=" << (pace ? "on" : "off") << "  keys=" << dist->name()
            << " (p1=" << dist->P1() << ")\n\n";

  Table table({"W", "technique", "count", "p50", "p95", "p99", "p999", "max",
               "mean us"});
  uint64_t worst_p999 = 0;
  uint64_t saturated_total = 0;
  for (uint32_t w : worker_counts) {
    // Offered load scales with the cluster: 20% of aggregate capacity.
    const uint64_t load =
        static_cast<uint64_t>(w) * (1000000 / service_us) / 5;
    std::vector<uint64_t> times(messages);
    std::vector<Key> keys(messages);
    workload::PoissonSchedule schedule(static_cast<double>(load),
                                       args.seed ^ w);
    schedule.NextBatchMicros(times.data(), messages);
    workload::IidKeyStream key_stream(dist, args.seed * 31 + w);
    key_stream.NextBatch(keys.data(), messages);
    uint64_t sched_sum = 0, key_sum = 0;
    for (uint64_t t : times) sched_sum += t;
    for (Key k : keys) key_sum += k;
    const std::string w_prefix = "W=" + std::to_string(w) + "/";
    report.AddMetric(w_prefix + "load", static_cast<double>(load));
    report.AddMetric(w_prefix + "sched_checksum",
                     static_cast<double>(sched_sum & 0xffffffffULL));
    report.AddMetric(w_prefix + "key_checksum",
                     static_cast<double>(key_sum & 0xffffffffULL));

    for (const auto& [technique, name] : techniques) {
      CellResult cell =
          RunCell(ConfigFor(technique, w, args.seed), w, shards, service_us,
                  times, keys, dist->K(), pace);
      const auto& h = cell.hist;
      PKGSTREAM_CHECK(cell.processed == messages && h.count() == messages)
          << "message loss: injected " << messages << ", processed "
          << cell.processed << ", recorded " << h.count();
      const std::string prefix = w_prefix + name + "/";
      report.AddMetric(prefix + "count", static_cast<double>(h.count()));
      report.AddMetric(prefix + "p50_us", static_cast<double>(h.P50()));
      report.AddMetric(prefix + "p95_us", static_cast<double>(h.P95()));
      report.AddMetric(prefix + "p99_us", static_cast<double>(h.P99()));
      report.AddMetric(prefix + "p999_us", static_cast<double>(h.P999()));
      report.AddMetric(prefix + "max_us", static_cast<double>(h.max()));
      report.AddMetric(prefix + "mean_us", h.mean());
      report.AddMetric(prefix + "saturated",
                       static_cast<double>(h.saturated()));
      report.AddHostMetric(prefix + "wall_seconds", cell.wall_seconds);
      report.AddHostMetric(prefix + "max_inject_lag_us",
                           static_cast<double>(cell.max_lag_us));
      worst_p999 = std::max(worst_p999, h.P999());
      saturated_total += h.saturated();
      table.AddRow({std::to_string(w), name, std::to_string(h.count()),
                    FormatUs(h.P50()), FormatUs(h.P95()), FormatUs(h.P99()),
                    FormatUs(h.P999()), FormatUs(h.max()),
                    std::to_string(static_cast<uint64_t>(h.mean()))});
    }
  }
  report.AddTable(std::move(table));

  // Multi-stage throughput: the same wordcount pipeline, one shard per
  // instance vs 4 shards. Totals are interleaving-independent (deterministic metric);
  // rates are wall-clock (host metrics, compared only as ratios).
  const uint64_t wc_messages = args.quick ? 40000 : 100000;
  WordCountResult per_instance =
      RunWordCount(/*shards=*/0, /*workers=*/8, wc_messages, args.seed);
  WordCountResult sharded =
      RunWordCount(/*shards=*/4, /*workers=*/8, wc_messages, args.seed);
  PKGSTREAM_CHECK(per_instance.total == sharded.total)
      << "sharded wordcount totals diverge: " << per_instance.total << " vs "
      << sharded.total;
  const double ratio = sharded.msgs_per_sec / per_instance.msgs_per_sec;
  report.AddMetric("throughput/wordcount_total",
                   static_cast<double>(sharded.total));
  report.AddHostMetric("throughput/per_instance_mps",
                       per_instance.msgs_per_sec);
  report.AddHostMetric("throughput/sharded_mps", sharded.msgs_per_sec);
  report.AddHostMetric("throughput/sharded_vs_per_instance", ratio);
  std::printf(
      "\nwordcount 2 spouts -> 8 counters -> 1 aggregator, %llu msgs:\n"
      "  one shard per instance %.2fM msg/s, 4 shards %.2fM msg/s "
      "(ratio %.2fx)\n",
      static_cast<unsigned long long>(2 * wc_messages),
      per_instance.msgs_per_sec / 1e6, sharded.msgs_per_sec / 1e6, ratio);

  report.AddText(
      "Expected shape (the sequel's headline, through the real sharded\n"
      "engine): at 20% average utilization the only danger is the Zipf head\n"
      "(p1~0.39). KG parks it on one worker and PKG-L on a fixed pair, so\n"
      "both saturate those workers at every W here and their tails grow\n"
      "unboundedly for the length of the cell. D-Choices / W-Choices detect\n"
      "the head and spread it over ~p*W/eps (or all) workers, so their p99\n"
      "stays within a small factor of shuffle grouping's — two choices are\n"
      "not enough at W >= 100, a few more for the head suffice. Latencies\n"
      "are virtual-service (deterministic); wall-clock throughput of the\n"
      "multi-stage wordcount run lands in host_metrics only.");

  // One greppable line for the CI reproduction-gate job.
  std::cout << "[bench_threaded_manyworkers] manyworkers-complete:"
            << " worker_counts=" << worker_counts.size()
            << " techniques=" << techniques.size() << " shards=" << shards
            << " worst_p999_us=" << worst_p999
            << " saturated=" << saturated_total << "\n";
  return bench::Finish(report, args);
}
