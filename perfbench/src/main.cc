// Copyright 2026 The pkgstream Authors.
// The repository benchmark: runs one named workload through the threaded
// engine, checks the outputs against references computed from the
// pre-generated inputs, and prints the end-to-end metrics (untraced run) or
// the per-layer ledger (traced run) as one JSON line at the end.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--trace-dir=<dir>]
//
// Workloads (perfbench/README.md says why each exists):
//   wordcount_closed  2 sources -> PKG-L -> 4 WordCountCounter -> KG ->
//                     TopKAggregator, 1 shard; WP keys (K = 2.9M,
//                     p1 = 9.32%); closed loop, 256-message InjectBatch.
//   fanout_500        1 source -> D-Choices -> 500 LatencySink, 2 shards;
//                     Zipf(1.5, K = 1000); closed loop.
//   wordcount_paced   the word-count job with 1 source, open loop: a fixed
//                     Poisson schedule at 1.2M msgs/s, WP's p1 with 29k keys.
//
// The inputs (rate x seconds messages) are generated from the seed before
// any slice is timed, and are cut into kReps consecutive slices. Each slice
// is one complete job on a fresh runtime: inject, Finish, check. Timings
// are medians over the slices, and latency quantiles are medians over
// blocks of kBlock consecutive samples, so a stretch of the run that a
// shared host slows down spoils a few samples, not the reported value.
// Routing, counts and max_load_ratio are a pure function of the seed.
//
// Closed loops inject from the benchmark's clients; the paced workload runs
// the program's OpenLoopDriver.
//
// Every thread the benchmark or the engine starts is pinned to its own CPU:
// shards take CPUs 0..shards-1 (pinned by the engine at Create), the
// injector threads pin themselves to the next CPUs afterwards. Pinning the
// main thread first would shrink the mask every later thread inherits.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "common/hash.h"
#include "common/logging.h"
#include "engine/cpu_affinity.h"
#include "engine/logical_runtime.h"
#include "engine/open_loop.h"
#include "engine/spsc_ring.h"
#include "engine/threaded_runtime.h"
#include "engine/topology.h"
#include "layers.h"
#include "partition/factory.h"
#include "probe.h"
#include "stats/latency_histogram.h"
#include "workload/arrival_schedule.h"
#include "workload/dataset.h"
#include "workload/key_stream.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace perfbench {
namespace {

namespace engine = pkgstream::engine;
namespace partition = pkgstream::partition;
namespace workload = pkgstream::workload;
using pkgstream::Key;
using pkgstream::stats::LatencyHistogram;

constexpr size_t kInjectBatch = 256;
/// Consecutive input slices per run, each one complete job.
constexpr uint64_t kReps = 10;
/// Latency quantiles are taken per block of this many consecutive samples
/// of one source (p99 then has ten samples beyond it).
constexpr size_t kBlock = 1024;
/// The reported latency quantiles, indexed by Quantile.
constexpr double kQuantiles[] = {0.50, 0.95, 0.99};
enum Quantile { kP50, kP95, kP99 };
/// Setup (topology build + Create) is timed in kSetupRounds rounds of
/// kSetupPerRound back-to-back builds, and the median is reported. Each
/// round starts after an idle pause, so the rounds sample different moments
/// of a shared host, and after kSetupWarmup untimed builds, so no round pays
/// for waking the idle CPUs: on a 4-vCPU VM, a Create right after a 10 ms
/// pause took 4x as long as back-to-back ones, and rounds timed right after
/// a slice differed by up to 60%.
constexpr int kSetupRounds = 10;
constexpr int kSetupPerRound = 30;
constexpr int kSetupWarmup = 3;
constexpr auto kSetupPause = std::chrono::milliseconds(50);
/// Traced runs sample ApproxInboxDepth from the main thread this often.
constexpr auto kDepthEvery = std::chrono::microseconds(100);
/// InjectBatch spans kept per client and slice for the trace file (the
/// metrics use every call).
constexpr size_t kKeptSpans = 10000;
/// Paced slices start this late so the injector is running at time 0.
constexpr uint64_t kLeadInUs = 1000;
/// Keys replayed by the isolated hash / route layers.
constexpr size_t kLayerKeys = size_t{1} << 22;
/// Slots moved by the isolated ring layer.
constexpr uint64_t kRingMessages = uint64_t{1} << 22;

enum class Job { kWordCount, kFanout };
enum class KeySet { kWikipedia, kWikipediaSmall, kZipf15 };

struct WorkloadSpec {
  const char* name;
  Job job;
  bool paced;
  uint32_t sources;
  uint32_t workers;
  size_t shards;
  partition::Technique technique;
  /// Closed loop: nominal msgs/s; a run injects rate x seconds messages.
  /// Paced: the offered Poisson rate.
  double rate;
  KeySet keys;
};

const WorkloadSpec kWorkloads[] = {
    {"wordcount_closed", Job::kWordCount, false, 2, 4, 1,
     partition::Technique::kPkgLocal, 3.5e6, KeySet::kWikipedia},
    {"fanout_500", Job::kFanout, false, 1, 500, 2,
     partition::Technique::kDChoices, 1.0e6, KeySet::kZipf15},
    {"wordcount_paced", Job::kWordCount, true, 1, 4, 1,
     partition::Technique::kPkgLocal, 1.2e6, KeySet::kWikipediaSmall},
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t AbsDiff(uint64_t a, uint64_t b) { return a > b ? a - b : b - a; }

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct Inputs {
  std::shared_ptr<const workload::StaticDistribution> dist;
  std::vector<std::vector<Key>> keys;  // per source, injection order
  std::vector<uint64_t> schedule_us;   // paced only: scheduled arrivals
  uint64_t per_source = 0;             // messages per source
  uint64_t key_checksum = 0;           // order-sensitive, printed per seed
  uint64_t schedule_checksum = 0;

  uint64_t SliceBegin(uint64_t rep) const { return rep * per_source / kReps; }
  uint64_t SliceEnd(uint64_t rep) const { return SliceBegin(rep + 1); }
};

uint64_t Checksum(uint64_t acc, uint64_t v) {
  return MixKey(pkgstream::HashCombine(acc, v));
}

std::shared_ptr<const workload::StaticDistribution> MakeDistribution(
    KeySet set) {
  if (set == KeySet::kZipf15) {
    return std::make_shared<const workload::StaticDistribution>(
        workload::ZipfWeights(1000, 1.5), "zipf(1.5,K=1000)");
  }
  // WP stand-in: Zipf fitted to Table I's p1 = 9.32%; K = 2.9M at scale 1,
  // 29k at scale 0.01 (same p1).
  const double scale = set == KeySet::kWikipedia ? 1.0 : 0.01;
  auto dist = workload::MakeDistribution(
      workload::GetDataset(workload::DatasetId::kWP), scale, /*seed=*/0);
  PKGSTREAM_CHECK_OK(dist.status());
  return *dist;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Inputs in;
  in.dist = MakeDistribution(spec.keys);
  in.per_source = std::max<uint64_t>(
      kReps * kInjectBatch,
      static_cast<uint64_t>(spec.rate * seconds / spec.sources));
  in.keys.resize(spec.sources);
  for (uint32_t s = 0; s < spec.sources; ++s) {
    workload::IidKeyStream stream(in.dist,
                                  pkgstream::HashCombine(seed, 0x5EED + s));
    in.keys[s].resize(in.per_source);
    stream.NextBatch(in.keys[s].data(), in.per_source);
    for (Key k : in.keys[s]) in.key_checksum = Checksum(in.key_checksum, k);
  }
  if (spec.paced) {
    workload::PoissonSchedule schedule(spec.rate,
                                       pkgstream::HashCombine(seed, 0xA11));
    in.schedule_us.resize(in.per_source);
    schedule.NextBatchMicros(in.schedule_us.data(), in.per_source);
    for (uint64_t t : in.schedule_us) {
      in.schedule_checksum = Checksum(in.schedule_checksum, t);
    }
  }
  return in;
}

/// OpenLoopDriver's key stream: one slice of the pre-generated keys, read in
/// place (a VectorKeyStream would copy the slice, and peak_rss_mib would
/// count the copy).
class SliceKeys final : public workload::KeyStream {
 public:
  SliceKeys(const Key* keys, uint64_t key_space)
      : keys_(keys), key_space_(key_space) {}
  Key Next() override { return *keys_++; }
  void NextBatch(Key* out, size_t n) override {
    std::copy(keys_, keys_ + n, out);
    keys_ += n;
  }
  uint64_t KeySpace() const override { return key_space_; }
  std::string Name() const override { return "slice replay"; }

 private:
  const Key* keys_;
  uint64_t key_space_;
};

/// OpenLoopDriver's schedule: one slice of the pre-generated arrivals, moved
/// `shift_us` earlier.
class SliceSchedule final : public workload::ArrivalSchedule {
 public:
  SliceSchedule(const uint64_t* arrivals_us, uint64_t shift_us)
      : arrivals_us_(arrivals_us), shift_us_(shift_us) {}
  uint64_t NextMicros() override { return *arrivals_us_++ - shift_us_; }
  std::string Name() const override { return "slice replay"; }

 private:
  const uint64_t* arrivals_us_;
  uint64_t shift_us_;
};

/// What one slice must produce: per-key counts and the key-multiset digest.
struct Expected {
  std::vector<uint32_t> counts;  // indexed by key, reused across slices
  uint64_t digest = 0;
  uint64_t messages = 0;
};

void ComputeExpected(const Inputs& in, uint64_t rep, Expected* ex) {
  std::fill(ex->counts.begin(), ex->counts.end(), 0);
  ex->digest = 0;
  ex->messages = 0;
  for (const std::vector<Key>& keys : in.keys) {
    for (uint64_t j = in.SliceBegin(rep); j < in.SliceEnd(rep); ++j) {
      ++ex->counts[keys[j]];
      ex->digest += MixKey(keys[j]);
      ++ex->messages;
    }
  }
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

struct Built {
  engine::Topology topology;
  engine::NodeId spout;
  engine::NodeId worker;      // counters or sinks
  engine::NodeId aggregator;  // word count only
};

partition::PartitionerConfig EdgeConfig(const WorkloadSpec& spec) {
  partition::PartitionerConfig config;
  config.technique = spec.technique;
  config.sources = spec.sources;
  config.workers = spec.workers;
  config.seed = 42;
  return config;
}

/// The workload's job with every program operator inside a ProbeOperator.
/// `latency` (may be null) is sampled at the first stage only.
std::unique_ptr<Built> BuildTopology(const WorkloadSpec& spec,
                                     LatencyProbe* latency, bool traced) {
  auto b = std::make_unique<Built>();
  if (spec.job == Job::kWordCount) {
    const auto mode = pkgstream::apps::CounterMode::kPartialCounts;
    b->spout = b->topology.AddSpout("words", spec.sources);
    b->worker = b->topology.AddOperator(
        "counter",
        [=](uint32_t) {
          return std::make_unique<ProbeOperator>(
              std::make_unique<pkgstream::apps::WordCountCounter>(mode, 10),
              latency, traced);
        },
        spec.workers);
    b->aggregator = b->topology.AddOperator(
        "aggregator",
        [=](uint32_t) {
          return std::make_unique<ProbeOperator>(
              std::make_unique<pkgstream::apps::TopKAggregator>(mode, 10),
              nullptr, traced);
        },
        1);
    PKGSTREAM_CHECK_OK(
        b->topology.Connect(b->spout, b->worker, EdgeConfig(spec)));
    PKGSTREAM_CHECK_OK(b->topology.Connect(
        b->worker, b->aggregator, partition::Technique::kHashing, 43));
  } else {
    engine::LatencySink::Options sink;
    sink.model = engine::LatencySink::ServiceModel::kVirtualService;
    sink.service_us = 1;
    b->spout = b->topology.AddSpout("src", spec.sources);
    b->worker = b->topology.AddOperator(
        "sink",
        [=](uint32_t) {
          return std::make_unique<ProbeOperator>(
              std::make_unique<engine::LatencySink>(sink), latency, traced);
        },
        spec.workers);
    PKGSTREAM_CHECK_OK(
        b->topology.Connect(b->spout, b->worker, EdgeConfig(spec)));
  }
  return b;
}

engine::ThreadedRuntimeOptions RuntimeOptions(const WorkloadSpec& spec) {
  engine::ThreadedRuntimeOptions options;
  options.shards = spec.shards;
  options.pin_shards = true;
  return options;
}

template <typename Runtime>
ProbeOperator* ProbeAt(Runtime* rt, engine::NodeId node, uint32_t instance) {
  auto* probe = dynamic_cast<ProbeOperator*>(rt->GetOperator(node, instance));
  PKGSTREAM_CHECK(probe != nullptr);
  return probe;
}

// ---------------------------------------------------------------------------
// One slice on a fresh runtime
// ---------------------------------------------------------------------------

struct ClientStats {
  std::vector<Span> spans;  // first kKeptSpans InjectBatch calls (traced)
  LatencyHistogram call_ns{1ULL << 34, 32};
  int64_t inject_ns = 0;
  uint64_t calls = 0;
  uint64_t injected = 0;
  engine::OpenLoopSourceReport driver;  // paced only
  int cpu = -1;
};

struct SliceResult {
  uint64_t messages = 0;
  int64_t epoch_ns = 0;
  double wall_s = 0;  // first InjectBatch to the return of Finish
  Span finish;
  std::vector<ClientStats> clients;
  std::vector<size_t> depths;  // traced: ApproxInboxDepth of the workers
  std::vector<Span> closes;
  std::vector<uint64_t> processed;  // per worker instance
  std::set<int> worker_cpus;
  int64_t busy_ns = 0;
  uint64_t state_keys = 0;
  /// Per block of kBlock latency samples: its kQuantiles, in ns.
  std::vector<std::array<double, 3>> latency_blocks;
  uint64_t latency_samples = 0;
};

/// Closed loop: back-to-back 256-message batches from one source, each
/// stamped with its send time (ns since the slice epoch).
void ClosedClient(engine::ThreadedRuntime* rt, const Built& b,
                  const Inputs& in, uint64_t rep, uint32_t source,
                  const LatencyProbe& probe, bool traced, ClientStats* st) {
  std::vector<engine::Message> msgs(kInjectBatch);
  const std::vector<Key>& keys = in.keys[source];
  const uint64_t end = in.SliceEnd(rep);
  for (uint64_t j = in.SliceBegin(rep); j < end; j += kInjectBatch) {
    const size_t c =
        static_cast<size_t>(std::min<uint64_t>(kInjectBatch, end - j));
    const uint64_t stamp = static_cast<uint64_t>(NowNs() - probe.epoch_ns);
    for (size_t i = 0; i < c; ++i) {
      msgs[i].key = keys[j + i];
      msgs[i].ts = stamp;
    }
    if (!traced) {
      rt->InjectBatch(b.spout, source, msgs.data(), c);
    } else {
      const int64_t t0 = NowNs();
      rt->InjectBatch(b.spout, source, msgs.data(), c);
      const int64_t t1 = NowNs();
      st->inject_ns += t1 - t0;
      st->call_ns.Record(static_cast<uint64_t>(t1 - t0));
      if (st->spans.size() < kKeptSpans) {
        st->spans.push_back({t0, t1, static_cast<uint32_t>(c), source});
      }
    }
    ++st->calls;
    st->injected += c;
  }
}

/// Open loop: the program's OpenLoopDriver (pace = true, at most 256 per
/// call) replays the slice's keys on its schedule, shifted to start
/// kLeadInUs after `clock`'s epoch; Message::ts is that shifted arrival in
/// microseconds. The driver's thread inherits this thread's CPU pin.
void PacedClient(engine::ThreadedRuntime* rt, const Built& b,
                 const Inputs& in, uint64_t rep,
                 const engine::OpenLoopClock* clock, ClientStats* st) {
  const uint64_t begin = in.SliceBegin(rep);
  SliceKeys keys(in.keys[0].data() + begin, in.dist->K());
  SliceSchedule schedule(in.schedule_us.data() + begin,
                         in.schedule_us[begin] - kLeadInUs);
  engine::OpenLoopOptions options;
  options.pace = true;
  options.max_batch = kInjectBatch;
  engine::OpenLoopDriver driver(rt, b.spout, clock, options);
  st->driver = driver.Run({{0, &schedule, &keys, in.SliceEnd(rep) - begin}})[0];
  st->injected = st->driver.injected;
}

/// Mismatches between a finished slice and its references; each one counts
/// toward `failed`.
struct Failures {
  uint64_t count = 0;
  std::vector<std::string> notes;
  void Add(uint64_t n, const std::string& what) {
    if (n == 0) return;
    count += n;
    notes.push_back(what + " (" + std::to_string(n) + ")");
  }
};

/// Checks delivery (engine counters, wrapper counts, key digest) and the
/// job's final output against `ex`.
template <typename Runtime>
void CheckOutputs(const WorkloadSpec& spec, const Expected& ex,
                  const Built& b, Runtime* rt,
                  const std::vector<uint64_t>& processed, Failures* f) {
  uint64_t engine_total = 0;
  for (uint64_t p : processed) engine_total += p;
  f->Add(AbsDiff(engine_total, ex.messages),
         "engine Processed sum != messages injected");

  uint64_t delivered = 0, digest = 0;
  for (uint32_t w = 0; w < spec.workers; ++w) {
    const ProbeOperator* p = ProbeAt(rt, b.worker, w);
    delivered += p->count();
    digest += p->key_digest();
  }
  f->Add(AbsDiff(delivered, ex.messages),
         "messages delivered != messages injected");
  if (delivered == ex.messages && digest != ex.digest) {
    f->Add(1, "delivered key multiset differs from the injected keys");
  }

  if (spec.job == Job::kWordCount) {
    auto* agg = dynamic_cast<pkgstream::apps::TopKAggregator*>(
        ProbeAt(rt, b.aggregator, 0)->inner());
    PKGSTREAM_CHECK(agg != nullptr);
    uint64_t wrong = 0, expected_keys = 0;
    for (const auto& [key, total] : agg->totals()) {
      if (key >= ex.counts.size() || total != ex.counts[key]) ++wrong;
    }
    for (uint32_t c : ex.counts) expected_keys += c > 0;
    // Every correct aggregator entry matches one expected key; the rest of
    // the expected keys are missing.
    const uint64_t matched = agg->totals().size() - wrong;
    f->Add(wrong + (expected_keys - std::min(expected_keys, matched)),
           "aggregator totals != reference counts (keys)");
  } else {
    uint64_t sunk = 0;
    for (uint32_t w = 0; w < spec.workers; ++w) {
      auto* sink =
          dynamic_cast<engine::LatencySink*>(ProbeAt(rt, b.worker, w)->inner());
      PKGSTREAM_CHECK(sink != nullptr);
      sunk += sink->histogram().count();
    }
    f->Add(AbsDiff(sunk, ex.messages),
           "LatencySink counts != messages injected");
  }
}

SliceResult RunSlice(const WorkloadSpec& spec, const Inputs& in, uint64_t rep,
                     const Expected& ex, bool traced, LatencyProbe* probe,
                     Failures* failures) {
  SliceResult r;
  r.messages = ex.messages;
  probe->next.store(0);
  auto b = BuildTopology(spec, probe, traced);
  auto created =
      engine::ThreadedRuntime::Create(&b->topology, RuntimeOptions(spec));
  PKGSTREAM_CHECK_OK(created.status());
  engine::ThreadedRuntime* rt = created->get();

  const uint32_t clients = spec.paced ? 1 : spec.sources;
  r.clients.resize(clients);
  for (ClientStats& st : r.clients) {
    if (traced) st.spans.reserve(kKeptSpans);
  }
  std::atomic<uint32_t> ready{0}, done{0};
  std::atomic<bool> go{false};
  std::optional<engine::OpenLoopClock> clock;
  std::vector<std::thread> threads;
  // Injector threads start after Create, so the shards have already taken
  // CPUs 0..shards-1 and these pins cannot shrink their masks.
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientStats* st = &r.clients[c];
      engine::CpuAffinity::PinCurrentThread(
          static_cast<unsigned>(spec.shards + c));
      st->cpu = sched_getcpu();
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        engine::Backoff::CpuRelax();
      }
      if (spec.paced) {
        PacedClient(rt, *b, in, rep, &*clock, st);
      } else {
        ClosedClient(rt, *b, in, rep, c, *probe, traced, st);
      }
      done.fetch_add(1);
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  // Written before `go` is released; shard threads read it only for
  // messages injected after that. The epoch is the paced clock's, to within
  // half the two clock reads around it.
  const int64_t before = NowNs();
  clock.emplace();
  probe->epoch_ns = before + (NowNs() - before) / 2;
  r.epoch_ns = probe->epoch_ns;
  go.store(true, std::memory_order_release);
  // The main thread is not pinned; it runs on the CPU left spare.
  while (traced && done.load() < clients) {
    r.depths.push_back(rt->ApproxInboxDepth(b->worker));
    std::this_thread::sleep_for(kDepthEvery);
  }
  for (auto& t : threads) t.join();
  r.finish.start_ns = NowNs();
  rt->Finish();
  r.finish.end_ns = NowNs();
  r.wall_s = static_cast<double>(r.finish.end_ns - r.epoch_ns) / 1e9;

  r.processed = rt->Processed(b->worker);
  for (uint32_t w = 0; w < spec.workers; ++w) {
    const ProbeOperator* p = ProbeAt(rt, b->worker, w);
    r.busy_ns += p->busy_ns();
    r.state_keys += p->state_keys();
    r.worker_cpus.insert(p->close_cpu());
    r.closes.push_back(p->close_span());
  }
  if (spec.job == Job::kWordCount) {
    r.closes.push_back(ProbeAt(rt, b->aggregator, 0)->close_span());
  }
  CheckOutputs(spec, ex, *b, rt, r.processed, failures);

  // This slice's latency samples in delivery order, in blocks of kBlock; a
  // trailing block shorter than half of kBlock is dropped.
  uint64_t sampled = 0;
  for (uint32_t w = 0; w < spec.workers; ++w) {
    sampled += probe->SamplesFor(ProbeAt(rt, b->worker, w)->count());
  }
  const size_t recorded = std::min(probe->next.load(), probe->slots.size());
  failures->Add(AbsDiff(recorded, sampled),
                "latency samples recorded != sampled deliveries");
  for (size_t i = 0; i < recorded; i += kBlock) {
    const size_t n = std::min(kBlock, recorded - i);
    if (n < kBlock / 2) break;
    const auto first = probe->slots.begin() + static_cast<long>(i);
    std::vector<uint32_t> block(first, first + static_cast<long>(n));
    std::sort(block.begin(), block.end());
    std::array<double, 3> q;
    for (size_t k = 0; k < q.size(); ++k) {
      q[k] = block[static_cast<size_t>(kQuantiles[k] *
                                       static_cast<double>(n - 1))];
    }
    r.latency_blocks.push_back(q);
    r.latency_samples += n;
  }
  return r;
}

/// Times `n` set-ups (topology build + Create; the runtime is finished
/// untimed), appending seconds to `setup_s` and the Create part in ms to
/// `create_ms` when they are non-null.
void TimeSetup(const WorkloadSpec& spec, int n, std::vector<double>* setup_s,
               std::vector<double>* create_ms) {
  LatencyProbe unused;
  for (int i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    auto b = BuildTopology(spec, &unused, /*traced=*/false);
    const int64_t t1 = NowNs();
    auto rt =
        engine::ThreadedRuntime::Create(&b->topology, RuntimeOptions(spec));
    const int64_t t2 = NowNs();
    PKGSTREAM_CHECK_OK(rt.status());
    (*rt)->Finish();
    if (setup_s != nullptr) {
      setup_s->push_back(static_cast<double>(t2 - t0) / 1e9);
    }
    if (create_ms != nullptr) {
      create_ms->push_back(static_cast<double>(t2 - t1) / 1e6);
    }
  }
}

/// Every slice of one run, plus what the metrics derive from them.
struct Run {
  std::vector<SliceResult> slices;
  Failures failures;

  uint64_t Messages() const {
    uint64_t n = 0;
    for (const SliceResult& s : slices) n += s.messages;
    return n;
  }
  double Throughput() const {
    std::vector<double> v;
    for (const SliceResult& s : slices) {
      v.push_back(static_cast<double>(s.messages) / s.wall_s);
    }
    return Median(v);
  }
  /// Median over every block of every slice of that block's quantile.
  double LatencyUs(Quantile q) const {
    std::vector<double> v;
    for (const SliceResult& s : slices) {
      for (const auto& block : s.latency_blocks) v.push_back(block[q] / 1e3);
    }
    return Median(v);
  }
  uint64_t LatencySamples() const {
    uint64_t n = 0;
    for (const SliceResult& s : slices) n += s.latency_samples;
    return n;
  }
  /// Busiest worker's share of all messages, times W (1 = perfect).
  double MaxLoadRatio() const {
    std::vector<uint64_t> total(slices[0].processed.size(), 0);
    for (const SliceResult& s : slices) {
      for (size_t w = 0; w < total.size(); ++w) total[w] += s.processed[w];
    }
    const uint64_t max = *std::max_element(total.begin(), total.end());
    return static_cast<double>(max) * static_cast<double>(total.size()) /
           static_cast<double>(Messages());
  }
  /// Median over slices of `f(slice)`.
  template <typename F>
  double MedianOf(F f) const {
    std::vector<double> v;
    for (const SliceResult& s : slices) v.push_back(f(s));
    return Median(v);
  }
};

Run RunAll(const WorkloadSpec& spec, const Inputs& in, bool traced,
           LatencyProbe* probe, Expected* ex) {
  Run run;
  for (uint64_t rep = 0; rep < kReps; ++rep) {
    ComputeExpected(in, rep, ex);
    run.slices.push_back(
        RunSlice(spec, in, rep, *ex, traced, probe, &run.failures));
  }
  return run;
}

// ---------------------------------------------------------------------------
// Set-up, memory, single-threaded reference
// ---------------------------------------------------------------------------

struct SetupResult {
  double setup_s = 0;    // median topology build + Create
  double create_ms = 0;  // median Create alone
};

SetupResult MeasureSetup(const WorkloadSpec& spec) {
  std::vector<double> setup_s, create_ms;
  for (int round = 0; round < kSetupRounds; ++round) {
    std::this_thread::sleep_for(kSetupPause);
    TimeSetup(spec, kSetupWarmup, nullptr, nullptr);
    TimeSetup(spec, kSetupPerRound, &setup_s, &create_ms);
  }
  return {Median(setup_s), Median(create_ms)};
}

/// /proc/self/status field in kB, or -1.
long StatusKb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(f, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtol(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return -1;
}

/// All-CPU steal and total jiffies from /proc/stat (0 where unavailable).
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;
  CpuTimes t;
  uint64_t v = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && f >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Resets VmHWM to the current RSS (Linux clear_refs value 5).
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

/// The first slice's job and input on the single-threaded LogicalRuntime,
/// sources interleaved batch by batch; msgs/s, checked like a slice.
double RunLogical(const WorkloadSpec& spec, const Inputs& in, Expected* ex,
                  Failures* failures) {
  ComputeExpected(in, 0, ex);
  auto b = BuildTopology(spec, nullptr, false);
  auto created = engine::LogicalRuntime::Create(&b->topology);
  PKGSTREAM_CHECK_OK(created.status());
  engine::LogicalRuntime* rt = created->get();
  std::vector<engine::Message> msgs(kInjectBatch);
  const uint64_t end = in.SliceEnd(0);
  const int64_t t0 = NowNs();
  for (uint64_t j = 0; j < end; j += kInjectBatch) {
    const size_t c =
        static_cast<size_t>(std::min<uint64_t>(kInjectBatch, end - j));
    for (uint32_t s = 0; s < spec.sources; ++s) {
      for (size_t i = 0; i < c; ++i) msgs[i].key = in.keys[s][j + i];
      rt->InjectBatch(b->spout, s, msgs.data(), c);
    }
  }
  rt->Finish();
  const int64_t t1 = NowNs();
  CheckOutputs(spec, *ex, *b, rt, rt->Metrics()[b->worker.index].processed,
               failures);
  return static_cast<double>(ex->messages) * 1e9 /
         static_cast<double>(t1 - t0);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

void PrintPlacement(const WorkloadSpec& spec, const Run& run) {
  std::set<int> workers, injectors;
  for (const SliceResult& s : run.slices) {
    workers.insert(s.worker_cpus.begin(), s.worker_cpus.end());
    for (const ClientStats& st : s.clients) injectors.insert(st.cpu);
  }
  std::printf("placement: %zu shard thread(s) pinned by the engine, worker "
              "operators ran on CPU(s)",
              spec.shards);
  for (int cpu : workers) std::printf(" %d", cpu);
  std::printf("; %zu injector thread(s) on CPU(s)",
              run.slices[0].clients.size());
  for (int cpu : injectors) std::printf(" %d", cpu);
  std::printf("; %u CPUs available\n", engine::CpuAffinity::AvailableCpus());
}

void WriteTrace(const std::string& path, const Run& run, double create_ms) {
  std::ofstream f(path);
  if (!f) {
    std::printf("warning: cannot write trace %s\n", path.c_str());
    return;
  }
  f << "# median ThreadedRuntime::Create " << create_ms << " ms\n"
    << "slice\tspan\towner\tstart_ns\tend_ns\tmessages\n";
  for (size_t i = 0; i < run.slices.size(); ++i) {
    const SliceResult& s = run.slices[i];
    auto row = [&](const char* kind, const Span& sp) {
      f << i << '\t' << kind << '\t' << sp.owner << '\t'
        << (sp.start_ns - s.epoch_ns) << '\t' << (sp.end_ns - s.epoch_ns)
        << '\t' << sp.messages << '\n';
    };
    for (const ClientStats& st : s.clients) {
      for (const Span& sp : st.spans) row("inject_batch", sp);
    }
    for (const Span& sp : s.closes) row("close", sp);
    row("finish", s.finish);
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    kv[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  for (const auto& [k, v] : kv) {
    char* end = nullptr;
    if (k == "workload") {
      a->workload = v;
    } else if (k == "seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (k == "seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0') return false;
    } else if (k == "trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->seconds <= 60 &&
         a->trace >= 0;
}

/// The per-layer ledger from a traced run, next to an untraced one.
std::vector<Metric> Ledger(const WorkloadSpec& spec, const Inputs& in,
                           const Run& base, const Run& traced,
                           const SetupResult& setup, double logical_msgs_s) {
  int64_t inject_ns = 0, busy_ns = 0;
  uint64_t calls = 0, injected = 0, late = 0, depth_sum = 0, depth_n = 0,
           worker_msgs = 0;
  size_t depth_max = 0;
  double shard_ns = 0;
  LatencyHistogram call_ns{1ULL << 34, 32};
  LatencyHistogram lag_us{1ULL << 30, 32};
  for (const SliceResult& s : traced.slices) {
    for (const ClientStats& st : s.clients) {
      inject_ns += st.inject_ns;
      calls += st.calls;
      injected += st.injected;
      late += st.driver.late_batches;
      call_ns.Merge(st.call_ns);
      lag_us.Merge(st.driver.lag_histogram);
    }
    for (size_t d : s.depths) {
      depth_sum += d;
      depth_max = std::max(depth_max, d);
      ++depth_n;
    }
    busy_ns += s.busy_ns;
    for (uint64_t p : s.processed) worker_msgs += p;
    shard_ns += static_cast<double>(spec.shards) * s.wall_s * 1e9;
  }

  std::vector<Key> layer_keys(
      in.keys[0].begin(),
      in.keys[0].begin() +
          static_cast<long>(std::min<uint64_t>(kLayerKeys, in.per_source)));
  const partition::PartitionerConfig edge = EdgeConfig(spec);
  const double hash_ns =
      HashNsPerKey(layer_keys, edge.num_choices, spec.workers);
  const double route_ns = RouteNsPerMsg(edge, layer_keys);
  const double ring1_ns = RingNsPerMsg(1, kRingMessages);
  const double ring500_ns = RingNsPerMsg(500, kRingMessages);
  const bool wide = spec.workers >= 100;
  const double ring_ns = wide ? ring500_ns : ring1_ns;
  double inject_per_msg, msgs_per_call;
  if (spec.paced) {
    // OpenLoopDriver makes its InjectBatch calls inside the engine and
    // reports neither their number nor their duration.
    inject_per_msg = lag_us.mean() * 1e3;
    uint64_t due_ticks = 0;
    for (size_t i = 0; i < in.schedule_us.size(); ++i) {
      due_ticks += i == 0 || in.schedule_us[i] != in.schedule_us[i - 1];
    }
    msgs_per_call = static_cast<double>(in.schedule_us.size()) /
                    static_cast<double>(due_ticks);
    std::printf("inject: OpenLoopDriver does not expose its InjectBatch "
                "calls, so inject.ns_per_msg is its mean per-message lag "
                "from scheduled arrival to the return of InjectBatch, and "
                "inject.msgs_per_call is messages per distinct scheduled "
                "microsecond (the batch its pacing rule forms when on "
                "time), taken from the schedule\n");
  } else {
    inject_per_msg =
        static_cast<double>(inject_ns) / static_cast<double>(injected);
    msgs_per_call =
        static_cast<double>(injected) / static_cast<double>(calls);
  }

  double overhead;
  if (spec.paced) {
    overhead =
        traced.LatencyUs(kP50) / base.LatencyUs(kP50) - 1;
    std::printf("trace overhead: latency p50 %.3f us traced vs %.3f us "
                "untraced\n",
                traced.LatencyUs(kP50), base.LatencyUs(kP50));
  } else {
    overhead = 1 - traced.Throughput() / base.Throughput();
    std::printf("trace overhead: throughput %.0f msgs/s traced vs %.0f "
                "msgs/s untraced\n",
                traced.Throughput(), base.Throughput());
  }
  std::printf("ledger: isolated route %.2f (includes its hashing; hash "
              "alone %.2f) + ring %.2f (%s) = %.2f ns/msg",
              route_ns, hash_ns, ring_ns, wide ? "500 rings" : "1 ring",
              route_ns + ring_ns);
  if (spec.paced) {
    std::printf("; no InjectBatch span to compare it with\n");
  } else {
    std::printf(" vs InjectBatch %.2f ns/msg\n", inject_per_msg);
  }
  double lag_p99_us, late_share;
  if (spec.paced) {
    lag_p99_us = static_cast<double>(lag_us.P99());
    late_share = static_cast<double>(late) / static_cast<double>(injected);
    std::printf("driver: driver.late_share is OpenLoopDriver's late batches "
                "per message injected\n");
  } else {
    // A closed-loop client has no schedule: its next request is held back
    // for exactly as long as the previous InjectBatch took.
    lag_p99_us = static_cast<double>(call_ns.P99()) / 1e3;
    late_share = 0;
    std::printf("driver: closed loop, so driver.lag_p99_us is the p99 "
                "InjectBatch call time and driver.late_share is 0\n");
  }
  if (spec.job == Job::kFanout) {
    std::printf("operator.state_keys: LatencySink keeps no per-key state\n");
  }
  return {
      {"create.ms", setup.create_ms, "ms"},
      {"inject.ns_per_msg", inject_per_msg, "ns"},
      {"inject.msgs_per_call", msgs_per_call, "msgs"},
      {"ring.depth_mean",
       depth_n ? static_cast<double>(depth_sum) / depth_n : 0.0, "msgs"},
      {"ring.depth_max", static_cast<double>(depth_max), "msgs"},
      {"hash.ns_per_key", hash_ns, "ns"},
      {"route.ns_per_msg", route_ns, "ns"},
      {"ring.ns_per_msg_1ring", ring1_ns, "ns"},
      {"ring.ns_per_msg_500rings", ring500_ns, "ns"},
      {"ledger.isolated_sum_ns_per_msg", route_ns + ring_ns, "ns"},
      {"operator.process_ns_per_msg",
       static_cast<double>(busy_ns) / static_cast<double>(worker_msgs), "ns"},
      {"operator.busy_share", static_cast<double>(busy_ns) / shard_ns,
       "share"},
      {"operator.close_ms", traced.MedianOf([](const SliceResult& s) {
         int64_t ns = 0;
         for (const Span& sp : s.closes) ns += sp.end_ns - sp.start_ns;
         return static_cast<double>(ns) / 1e6;
       }),
       "ms"},
      {"operator.state_keys", traced.MedianOf([](const SliceResult& s) {
         return static_cast<double>(s.state_keys);
       }),
       "count"},
      {"finish.ms", traced.MedianOf([](const SliceResult& s) {
         return static_cast<double>(s.finish.end_ns - s.finish.start_ns) /
                1e6;
       }),
       "ms"},
      {"driver.lag_p99_us", lag_p99_us, "us"},
      {"driver.late_share", late_share, "share"},
      {"logical.msgs_per_s", logical_msgs_s, "1/s"},
      {"trace.overhead_share", overhead, "share"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=<name> --seed=<n> "
                 "--seconds=<1..60> --trace=<0|1> [--trace-dir=<dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const uint32_t clients = spec->paced ? 1 : spec->sources;
  const unsigned cpus = engine::CpuAffinity::AvailableCpus();
  if (spec->shards + clients + 1 > cpus) {
    std::fprintf(stderr,
                 "%s needs %zu shard + %u injector threads on their own CPUs "
                 "plus one spare; only %u CPUs available\n",
                 spec->name, spec->shards, clients, cpus);
    return 3;
  }

  // Set-up first, then hand its memory back so the peak-RSS baseline below
  // holds only the inputs.
  const SetupResult setup = MeasureSetup(*spec);
  malloc_trim(0);

  const int64_t gen0 = NowNs();
  const Inputs in = MakeInputs(*spec, args.seed, args.seconds);
  std::printf("workload %s seed %" PRIu64 ": %" PRIu64 " messages = %" PRIu64
              " slices x %u source(s) x %" PRIu64 ", %" PRIu64
              " keys (%s), generated in %.2f s\n",
              spec->name, args.seed, in.per_source * spec->sources, kReps,
              spec->sources, in.per_source / kReps, in.dist->K(),
              in.dist->name().c_str(), (NowNs() - gen0) / 1e9);
  std::printf("checksums: keys %016" PRIx64 " schedule %016" PRIx64 "\n",
              in.key_checksum, in.schedule_checksum);

  // Paced runs time every message: the open loop leaves the shard idle
  // time to spare. Closed loops time one in 8, keeping the clock reads off
  // the saturated path.
  LatencyProbe probe;
  probe.sample_shift = spec->paced ? 0 : 3;
  probe.ts_to_ns = spec->paced ? 1000 : 1;
  const int64_t every = int64_t{1} << probe.sample_shift;
  // Each wrapper records at most one sample beyond its share; the slots are
  // touched here, before the peak-RSS reset.
  const uint64_t slice_max = in.per_source / kReps + 1;
  probe.slots.assign(
      probe.SamplesFor(slice_max * spec->sources) + spec->workers, 0);
  Expected ex;
  ex.counts.assign(in.dist->K(), 0);

  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  Failures failures;
  auto absorb = [&](const Failures& f, uint64_t messages, const char* label) {
    attempted += messages;
    for (const std::string& note : f.notes) {
      std::printf("FAILED (%s): %s\n", label, note.c_str());
    }
    failures.count += f.count;
  };
  if (!args.trace) {
    const bool reset = ResetPeakRss();
    const long rss0 = StatusKb("VmRSS");
    const CpuTimes cpu0 = ReadCpuTimes();
    const Run run = RunAll(*spec, in, /*traced=*/false, &probe, &ex);
    const CpuTimes cpu1 = ReadCpuTimes();
    const long hwm = StatusKb("VmHWM");
    // Time the hypervisor gave this VM's CPUs to others: the main source of
    // run-to-run noise on a shared host, printed to explain outliers.
    std::printf("host: %.1f%% of CPU time stolen during the measured slices\n",
                100.0 * static_cast<double>(cpu1.steal - cpu0.steal) /
                    static_cast<double>(std::max<uint64_t>(
                        1, cpu1.total - cpu0.total)));
    absorb(run.failures, run.Messages(), "untraced run");
    PrintPlacement(*spec, run);
    std::vector<double> tput;
    for (const SliceResult& sl : run.slices) {
      tput.push_back(static_cast<double>(sl.messages) / sl.wall_s);
    }
    std::printf("slices: throughput min %.0f, median %.0f, max %.0f msgs/s; "
                "median %.1f ms injecting, %.1f ms in Finish\n",
                *std::min_element(tput.begin(), tput.end()), Median(tput),
                *std::max_element(tput.begin(), tput.end()),
                run.MedianOf([](const SliceResult& sl) {
                  return static_cast<double>(sl.finish.start_ns -
                                             sl.epoch_ns) / 1e6;
                }),
                run.MedianOf([](const SliceResult& sl) {
                  return static_cast<double>(sl.finish.end_ns -
                                             sl.finish.start_ns) / 1e6;
                }));
    if (!reset) std::printf("warning: peak RSS high-water mark not reset\n");
    metrics = {
        {"throughput_msgs_per_s", run.Throughput(), "msgs/s"},
        {"latency_p50_us", run.LatencyUs(kP50), "us"},
        {"latency_p95_us", run.LatencyUs(kP95), "us"},
        {"max_load_ratio", run.MaxLoadRatio(), "ratio"},
        {"setup_s", setup.setup_s, "s"},
        {"peak_rss_mib", static_cast<double>(hwm - rss0) / 1024.0, "MiB"},
    };
    std::printf("latency: p99 %.3f us (printed, not gated); %" PRIu64
                " samples, 1 in %" PRId64
                " messages; quantiles are medians over blocks of %zu "
                "samples\n",
                run.LatencyUs(kP99), run.LatencySamples(), every, kBlock);
  } else {
    const Run base = RunAll(*spec, in, /*traced=*/false, &probe, &ex);
    const Run traced = RunAll(*spec, in, /*traced=*/true, &probe, &ex);
    absorb(base.failures, base.Messages(), "untraced run");
    absorb(traced.failures, traced.Messages(), "traced run");
    PrintPlacement(*spec, traced);
    Failures logical_failures;
    const double logical = RunLogical(*spec, in, &ex, &logical_failures);
    absorb(logical_failures, ex.messages, "LogicalRuntime");
    metrics = Ledger(*spec, in, base, traced, setup, logical);
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + spec->name + "-seed" +
                               std::to_string(args.seed) + ".tsv";
      WriteTrace(path, traced, setup.create_ms);
      std::printf("trace: spans written to %s\n", path.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("failed_share %.9f (%" PRIu64 " of %" PRIu64 ")\n",
              static_cast<double>(failures.count) /
                  static_cast<double>(attempted),
              failures.count, attempted);
  std::printf("%s\n",
              JsonLine(failures.count == 0, attempted, failures.count, metrics)
                  .c_str());
  std::fflush(stdout);
  return failures.count == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
