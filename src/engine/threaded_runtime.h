// Copyright 2026 The pkgstream Authors.
// ThreadedRuntime: the same operator API as LogicalRuntime, executed on
// real threads with bounded inboxes — Storm's executor model in-process.
// The deterministic LogicalRuntime defines the reference semantics; this
// runtime exists to demonstrate (and test) that the library's results do
// not depend on the single-threaded scheduler: per-key totals, flushed
// aggregates and routing invariants must come out identical under true
// concurrency.
//
// Executor model: the N operator instances run on M shard threads
// (ThreadedRuntimeOptions::shards; the default gives every instance a
// shard of its own). Each shard owns a contiguous, topology-ordered slice
// of the instance list (same-stage instances pack together), drains its
// instances' rings round-robin in batches, and parks on a shard-wide gate
// when every owned ring stayed empty through a bounded spin. The shard
// count changes the thread count and scheduling, never the results.
//
// Concurrency model (the paper's distributed deployment, at memory speed):
//  * every operator instance drains a Mailbox: one bounded lock-free SPSC
//    ring per upstream producer (see spsc_ring.h), popped in batches to
//    amortize synchronization. A full ring blocks its producer
//    (backpressure);
//  * the producer side batches too: each upstream instance parks routed
//    messages in a per-(edge, destination) out-buffer and publishes them
//    with one SpscRing::TryPushBatch when the batch fills, when its input
//    round ends, or at EOS/Finish (ThreadedRuntimeOptions::emit_batch) —
//    one ring-index publication and at most one wakeup per batch.
//    Producers wake the consumer's *shard*, not an instance;
//  * every upstream *instance* owns its own partitioner replica
//    (Partitioner::Clone via MakePartitionerReplicas), so routing takes no
//    lock and PKG/local-estimator state is genuinely per-source — the
//    paper's setting, where each source balances its own sub-stream from
//    local information only. Coordination-free techniques (KG, SG, PKG-L)
//    behave exactly as a single shared instance would; techniques that
//    assume cross-source shared state (PoTC, On-Greedy, rebalancing, the
//    G oracle) keep per-replica copies — the honest distributed
//    approximation (LogicalRuntime remains their coordinated reference);
//  * per-instance processed counters live in cache-line-padded cells, so
//    16 executors incrementing them share no lines;
//  * shutdown is EOS-based: Finish() sends one EOS token per upstream
//    instance down every edge; an instance Close()s after its last
//    upstream EOS arrives and forwards EOS, and a shard thread exits once
//    all its instances have closed. This is the classic dataflow
//    termination protocol, deadlock-free on DAGs.
//
// Everything that determines results is per-instance: partitioner
// replicas, per-(edge, destination) out-buffers, processed_ cells, and
// per-ring FIFO order. Routing decisions are made producer-side, so
// routed counts are byte-identical for every shard count, and with a
// single source the per-sink arrival order (hence any order-sensitive
// sink state, e.g. LatencySink histograms) is too — pinned by
// engine_threaded_sharded_test. When a shard blocks pushing into a full
// ring of another busy instance, it help-drains its own instances at
// strictly greater topological rank; the strictly-increasing rank makes
// the nested drain stack finite and keeps the maximal blocked producer's
// destination always drainable, so backpressure cannot deadlock a shard
// against itself. Optional CpuAffinity pinning keeps each shard's rings
// and operator state on one core (no-op where unsupported).
//
// Ticks are not supported here (wall-clock timers would make runs
// non-reproducible); operators flush via Close, or callers inject
// app-level punctuation messages.

#ifndef PKGSTREAM_ENGINE_THREADED_RUNTIME_H_
#define PKGSTREAM_ENGINE_THREADED_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "engine/spsc_ring.h"
#include "engine/topology.h"
#include "partition/partitioner.h"

namespace pkgstream {
namespace engine {

/// \brief Options for the threaded executor.
struct ThreadedRuntimeOptions {
  /// Ring capacity per producer->consumer pair, rounded up to a power of
  /// two; a producer blocks when its ring is full (backpressure). Must be
  /// >= 1.
  size_t queue_capacity = 1024;

  /// Producer-side emit batching: each upstream instance buffers up to this
  /// many routed messages per (edge, destination) and publishes them with
  /// one SpscRing::TryPushBatch — one index publication (and at most one
  /// consumer wakeup) per batch instead of per message; 1 publishes every
  /// message as it is routed. Buffers are flushed when full, after every
  /// consumed input batch (operators), and at Finish (spouts), so totals
  /// are unaffected; only the *moment* a message becomes visible
  /// downstream shifts — in particular, messages injected at a spout may
  /// sit in its out-buffer until the batch fills or Finish() runs. Must
  /// be >= 1.
  size_t emit_batch = 16;

  /// Shard threads running the operator instances: 0 (the default) = one
  /// shard per operator instance; > 0 = min(shards, instance count)
  /// shards, each owning a contiguous topology-ordered slice (see the file
  /// comment). Results — routed counts, per-instance state, single-source
  /// arrival orders — are identical for every value; only the thread count
  /// and scheduling change.
  size_t shards = 0;

  /// Pin shard thread k to the k-th allowed CPU (modulo the CPU count) via
  /// CpuAffinity. Best-effort — silently a no-op on platforms without
  /// thread affinity.
  bool pin_shards = false;

  /// 0 = Finish() waits forever (the default, unchanged). > 0 = Finish()
  /// that has not drained within this many milliseconds dumps every
  /// instance's approximate ring occupancy and processed count (the
  /// last-progress picture of the wedge) and aborts via a fatal log —
  /// turning any future shutdown deadlock into a diagnosable failure
  /// instead of a ctest timeout.
  uint64_t finish_deadline_ms = 0;
};

/// \brief Multi-threaded executor for a Topology (no ticks; see above).
class ThreadedRuntime {
 public:
  /// Instantiates operators, per-source partitioner replicas and shard
  /// threads; the shards start immediately and idle on their gates.
  static Result<std::unique_ptr<ThreadedRuntime>> Create(
      const Topology* topology, ThreadedRuntimeOptions options = {});

  ~ThreadedRuntime();

  /// Thread-safe: injects one message at `spout` instance `source`. May
  /// block when a downstream ring is full. Concurrent calls for the same
  /// source instance are serialized internally (each source is a single
  /// logical producer). Must not be called after Finish(). The message is
  /// moved into the out-buffer/ring (copied only on spout fan-out) — pass
  /// an rvalue to make injection copy-free.
  void Inject(NodeId spout, SourceId source, Message msg);

  /// Thread-safe batch injection from one source: takes the source's
  /// inject lock once, routes the whole batch per outbound edge through
  /// the source's partitioner replica (Partitioner::RouteBatch — routing
  /// decisions bit-identical to n scalar Inject calls) and appends the
  /// messages to the per-(edge, destination) emit out-buffers directly.
  /// Per-ring FIFO order is preserved per edge; messages become visible
  /// downstream in batches (same flush points as scalar injection).
  void InjectBatch(NodeId spout, SourceId source, const Message* msgs,
                   size_t n);

  /// Sends EOS down every spout edge, waits for every instance to drain
  /// and Close() and for the shard threads to exit. Idempotent and safe
  /// to call concurrently: every caller returns only after shutdown has
  /// completed.
  void Finish();

  /// Live worker-set reconfiguration (the fault-injection control path):
  /// restricts routing on every edge *into* `downstream` to the instances
  /// with alive[w] == true. Thread-safe and non-blocking: the new set is
  /// published as a versioned epoch per edge; each producing thread applies
  /// it to its own partitioner replica at its next batch boundary (top of
  /// RouteFrom / RouteBatchFrom), so replicas are only ever mutated by
  /// their owning producer. Rejects unknown nodes, size mismatches, empty
  /// alive sets, nodes without inbound edges, and — before applying
  /// anything — edges whose partitioner does not SupportsReconfiguration()
  /// (Unimplemented; e.g. plain hashing cannot drop a worker).
  Status ReconfigureWorkers(NodeId downstream, const std::vector<bool>& alive);

  /// Aborts the run: every shard thread leaves at its next sweep, without
  /// draining what is still queued and without Close/EOS for its
  /// unfinished instances (a shard wedged inside Process leaves once that
  /// call returns); producers blocked on a full ring drop their items and
  /// return, and Finish() still joins cleanly. For tests and drivers that
  /// must tear down a wedged or no-longer-interesting run; after Abort,
  /// processed counts and operator state are *not* the completed-run
  /// values.
  void Abort();

  /// Whether Abort() was called (injector threads poll this to exit).
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Valid after Finish(): messages processed per instance of `node`.
  std::vector<uint64_t> Processed(NodeId node) const;

  /// Valid after Finish(): operator access for result extraction.
  Operator* GetOperator(NodeId node, uint32_t instance);

  /// Valid after Finish(): the partitioner replica owned by upstream
  /// instance `source_instance` of the `from` -> `to` edge, for result
  /// extraction (e.g. RebalancingKeyGrouping migration stats).
  const partition::Partitioner* GetPartitioner(NodeId from, NodeId to,
                                               uint32_t source_instance) const;

  /// Thread-safe, any time: approximate number of items queued across all
  /// inbound rings of every instance of `node` (relaxed loads; see
  /// SpscRing::SizeApprox). 0 for spouts. Monitoring only — the value may
  /// be stale the moment it returns.
  size_t ApproxInboxDepth(NodeId node) const;

 private:
  ThreadedRuntime(const Topology* topology, ThreadedRuntimeOptions options);

  /// Ring slot: a data message or an EOS token from one upstream instance.
  struct Item {
    Message msg;
    bool eos = false;
  };

  /// Items popped per consumer round; amortizes ring synchronization and
  /// wakeups over up to this many messages.
  static constexpr size_t kPopBatch = 64;

  /// Idle shard sweeps before escalating from CPU-relax to yield, and from
  /// yield to a gate park.
  static constexpr uint32_t kShardRelaxSweeps = 8;
  static constexpr uint32_t kShardSpinSweeps = 32;

  /// \brief Parked-consumer wakeup gate for one shard: every owned
  /// mailbox shares it, so any producer push wakes the shard.
  ///
  /// Producers take the wake mutex only when the parked flag is visible,
  /// so steady-state traffic pays no lock and no syscall. The park uses a
  /// bounded wait: a lost wakeup in the flag race costs bounded latency,
  /// never a hang.
  class ConsumerGate {
   public:
    /// Producer side: nudges a parked consumer (cheap flag check first).
    void MaybeWake() {
      if (parked_.load(std::memory_order_seq_cst)) {
        // Empty critical section: orders the notify after the consumer's
        // decision to wait (it holds the mutex while deciding).
        { std::lock_guard<std::mutex> lock(wake_mu_); }
        wake_cv_.notify_one();
      }
    }

    /// Consumer side: announce the intent to park. The caller must
    /// re-check its rings *after* this store (seq_cst orders it against
    /// producers' index publications) before calling WaitBriefly.
    void BeginPark() { parked_.store(true, std::memory_order_seq_cst); }

    /// Consumer side: bounded wait for a producer nudge (or timeout).
    void WaitBriefly() {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait_for(lock, std::chrono::microseconds(200));
    }

    /// Consumer side: leave the parked state (after WaitBriefly or a
    /// successful re-check).
    void EndPark() { parked_.store(false, std::memory_order_relaxed); }

   private:
    std::atomic<bool> parked_{false};
    std::mutex wake_mu_;
    std::condition_variable wake_cv_;
  };

  /// \brief One operator instance's inbox: a bounded SPSC ring per
  /// upstream producer, drained round-robin in batches.
  ///
  /// Producers push wait-free while their ring has space; blocking-on-full
  /// policy lives in ThreadedRuntime::PushBlocking (which can help-drain).
  /// The consumer gate is the owning shard's.
  class Mailbox {
   public:
    Mailbox(uint32_t producers, size_t capacity_per_producer,
            ConsumerGate* gate)
        : gate_(gate) {
      rings_.reserve(producers);
      for (uint32_t p = 0; p < producers; ++p) {
        rings_.push_back(
            std::make_unique<SpscRing<Item>>(capacity_per_producer));
      }
    }

    /// Producer side; only producer `producer`'s owning thread may call.
    /// Enqueues a prefix of `items[0..n)` with one index publication and
    /// at most one consumer wakeup; returns how many were enqueued (0 when
    /// the ring is full — blocking policy is the caller's).
    size_t TryPushBatch(uint32_t producer, Item* items, size_t n) {
      const size_t pushed = rings_[producer]->TryPushBatch(items, n);
      // Wake after every partial publication so a tiny ring cannot strand
      // the remainder behind a parked consumer.
      if (pushed > 0) gate_->MaybeWake();
      return pushed;
    }

    /// Consumer side, non-blocking: pops up to `max_n` items (all from one
    /// ring, round-robin across producers) into `out`; returns the count.
    size_t TryPopBatch(Item* out, size_t max_n) {
      const size_t n = rings_.size();
      for (size_t i = 0; i < n; ++i) {
        if (cursor_ >= n) cursor_ = 0;
        const size_t got = rings_[cursor_]->TryPopBatch(out, max_n);
        ++cursor_;
        if (got > 0) return got;
      }
      return 0;
    }

    /// Any thread: approximate queued items across all producer rings
    /// (relaxed loads; monitoring and idle heuristics only).
    size_t SizeApprox() const {
      size_t total = 0;
      for (const auto& ring : rings_) total += ring->SizeApprox();
      return total;
    }

   private:
    std::vector<std::unique_ptr<SpscRing<Item>>> rings_;
    size_t cursor_ = 0;  // consumer-local round-robin position
    ConsumerGate* gate_;
  };

  class InstanceEmitter;

  /// Executor state (defined in the .cc): one operator instance as seen
  /// by its owning shard, and one shard thread's slice + gate.
  struct ShardInstance;
  struct ShardState;

  /// \brief Producer-side out-buffer for one (edge, upstream instance,
  /// destination worker): routed messages parked here until the batch
  /// fills (or a flush point), then published with one TryPushBatch.
  /// Owned exclusively by the producing thread (shard thread, or the
  /// injector serialized by the source's inject mutex).
  struct OutBuffer {
    std::unique_ptr<Item[]> items;
    size_t count = 0;
  };

  /// \brief One edge's published worker-set epoch. ReconfigureWorkers
  /// writes `alive` under `mu` and then bumps `epoch`; each producing
  /// thread compares `epoch` against its own applied counter at batch
  /// boundaries and, when behind, copies `alive` (under `mu`) into its
  /// replica via Partitioner::SetWorkerSet. Replicas are therefore only
  /// ever touched by their owning producer, and the hot healthy path costs
  /// one relaxed-acquire load per batch.
  struct EdgeReconfig {
    std::atomic<uint64_t> epoch{0};
    std::mutex mu;
    std::vector<bool> alive;
  };

  Status Init();
  /// Applies any pending worker-set epoch of edge `e` to upstream instance
  /// `instance`'s replica; called by the producing thread at batch
  /// boundaries (top of RouteFrom / RouteBatchFrom).
  void MaybeApplyReconfig(uint32_t e, uint32_t instance);
  /// The finish-deadline dump: every instance's approximate ring occupancy
  /// and processed count, before the fatal abort.
  void DumpStuckState();
  /// Shard thread main loop: round-robin over the owned instances with
  /// bounded spin, then park on the shard gate.
  void RunShard(uint32_t shard);
  /// Pops and processes at most one batch for `si` (non-blocking); closes
  /// the instance when its last upstream EOS arrived. Returns whether any
  /// progress (items or close) happened.
  bool DrainInstanceOnce(ShardState& st, ShardInstance& si);
  /// Called by a shard blocked pushing from a node of rank `from_rank`:
  /// drains owned instances of strictly greater topological rank (never
  /// an active one), unblocking downstream rings without ever re-entering
  /// the blocked producer's stage. Returns whether anything progressed.
  bool ShardHelpDrain(ShardState& st, uint32_t from_rank);
  /// Longest-path layering of the (validated, acyclic) topology; spouts
  /// are rank 0. Drives ShardHelpDrain's strictly-increasing recursion.
  void ComputeTopoRanks();
  /// Pushes all `n` items to `mailbox`, blocking (spin, then yield, then
  /// sleep) while the ring is full. On a shard thread, blocked attempts
  /// help-drain the shard's own higher-rank instances instead of pure
  /// spinning — see ShardHelpDrain. `from_node` is the producing node.
  void PushBlocking(uint32_t from_node, Mailbox& mailbox, uint32_t producer,
                    Item* items, size_t n);
  /// Routes `msg` on every outbound edge of (node, instance), moving it
  /// into the last edge's item (true fan-out copies for the rest).
  void RouteFrom(uint32_t node, uint32_t instance, Message msg);
  /// Batch form of RouteFrom for one spout instance; caller holds the
  /// source's inject mutex.
  void RouteBatchFrom(uint32_t node, uint32_t instance, const Message* msgs,
                      size_t n);
  /// Enqueues one routed item on edge `e` towards `w`: parks it in the
  /// (edge, instance, worker) out-buffer, flushing a full batch.
  void EnqueueRouted(uint32_t edge, uint32_t instance, WorkerId worker,
                     Item item);
  /// Publishes one (edge, instance, worker) out-buffer downstream.
  void FlushBuffer(uint32_t edge, uint32_t instance, WorkerId worker);
  /// Publishes every pending out-buffer of (node, instance); called after
  /// each consumed input batch, and before EOS.
  void FlushOutBuffers(uint32_t node, uint32_t instance);
  /// Sends one EOS token down every outbound edge of (node, instance).
  void SendEos(uint32_t node, uint32_t instance);
  /// Number of upstream *instances* feeding `node` (producer rings and
  /// EOS tokens expected).
  uint32_t UpstreamInstances(uint32_t node) const {
    return upstream_counts_[node];
  }

  const Topology* topology_;
  ThreadedRuntimeOptions options_;
  std::vector<std::vector<std::unique_ptr<Operator>>> ops_;
  /// edge_replicas_[e][s]: the partitioner replica owned by upstream
  /// instance `s` of edge `e`. Routing state is per-source; no locks.
  std::vector<std::vector<partition::PartitionerPtr>> edge_replicas_;
  /// Per-edge published worker-set epoch (see EdgeReconfig).
  std::vector<std::unique_ptr<EdgeReconfig>> edge_reconfig_;
  /// applied_epochs_[e][s]: the epoch instance `s`'s replica last applied.
  /// Owned exclusively by the producing thread (no atomics needed).
  std::vector<std::vector<uint64_t>> applied_epochs_;
  /// First producer-ring index of edge `e` inside the downstream node's
  /// mailboxes (edge upstream instance s -> ring edge_producer_base_[e]+s).
  std::vector<uint32_t> edge_producer_base_;
  /// Outbound edge indices per node (hot-path scan avoidance).
  std::vector<std::vector<uint32_t>> out_edges_;
  /// out_buffers_[e][s * downstream_parallelism + w]: the emit batch of
  /// upstream instance `s` of edge `e` towards worker `w`.
  std::vector<std::vector<OutBuffer>> out_buffers_;
  /// Upstream instance count per node.
  std::vector<uint32_t> upstream_counts_;
  std::vector<std::vector<std::unique_ptr<Mailbox>>> mailboxes_;
  /// Per spout instance: serializes concurrent Inject calls to one source
  /// (each source is a single producer towards its rings and replicas).
  std::vector<std::vector<std::unique_ptr<std::mutex>>> inject_mutexes_;
  /// Flat per-instance processed counters, one cache line each;
  /// instance (n, i) lives at processed_[processed_base_[n] + i].
  std::vector<CacheLinePadded<std::atomic<uint64_t>>> processed_;
  std::vector<size_t> processed_base_;
  /// Longest-path rank per node (spouts 0); ShardHelpDrain compares them.
  std::vector<uint32_t> topo_rank_;
  /// One state per shard thread.
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// The shard state owned by the calling thread, if it is one of *some*
  /// runtime's shard threads (PushBlocking checks the runtime matches).
  static thread_local ShardState* tls_shard_;
  std::vector<std::thread> threads_;
  /// Set once Init() fully succeeded; the destructor-invoked Finish()
  /// must not walk mailboxes/mutexes a failed Init() never built.
  bool started_ = false;
  /// finished_ rises at the *start* of shutdown (gates Inject);
  /// drained_ rises after all executor threads joined (gates
  /// GetOperator — operators are mutable until then).
  std::atomic<bool> finished_{false};
  std::atomic<bool> drained_{false};
  /// Abort flag (see Abort()): shard threads exit at their next sweep,
  /// blocked producers drop their items.
  std::atomic<bool> aborted_{false};
  /// Executor threads that have returned from their main loop; the
  /// finish-deadline poll compares it against threads_.size().
  std::atomic<size_t> threads_exited_{0};
  std::once_flag finish_once_;
};

}  // namespace engine
}  // namespace pkgstream

#endif  // PKGSTREAM_ENGINE_THREADED_RUNTIME_H_
