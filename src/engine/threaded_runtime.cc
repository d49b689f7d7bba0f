// Copyright 2026 The pkgstream Authors.

#include "engine/threaded_runtime.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "engine/cpu_affinity.h"
#include "partition/factory.h"

namespace pkgstream {
namespace engine {

/// Emitter bound to one instance: routes synchronously on the caller
/// (shard) thread. Blocking on a full downstream ring provides
/// backpressure; DAG structure guarantees no cyclic wait.
class ThreadedRuntime::InstanceEmitter final : public Emitter {
 public:
  InstanceEmitter(ThreadedRuntime* rt, uint32_t node, uint32_t instance)
      : rt_(rt), node_(node), instance_(instance) {}

  void Emit(const Message& msg) override {
    rt_->RouteFrom(node_, instance_, msg);
  }

 private:
  ThreadedRuntime* rt_;
  uint32_t node_;
  uint32_t instance_;
};

/// One operator instance as scheduled by its owning shard. All fields are
/// shard-thread-local (the owning thread is the instance's only consumer
/// and only executor), so none need atomics — except `processed`, which
/// points at the runtime-wide padded cell readers poll via Processed().
struct ThreadedRuntime::ShardInstance {
  uint32_t node = 0;
  uint32_t instance = 0;
  uint32_t expected_eos = 0;
  uint32_t eos_seen = 0;
  /// Mid-Process on this shard's call stack (drain or nested help-drain);
  /// guards against re-entering a suspended instance.
  bool active = false;
  /// Closed and EOS forwarded; nothing left to do.
  bool done = false;
  Operator* op = nullptr;
  Mailbox* mailbox = nullptr;
  std::atomic<uint64_t>* processed = nullptr;
  std::unique_ptr<InstanceEmitter> emitter;
};

/// One shard thread's contiguous, topology-ordered slice of instances,
/// plus the gate every owned mailbox wakes.
struct ThreadedRuntime::ShardState {
  ThreadedRuntime* runtime = nullptr;
  uint32_t index = 0;
  std::vector<ShardInstance> instances;
  /// Owned instances not yet done; the shard thread exits at 0.
  size_t remaining = 0;
  /// Sweep rotation (fairness: a different instance leads each sweep).
  size_t cursor = 0;
  ConsumerGate gate;
};

thread_local ThreadedRuntime::ShardState* ThreadedRuntime::tls_shard_ =
    nullptr;

Result<std::unique_ptr<ThreadedRuntime>> ThreadedRuntime::Create(
    const Topology* topology, ThreadedRuntimeOptions options) {
  PKGSTREAM_CHECK(topology != nullptr);
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument("queue capacity must be >= 1");
  }
  if (options.emit_batch < 1) {
    return Status::InvalidArgument("emit batch must be >= 1");
  }
  PKGSTREAM_RETURN_NOT_OK(topology->Validate());
  for (const auto& node : topology->nodes()) {
    if (!node.is_spout && node.tick_period != 0) {
      return Status::InvalidArgument(
          "ThreadedRuntime does not support tick periods (PE '" + node.name +
          "'); flush in Close or inject punctuation messages");
    }
  }
  auto rt = std::unique_ptr<ThreadedRuntime>(
      new ThreadedRuntime(topology, options));
  PKGSTREAM_RETURN_NOT_OK(rt->Init());
  return rt;
}

ThreadedRuntime::ThreadedRuntime(const Topology* topology,
                                 ThreadedRuntimeOptions options)
    : topology_(topology), options_(options) {}

void ThreadedRuntime::ComputeTopoRanks() {
  const auto& nodes = topology_->nodes();
  const auto& edges = topology_->edges();
  topo_rank_.assign(nodes.size(), 0);
  // Longest-path layering by bounded relaxation: Validate() guaranteed
  // acyclicity, node counts are tiny, and this runs once at Init.
  for (size_t pass = 0; pass < nodes.size(); ++pass) {
    bool changed = false;
    for (const auto& edge : edges) {
      if (topo_rank_[edge.to.index] < topo_rank_[edge.from.index] + 1) {
        topo_rank_[edge.to.index] = topo_rank_[edge.from.index] + 1;
        changed = true;
      }
    }
    if (!changed) break;
  }
}

Status ThreadedRuntime::Init() {
  const auto& nodes = topology_->nodes();
  const auto& edges = topology_->edges();
  ComputeTopoRanks();

  // Edge plumbing: one partitioner replica per upstream instance, and a
  // dense producer-ring numbering per downstream node (inbound edges in
  // topology order, instances in index order within each edge).
  edge_replicas_.resize(edges.size());
  edge_producer_base_.resize(edges.size());
  out_edges_.resize(nodes.size());
  out_buffers_.resize(edges.size());
  applied_epochs_.resize(edges.size());
  upstream_counts_.assign(nodes.size(), 0);
  for (uint32_t e = 0; e < edges.size(); ++e) {
    const uint32_t upstream = nodes[edges[e].from.index].parallelism;
    PKGSTREAM_ASSIGN_OR_RETURN(
        edge_replicas_[e],
        partition::MakePartitionerReplicas(edges[e].partitioner, upstream));
    edge_reconfig_.push_back(std::make_unique<EdgeReconfig>());
    applied_epochs_[e].assign(upstream, 0);
    edge_producer_base_[e] = upstream_counts_[edges[e].to.index];
    upstream_counts_[edges[e].to.index] += upstream;
    out_edges_[edges[e].from.index].push_back(e);
    const uint32_t downstream = nodes[edges[e].to.index].parallelism;
    out_buffers_[e] =
        std::vector<OutBuffer>(static_cast<size_t>(upstream) * downstream);
    for (OutBuffer& buf : out_buffers_[e]) {
      buf.items = std::make_unique<Item[]>(options_.emit_batch);
    }
  }

  ops_.resize(nodes.size());
  mailboxes_.resize(nodes.size());
  inject_mutexes_.resize(nodes.size());
  processed_base_.resize(nodes.size());
  size_t total_instances = 0;
  for (uint32_t n = 0; n < nodes.size(); ++n) {
    processed_base_[n] = total_instances;
    total_instances += nodes[n].parallelism;
  }
  processed_ =
      std::vector<CacheLinePadded<std::atomic<uint64_t>>>(total_instances);

  // Shard plan: contiguous slices of the node-major operator-instance
  // list (instance g of T goes to shard g*S/T — balanced within one, and
  // same-stage instances pack together because the list is node-major).
  size_t op_instances = 0;
  for (uint32_t n = 0; n < nodes.size(); ++n) {
    if (!nodes[n].is_spout) op_instances += nodes[n].parallelism;
  }
  const size_t shard_count = options_.shards == 0
                                 ? op_instances
                                 : std::min(options_.shards, op_instances);
  for (size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<ShardState>());
    shards_[s]->runtime = this;
    shards_[s]->index = static_cast<uint32_t>(s);
  }

  size_t g = 0;  // node-major index into the shard plan
  for (uint32_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].is_spout) {
      for (uint32_t i = 0; i < nodes[n].parallelism; ++i) {
        inject_mutexes_[n].push_back(std::make_unique<std::mutex>());
      }
      continue;
    }
    for (uint32_t i = 0; i < nodes[n].parallelism; ++i, ++g) {
      auto op = nodes[n].factory(i);
      PKGSTREAM_CHECK(op != nullptr);
      OperatorContext ctx;
      ctx.pe_name = nodes[n].name;
      ctx.instance = i;
      ctx.parallelism = nodes[n].parallelism;
      op->Open(ctx);
      ShardState& st = *shards_[g * shard_count / op_instances];
      auto mailbox = std::make_unique<Mailbox>(
          upstream_counts_[n], options_.queue_capacity, &st.gate);
      ShardInstance si;
      si.node = n;
      si.instance = i;
      si.expected_eos = upstream_counts_[n];
      si.op = op.get();
      si.mailbox = mailbox.get();
      si.processed = &processed_[processed_base_[n] + i].value;
      si.emitter = std::make_unique<InstanceEmitter>(this, n, i);
      st.instances.push_back(std::move(si));
      ++st.remaining;
      ops_[n].push_back(std::move(op));
      mailboxes_[n].push_back(std::move(mailbox));
    }
  }

  // Threads last: everything they touch is in place. Each thread counts
  // itself out on exit so the finish-deadline poll can tell a slow drain
  // from a wedged one.
  for (uint32_t s = 0; s < shard_count; ++s) {
    threads_.emplace_back([this, s] {
      RunShard(s);
      threads_exited_.fetch_add(1, std::memory_order_release);
    });
  }
  started_ = true;
  return Status::OK();
}

ThreadedRuntime::~ThreadedRuntime() { Finish(); }

bool ThreadedRuntime::DrainInstanceOnce(ShardState& st, ShardInstance& si) {
  if (si.done || si.active) return false;
  Item batch[kPopBatch];
  const size_t n = si.mailbox->TryPopBatch(batch, kPopBatch);
  if (n == 0 && si.eos_seen < si.expected_eos) return false;
  // One round: Process the batch, bump the per-instance counter once,
  // flush this instance's out-buffers (so a consumer never idles on
  // messages parked here). `active` spans the whole round because Process
  // may block pushing downstream and re-enter the shard loop through
  // ShardHelpDrain.
  si.active = true;
  uint64_t handled = 0;
  for (size_t i = 0; i < n; ++i) {
    if (batch[i].eos) {
      ++si.eos_seen;
      continue;
    }
    ++handled;
    si.op->Process(batch[i].msg, si.emitter.get());
  }
  if (handled > 0) {
    si.processed->fetch_add(handled, std::memory_order_relaxed);
  }
  FlushOutBuffers(si.node, si.instance);
  if (si.eos_seen >= si.expected_eos) {
    // Last upstream EOS: every producer ring is fully drained (EOS is the
    // final item of its ring), so close and forward EOS.
    si.op->Close(si.emitter.get());
    FlushOutBuffers(si.node, si.instance);
    SendEos(si.node, si.instance);
    si.done = true;
    --st.remaining;
  }
  si.active = false;
  return true;
}

bool ThreadedRuntime::ShardHelpDrain(ShardState& st, uint32_t from_rank) {
  bool any = false;
  for (ShardInstance& si : st.instances) {
    // Strictly greater rank only: the nested active stack is strictly
    // increasing in stage, so its depth is bounded by the stage count and
    // a blocked producer can never be re-entered (see the header's file
    // comment for the progress argument).
    if (topo_rank_[si.node] <= from_rank) continue;
    any |= DrainInstanceOnce(st, si);
  }
  return any;
}

void ThreadedRuntime::RunShard(uint32_t shard) {
  ShardState& st = *shards_[shard];
  if (options_.pin_shards) {
    // Best-effort; a failed pin only costs locality, never correctness.
    CpuAffinity::PinCurrentThread(st.index);
  }
  tls_shard_ = &st;
  uint32_t idle_sweeps = 0;
  while (st.remaining > 0 &&
         !aborted_.load(std::memory_order_acquire)) {
    // Rotate the sweep start so no owned instance is systematically
    // drained last.
    const size_t n = st.instances.size();
    st.cursor = (st.cursor + 1) % n;
    bool progress = false;
    for (size_t i = 0; i < n && st.remaining > 0; ++i) {
      progress |= DrainInstanceOnce(st, st.instances[(st.cursor + i) % n]);
    }
    if (progress) {
      idle_sweeps = 0;
      continue;
    }
    ++idle_sweeps;
    if (idle_sweeps <= kShardRelaxSweeps) {
      Backoff::CpuRelax();
    } else if (idle_sweeps <= kShardSpinSweeps) {
      std::this_thread::yield();
    } else {
      // Shard-granularity park: producers into any owned mailbox wake
      // this gate. Re-check after BeginPark (SizeApprox suffices — a
      // missed publication costs one bounded 200us wait).
      st.gate.BeginPark();
      bool pending = false;
      for (const ShardInstance& si : st.instances) {
        if (!si.done && si.mailbox->SizeApprox() > 0) {
          pending = true;
          break;
        }
      }
      if (!pending) st.gate.WaitBriefly();
      st.gate.EndPark();
      idle_sweeps = 0;
    }
  }
  tls_shard_ = nullptr;
}

void ThreadedRuntime::PushBlocking(uint32_t from_node, Mailbox& mailbox,
                                   uint32_t producer, Item* items, size_t n) {
  ShardState* shard = tls_shard_;
  if (shard != nullptr && shard->runtime != this) shard = nullptr;
  size_t done = 0;
  Backoff backoff;
  while (done < n) {
    const size_t pushed = mailbox.TryPushBatch(producer, items + done,
                                               n - done);
    if (pushed > 0) {
      done += pushed;
      backoff.Reset();
      continue;
    }
    // Aborted run: the consumer of this full ring may already have
    // exited, so the push could never complete — drop the remainder.
    if (aborted_.load(std::memory_order_acquire)) return;
    // Full ring. A shard thread makes its own progress instead of pure
    // waiting: drain owned instances strictly downstream of the blocked
    // producer (they may be exactly what the full ring is waiting on).
    // Injectors keep the plain backoff.
    if (shard != nullptr && ShardHelpDrain(*shard, topo_rank_[from_node])) {
      backoff.Reset();
      continue;
    }
    backoff.Pause();
  }
}

void ThreadedRuntime::MaybeApplyReconfig(uint32_t e, uint32_t instance) {
  EdgeReconfig& rc = *edge_reconfig_[e];
  const uint64_t epoch = rc.epoch.load(std::memory_order_acquire);
  if (epoch == applied_epochs_[e][instance]) return;
  std::vector<bool> alive;
  uint64_t seen;
  {
    std::lock_guard<std::mutex> lock(rc.mu);
    alive = rc.alive;
    // Re-read under the lock: a newer epoch may have landed since the
    // unlocked load, and its alive set is what we just copied. Recording
    // the newer number with the newer set keeps the pair consistent.
    seen = rc.epoch.load(std::memory_order_relaxed);
  }
  // ReconfigureWorkers validated the set against replica 0 of this edge;
  // all replicas share a type, so application cannot fail.
  PKGSTREAM_CHECK_OK(edge_replicas_[e][instance]->SetWorkerSet(alive));
  applied_epochs_[e][instance] = seen;
}

void ThreadedRuntime::RouteFrom(uint32_t node, uint32_t instance,
                                Message msg) {
  const std::vector<uint32_t>& out = out_edges_[node];
  for (size_t k = 0; k < out.size(); ++k) {
    const uint32_t e = out[k];
    MaybeApplyReconfig(e, instance);
    const WorkerId w = edge_replicas_[e][instance]->Route(instance, msg.key);
    Item item;
    if (k + 1 == out.size()) {
      item.msg = std::move(msg);  // last edge owns it; fan-out copied
    } else {
      item.msg = msg;
    }
    EnqueueRouted(e, instance, w, std::move(item));
  }
}

void ThreadedRuntime::RouteBatchFrom(uint32_t node, uint32_t instance,
                                     const Message* msgs, size_t n) {
  constexpr size_t kChunk = 256;
  Key keys[kChunk];
  WorkerId workers[kChunk];
  const std::vector<uint32_t>& out = out_edges_[node];
  // Epoch check once per injected batch (the documented batch-boundary
  // granularity), not per chunk: one batch routes under one worker set.
  for (uint32_t e : out) MaybeApplyReconfig(e, instance);
  size_t done = 0;
  while (done < n) {
    const size_t len = std::min(kChunk, n - done);
    for (size_t j = 0; j < len; ++j) keys[j] = msgs[done + j].key;
    for (uint32_t e : out) {
      // Each edge's replica consumes the same key order as scalar
      // injection; per-(edge, destination) FIFO is preserved because
      // items are enqueued in index order.
      edge_replicas_[e][instance]->RouteBatch(instance, keys, workers, len);
      for (size_t j = 0; j < len; ++j) {
        Item item;
        item.msg = msgs[done + j];
        EnqueueRouted(e, instance, workers[j], std::move(item));
      }
    }
    done += len;
  }
}

void ThreadedRuntime::EnqueueRouted(uint32_t edge, uint32_t instance,
                                    WorkerId worker, Item item) {
  const uint32_t downstream_parallelism =
      topology_->nodes()[topology_->edges()[edge].to.index].parallelism;
  OutBuffer& buf =
      out_buffers_[edge][static_cast<size_t>(instance) *
                             downstream_parallelism +
                         worker];
  buf.items[buf.count++] = std::move(item);
  if (buf.count == options_.emit_batch) FlushBuffer(edge, instance, worker);
}

void ThreadedRuntime::FlushBuffer(uint32_t edge, uint32_t instance,
                                  WorkerId worker) {
  const auto& edges = topology_->edges();
  const uint32_t downstream_parallelism =
      topology_->nodes()[edges[edge].to.index].parallelism;
  OutBuffer& buf =
      out_buffers_[edge][static_cast<size_t>(instance) *
                             downstream_parallelism +
                         worker];
  if (buf.count == 0) return;
  PushBlocking(edges[edge].from.index,
               *mailboxes_[edges[edge].to.index][worker],
               edge_producer_base_[edge] + instance, buf.items.get(),
               buf.count);
  buf.count = 0;
}

void ThreadedRuntime::FlushOutBuffers(uint32_t node, uint32_t instance) {
  for (uint32_t e : out_edges_[node]) {
    const uint32_t downstream_parallelism =
        topology_->nodes()[topology_->edges()[e].to.index].parallelism;
    for (WorkerId w = 0; w < downstream_parallelism; ++w) {
      FlushBuffer(e, instance, w);
    }
  }
}

void ThreadedRuntime::SendEos(uint32_t node, uint32_t instance) {
  const auto& edges = topology_->edges();
  for (uint32_t e : out_edges_[node]) {
    const uint32_t downstream = edges[e].to.index;
    for (uint32_t w = 0; w < topology_->nodes()[downstream].parallelism;
         ++w) {
      Item item[1];
      item[0].eos = true;
      PushBlocking(node, *mailboxes_[downstream][w],
                   edge_producer_base_[e] + instance, item, 1);
    }
  }
}

void ThreadedRuntime::Inject(NodeId spout, SourceId source, Message msg) {
  PKGSTREAM_CHECK(!finished_.load(std::memory_order_acquire))
      << "Inject after Finish";
  PKGSTREAM_CHECK(spout.index < topology_->nodes().size());
  PKGSTREAM_CHECK(topology_->nodes()[spout.index].is_spout);
  PKGSTREAM_CHECK(source < topology_->nodes()[spout.index].parallelism);
  // Each spout instance is one logical producer: its partitioner replicas
  // and rings are single-threaded state, so concurrent Inject calls for
  // the same source serialize here (uncontended in the canonical
  // one-thread-per-source arrangement).
  std::lock_guard<std::mutex> lock(*inject_mutexes_[spout.index][source]);
  // Re-validate under the lock: Finish() may have won the race since the
  // unlocked check above and already sent this source's EOS, in which
  // case pushing would silently lose the message (or hang on a full ring
  // nobody drains). Failing loudly keeps the must-not-race contract
  // checkable.
  PKGSTREAM_CHECK(!finished_.load(std::memory_order_acquire))
      << "Inject raced with Finish";
  processed_[processed_base_[spout.index] + source].value.fetch_add(
      1, std::memory_order_relaxed);
  RouteFrom(spout.index, source, std::move(msg));
}

void ThreadedRuntime::InjectBatch(NodeId spout, SourceId source,
                                  const Message* msgs, size_t n) {
  PKGSTREAM_CHECK(!finished_.load(std::memory_order_acquire))
      << "Inject after Finish";
  PKGSTREAM_CHECK(spout.index < topology_->nodes().size());
  PKGSTREAM_CHECK(topology_->nodes()[spout.index].is_spout);
  PKGSTREAM_CHECK(source < topology_->nodes()[spout.index].parallelism);
  if (n == 0) return;  // validated no-op, same as LogicalRuntime's
  // One lock acquisition, one counter update and one RouteBatch per
  // outbound edge cover the whole batch (see Inject for the locking
  // contract).
  std::lock_guard<std::mutex> lock(*inject_mutexes_[spout.index][source]);
  PKGSTREAM_CHECK(!finished_.load(std::memory_order_acquire))
      << "Inject raced with Finish";
  processed_[processed_base_[spout.index] + source].value.fetch_add(
      n, std::memory_order_relaxed);
  RouteBatchFrom(spout.index, source, msgs, n);
}

Status ThreadedRuntime::ReconfigureWorkers(NodeId downstream,
                                           const std::vector<bool>& alive) {
  const auto& nodes = topology_->nodes();
  const auto& edges = topology_->edges();
  if (downstream.index >= nodes.size()) {
    return Status::InvalidArgument("reconfigure of unknown node " +
                                   std::to_string(downstream.index));
  }
  if (alive.size() != nodes[downstream.index].parallelism) {
    return Status::InvalidArgument(
        "worker set size " + std::to_string(alive.size()) + " != " +
        std::to_string(nodes[downstream.index].parallelism) +
        " instances of '" + nodes[downstream.index].name + "'");
  }
  uint32_t alive_count = 0;
  for (bool a : alive) alive_count += a ? 1 : 0;
  if (alive_count == 0) {
    return Status::InvalidArgument("worker set has zero alive workers");
  }
  if (finished_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("reconfigure after Finish");
  }
  // Validate every inbound edge before publishing to any: a partial
  // reconfiguration (edge A degraded, edge B refused) would be worse than
  // either outcome.
  bool any_edge = false;
  for (uint32_t e = 0; e < edges.size(); ++e) {
    if (edges[e].to.index != downstream.index) continue;
    any_edge = true;
    if (!edge_replicas_[e][0]->SupportsReconfiguration()) {
      return Status::Unimplemented(
          "partitioner '" + edge_replicas_[e][0]->Name() + "' on edge into '" +
          nodes[downstream.index].name + "' does not support reconfiguration");
    }
  }
  if (!any_edge) {
    return Status::InvalidArgument("node '" + nodes[downstream.index].name +
                                   "' has no inbound edges to reconfigure");
  }
  for (uint32_t e = 0; e < edges.size(); ++e) {
    if (edges[e].to.index != downstream.index) continue;
    EdgeReconfig& rc = *edge_reconfig_[e];
    std::lock_guard<std::mutex> lock(rc.mu);
    rc.alive = alive;
    rc.epoch.fetch_add(1, std::memory_order_release);
  }
  return Status::OK();
}

void ThreadedRuntime::Abort() {
  aborted_.store(true, std::memory_order_release);
  if (!started_) return;
  // Nudge every parked shard; unparked ones observe the flag at their
  // next sweep, parked ones at worst on the 200us bounded wait.
  for (const auto& shard : shards_) shard->gate.MaybeWake();
}

void ThreadedRuntime::DumpStuckState() {
  const auto& nodes = topology_->nodes();
  for (uint32_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].is_spout) continue;
    for (uint32_t i = 0; i < nodes[n].parallelism; ++i) {
      PKGSTREAM_LOG(Error)
          << "finish deadline: '" << nodes[n].name << "' instance " << i
          << " ring occupancy ~" << mailboxes_[n][i]->SizeApprox()
          << ", processed "
          << processed_[processed_base_[n] + i].value.load(
                 std::memory_order_relaxed);
    }
  }
  PKGSTREAM_LOG(Error) << "finish deadline: " << threads_exited_.load()
                       << "/" << threads_.size() << " executor threads exited";
}

void ThreadedRuntime::Finish() {
  std::call_once(finish_once_, [this] {
    finished_.store(true, std::memory_order_release);
    // A failed Init() leaves no threads and possibly no mailboxes or
    // inject mutexes; there is nothing to drain.
    if (!started_) return;
    // EOS from every spout instance; operators cascade EOS as they close.
    const auto& nodes = topology_->nodes();
    for (uint32_t n = 0; n < nodes.size(); ++n) {
      if (!nodes[n].is_spout) continue;
      for (uint32_t i = 0; i < nodes[n].parallelism; ++i) {
        // The inject mutex orders this flush after every completed Inject
        // for the source; its out-buffers are quiesced here.
        std::lock_guard<std::mutex> lock(*inject_mutexes_[n][i]);
        FlushOutBuffers(n, i);
        SendEos(n, i);
      }
    }
    if (options_.finish_deadline_ms > 0) {
      // Poll the exit counter instead of joining blind: a wedged executor
      // becomes a loud, diagnosable failure instead of a ctest timeout.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(options_.finish_deadline_ms);
      while (threads_exited_.load(std::memory_order_acquire) <
             threads_.size()) {
        if (std::chrono::steady_clock::now() >= deadline) {
          DumpStuckState();
          PKGSTREAM_LOG(Fatal)
              << "Finish() exceeded finish_deadline_ms="
              << options_.finish_deadline_ms
              << " — executor threads wedged (ring dump above)";
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    drained_.store(true, std::memory_order_release);
  });
}

std::vector<uint64_t> ThreadedRuntime::Processed(NodeId node) const {
  PKGSTREAM_CHECK(node.index < processed_base_.size());
  std::vector<uint64_t> out;
  const uint32_t parallelism = topology_->nodes()[node.index].parallelism;
  for (uint32_t i = 0; i < parallelism; ++i) {
    out.push_back(processed_[processed_base_[node.index] + i].value.load(
        std::memory_order_relaxed));
  }
  return out;
}

size_t ThreadedRuntime::ApproxInboxDepth(NodeId node) const {
  PKGSTREAM_CHECK(node.index < mailboxes_.size());
  size_t total = 0;
  for (const auto& mailbox : mailboxes_[node.index]) {
    total += mailbox->SizeApprox();
  }
  return total;
}

Operator* ThreadedRuntime::GetOperator(NodeId node, uint32_t instance) {
  // Gate on drained_, not finished_: finished_ goes up at the *start* of
  // shutdown, while executor threads may still be mutating operators.
  PKGSTREAM_CHECK(drained_.load(std::memory_order_acquire))
      << "operators are live until Finish() completes";
  PKGSTREAM_CHECK(node.index < ops_.size());
  PKGSTREAM_CHECK(instance < ops_[node.index].size());
  return ops_[node.index][instance].get();
}

const partition::Partitioner* ThreadedRuntime::GetPartitioner(
    NodeId from, NodeId to, uint32_t source_instance) const {
  // Same gate as GetOperator: replicas are mutated by producer threads
  // (routing state, reconfig application) until the drain completes.
  PKGSTREAM_CHECK(drained_.load(std::memory_order_acquire))
      << "partitioner replicas are live until Finish() completes";
  const auto& edges = topology_->edges();
  for (uint32_t e = 0; e < edges.size(); ++e) {
    if (edges[e].from.index != from.index || edges[e].to.index != to.index) {
      continue;
    }
    PKGSTREAM_CHECK(source_instance < edge_replicas_[e].size());
    return edge_replicas_[e][source_instance].get();
  }
  PKGSTREAM_CHECK(false) << "no edge " << from.index << " -> " << to.index;
  return nullptr;
}

}  // namespace engine
}  // namespace pkgstream
