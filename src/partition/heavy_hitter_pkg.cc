// Copyright 2026 The pkgstream Authors.

#include "partition/heavy_hitter_pkg.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/hash_simd.h"
#include "common/logging.h"
#include "common/simd.h"

namespace pkgstream {
namespace partition {

namespace {

// Same vector-argmin gate as pkg.cc: below a few hundred buckets the
// cross-row conflict check refuses nearly every group; above 2^30 the
// gather's signed 32-bit indices run out.
constexpr uint32_t kVectorArgminMinBuckets = 256;
constexpr uint32_t kVectorArgminMaxBuckets = 1u << 30;

// A min-level refill reads every load once, a head candidate costs a hash
// and a load: a D-Choices row with fewer than W / this many candidates
// scans its prefix rather than pay a refill (on Zipf(1.5) at W=1024,
// D-Choices(4) ran about twice as slow when every such row refilled).
constexpr uint32_t kCandidatesPerRefill = 16;

/// Members the head hash family needs: the D-Choices cap (adaptive or
/// fixed). Plain W-Choices never hashes head keys, so one member suffices.
uint32_t HeadFamilySize(const HeavyHitterPkgOptions& options,
                        uint32_t workers) {
  uint32_t cap = options.head_choices;
  if (cap == 0) cap = options.adaptive_head ? workers : 1;
  return std::max(1u, std::min(cap, workers));
}

/// The workers at the minimum of a kVectorArgmin frame's estimate row,
/// kept exact through one FusedRoute call so heavy rows skip the W-wide
/// argmin. Every send of the call goes through OnSend. Within a call only
/// those sends touch the row, each adds exactly 1, so the set only
/// shrinks: a send to a member clears its bit. Once the last member is
/// gone every load is >= level + 1, and the next heavy row refills the
/// set with one pass at level + 1 (the new minimum, unless later sends
/// lifted every worker there, in which case a min pass finds it). Heavy
/// rows only ever query a non-empty set, and two facts make its answers
/// the scalar argmin: the lowest set bit is the lowest-index minimum (the
/// full scan's tie-break), and a candidate at the global minimum is the
/// lightest candidate there can be, so the first such candidate in hash
/// order is the one the prefix scan would keep.
class MinLevel {
 public:
  /// `bits` holds ceil(workers / 64) words; the set starts empty.
  MinLevel(uint32_t workers, uint64_t* bits)
      : workers_(workers), words_((workers + 63) / 64), bits_(bits) {
    std::fill(bits_, bits_ + words_, 0);
  }

  bool empty() const { return count_ == 0; }

  /// Fills the empty set from `loads`, the frame's estimate row.
  void Refill(const uint64_t* loads) {
    if (built_) {
      ++level_;
      Mark(loads);
      if (count_ != 0) return;
    }
    level_ = *std::min_element(loads, loads + workers_);
    built_ = true;
    Mark(loads);
  }

  /// One message sent to `w` (branch-free; a no-op on an empty set).
  void OnSend(WorkerId w) {
    uint64_t& word = bits_[w >> 6];
    const uint64_t bit = uint64_t{1} << (w & 63);
    count_ -= (word & bit) != 0 ? 1 : 0;
    word &= ~bit;
  }

  bool Contains(WorkerId w) const {
    return ((bits_[w >> 6] >> (w & 63)) & 1) != 0;
  }

  /// Lowest-index member of the non-empty set. Bits are only cleared
  /// between refills, so the first non-zero word only moves forward.
  WorkerId First() {
    while (bits_[first_word_] == 0) ++first_word_;
    return first_word_ * 64 + CountrZero(bits_[first_word_]);
  }

 private:
  /// The set becomes the workers whose load equals level_.
  void Mark(const uint64_t* loads) {
    count_ = 0;
    first_word_ = 0;
    for (uint32_t word = 0; word < words_; ++word) {
      const uint32_t base = word * 64;
      const uint32_t end = std::min(base + 64, workers_);
      uint64_t bits = 0;
      for (uint32_t w = base; w < end; ++w) {
        bits |= static_cast<uint64_t>(loads[w] == level_) << (w - base);
      }
      bits_[word] = bits;
      count_ += PopCount(bits);
    }
  }

  uint32_t workers_;
  uint32_t words_;
  uint64_t* bits_;
  uint32_t count_ = 0;
  uint32_t first_word_ = 0;
  uint64_t level_ = 0;
  bool built_ = false;
};

}  // namespace

HeavyHitterAwarePkg::HeavyHitterAwarePkg(uint32_t sources, uint32_t workers,
                                         LoadEstimatorPtr estimator,
                                         HeavyHitterPkgOptions options)
    : sources_(sources),
      workers_(workers),
      tail_hash_(options.base_choices, workers, options.hash_seed),
      head_hash_(HeadFamilySize(options, workers), workers,
                 Fmix64(options.hash_seed) | 1),
      estimator_(std::move(estimator)),
      options_(options),
      min_bits_((workers + 63) / 64),
      head_scratch_(head_hash_.d()) {
  PKGSTREAM_CHECK(sources >= 1 && workers >= 1);
  PKGSTREAM_CHECK(options_.base_choices >= 1);
  PKGSTREAM_CHECK(options_.head_choices <= workers);
  PKGSTREAM_CHECK(options_.sketch_capacity >= 1);
  PKGSTREAM_CHECK(!options_.adaptive_head || options_.epsilon > 0.0);
  PKGSTREAM_CHECK(estimator_ != nullptr);
  sketches_.reserve(sources);
  for (uint32_t s = 0; s < sources; ++s) {
    sketches_.emplace_back(options_.sketch_capacity);
  }
  source_messages_.assign(sources, 0);
}

HeavyHitterAwarePkg::HeavyHitterAwarePkg(const HeavyHitterAwarePkg& other)
    : sources_(other.sources_),
      workers_(other.workers_),
      tail_hash_(other.tail_hash_),
      head_hash_(other.head_hash_),
      estimator_(other.estimator_->Clone()),
      options_(other.options_),
      sketches_(other.sketches_),
      source_messages_(other.source_messages_),
      heavy_routings_(other.heavy_routings_),
      min_bits_(other.min_bits_.size()),
      head_scratch_(other.head_scratch_.size()),
      alive_(other.alive_),
      degraded_(other.degraded_) {}

PartitionerPtr HeavyHitterAwarePkg::Clone() const {
  return PartitionerPtr(new HeavyHitterAwarePkg(*this));
}

bool HeavyHitterAwarePkg::IsHeavy(SourceId source, Key key) const {
  const uint64_t seen = source_messages_[source];
  if (seen < options_.min_messages) return false;
  const stats::SpaceSaving& sketch = sketches_[source];
  if (!sketch.Contains(key)) return false;
  return IsHeavyCount(seen, sketch.Estimate(key));
}

bool HeavyHitterAwarePkg::IsHeavyCount(uint64_t seen, uint64_t count) const {
  if (seen < options_.min_messages) return false;
  double share = static_cast<double>(count) / static_cast<double>(seen);
  return share > options_.threshold_factor / static_cast<double>(workers_);
}

uint32_t HeavyHitterAwarePkg::HeadChoicesFor(SourceId source, Key key) const {
  return HeadChoicesForCount(source_messages_[source],
                             sketches_[source].Estimate(key));
}

uint32_t HeavyHitterAwarePkg::HeadChoicesForCount(uint64_t seen,
                                                  uint64_t count) const {
  if (!options_.adaptive_head) {
    return options_.head_choices == 0 ? workers_ : options_.head_choices;
  }
  const uint32_t cap = options_.head_choices == 0
                           ? workers_
                           : std::min(options_.head_choices, workers_);
  // Nothing routed yet: no share to measure (0/0 would reach the uint32_t
  // cast below as NaN), so the key gets the floor every d_k is held to.
  if (seen == 0) return std::min(options_.base_choices, cap);
  // The sequel's rule: a candidate of a share-p key carries p/d_k of the
  // stream from that key ON TOP of its ~1/W background share, so keeping
  // the total within (1+eps)/W needs p/d_k <= eps/W, i.e.
  // d_k >= p*W/eps. (Dividing by (1+eps) instead — just enough slots for
  // the key's own mass — leaves zero redundancy: random candidate sets
  // collide, the union covers a fraction of the cluster, and the heavy
  // mass piles onto the covered part.) SPACESAVING only overestimates, so
  // d_k errs toward more spread, never less; the very head escalates past
  // workers() into the full-scan W-Choices path.
  const double share =
      static_cast<double>(count) / static_cast<double>(seen);
  const double spread =
      share * static_cast<double>(workers_) / options_.epsilon;
  uint32_t dk = spread >= static_cast<double>(workers_)
                    ? workers_
                    : static_cast<uint32_t>(std::ceil(spread));
  return std::min(std::max(dk, options_.base_choices), cap);
}

Status HeavyHitterAwarePkg::SetWorkerSet(const std::vector<bool>& alive) {
  if (alive.size() != workers_) {
    return Status::InvalidArgument(
        "worker set size " + std::to_string(alive.size()) +
        " != " + std::to_string(workers_) + " workers");
  }
  uint32_t alive_count = 0;
  for (bool a : alive) alive_count += a ? 1 : 0;
  if (alive_count == 0) {
    return Status::InvalidArgument("worker set has zero alive workers");
  }
  alive_.assign(alive.begin(), alive.end());
  degraded_ = alive_count != workers_;
  return Status::OK();
}

WorkerId HeavyHitterAwarePkg::RouteDegraded(SourceId source, Key key) {
  sketches_[source].Add(key);
  ++source_messages_[source];
  estimator_->BeginRoute(source);
  bool found = false;
  WorkerId best = 0;
  uint64_t best_load = 0;
  const auto consider = [&](WorkerId candidate) {
    if (!alive_[candidate]) return;
    const uint64_t load = estimator_->Estimate(source, candidate);
    if (!found || load < best_load) {
      found = true;
      best = candidate;
      best_load = load;
    }
  };
  if (IsHeavy(source, key)) {
    ++heavy_routings_;
    const uint32_t dk = HeadChoicesFor(source, key);
    if (dk >= workers_) {
      for (WorkerId w = 0; w < workers_; ++w) consider(w);
    } else {
      for (uint32_t i = 0; i < dk; ++i) consider(head_hash_.Bucket(i, key));
    }
  } else {
    for (uint32_t i = 0; i < tail_hash_.d(); ++i) {
      consider(tail_hash_.Bucket(i, key));
    }
  }
  if (!found) {
    // Every candidate is dead: least-loaded alive worker, lowest index on
    // ties (the W-Choices scan restricted to the alive set).
    for (WorkerId w = 0; w < workers_; ++w) consider(w);
  }
  estimator_->OnSend(source, best);
  return best;
}

WorkerId HeavyHitterAwarePkg::Route(SourceId source, Key key) {
  PKGSTREAM_DCHECK(source < sources_);
  if (degraded_) return RouteDegraded(source, key);
  sketches_[source].Add(key);
  ++source_messages_[source];

  estimator_->BeginRoute(source);
  WorkerId best;
  if (IsHeavy(source, key)) {
    ++heavy_routings_;
    const uint32_t dk = HeadChoicesFor(source, key);
    if (dk >= workers_) {
      // W-Choices: full choice among all workers for the head keys.
      best = 0;
      uint64_t best_load = estimator_->Estimate(source, 0);
      for (WorkerId w = 1; w < workers_; ++w) {
        uint64_t load = estimator_->Estimate(source, w);
        if (load < best_load) {
          best = w;
          best_load = load;
        }
      }
    } else {
      // D-Choices: the first d_k members of the head hash family — a
      // growing prefix, so a key keeps its earlier candidates as its
      // estimated share (and with it d_k) rises.
      best = head_hash_.Bucket(0, key);
      uint64_t best_load = estimator_->Estimate(source, best);
      for (uint32_t i = 1; i < dk; ++i) {
        WorkerId candidate = head_hash_.Bucket(i, key);
        uint64_t load = estimator_->Estimate(source, candidate);
        if (load < best_load) {
          best = candidate;
          best_load = load;
        }
      }
    }
  } else {
    // Tail keys: plain PKG.
    best = tail_hash_.Bucket(0, key);
    uint64_t best_load = estimator_->Estimate(source, best);
    for (uint32_t i = 1; i < tail_hash_.d(); ++i) {
      WorkerId candidate = tail_hash_.Bucket(i, key);
      uint64_t load = estimator_->Estimate(source, candidate);
      if (load < best_load) {
        best = candidate;
        best_load = load;
      }
    }
  }
  estimator_->OnSend(source, best);
  return best;
}

template <typename Frame>
void HeavyHitterAwarePkg::FusedRoute(SourceId source, Frame frame,
                                     const Key* keys, WorkerId* out,
                                     size_t n) {
  constexpr size_t kChunk = 256;
  const uint32_t b = tail_hash_.d();
  const bool columns = b >= 2 && b <= simd::kMaxWideArgminChoices;
  uint32_t cand[simd::kMaxWideArgminChoices][kChunk];
  uint8_t heavy[kChunk];
  uint32_t dk[kChunk];
  const bool vector_argmin =
      Frame::kVectorArgmin && columns &&
      workers_ >= kVectorArgminMinBuckets &&
      workers_ <= kVectorArgminMaxBuckets &&
      simd::ActiveSimdLevel() >= simd::SimdLevel::kAvx2;
  stats::SpaceSaving& sketch = sketches_[source];
  uint64_t& seen = source_messages_[source];
  // Frames whose estimates() is the whole row track its minimum level;
  // every send of the call goes through send() to keep it exact.
  MinLevel min_level(workers_, min_bits_.data());
  const auto send = [&](WorkerId w) {
    frame.OnSend(w);
    if constexpr (Frame::kVectorArgmin) min_level.OnSend(w);
  };
  // The scalar argmin: least-loaded of the d candidates `candidate(i)`,
  // the first one on ties.
  const auto argmin = [&](uint32_t d, auto candidate) {
    WorkerId best = candidate(0);
    uint64_t best_load = frame.Estimate(best);
    for (uint32_t i = 1; i < d; ++i) {
      const WorkerId next = candidate(i);
      const uint64_t load = frame.Estimate(next);
      if (load < best_load) {
        best = next;
        best_load = load;
      }
    }
    return best;
  };
  // A heavy row: all workers when d >= W (W-Choices), else the d-prefix
  // of the head family (D-Choices).
  const auto route_heavy = [&](Key key, uint32_t d) -> WorkerId {
    const auto hash = [&](uint32_t i) { return head_hash_.Bucket(i, key); };
    if constexpr (Frame::kVectorArgmin) {
      if (min_level.empty()) {
        if (d < workers_ / kCandidatesPerRefill) return argmin(d, hash);
        min_level.Refill(frame.estimates());
      }
      if (d >= workers_) return min_level.First();
      // Hashes go to head_scratch_ so the fallback scan reuses them.
      WorkerId* const head = head_scratch_.data();
      for (uint32_t i = 0; i < d; ++i) {
        head[i] = hash(i);
        if (min_level.Contains(head[i])) return head[i];
      }
      return argmin(d, [head](uint32_t i) { return head[i]; });
    } else {
      if (d < workers_) return argmin(d, hash);
      return argmin(workers_, [](uint32_t w) { return w; });
    }
  };
  size_t done = 0;
  while (done < n) {
    const size_t len = std::min(kChunk, n - done);
    // Classification pre-pass. Sketch state depends only on the key
    // sequence, never on routing decisions, so feeding the whole chunk
    // ahead of the estimator protocol classifies message i against exactly
    // the sketch state the scalar Route would see — the heavy flags, the
    // d_k values, and heavy_routings_ all match bit for bit. The key owns
    // a counter right after Add, so Add's count is what IsHeavy and
    // HeadChoicesFor would read back.
    for (size_t j = 0; j < len; ++j) {
      const uint64_t count = sketch.Add(keys[done + j]);
      ++seen;
      const bool is_heavy = IsHeavyCount(seen, count);
      heavy[j] = is_heavy ? 1 : 0;
      if (is_heavy) {
        ++heavy_routings_;
        dk[j] = HeadChoicesForCount(seen, count);
      }
    }
    if (columns) {
      for (uint32_t c = 0; c < b; ++c) {
        tail_hash_.BucketBatch(c, keys + done, cand[c], len);
      }
    }
    // The one copy of the sequential protocol (cf. pkg.cc): BeginRoute,
    // Estimate over the row's candidate set, OnSend — identical to the
    // scalar Route for every class of row. Heavy rows over a
    // kVectorArgmin frame skip the reads the min level makes redundant.
    const auto route_row = [&](size_t j) {
      const Key key = keys[done + j];
      frame.BeginRoute();
      WorkerId best;
      if (heavy[j]) {
        best = route_heavy(key, dk[j]);
      } else if (columns) {
        best = argmin(b, [&](uint32_t c) { return cand[c][j]; });
      } else {
        best = argmin(
            b, [&](uint32_t i) { return tail_hash_.Bucket(i, key); });
      }
      send(best);
      out[done + j] = best;
    };
    size_t j = 0;
    if constexpr (Frame::kVectorArgmin) {
      if (vector_argmin) {
        const uint32_t* group_cols[simd::kMaxWideArgminChoices];
        while (j + 4 <= len) {
          // Vector groups need four consecutive all-tail rows; any heavy
          // row routes scalar and the group window slides past it.
          if (heavy[j] | heavy[j + 1] | heavy[j + 2] | heavy[j + 3]) {
            route_row(j);
            ++j;
            continue;
          }
          bool committed;
          if (b == 2) {
            committed = simd::ArgminX4Avx2(cand[0] + j, cand[1] + j,
                                           frame.estimates(), out + done + j);
          } else {
            for (uint32_t c = 0; c < b; ++c) group_cols[c] = cand[c] + j;
            committed = simd::ArgminX4WideAvx2(group_cols, b,
                                               frame.estimates(),
                                               out + done + j);
          }
          if (committed) {
            for (size_t t = j; t < j + 4; ++t) send(out[done + t]);
          } else {
            for (size_t t = j; t < j + 4; ++t) route_row(t);
          }
          j += 4;
        }
      }
    }
    for (; j < len; ++j) route_row(j);
    done += len;
  }
}

void HeavyHitterAwarePkg::RouteBatch(SourceId source, const Key* keys,
                                     WorkerId* out, size_t n) {
  PKGSTREAM_DCHECK(source < sources_);
  if (degraded_) {
    // Degraded routing is the cold path: the scalar loop keeps batch and
    // scalar decisions trivially identical while workers are down.
    Partitioner::RouteBatch(source, keys, out, n);
    return;
  }
  // One concrete-type resolution per batch buys a virtual-free inner loop
  // (same dispatch as PartialKeyGrouping::RouteBatch).
  LoadEstimator* estimator = estimator_.get();
  if (auto* local = dynamic_cast<LocalLoadEstimator*>(estimator)) {
    FusedRoute(source, local->MakeRoutingFrame(source), keys, out, n);
  } else if (auto* global = dynamic_cast<GlobalLoadEstimator*>(estimator)) {
    FusedRoute(source, global->MakeRoutingFrame(source), keys, out, n);
  } else if (auto* probing = dynamic_cast<ProbingLoadEstimator*>(estimator)) {
    FusedRoute(source, probing->MakeRoutingFrame(source), keys, out, n);
  } else {
    Partitioner::RouteBatch(source, keys, out, n);
  }
}

std::string HeavyHitterAwarePkg::Name() const {
  if (options_.adaptive_head) {
    return "D-Choices-" + estimator_->Name();
  }
  if (options_.head_choices == 0) {
    return "W-Choices-" + estimator_->Name();
  }
  return "D-Choices(" + std::to_string(options_.head_choices) + ")-" +
         estimator_->Name();
}

}  // namespace partition
}  // namespace pkgstream
