// Copyright 2026 The pkgstream Authors.
// Heavy-hitter-aware PKG — the extension the paper's analysis begs for and
// its conclusions point at ("is it possible to achieve good load balance
// ... which other primitives can a DSPE offer?", Section VIII; the idea
// became the authors' follow-up "When Two Choices Are not Enough":
// D-Choices / W-Choices, Nasir et al. 2016).
//
// Section IV shows two choices cannot balance once the head probability
// exceeds ~2/n: the hot key's two candidate workers must absorb p1/2 of the
// stream each, above the 1/n average. The fix: give *only the heavy keys*
// more choices. Each source detects heavy hitters in its own sub-stream
// with a SPACESAVING sketch (no coordination — the same philosophy as local
// load estimation) and routes them among d_head candidates (or all
// workers); the long tail keeps plain two-choice key splitting, so the
// per-key state blow-up stays confined to the handful of keys that already
// need aggregation everywhere.
//
// The follow-up's policy is adaptive: the threshold and each heavy key's
// choice count are *derived* from the worker count and the key's measured
// share, not fixed a priori. A candidate of a share-p key carries p/d_k of
// the stream from that key on top of its ~1/W background share, so keeping
// every worker within (1+eps) of the average needs p/d_k <= eps/W: the
// adaptive policy gives the key d_k = ceil(p·W / eps) candidates — a
// prefix of one fixed head hash family, so the set only grows as the
// estimate sharpens — escalating smoothly from plain PKG through D-Choices
// to all-workers W-Choices for the very head. eps is the balance slack:
// it bounds the relative overload any one heavy key can force, and the
// 1/eps inflation also buys the candidate-set redundancy greedy needs
// once the heavy mass claims a sizable fraction of the cluster.

#ifndef PKGSTREAM_PARTITION_HEAVY_HITTER_PKG_H_
#define PKGSTREAM_PARTITION_HEAVY_HITTER_PKG_H_

#include <memory>
#include <string>
#include <vector>

#include "stats/space_saving.h"
#include "common/hash.h"
#include "partition/load_estimator.h"
#include "partition/partitioner.h"

namespace pkgstream {
namespace partition {

/// \brief Tuning for HeavyHitterAwarePkg.
struct HeavyHitterPkgOptions {
  /// Choices for ordinary (tail) keys; 2 = plain PKG.
  uint32_t base_choices = 2;
  /// Cap on choices for detected heavy hitters; 0 means all workers (the
  /// "W-Choices" policy), otherwise up to d_head hash candidates
  /// ("D-Choices"). With adaptive_head this is the *cap*; without it, every
  /// heavy key uses exactly this many candidates.
  uint32_t head_choices = 0;
  /// Per-source SPACESAVING capacity for the detector. Must be large enough
  /// that every key above the heavy threshold owns a counter: capacity >=
  /// workers / threshold_factor guarantees detection (SPACESAVING tracks
  /// every key with share > 1/capacity).
  size_t sketch_capacity = 256;
  /// A key is heavy when its estimated share of the source's sub-stream
  /// exceeds threshold_factor / workers (theory: 2 choices suffice only
  /// below ~2/n, so factor 1 flags everything near the danger zone and
  /// factor base_choices flags exactly the keys beyond the Section IV
  /// wall).
  double threshold_factor = 1.0;
  /// Detection warm-up: no key is considered heavy before this many
  /// messages from the source (estimates are noise at the very start).
  uint64_t min_messages = 1000;
  /// The sequel's epsilon-derived per-key policy: each heavy key of
  /// estimated share p gets d_k = ceil(p * workers / epsilon) candidates
  /// (clamped to [base_choices, head cap]), all workers once d_k reaches
  /// the worker count. When false, every heavy key uses the fixed
  /// head_choices policy above.
  bool adaptive_head = false;
  /// Balance slack for adaptive_head (must be > 0 there): a candidate of a
  /// share-p key carries p/d_k from that key on top of its ~1/workers
  /// background, so d_k = p*workers/epsilon keeps every worker within
  /// (1 + epsilon) of the average. Smaller = more candidates.
  double epsilon = 0.05;
  uint64_t hash_seed = 0x9E3779B97F4A7C15ULL;
};

/// \brief PKG with per-source heavy-hitter detection and per-class choices.
class HeavyHitterAwarePkg final : public Partitioner {
 public:
  HeavyHitterAwarePkg(uint32_t sources, uint32_t workers,
                      LoadEstimatorPtr estimator,
                      HeavyHitterPkgOptions options = {});

  WorkerId Route(SourceId source, Key key) override;
  void RouteBatch(SourceId source, const Key* keys, WorkerId* out,
                  size_t n) override;
  uint32_t workers() const override { return workers_; }
  uint32_t sources() const override { return sources_; }
  /// Heavy keys may touch all workers (W-Choices) or head_choices of them.
  uint32_t MaxWorkersPerKey() const override {
    return options_.head_choices == 0 ? workers_ : options_.head_choices;
  }
  std::string Name() const override;
  PartitionerPtr Clone() const override;

  /// Live reconfiguration: dead workers drop out of every candidate scan
  /// (tail prefix, D-Choices head prefix, and the W-Choices full scan);
  /// a fully dead candidate set falls back to the least-loaded alive
  /// worker. Healthy routing is byte-untouched.
  bool SupportsReconfiguration() const override { return true; }
  Status SetWorkerSet(const std::vector<bool>& alive) override;

  /// Whether `source`'s detector currently classifies `key` as heavy.
  bool IsHeavy(SourceId source, Key key) const;

  /// The choice count a heavy `key` gets *right now* (>= workers() means
  /// the full-scan W-Choices path). Deterministic in the sketch state, so
  /// batch classification can precompute it without touching the estimator.
  /// A source that has routed nothing yet gets the base_choices floor.
  uint32_t HeadChoicesFor(SourceId source, Key key) const;

  /// Messages routed through the expanded-choice path (diagnostics).
  uint64_t heavy_routings() const { return heavy_routings_; }

 private:
  /// Deep copy (clones the estimator); only Clone() uses it.
  HeavyHitterAwarePkg(const HeavyHitterAwarePkg& other);

  /// Route with dead workers filtered out of every candidate scan (the
  /// degraded_ slow path; same sketch + estimator protocol as Route).
  WorkerId RouteDegraded(SourceId source, Key key);

  /// IsHeavy and HeadChoicesFor for a key the sketch tracks with estimated
  /// `count` after `seen` messages from its source: the batch pre-pass
  /// feeds them SpaceSaving::Add's result instead of probing the sketch.
  bool IsHeavyCount(uint64_t seen, uint64_t count) const;
  uint32_t HeadChoicesForCount(uint64_t seen, uint64_t count) const;

  /// The fused batch loop behind RouteBatch, devirtualized over the
  /// estimator's routing frame (same pattern as pkg.cc).
  template <typename Frame>
  void FusedRoute(SourceId source, Frame frame, const Key* keys,
                  WorkerId* out, size_t n);

  uint32_t sources_;
  uint32_t workers_;
  HashFamily tail_hash_;  // base_choices functions
  HashFamily head_hash_;  // up to head-cap functions (unused for W-Choices)
  LoadEstimatorPtr estimator_;
  HeavyHitterPkgOptions options_;
  std::vector<stats::SpaceSaving> sketches_;  // one per source
  std::vector<uint64_t> source_messages_;
  uint64_t heavy_routings_ = 0;
  /// FusedRoute scratch, sized here so routing never allocates: the
  /// min-level bitset (one bit per worker) and a heavy row's head hashes.
  std::vector<uint64_t> min_bits_;
  std::vector<WorkerId> head_scratch_;
  /// Alive mask; degraded_ == false guarantees the untouched healthy path.
  std::vector<uint8_t> alive_;
  bool degraded_ = false;
};

}  // namespace partition
}  // namespace pkgstream

#endif  // PKGSTREAM_PARTITION_HEAVY_HITTER_PKG_H_
