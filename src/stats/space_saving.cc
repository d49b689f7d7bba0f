// Copyright 2026 The pkgstream Authors.

#include "stats/space_saving.h"

#include <algorithm>

#include "common/logging.h"

namespace pkgstream {
namespace stats {

SpaceSaving::SpaceSaving(size_t capacity) : capacity_(capacity) {
  PKGSTREAM_CHECK(capacity >= 1);
  heap_.reserve(capacity);
}

void SpaceSaving::HeapSwap(size_t a, size_t b) {
  std::swap(heap_[a], heap_[b]);
  index_[heap_[a].key] = a;
  index_[heap_[b].key] = b;
}

void SpaceSaving::SiftDown(size_t i) {
  const size_t n = heap_.size();
  while (true) {
    size_t left = 2 * i + 1;
    size_t right = left + 1;
    size_t smallest = i;
    if (left < n && heap_[left].count < heap_[smallest].count) {
      smallest = left;
    }
    if (right < n && heap_[right].count < heap_[smallest].count) {
      smallest = right;
    }
    if (smallest == i) return;
    HeapSwap(i, smallest);
    i = smallest;
  }
}

void SpaceSaving::SiftUp(size_t i) {
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (heap_[parent].count <= heap_[i].count) return;
    HeapSwap(i, parent);
    i = parent;
  }
}

uint64_t SpaceSaving::Add(Key key, uint64_t increment) {
  processed_ += increment;
  auto it = index_.find(key);
  if (it != index_.end()) {
    const uint64_t count = heap_[it->second].count += increment;
    SiftDown(it->second);
    return count;
  }
  if (heap_.size() < capacity_) {
    heap_.push_back(HeapNode{key, increment, 0});
    index_[key] = heap_.size() - 1;
    SiftUp(heap_.size() - 1);
    return increment;
  }
  // Evict the minimum: the newcomer inherits min_count as its error bound.
  HeapNode& root = heap_[0];
  index_.erase(root.key);
  uint64_t min_count = root.count;
  root = HeapNode{key, min_count + increment, min_count};
  index_[key] = 0;
  SiftDown(0);
  return min_count + increment;
}

uint64_t SpaceSaving::Estimate(Key key) const {
  auto it = index_.find(key);
  if (it != index_.end()) return heap_[it->second].count;
  return MinCount();
}

bool SpaceSaving::Contains(Key key) const { return index_.count(key) > 0; }

SpaceSavingEntry SpaceSaving::Entry(Key key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return SpaceSavingEntry{key, 0, 0};
  const HeapNode& n = heap_[it->second];
  return SpaceSavingEntry{n.key, n.count, n.error};
}

uint64_t SpaceSaving::MinCount() const {
  if (heap_.size() < capacity_) return 0;
  return heap_.empty() ? 0 : heap_[0].count;
}

std::vector<SpaceSavingEntry> SpaceSaving::TopK(size_t k) const {
  std::vector<SpaceSavingEntry> items;
  items.reserve(heap_.size());
  for (const auto& n : heap_) {
    items.push_back(SpaceSavingEntry{n.key, n.count, n.error});
  }
  std::sort(items.begin(), items.end(),
            [](const SpaceSavingEntry& a, const SpaceSavingEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  if (k > 0 && k < items.size()) items.resize(k);
  return items;
}

void SpaceSaving::Merge(const SpaceSaving& other) {
  // Combine (Berinde et al.): estimates add, errors add. A key tracked in
  // only one summary may still have occurred up to MinCount() times in the
  // other's stream (that is exactly what an absent key's Estimate() says),
  // so the absent summary contributes its MinCount() to both the count and
  // the error — the upper bound survives the merge, and the contribution
  // degenerates to 0 while the absent summary has spare capacity.
  const uint64_t this_floor = MinCount();
  const uint64_t other_floor = other.MinCount();
  std::unordered_map<Key, SpaceSavingEntry> combined;
  combined.reserve(heap_.size() + other.heap_.size());
  for (const auto& n : heap_) {
    combined[n.key] =
        SpaceSavingEntry{n.key, n.count + other_floor, n.error + other_floor};
  }
  for (const auto& n : other.heap_) {
    auto [it, inserted] = combined.emplace(
        n.key,
        SpaceSavingEntry{n.key, n.count + this_floor, n.error + this_floor});
    if (!inserted) {
      // Tracked in both: undo the one-sided floor, add the real counter.
      it->second.count += n.count - other_floor;
      it->second.error += n.error - other_floor;
    }
  }
  // Keep the heaviest `capacity_` entries; the evicted mass is bounded by
  // the cutoff count, which becomes the new floor (standard truncation).
  std::vector<SpaceSavingEntry> all;
  all.reserve(combined.size());
  for (auto& [_, e] : combined) all.push_back(e);
  std::sort(all.begin(), all.end(),
            [](const SpaceSavingEntry& a, const SpaceSavingEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  if (all.size() > capacity_) all.resize(capacity_);

  heap_.clear();
  index_.clear();
  processed_ += other.processed_;
  for (const auto& e : all) {
    heap_.push_back(HeapNode{e.key, e.count, e.error});
    index_[e.key] = heap_.size() - 1;
    SiftUp(heap_.size() - 1);
  }
}

}  // namespace stats
}  // namespace pkgstream
