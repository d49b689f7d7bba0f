// Copyright 2026 The pkgstream Authors.
// FlatCounter: the open-addressing Key -> count table behind per-key counting
// state (word-count counters and aggregator, exact frequency tables).
//
// Linear probing over a power-of-two array of (key, count) slots. A count of 0
// marks an empty slot, so there is no sentinel key and, since single keys are
// never erased, no tombstones; a zero count is indistinguishable from an
// absent key. The table doubles before its load factor would pass 1/2, and
// clear() keeps the capacity.
//
// A key's home slot comes from Fmix64(key ^ seed), with the seed fixed per
// table. Iteration runs in slot order, which is hash order, so merging one
// table into another that hashes the same way hands the destination its keys
// sorted by its own home slot: a growing destination then fills one region to
// near-full load before it next doubles, and linear probing clusters there.
// Tables that feed each other must therefore carry different seeds. Seeds are
// plain values chosen by the owner (never addresses or time), so iteration
// order is reproducible run to run.

#ifndef PKGSTREAM_COMMON_FLAT_COUNTER_H_
#define PKGSTREAM_COMMON_FLAT_COUNTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace pkgstream {

/// \brief Key -> uint64_t count table with linear probing; see file comment.
class FlatCounter {
 public:
  using value_type = std::pair<Key, uint64_t>;

  /// \brief Forward iterator over the occupied slots, in slot order. Yields
  /// (key, count) pairs with `first` / `second`.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatCounter::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;
    reference operator*() const { return *slot_; }
    pointer operator->() const { return slot_; }
    const_iterator& operator++() {
      ++slot_;
      SkipEmpty();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.slot_ == b.slot_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.slot_ != b.slot_;
    }

   private:
    friend class FlatCounter;
    const_iterator(const value_type* slot, const value_type* end)
        : slot_(slot), end_(end) {
      SkipEmpty();
    }
    void SkipEmpty() {
      while (slot_ != end_ && slot_->second == 0) ++slot_;
    }

    const value_type* slot_ = nullptr;
    const value_type* end_ = nullptr;
  };

  explicit FlatCounter(uint64_t seed) : seed_(seed) {}

  /// Adds `delta` to `key`'s count. Adding 0 is a no-op: it never creates a
  /// key.
  void Add(Key key, uint64_t delta = 1) {
    if (delta != 0) Claim(key)->second += delta;
  }

  /// Raises `key`'s count to at least `value` (0 is a no-op).
  void Max(Key key, uint64_t value) {
    if (value == 0) return;
    value_type* slot = Claim(key);
    slot->second = std::max(slot->second, value);
  }

  /// `key`'s count; 0 when absent.
  uint64_t Count(Key key) const {
    if (slots_.empty()) return 0;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const value_type& slot = slots_[i];
      if (slot.second == 0) return 0;
      if (slot.first == key) return slot.second;
    }
  }

  /// Number of keys held (distinct keys with a nonzero count).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of slots (0 until the first insert).
  size_t capacity() const { return slots_.size(); }
  uint64_t seed() const { return seed_; }

  /// Forgets every key; the capacity stays.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), value_type{});
    size_ = 0;
  }

  /// Calls `visit(key, count)` for every key in slot order, emptying each
  /// slot as it goes, so the table ends empty with its capacity kept. One
  /// pass over the slots; same order as iteration.
  template <typename Visit>
  void Drain(Visit&& visit) {
    for (value_type& slot : slots_) {
      if (slot.second == 0) continue;
      visit(slot.first, slot.second);
      slot = value_type{};
    }
    size_ = 0;
  }

  /// Switches to hashing with `seed`, re-placing any held keys.
  void Reseed(uint64_t seed) {
    seed_ = seed;
    if (size_ != 0) Rehash(slots_.size());
  }

  /// Length of the longest run of consecutive occupied slots (wrapping): the
  /// most occupied slots any lookup can step over before it stops.
  size_t LongestProbeRun() const {
    if (size_ == slots_.size()) return size_;
    // Start right after an empty slot so a run through the end wraps whole.
    size_t start = 0;
    while (slots_[start].second != 0) ++start;
    size_t longest = 0, run = 0;
    for (size_t n = 1; n <= slots_.size(); ++n) {
      if (slots_[(start + n) & mask_].second != 0) {
        longest = std::max(longest, ++run);
      } else {
        run = 0;
      }
    }
    return longest;
  }

  const_iterator begin() const {
    return const_iterator(slots_.data(), slots_.data() + slots_.size());
  }
  const_iterator end() const {
    const value_type* end = slots_.data() + slots_.size();
    return const_iterator(end, end);
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  size_t Home(Key key) const { return Fmix64(key ^ seed_) & mask_; }

  /// The slot holding `key`, claimed (count 0, to be raised by the caller)
  /// when absent.
  value_type* Claim(Key key) {
    if (slots_.empty()) Rehash(kMinCapacity);
    size_t i = Home(key);
    for (;; i = (i + 1) & mask_) {
      value_type& slot = slots_[i];
      if (slot.second == 0) break;
      if (slot.first == key) return &slot;
    }
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(2 * slots_.size());
      i = FreeSlot(key);
    }
    ++size_;
    slots_[i].first = key;
    return &slots_[i];
  }

  /// The first empty slot on `key`'s probe path.
  size_t FreeSlot(Key key) const {
    size_t i = Home(key);
    while (slots_[i].second != 0) i = (i + 1) & mask_;
    return i;
  }

  /// Re-places every held key into `capacity` fresh slots (a power of two).
  void Rehash(size_t capacity) {
    const std::vector<value_type> old =
        std::exchange(slots_, std::vector<value_type>(capacity));
    mask_ = capacity - 1;
    for (const value_type& slot : old) {
      if (slot.second != 0) slots_[FreeSlot(slot.first)] = slot;
    }
  }

  std::vector<value_type> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  uint64_t seed_;
};

}  // namespace pkgstream

#endif  // PKGSTREAM_COMMON_FLAT_COUNTER_H_
