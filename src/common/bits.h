// Copyright 2026 The pkgstream Authors.
// C++17 stand-ins for the C++20 <bit> utilities used across the codebase.
// CountlZero sits on the per-message path (LatencyHistogram::Record), so the
// GCC/Clang builds use the single-instruction builtins.

#ifndef PKGSTREAM_COMMON_BITS_H_
#define PKGSTREAM_COMMON_BITS_H_

#include <cstdint>

namespace pkgstream {

/// True iff `x` is a power of two.
inline constexpr bool HasSingleBit(uint64_t x) {
  return x != 0 && (x & (x - 1)) == 0;
}

/// Number of consecutive zero bits starting from the least significant bit.
/// Returns 64 for x == 0.
inline constexpr uint32_t CountrZero(uint64_t x) {
  if (x == 0) return 64;
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<uint32_t>(__builtin_ctzll(x));
#else
  uint32_t n = 0;
  while ((x & 1) == 0) {
    x >>= 1;
    ++n;
  }
  return n;
#endif
}

/// Number of consecutive zero bits starting from the most significant bit.
/// Returns 64 for x == 0.
inline constexpr uint32_t CountlZero(uint64_t x) {
  if (x == 0) return 64;
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<uint32_t>(__builtin_clzll(x));
#else
  uint32_t n = 64;
  while (x != 0) {
    x >>= 1;
    --n;
  }
  return n;
#endif
}

/// Number of set bits.
inline constexpr uint32_t PopCount(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<uint32_t>(__builtin_popcountll(x));
#else
  uint32_t n = 0;
  for (; x != 0; x &= x - 1) ++n;
  return n;
#endif
}

/// Smallest power of two >= x (BitCeil(0) == 1). Unlike std::bit_ceil, inputs
/// above 2^63 saturate to 2^63 instead of being undefined.
inline constexpr uint64_t BitCeil(uint64_t x) {
  if (x <= 1) return 1;
  if (x > (uint64_t{1} << 63)) return uint64_t{1} << 63;
  return uint64_t{1} << (64 - CountlZero(x - 1));
}

}  // namespace pkgstream

#endif  // PKGSTREAM_COMMON_BITS_H_
