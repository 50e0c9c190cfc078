// Hashing utilities (FNV-1a) used for value fingerprints and hash-map keys.
#pragma once

#include <cstdint>
#include <string_view>

namespace av {

/// 64-bit FNV-1a hash of a byte string.
inline uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Mixes two 64-bit hashes (boost::hash_combine style, 64-bit constants).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/// Polynomial hash constants: multiplier (the odd FNV prime) and seed.
/// Unlike FNV-1a, h -> h * P + c composes: hashing a concatenation equals
/// folding per-fragment affine maps (see PolyPow below), which is what lets
/// the offline enumerator key a pattern in one multiply-add per atom from
/// texts it rendered once, instead of one multiply per byte.
inline constexpr uint64_t kPolyMul = 0x100000001b3ULL;
inline constexpr uint64_t kPolySeed = 0xcbf29ce484222325ULL;

/// Continues a polynomial hash over `s`: the fold h -> h * kPolyMul + c
/// over every byte, evaluated four bytes per step (exact same polynomial
/// mod 2^64) so the serial multiply chain is one multiply per block instead
/// of per byte. Folding fragments in turn equals folding their
/// concatenation, whatever the boundaries.
inline uint64_t PolyHashUpdate(uint64_t h, std::string_view s) {
  constexpr uint64_t kP2 = kPolyMul * kPolyMul;
  constexpr uint64_t kP3 = kP2 * kPolyMul;
  constexpr uint64_t kP4 = kP3 * kPolyMul;
  size_t i = 0;
  for (; i + 4 <= s.size(); i += 4) {
    h = h * kP4 + static_cast<unsigned char>(s[i]) * kP3 +
        static_cast<unsigned char>(s[i + 1]) * kP2 +
        static_cast<unsigned char>(s[i + 2]) * kPolyMul +
        static_cast<unsigned char>(s[i + 3]);
  }
  for (; i < s.size(); ++i) {
    h = h * kPolyMul + static_cast<unsigned char>(s[i]);
  }
  return h;
}

/// kPolyMul^n mod 2^64. The fold is affine in h, so
/// PolyHashUpdate(h, s) == h * PolyPow(s.size()) + PolyHashUpdate(0, s):
/// pieces of a string hashed apart, each from 0, fold in order into the
/// hash of the whole.
inline uint64_t PolyPow(uint64_t n) {
  uint64_t pow = 1;
  for (uint64_t base = kPolyMul; n > 0; n >>= 1, base *= base) {
    if (n & 1) pow *= base;
  }
  return pow;
}

/// 64-bit polynomial hash of a byte string: PolyHashUpdate from kPolySeed.
inline uint64_t PolyHash64(std::string_view s) {
  return PolyHashUpdate(kPolySeed, s);
}

}  // namespace av
