// Dispatch resolver + portable kernels for the tokenizer SIMD layer.
//
// Two arms exist: the SSSE3 block kernel ("sse2", token_simd_sse2.cc,
// compiled only when CMake defines AV_SIMD_SSE2) and the portable SWAR
// scanner, the only arm of a portable build or a non-x86 target. The
// resolver picks the block kernel whenever it was compiled and CPUID
// reports SSSE3.
//
// This translation unit is compiled WITHOUT any -m flags: it may only
// reference the kernel symbols (compiled in their own TU with a per-file
// flag) through ordinary function pointers, and may only select them
// after the CPUID check says the instructions exist.
#include "pattern/simd/token_simd.h"

#include <atomic>
#include <bit>
#include <cstring>

#include "pattern/token.h"

namespace av::simd {

#if defined(AV_SIMD_SSE2)
// Defined in token_simd_sse2.cc (compiled with -mssse3).
void BlockClassifySse2(const char* p, size_t n, BlockMasks* out);
size_t FindAnyOf4Sse2(const char* p, size_t n, const unsigned char set[4]);
#endif

const char* TokenizerArmName(TokenizerArm arm) {
  switch (arm) {
    case TokenizerArm::kSwar:
      return "swar";
    case TokenizerArm::kSse2:
      return "sse2";
  }
  return "?";
}

void BlockClassifyScalar(const char* p, size_t n, BlockMasks* out) {
  BlockMasks m;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t bits = kTokenClassTable[static_cast<unsigned char>(p[i])];
    const uint64_t bit = uint64_t{1} << i;
    if (bits & TokenClassTable::kDigit) m.digit |= bit;
    if (bits & TokenClassTable::kLetter) m.letter |= bit;
    if (bits & TokenClassTable::kOther) m.nonascii |= bit;
  }
  *out = m;
}

size_t FindAnyOf4Scalar(const char* p, size_t n, const unsigned char set[4]) {
  for (size_t i = 0; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(p[i]);
    if (c == set[0] || c == set[1] || c == set[2] || c == set[3]) return i;
  }
  return n;
}

namespace {

constexpr uint64_t kOnes = 0x0101010101010101ULL;
constexpr uint64_t kHighs = 0x8080808080808080ULL;

/// High bit of each byte of `x` that is zero (the classic haszero SWAR).
inline uint64_t ZeroBytes(uint64_t x) { return (x - kOnes) & ~x & kHighs; }

}  // namespace

size_t FindAnyOf4Swar(const char* p, size_t n, const unsigned char set[4]) {
  size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    const uint64_t b0 = kOnes * set[0];
    const uint64_t b1 = kOnes * set[1];
    const uint64_t b2 = kOnes * set[2];
    const uint64_t b3 = kOnes * set[3];
    for (; i + 8 <= n; i += 8) {
      uint64_t w;
      std::memcpy(&w, p + i, sizeof(w));
      const uint64_t hit = ZeroBytes(w ^ b0) | ZeroBytes(w ^ b1) |
                           ZeroBytes(w ^ b2) | ZeroBytes(w ^ b3);
      if (hit != 0) {
        return i + static_cast<size_t>(std::countr_zero(hit)) / 8;
      }
    }
  }
  return i + FindAnyOf4Scalar(p + i, n - i, set);
}

namespace {

/// True when the SSSE3 kernel was compiled in and this CPU can run it.
bool Sse2Available() {
#if defined(AV_SIMD_SSE2) && (defined(__x86_64__) || defined(__i386__)) && \
    defined(__GNUC__)
  return __builtin_cpu_supports("ssse3");
#else
  return false;
#endif
}

/// One immutable kernel table per arm; the active pointer swings between
/// them. (Dynamic init is fine: entries are only reached through
/// ActiveTokenizerKernels, which resolves lazily.)
const TokenizerKernels kKernelTables[2] = {
    {TokenizerArm::kSwar, nullptr, &FindAnyOf4Swar},
#if defined(AV_SIMD_SSE2)
    {TokenizerArm::kSse2, &BlockClassifySse2, &FindAnyOf4Sse2},
#else
    {TokenizerArm::kSse2, nullptr, &FindAnyOf4Swar},  // never selected
#endif
};

bool ArmAvailable(TokenizerArm arm) {
  return arm == TokenizerArm::kSwar ||
         (arm == TokenizerArm::kSse2 && Sse2Available());
}

}  // namespace

namespace detail {
std::atomic<const TokenizerKernels*> g_active_kernels{nullptr};
}  // namespace detail

std::vector<TokenizerArm> AvailableTokenizerArms() {
  std::vector<TokenizerArm> arms = {TokenizerArm::kSwar};
  if (Sse2Available()) arms.push_back(TokenizerArm::kSse2);
  return arms;
}

const TokenizerKernels* detail::ResolveActiveKernels() {
  // First call (or a racing pair of first calls — both compute the same
  // table, the store is idempotent).
  const TokenizerArm arm =
      Sse2Available() ? TokenizerArm::kSse2 : TokenizerArm::kSwar;
  const TokenizerKernels* k = &kKernelTables[static_cast<size_t>(arm)];
  detail::g_active_kernels.store(k, std::memory_order_relaxed);
  return k;
}

TokenizerArm TokenizerDispatch() { return ActiveTokenizerKernels().arm; }

bool SetTokenizerArm(TokenizerArm arm) {
  if (!ArmAvailable(arm)) return false;
  detail::g_active_kernels.store(&kKernelTables[static_cast<size_t>(arm)],
                                 std::memory_order_relaxed);
  return true;
}

}  // namespace av::simd
