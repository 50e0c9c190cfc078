// Runtime-dispatched block-classification kernels under the tokenizer.
//
// The run scanner in pattern/token.cc is a serial dependency chain: each
// step's length decides where the next step starts. A block kernel breaks
// that chain by classifying a whole block at once — a pshufb nibble lookup
// turns each block into three bitmasks (digit / letter / non-ASCII, one
// bit per byte, the same bit vocabulary as TokenClassTable) and run
// boundaries fall out of mask bit-scans (countr_one / countr_zero /
// popcount) instead of per-byte or per-word probes. The same primitive
// serves the IncrementalCsvParser's delimiter/quote/newline scan
// (FindAnyOf4Fn), so the pattern layer and the lake readers ride one
// kernel set.
//
// Dispatch contract: the kernel table is resolved ONCE per process, from
// CPUID alone, and every arm produces byte-identical token streams and CSV
// rows (property-tested across arms in token_test.cc / corpus_test.cc and
// cross-checked by fuzz_tokenizer). Which arms exist, and which CPU
// feature each needs, is decided in token_simd.cc and CMakeLists.txt only:
// a kernel lives in its own translation unit compiled with a per-file -m
// flag, never global -march, so a portable build or a non-x86 target runs
// the portable word-at-a-time scanner and nothing else.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace av::simd {

/// One tokenizer implementation arm, orderable by preference.
enum class TokenizerArm : uint8_t {
  kSwar = 0,  ///< 64-bit word-at-a-time scanner (portable)
  kSse2 = 1,  ///< 16-byte pshufb blocks (requires SSSE3)
};

/// "swar" / "sse2": the name perf records and test messages carry.
const char* TokenizerArmName(TokenizerArm arm);

/// Class masks for a block of up to 64 bytes: bit i describes byte i.
/// digit/letter mirror TokenClassTable::kDigit/kLetter; nonascii is the
/// >= 0x80 bit. Bits at and above the block length are zero. A symbol byte
/// is one with no bit set in any mask.
struct BlockMasks {
  uint64_t digit = 0;
  uint64_t letter = 0;
  uint64_t nonascii = 0;
};

/// Classifies `n` bytes (1 <= n <= 64) at `p` into per-byte class masks.
using BlockClassifyFn = void (*)(const char* p, size_t n, BlockMasks* out);

/// Index of the first byte of `p[0,n)` equal to any of set[0..3], or `n`.
/// Needles may repeat (pass the same byte four times to search for one).
using FindAnyOf4Fn = size_t (*)(const char* p, size_t n,
                                const unsigned char set[4]);

/// The resolved kernel table for one arm.
struct TokenizerKernels {
  TokenizerArm arm = TokenizerArm::kSwar;
  /// Block classifier; null on the SWAR arm (the portable run scanner in
  /// token.cc is used instead of the mask-driven one).
  BlockClassifyFn classify = nullptr;
  /// Multi-needle byte search; never null.
  FindAnyOf4Fn find_any4 = nullptr;
};

namespace detail {
/// The resolved table, or null before first use. Exposed only so
/// ActiveTokenizerKernels can inline its fast path into the tokenizer's
/// per-value entry points; treat as private.
extern std::atomic<const TokenizerKernels*> g_active_kernels;
/// Slow path: resolve from CPUID, publish, return the table.
const TokenizerKernels* ResolveActiveKernels();
}  // namespace detail

/// The active kernel table. First call resolves from CPUID; later calls
/// are one relaxed atomic load (inlined — tokenizer entry points pay a
/// load and a branch, not a function call).
inline const TokenizerKernels& ActiveTokenizerKernels() {
  const TokenizerKernels* k =
      detail::g_active_kernels.load(std::memory_order_relaxed);
  if (k == nullptr) k = detail::ResolveActiveKernels();
  return *k;
}

/// The active arm (convenience over ActiveTokenizerKernels().arm).
TokenizerArm TokenizerDispatch();

/// The arms this binary compiled AND this CPU supports, in preference
/// order (SWAR first, the resolver's pick last).
std::vector<TokenizerArm> AvailableTokenizerArms();

/// Forces the active arm (the test and bench seam). Returns false —
/// leaving the active arm unchanged — when `arm` is unavailable. Not
/// thread-safe against concurrent tokenization: callers own the
/// quiescence, and restore the arm they saved when done.
bool SetTokenizerArm(TokenizerArm arm);

/// Reference kernels (always built, no special flags): the per-byte
/// TokenClassTable walk the block kernels are property-tested against, and
/// the per-byte find_any4 the word and block kernels finish their tails
/// with.
void BlockClassifyScalar(const char* p, size_t n, BlockMasks* out);
size_t FindAnyOf4Scalar(const char* p, size_t n, const unsigned char set[4]);

/// Portable 64-bit word-at-a-time find_any4 (the SWAR arm's kernel).
size_t FindAnyOf4Swar(const char* p, size_t n, const unsigned char set[4]);

}  // namespace av::simd
