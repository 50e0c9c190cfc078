#include "pattern/token.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "pattern/simd/token_simd.h"

namespace av {

const char* TokenClassName(TokenClass c) {
  switch (c) {
    case TokenClass::kDigits:
      return "digits";
    case TokenClass::kLetters:
      return "letters";
    case TokenClass::kAlnum:
      return "alnum";
    case TokenClass::kSymbol:
      return "symbol";
    case TokenClass::kOther:
      return "other";
  }
  return "?";
}

namespace {

constexpr TokenClassTable MakeTokenClassTable() {
  TokenClassTable t{};
  for (int c = 0; c < 256; ++c) {
    uint8_t b = 0;
    if (c >= '0' && c <= '9') {
      b = TokenClassTable::kDigit;
    } else if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
      b = TokenClassTable::kLetter;
    } else if (c >= 0x80) {
      b = TokenClassTable::kOther;
    }
    t.bits[c] = b;
  }
  return t;
}

inline TokenClass ChunkClass(uint8_t acc) {
  return acc == TokenClassTable::kDigit    ? TokenClass::kDigits
         : acc == TokenClassTable::kLetter ? TokenClass::kLetters
                                           : TokenClass::kAlnum;
}

constexpr uint64_t kSwarOnes = 0x0101010101010101ULL;
constexpr uint64_t kSwarHighs = 0x8080808080808080ULL;
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

inline uint64_t LoadWord(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// Per-byte range test for a word of 7-bit (ASCII) bytes: the high bit of
/// each output byte is set iff lo <= byte <= hi. The two standard SWAR
/// half-tests: (x | 0x80) - lo keeps the high bit iff x >= lo (no borrow —
/// every byte enters the subtraction with its high bit set and lo < 0x80),
/// and x + (0x7f - hi) sets the high bit iff x > hi (no carry — the sum is
/// at most 0xfe).
inline uint64_t SwarInRange(uint64_t w, unsigned char lo, unsigned char hi) {
  const uint64_t ge = (w | kSwarHighs) - kSwarOnes * lo;
  const uint64_t le = ~(w + kSwarOnes * (0x7f - hi));
  return ge & le & kSwarHighs;
}

/// Index of the first byte whose marker high bit is set in `mask` (which
/// must be nonzero). Valid for little-endian words, the only case in which
/// the SWAR paths run.
inline size_t SwarFirstMarked(uint64_t mask) {
  return static_cast<size_t>(std::countr_zero(mask)) / 8;
}

struct AlnumRun {
  size_t end;   ///< one past the last alnum byte
  uint8_t acc;  ///< OR of the run's kDigit/kLetter bits
};

/// Scalar classifiers (the compare chain of the original scanner). Branch
/// dispatch deliberately beats a table lookup on the short-run hot path:
/// the run scan is a serial dependency chain, and real values' class
/// sequences are periodic enough that predicted compares are cheaper than
/// back-to-back L1 load latencies (measured on the reference box; the
/// TokenClassTable remains the canonical classification contract and the
/// big-endian / property-test reference).
inline bool IsAsciiDigit(unsigned char c) { return c >= '0' && c <= '9'; }
inline bool IsAsciiLetter(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
inline bool IsAsciiAlnum(unsigned char c) {
  return IsAsciiDigit(c) || IsAsciiLetter(c);
}

/// Word-at-a-time extension of an alphanumeric run that already survived 8
/// scalar bytes: 8 bytes classified per step with two SWAR range tests,
/// digit/letter presence folded in bulk; the scalar tail covers the last
/// < 8 bytes, non-ASCII boundaries and big-endian targets. Also correct
/// when the run ends immediately at `j` (returns `j` unchanged).
size_t SwarExtendAlnum(const char* p, size_t n, size_t j, bool* has_digit,
                       bool* has_letter) {
  if constexpr (kLittleEndian) {
    while (j + 8 <= n) {
      const uint64_t w = LoadWord(p + j);
      if (w & kSwarHighs) break;  // non-ASCII ahead: the tail ends the run
      const uint64_t digits = SwarInRange(w, '0', '9');
      // Folding case with | 0x20 maps only 'A'-'Z' into 'a'-'z'; every
      // non-letter ASCII byte lands outside the range.
      const uint64_t letters = SwarInRange(w | (kSwarOnes * 0x20), 'a', 'z');
      const uint64_t alnum = digits | letters;
      if (alnum == kSwarHighs) {  // all 8 bytes extend the run
        *has_digit |= digits != 0;
        *has_letter |= letters != 0;
        j += 8;
        continue;
      }
      const size_t k = SwarFirstMarked(alnum ^ kSwarHighs);
      if (k > 0) {
        const uint64_t keep = ~0ULL >> ((8 - k) * 8);
        *has_digit |= (digits & keep) != 0;
        *has_letter |= (letters & keep) != 0;
        j += k;
      }
      return j;  // the next byte is known not to extend the run
    }
  }
  while (j < n && IsAsciiAlnum(static_cast<unsigned char>(p[j]))) {
    if (IsAsciiDigit(static_cast<unsigned char>(p[j]))) {
      *has_digit = true;
    } else {
      *has_letter = true;
    }
    ++j;
  }
  return j;
}

inline AlnumRun ScanAlnumRun(const char* p, size_t n, size_t i, uint8_t acc) {
  // Scalar prefix: runs up to 8 characters total (IP octets, date/time
  // fields, version numbers, short words — the overwhelming majority in
  // machine data) never touch a word. Longer runs hand over to the shared
  // word-at-a-time extender.
  const size_t scalar_end = std::min(n, i + 7);
  while (i < scalar_end) {
    const unsigned char c = static_cast<unsigned char>(p[i]);
    if (IsAsciiDigit(c)) {
      acc |= TokenClassTable::kDigit;
    } else if (IsAsciiLetter(c)) {
      acc |= TokenClassTable::kLetter;
    } else {
      return {i, acc};
    }
    ++i;
  }
  if (i < n) {
    bool has_digit = (acc & TokenClassTable::kDigit) != 0;
    bool has_letter = (acc & TokenClassTable::kLetter) != 0;
    i = SwarExtendAlnum(p, n, i, &has_digit, &has_letter);
    acc = (has_digit ? TokenClassTable::kDigit : 0) |
          (has_letter ? TokenClassTable::kLetter : 0);
  }
  return {i, acc};
}

/// Extends a non-ASCII (>= 0x80) run starting at `i`; returns one past its
/// last byte. Word-at-a-time: a word of 8 non-ASCII bytes has every high
/// bit set.
inline size_t ScanOtherRun(const char* p, size_t n, size_t i) {
  if constexpr (kLittleEndian) {
    while (i + 8 <= n) {
      const uint64_t ascii = ~LoadWord(p + i) & kSwarHighs;
      if (ascii == 0) {
        i += 8;
        continue;
      }
      return i + SwarFirstMarked(ascii);
    }
  }
  while (i < n && static_cast<unsigned char>(p[i]) >= 0x80) ++i;
  return i;
}

/// The portable single-pass run scanner (SWAR arm, and values too short
/// for a block); `emit(cls, begin, len)` receives each token. Templated so
/// the counting-only walk compiles to a loop with no token materialization.
template <typename Emit>
inline void ScanTokens(std::string_view value, const Emit& emit) {
  const char* p = value.data();
  const size_t n = value.size();
  size_t i = 0;
  while (i < n) {
    const unsigned char c = static_cast<unsigned char>(p[i]);
    if (IsAsciiDigit(c)) {
      const AlnumRun run =
          ScanAlnumRun(p, n, i + 1, TokenClassTable::kDigit);
      emit(ChunkClass(run.acc), i, run.end - i);
      i = run.end;
    } else if (IsAsciiLetter(c)) {
      const AlnumRun run =
          ScanAlnumRun(p, n, i + 1, TokenClassTable::kLetter);
      emit(ChunkClass(run.acc), i, run.end - i);
      i = run.end;
    } else if (c >= 0x80) {
      const size_t end = ScanOtherRun(p, n, i + 1);
      emit(TokenClass::kOther, i, end - i);
      i = end;
    } else {
      emit(TokenClass::kSymbol, i, 1);
      ++i;
    }
  }
}

/// Values shorter than this stay on the portable scanner even when a block
/// kernel is active: one block classification cannot pay for itself under
/// a single 16-byte load's worth of bytes.
constexpr size_t kMaskedMinBytes = 16;

/// The mask-driven run scanner (block-kernel arm). The kernel classifies
/// 64-byte windows into digit/letter/non-ASCII bitmasks; runs are then
/// extracted with countr_one bit-scans — no per-byte work at all on the
/// scan side. Token boundaries are exactly those of ScanTokens: the masks
/// agree with TokenClassTable byte-for-byte (kernel property tests), and
/// runs extend across window seams by re-extending from bit 0 of the next
/// window.
template <typename Emit>
void ScanTokensMasked(std::string_view value, simd::BlockClassifyFn classify,
                      const Emit& emit) {
  const char* p = value.data();
  const size_t n = value.size();
  simd::BlockMasks m;
  size_t base = 0;
  size_t win = std::min<size_t>(n, 64);
  classify(p, win, &m);
  uint64_t alnum = m.digit | m.letter;
  size_t i = 0;
  // Extends the run starting at i (alnum when has_digit is non-null,
  // non-ASCII otherwise), reloading windows as the run crosses them;
  // folds the covered digit/letter bits into has_digit/has_letter.
  const auto extend_run = [&](bool* has_digit, bool* has_letter) {
    const bool alnum_run = has_digit != nullptr;
    for (;;) {
      const size_t off = i - base;
      const uint64_t rem = (alnum_run ? alnum : m.nonascii) >> off;
      const size_t len = static_cast<size_t>(std::countr_one(rem));
      if (alnum_run) {
        const uint64_t range =
            (len >= 64 ? ~uint64_t{0} : ((uint64_t{1} << len) - 1)) << off;
        *has_digit |= (m.digit & range) != 0;
        *has_letter |= (m.letter & range) != 0;
      }
      i += len;
      if (i - base < win || i >= n) return;
      base = i;
      win = std::min<size_t>(n - base, 64);
      classify(p + base, win, &m);
      alnum = m.digit | m.letter;
      if (((alnum_run ? alnum : m.nonascii) & 1) == 0) {
        return;  // the run does not cross the window seam
      }
    }
  };
  while (i < n) {
    if (i - base == win) {  // window exhausted after a symbol byte
      base = i;
      win = std::min<size_t>(n - base, 64);
      classify(p + base, win, &m);
      alnum = m.digit | m.letter;
    }
    const size_t off = i - base;
    if ((alnum >> off) & 1) {
      const size_t start = i;
      bool has_digit = false;
      bool has_letter = false;
      extend_run(&has_digit, &has_letter);
      const TokenClass cls = has_digit && has_letter ? TokenClass::kAlnum
                             : has_digit             ? TokenClass::kDigits
                                                     : TokenClass::kLetters;
      emit(cls, start, i - start);
    } else if ((m.nonascii >> off) & 1) {
      const size_t start = i;
      extend_run(nullptr, nullptr);
      emit(TokenClass::kOther, start, i - start);
    } else {
      emit(TokenClass::kSymbol, i, 1);
      ++i;
    }
  }
}

/// Counting-only mask walk: t(v) without touching individual runs. A token
/// is a run START (an alnum or non-ASCII bit whose predecessor bit — carried
/// across windows — is clear) or a symbol byte, so the count is three
/// popcounts per 64-byte window.
size_t TokenCountMasked(std::string_view value,
                        simd::BlockClassifyFn classify) {
  const char* p = value.data();
  const size_t n = value.size();
  size_t count = 0;
  uint64_t carry_alnum = 0;
  uint64_t carry_other = 0;
  for (size_t base = 0; base < n; base += 64) {
    const size_t win = std::min<size_t>(n - base, 64);
    simd::BlockMasks m;
    classify(p + base, win, &m);
    const uint64_t alnum = m.digit | m.letter;
    const uint64_t other = m.nonascii;
    const uint64_t valid =
        win == 64 ? ~uint64_t{0} : (uint64_t{1} << win) - 1;
    count += static_cast<size_t>(
        std::popcount(alnum & ~((alnum << 1) | carry_alnum)) +
        std::popcount(other & ~((other << 1) | carry_other)) +
        std::popcount(~(alnum | other) & valid));
    carry_alnum = (alnum >> (win - 1)) & 1;
    carry_other = (other >> (win - 1)) & 1;
  }
  return count;
}

}  // namespace

const TokenClassTable kTokenClassTable = MakeTokenClassTable();

std::vector<Token> Tokenize(std::string_view value) {
  std::vector<Token> out;
  TokenizeAppend(value, &out);
  return out;
}

void TokenizeInto(std::string_view value, std::vector<Token>* out) {
  out->clear();
  TokenizeAppend(value, out);
}

namespace {

/// The flat portable loop — the shape of the original scanner, which the
/// compiler turns into tight code — with the SWAR word path engaging only
/// when a run survives 8 scalar bytes, so short runs cost exactly what
/// they always did. Force-inlined into TokenizeAppend: the SWAR path is
/// instruction-for-instruction the pre-dispatch scanner, one frame deep.
[[gnu::always_inline]] inline void TokenizeAppendFlat(
    std::string_view value, std::vector<Token>* out) {
  const char* p = value.data();
  const size_t n = value.size();
  size_t i = 0;
  while (i < n) {
    const unsigned char c = static_cast<unsigned char>(p[i]);
    if (IsAsciiAlnum(c)) {
      size_t j = i;
      bool has_digit = false;
      bool has_letter = false;
      const size_t scalar_end = std::min(n, i + 8);
      while (j < scalar_end &&
             IsAsciiAlnum(static_cast<unsigned char>(p[j]))) {
        if (IsAsciiDigit(static_cast<unsigned char>(p[j]))) {
          has_digit = true;
        } else {
          has_letter = true;
        }
        ++j;
      }
      if (j == i + 8 && j < n) {  // survived 8 bytes: word path
        j = SwarExtendAlnum(p, n, j, &has_digit, &has_letter);
      }
      const TokenClass cls = has_digit && has_letter ? TokenClass::kAlnum
                             : has_digit             ? TokenClass::kDigits
                                                     : TokenClass::kLetters;
      out->push_back(Token{cls, static_cast<uint32_t>(i),
                           static_cast<uint32_t>(j - i)});
      i = j;
    } else if (c >= 0x80) {
      const size_t end = ScanOtherRun(p, n, i + 1);
      out->push_back(Token{TokenClass::kOther, static_cast<uint32_t>(i),
                           static_cast<uint32_t>(end - i)});
      i = end;
    } else {
      out->push_back(Token{TokenClass::kSymbol, static_cast<uint32_t>(i), 1});
      ++i;
    }
  }
}

}  // namespace

// Dispatch: with a block kernel active, long-enough values go through the
// mask-driven scanner; everything else goes through the flat portable
// loop. Every arm emits byte-identical token streams (property-tested
// per arm).
void TokenizeAppend(std::string_view value, std::vector<Token>* out) {
  const simd::TokenizerKernels& kern = simd::ActiveTokenizerKernels();
  if (kern.classify != nullptr && value.size() >= kMaskedMinBytes) {
    ScanTokensMasked(value, kern.classify,
                     [out](TokenClass cls, size_t begin, size_t len) {
                       out->push_back(Token{cls, static_cast<uint32_t>(begin),
                                            static_cast<uint32_t>(len)});
                     });
    return;
  }
  TokenizeAppendFlat(value, out);
}

size_t TokenCount(std::string_view value) {
  const simd::TokenizerKernels& kern = simd::ActiveTokenizerKernels();
  if (kern.classify != nullptr && value.size() >= kMaskedMinBytes) {
    return TokenCountMasked(value, kern.classify);
  }
  size_t count = 0;
  ScanTokens(value, [&count](TokenClass, size_t, size_t) { ++count; });
  return count;
}

bool TokenIsLower(std::string_view value, const Token& t) {
  if (t.cls != TokenClass::kLetters) return false;
  for (uint32_t i = t.begin; i < t.begin + t.len; ++i) {
    if (value[i] < 'a' || value[i] > 'z') return false;
  }
  return true;
}

bool TokenIsUpper(std::string_view value, const Token& t) {
  if (t.cls != TokenClass::kLetters) return false;
  for (uint32_t i = t.begin; i < t.begin + t.len; ++i) {
    if (value[i] < 'A' || value[i] > 'Z') return false;
  }
  return true;
}

std::string ShapeKey(std::string_view value, std::span<const Token> tokens) {
  std::string key;
  key.reserve(tokens.size() * 2);
  for (const Token& t : tokens) {
    switch (t.cls) {
      case TokenClass::kDigits:
      case TokenClass::kLetters:
      case TokenClass::kAlnum:
        key.push_back('\x01');  // any chunk
        break;
      case TokenClass::kOther:
        key.push_back('\x02');
        break;
      case TokenClass::kSymbol: {
        key.push_back('\x03');
        const char c = value[t.begin];
        if (c >= '\x01' && c <= '\x04') {
          // A symbol character in the marker range could otherwise spell a
          // marker byte inside the key; re-encode it as \x04 plus the
          // character shifted into a printable, never-special byte.
          key.push_back('\x04');
          key.push_back(static_cast<char>(c + 0x40));
        } else {
          key.push_back(c);
        }
        break;
      }
    }
  }
  return key;
}

}  // namespace av
