// Lexer producing the coarse token runs of Section 3 of the paper.
//
// A value is tokenized left-to-right into maximal runs:
//   - a maximal run of ASCII alphanumerics is ONE chunk token, classified as
//     kDigits (all digits), kLetters (all letters) or kAlnum (mixed);
//   - every other printable / control ASCII byte is its own kSymbol token;
//   - a maximal run of non-ASCII bytes (>= 0x80) is one kOther token.
//
// Deviation from the paper (documented in DESIGN.md §4): the paper's lexer
// emits separate <letter>/<num> runs inside mixed identifiers like "a3f9";
// we collapse adjacent letter/digit characters into a single chunk so values
// of the same domain (e.g. GUID segments) align positionally even when one
// row's segment happens to be all-digits. The paper's <alphanum> level of the
// generalization hierarchy covers exactly this case.
//
// Implementation: dispatched once per process from CPUID
// (pattern/simd/token_simd.h). Where a block kernel is available it
// classifies a whole block at once into digit/letter/non-ASCII bitmasks
// (pshufb nibble lookup over the TokenClassTable contract) and run
// boundaries fall out of mask bit-scans; elsewhere — and for values too
// short to fill a block — a single-pass run scanner steps short runs (up
// to 8 bytes, the common case in machine data) through a predicted compare
// chain and switches runs that survive 8 bytes to a SWAR word-at-a-time
// path. The 256-entry TokenClassTable is the canonical byte-classification
// contract (the property tests' oracle and the bit vocabulary of every
// kernel), not the hot-path mechanism. The counting-only TokenCount folds
// each mask window into three popcounts instead of materializing tokens.
// All dispatch arms produce byte-identical token streams (property-tested
// per arm in token_test.cc and cross-checked by fuzz/fuzz_tokenizer.cc).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <span>
#include <vector>

namespace av {

/// Coarse class of a token run.
enum class TokenClass : uint8_t {
  kDigits = 0,   ///< [0-9]+
  kLetters = 1,  ///< [A-Za-z]+
  kAlnum = 2,    ///< mixed letters and digits
  kSymbol = 3,   ///< single ASCII byte that is not alphanumeric
  kOther = 4,    ///< run of bytes >= 0x80 (e.g. UTF-8 continuation)
};

const char* TokenClassName(TokenClass c);

/// The 256-entry byte-class table driving the tokenizer. Chunk bytes carry
/// kDigit / kLetter (the OR over a run is the chunk class: kDigit alone ->
/// kDigits, kLetter alone -> kLetters, both -> kAlnum), non-ASCII bytes
/// carry kOther, and a zero entry marks a symbol byte.
struct TokenClassTable {
  static constexpr uint8_t kDigit = 1;   ///< byte is [0-9]
  static constexpr uint8_t kLetter = 2;  ///< byte is [A-Za-z]
  static constexpr uint8_t kChunk = kDigit | kLetter;
  static constexpr uint8_t kOther = 4;  ///< byte is >= 0x80

  uint8_t bits[256];

  constexpr uint8_t operator[](unsigned char c) const { return bits[c]; }
};

/// The table instance (constant-initialized; shared by all scanners).
extern const TokenClassTable kTokenClassTable;

/// One token: a view (offset + length) into the tokenized value.
struct Token {
  TokenClass cls;
  uint32_t begin;
  uint32_t len;

  bool operator==(const Token&) const = default;
};

/// Tokenizes `value`; returns tokens covering the whole string with no gaps.
/// Safe on any byte sequence. An empty value yields no tokens.
std::vector<Token> Tokenize(std::string_view value);

/// Tokenizes into a caller-owned buffer (cleared first). Lets hot loops reuse
/// one allocation across values; same output as Tokenize.
void TokenizeInto(std::string_view value, std::vector<Token>* out);

/// Appends `value`'s tokens to `out` WITHOUT clearing it — the arena variant
/// used by TokenArena / TokenizedColumn to pack many values' runs into one
/// contiguous buffer. Token offsets are relative to `value`, as always.
void TokenizeAppend(std::string_view value, std::vector<Token>* out);

/// Number of tokens t(v) used for the token-limit tau of Section 2.4.
/// Counting-only: runs the same scanner but never materializes tokens (no
/// allocation), so tau pre-checks can reject wide values cheaply.
size_t TokenCount(std::string_view value);

/// Text of token `t` within `value`.
inline std::string_view TokenText(std::string_view value, const Token& t) {
  return value.substr(t.begin, t.len);
}

/// True if the token is a chunk (digits/letters/alnum) rather than a symbol
/// or non-ASCII run.
inline bool IsChunk(TokenClass c) {
  return c == TokenClass::kDigits || c == TokenClass::kLetters ||
         c == TokenClass::kAlnum;
}

/// True if the token is a letters chunk consisting only of lowercase (resp.
/// uppercase) characters — the case-aware leaves of the Figure-4 hierarchy
/// that let validation catch drifts like "en-us" -> "en-US".
bool TokenIsLower(std::string_view value, const Token& t);
bool TokenIsUpper(std::string_view value, const Token& t);

/// The "shape" of a value: chunk positions are wildcards, symbol positions
/// keep their exact character. Two values with equal shape keys can be
/// aligned position-by-position. Used to group values into shape groups
/// (Section 4's conforming / non-conforming split).
///
/// The key is an injective encoding of the skeleton: marker bytes \x01
/// (chunk), \x02 (other) and \x03<char> (symbol) form a prefix code, and a
/// symbol character that falls into the marker range \x01-\x04 is escaped as
/// \x04<char+0x40> so no adversarial value (e.g. one containing literal
/// \x01-\x03 control bytes) can forge another skeleton's marker sequence.
/// Distinct skeletons therefore always map to distinct keys (regression-
/// tested against adversarial control-character values).
std::string ShapeKey(std::string_view value, std::span<const Token> tokens);

}  // namespace av
