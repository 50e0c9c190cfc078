#include "pattern/token.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "common/rng.h"
#include "pattern/simd/token_simd.h"
#include "pattern/token_arena.h"

namespace av {
namespace {

/// Runs `fn` once per dispatch arm available on this machine/build, with
/// that arm forced; restores the previously active arm on scope exit. The
/// equivalence suites below run under this so every kernel — not just the
/// one the resolver would pick — is held to the reference scanner.
template <typename Fn>
void ForEachArm(const Fn& fn) {
  const simd::TokenizerArm prev = simd::TokenizerDispatch();
  for (const simd::TokenizerArm arm : simd::AvailableTokenizerArms()) {
    ASSERT_TRUE(simd::SetTokenizerArm(arm));
    fn(arm);
  }
  ASSERT_TRUE(simd::SetTokenizerArm(prev));
}

// ---------------------------------------------------------------------------
// Reference scanner: a verbatim copy of the original per-character
// branch-chain tokenizer, kept here as the specification the class-table /
// SWAR scanner must reproduce byte-for-byte.

bool RefIsAsciiDigit(unsigned char c) { return c >= '0' && c <= '9'; }
bool RefIsAsciiLetter(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool RefIsAsciiAlnum(unsigned char c) {
  return RefIsAsciiDigit(c) || RefIsAsciiLetter(c);
}

std::vector<Token> ReferenceTokenize(std::string_view value) {
  std::vector<Token> out;
  const size_t n = value.size();
  size_t i = 0;
  while (i < n) {
    const unsigned char c = static_cast<unsigned char>(value[i]);
    if (RefIsAsciiAlnum(c)) {
      size_t j = i;
      bool has_digit = false, has_letter = false;
      while (j < n && RefIsAsciiAlnum(static_cast<unsigned char>(value[j]))) {
        if (RefIsAsciiDigit(static_cast<unsigned char>(value[j]))) {
          has_digit = true;
        } else {
          has_letter = true;
        }
        ++j;
      }
      TokenClass cls = has_digit && has_letter ? TokenClass::kAlnum
                       : has_digit             ? TokenClass::kDigits
                                               : TokenClass::kLetters;
      out.push_back(Token{cls, static_cast<uint32_t>(i),
                          static_cast<uint32_t>(j - i)});
      i = j;
    } else if (c >= 0x80) {
      size_t j = i;
      while (j < n && static_cast<unsigned char>(value[j]) >= 0x80) ++j;
      out.push_back(Token{TokenClass::kOther, static_cast<uint32_t>(i),
                          static_cast<uint32_t>(j - i)});
      i = j;
    } else {
      out.push_back(Token{TokenClass::kSymbol, static_cast<uint32_t>(i), 1});
      ++i;
    }
  }
  return out;
}

void ExpectMatchesReference(std::string_view v) {
  const std::vector<Token> expect = ReferenceTokenize(v);
  ForEachArm([&](simd::TokenizerArm arm) {
    EXPECT_EQ(Tokenize(v), expect)
        << "arm: " << simd::TokenizerArmName(arm) << " value: " << v;
    EXPECT_EQ(TokenCount(v), expect.size())
        << "arm: " << simd::TokenizerArmName(arm) << " value: " << v;
    std::vector<Token> into = {Token{TokenClass::kSymbol, 9, 9}};  // stale
    TokenizeInto(v, &into);
    EXPECT_EQ(into, expect)
        << "arm: " << simd::TokenizerArmName(arm) << " value: " << v;
  });
}

std::vector<std::string> Texts(std::string_view v) {
  std::vector<std::string> out;
  for (const Token& t : Tokenize(v)) out.emplace_back(TokenText(v, t));
  return out;
}

TEST(TokenizeTest, EmptyString) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_EQ(TokenCount(""), 0u);
}

TEST(TokenizeTest, PureDigits) {
  const auto tokens = Tokenize("12345");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].cls, TokenClass::kDigits);
  EXPECT_EQ(tokens[0].len, 5u);
}

TEST(TokenizeTest, PureLetters) {
  const auto tokens = Tokenize("Delivered");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].cls, TokenClass::kLetters);
}

TEST(TokenizeTest, MixedAlnumChunkIsOneToken) {
  const auto tokens = Tokenize("abc123def");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].cls, TokenClass::kAlnum);
  EXPECT_EQ(tokens[0].len, 9u);
}

TEST(TokenizeTest, DateTimeExample) {
  // Figure 5's value shape: chunks separated by symbols.
  const auto texts = Texts("9/12/2019 12:01:32 PM");
  const std::vector<std::string> expected = {"9",  "/", "12", "/",  "2019",
                                             " ",  "12", ":", "01", ":",
                                             "32", " ", "PM"};
  EXPECT_EQ(texts, expected);
}

TEST(TokenizeTest, EverySymbolIsItsOwnToken) {
  const auto tokens = Tokenize("a--b");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].cls, TokenClass::kSymbol);
  EXPECT_EQ(tokens[2].cls, TokenClass::kSymbol);
}

TEST(TokenizeTest, TokensCoverWholeStringWithoutGaps) {
  const std::string v = "[0.1|02/18/2015 00:00:00|OnBooking]";
  const auto tokens = Tokenize(v);
  uint32_t pos = 0;
  for (const Token& t : tokens) {
    EXPECT_EQ(t.begin, pos);
    pos += t.len;
  }
  EXPECT_EQ(pos, v.size());
}

TEST(TokenizeTest, NonAsciiBytesFormOtherRuns) {
  const std::string v = "a\xc3\xa9z";  // 'a', UTF-8 e-acute, 'z'
  const auto tokens = Tokenize(v);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].cls, TokenClass::kLetters);
  EXPECT_EQ(tokens[1].cls, TokenClass::kOther);
  EXPECT_EQ(tokens[1].len, 2u);
  EXPECT_EQ(tokens[2].cls, TokenClass::kLetters);
}

TEST(TokenizeTest, ControlBytesAreSymbols) {
  const std::string v = "a\tb\x01";
  const auto tokens = Tokenize(v);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].cls, TokenClass::kSymbol);
  EXPECT_EQ(tokens[3].cls, TokenClass::kSymbol);
}

TEST(ShapeKeyTest, SameSkeletonSameKey) {
  auto key = [](std::string_view v) { return ShapeKey(v, Tokenize(v)); };
  // Chunk classes are wildcarded: digit and hex chunks align.
  EXPECT_EQ(key("1234-ab12"), key("abcd-9999"));
  // Symbols are not wildcarded.
  EXPECT_NE(key("1234-ab12"), key("1234/ab12"));
  // Token counts differ.
  EXPECT_NE(key("a b"), key("a b c"));
}

TEST(ShapeKeyTest, GuidRowsShareShape) {
  auto key = [](std::string_view v) { return ShapeKey(v, Tokenize(v)); };
  EXPECT_EQ(key("3f2504e0-4f89-11d3-9a0c-0305e82c3301"),
            key("12345678-1234-1234-1234-123456789012"));
}

TEST(TokenClassTableTest, MatchesScalarClassifier) {
  for (int c = 0; c < 256; ++c) {
    const uint8_t bits = kTokenClassTable[static_cast<unsigned char>(c)];
    if (RefIsAsciiDigit(static_cast<unsigned char>(c))) {
      EXPECT_EQ(bits, TokenClassTable::kDigit) << c;
    } else if (RefIsAsciiLetter(static_cast<unsigned char>(c))) {
      EXPECT_EQ(bits, TokenClassTable::kLetter) << c;
    } else if (c >= 0x80) {
      EXPECT_EQ(bits, TokenClassTable::kOther) << c;
    } else {
      EXPECT_EQ(bits, 0) << c;  // symbol
    }
  }
}

TEST(TokenizeEquivalenceTest, HandPickedBoundaryValues) {
  const std::vector<std::string> values = {
      "",
      "a",
      "\x7f",                       // last ASCII byte: symbol
      "\x80",                       // first non-ASCII byte: other
      "a\x7f\x80z",                 // boundary sandwich
      std::string(1, '\0'),         // NUL is a symbol
      "9/12/2019 12:01:32 PM",
      "abcdefghijklmnopqrstuvwxyz0123456789",  // long alnum run (SWAR path)
      "ABCDEFG-1234567890123456789012345678901234567890",
      std::string(64, 'x'),
      std::string(64, '7'),
      std::string(64, '\xc3'),      // long non-ASCII run (SWAR path)
      "caf\xc3\xa9 cr\xc3\xa8me",   // UTF-8 mixed with ASCII
      "abcdefg\x80hijklmn",         // non-ASCII byte mid-word
      "abcdefgh\tij",               // symbol exactly at word boundary
      "1234567\x41zzzzzzzz",        // digit run turning alnum at byte 8
  };
  for (const std::string& v : values) ExpectMatchesReference(v);
}

TEST(TokenizeEquivalenceTest, RandomizedPropertyAllByteMixes) {
  // Three generators stress different run structures: raw byte soup, ASCII
  // with long alnum stretches, and UTF-8-ish text with multi-byte runs.
  Rng rng(20260731);
  for (int iter = 0; iter < 3000; ++iter) {
    const size_t len = rng.Below(97);
    std::string v;
    v.reserve(len);
    const int mode = static_cast<int>(rng.Below(3));
    for (size_t i = 0; i < len; ++i) {
      switch (mode) {
        case 0:  // uniform bytes, all 256 values
          v.push_back(static_cast<char>(rng.Below(256)));
          break;
        case 1: {  // alnum-heavy ASCII with occasional symbols
          const uint64_t r = rng.Below(20);
          if (r < 9) {
            v.push_back(static_cast<char>('a' + rng.Below(26)));
          } else if (r < 17) {
            v.push_back(static_cast<char>('0' + rng.Below(10)));
          } else {
            v.push_back(static_cast<char>(rng.Below(0x80)));
          }
          break;
        }
        default: {  // UTF-8-ish: continuation-range bytes in runs
          if (rng.Below(3) == 0) {
            v.push_back(static_cast<char>(0x80 + rng.Below(0x80)));
          } else {
            v.push_back(static_cast<char>(rng.Below(0x80)));
          }
          break;
        }
      }
    }
    ExpectMatchesReference(v);
  }
}

TEST(TokenArenaTest, PacksRunsContiguouslyAndMatchesTokenize) {
  TokenArena arena;
  const std::vector<std::string> values = {"a-1", "", "caf\xc3\xa9", "2019"};
  for (const std::string& v : values) ASSERT_TRUE(arena.Add(v));
  ASSERT_EQ(arena.size(), values.size());
  size_t total = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const auto span = arena.tokens(i);
    const std::vector<Token> expect = Tokenize(values[i]);
    EXPECT_EQ(std::vector<Token>(span.begin(), span.end()), expect);
    EXPECT_EQ(arena.token_count(i), expect.size());
    total += expect.size();
  }
  EXPECT_EQ(arena.total_tokens(), total);
  arena.Clear();
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.total_tokens(), 0u);
}

// The marker re-encode regression: adversarial values whose symbol tokens
// are the literal marker bytes \x01-\x04 must never merge two different
// skeletons into one shape key. Brute-forces every value up to length 4
// over an alphabet of chunk bytes, marker bytes, an ordinary symbol and a
// non-ASCII byte, and checks ShapeKey is injective on skeletons.
TEST(ShapeKeyTest, AdversarialControlBytesNeverCollide) {
  const std::string alphabet = {'a',    '1',    '\x01', '\x02',
                                '\x03', '\x04', '-',    static_cast<char>(0x80)};
  // Canonical (unambiguous) skeleton spelling for the oracle side.
  const auto skeleton = [](std::string_view v) {
    std::string s;
    for (const Token& t : Tokenize(v)) {
      if (IsChunk(t.cls)) {
        s += "[C]";
      } else if (t.cls == TokenClass::kOther) {
        s += "[O]";
      } else {
        s += "[S";
        s += std::to_string(static_cast<unsigned char>(v[t.begin]));
        s += "]";
      }
    }
    return s;
  };
  std::map<std::string, std::string> key_to_skeleton;
  std::vector<std::string> frontier = {""};
  size_t checked = 0;
  for (int len = 1; len <= 4; ++len) {
    std::vector<std::string> next;
    for (const std::string& prev : frontier) {
      for (const char c : alphabet) next.push_back(prev + c);
    }
    for (const std::string& v : next) {
      const std::string key = ShapeKey(v, Tokenize(v));
      const auto [it, inserted] = key_to_skeleton.emplace(key, skeleton(v));
      if (!inserted) {
        ASSERT_EQ(it->second, skeleton(v))
            << "ShapeKey collision between different skeletons";
      }
      ++checked;
    }
    frontier = std::move(next);
  }
  EXPECT_GT(checked, 4000u);
}

TEST(ShapeKeyTest, MarkerRangeSymbolsKeepDistinctIdentities) {
  // Symbols are not wildcards: each marker-range byte is its own skeleton.
  auto key = [](std::string_view v) { return ShapeKey(v, Tokenize(v)); };
  EXPECT_NE(key("\x01"), key("\x02"));
  EXPECT_NE(key("\x01"), key("\x03"));
  EXPECT_NE(key("\x03"), key("\x04"));
  EXPECT_NE(key("a\x01"), key("\x01"
                              "a"));
  // ... while ordinary same-skeleton values still group.
  EXPECT_EQ(key("a\x01z"), key("q\x01"
                               "7"));
}

// ---------------------------------------------------------------------------
// Kernel-level properties: every compiled block-classify and find_any4
// kernel must agree with the per-byte TokenClassTable walk on arbitrary
// blocks, including every length 1..64 (the seam/tail logic is where SIMD
// kernels rot).

TEST(SimdKernelTest, BlockClassifyMatchesScalarOnRandomBlocks) {
  const simd::TokenizerArm prev = simd::TokenizerDispatch();
  Rng rng(20260808);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = 1 + rng.Below(64);
    std::string block;
    for (size_t i = 0; i < len; ++i) {
      // Byte soup biased toward class boundaries.
      const uint64_t r = rng.Below(4);
      block.push_back(r == 0 ? static_cast<char>(rng.Below(256))
                             : static_cast<char>("09azAZ@[`{\x7f\x80"[rng.Below(12)]));
    }
    simd::BlockMasks want;
    simd::BlockClassifyScalar(block.data(), block.size(), &want);
    for (const simd::TokenizerArm arm : simd::AvailableTokenizerArms()) {
      const simd::BlockClassifyFn classify =
          simd::SetTokenizerArm(arm)
              ? simd::ActiveTokenizerKernels().classify
              : nullptr;
      if (classify == nullptr) continue;  // SWAR arm: no block kernel
      simd::BlockMasks got;
      classify(block.data(), block.size(), &got);
      EXPECT_EQ(got.digit, want.digit) << simd::TokenizerArmName(arm);
      EXPECT_EQ(got.letter, want.letter) << simd::TokenizerArmName(arm);
      EXPECT_EQ(got.nonascii, want.nonascii) << simd::TokenizerArmName(arm);
    }
  }
  ASSERT_TRUE(simd::SetTokenizerArm(prev));
}

TEST(SimdKernelTest, BlockClassifyEveryLengthEveryByteClass) {
  // Exhaustive over (length, homogeneous byte): catches off-by-one tail
  // handling at every block seam.
  const simd::TokenizerArm prev = simd::TokenizerDispatch();
  for (size_t len = 1; len <= 64; ++len) {
    for (const unsigned char c :
         {'0', '9', 'a', 'z', 'A', 'Z', ' ', '/', '\x7f', '\x80', '\xff'}) {
      const std::string block(len, static_cast<char>(c));
      simd::BlockMasks want;
      simd::BlockClassifyScalar(block.data(), len, &want);
      for (const simd::TokenizerArm arm : simd::AvailableTokenizerArms()) {
        ASSERT_TRUE(simd::SetTokenizerArm(arm));
        const simd::BlockClassifyFn classify =
            simd::ActiveTokenizerKernels().classify;
        if (classify == nullptr) continue;
        simd::BlockMasks got;
        classify(block.data(), len, &got);
        EXPECT_EQ(got.digit, want.digit)
            << simd::TokenizerArmName(arm) << " len=" << len << " c=" << int(c);
        EXPECT_EQ(got.letter, want.letter)
            << simd::TokenizerArmName(arm) << " len=" << len << " c=" << int(c);
        EXPECT_EQ(got.nonascii, want.nonascii)
            << simd::TokenizerArmName(arm) << " len=" << len << " c=" << int(c);
      }
    }
  }
  ASSERT_TRUE(simd::SetTokenizerArm(prev));
}

TEST(SimdKernelTest, FindAnyOf4AgreesAcrossArms) {
  const simd::TokenizerArm prev = simd::TokenizerDispatch();
  Rng rng(777);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = rng.Below(130);
    std::string hay;
    for (size_t i = 0; i < len; ++i) {
      hay.push_back(static_cast<char>('a' + rng.Below(8)));
    }
    unsigned char set[4];
    for (unsigned char& c : set) {
      // Mostly misses, occasionally a needle present in the haystack, and
      // sometimes duplicate needles (the single-needle calling convention).
      c = rng.Below(3) == 0 ? static_cast<unsigned char>('a' + rng.Below(8))
                            : static_cast<unsigned char>(rng.Below(256));
    }
    const size_t want = simd::FindAnyOf4Scalar(hay.data(), hay.size(), set);
    EXPECT_EQ(simd::FindAnyOf4Swar(hay.data(), hay.size(), set), want);
    for (const simd::TokenizerArm arm : simd::AvailableTokenizerArms()) {
      ASSERT_TRUE(simd::SetTokenizerArm(arm));
      EXPECT_EQ(simd::ActiveTokenizerKernels().find_any4(hay.data(),
                                                         hay.size(), set),
                want)
          << simd::TokenizerArmName(arm);
    }
  }
  ASSERT_TRUE(simd::SetTokenizerArm(prev));
}

// ---------------------------------------------------------------------------
// Dispatch behavior.

TEST(SimdDispatchTest, SwarAlwaysAvailable) {
  const auto arms = simd::AvailableTokenizerArms();
  ASSERT_FALSE(arms.empty());
  EXPECT_EQ(arms.front(), simd::TokenizerArm::kSwar);
}

// Every test that forces an arm restores the one it saved, so the active
// arm here is the resolver's pick: the most preferred arm this build and
// CPU can run.
TEST(SimdDispatchTest, ResolverPicksMostPreferredAvailableArm) {
  EXPECT_EQ(simd::TokenizerDispatch(), simd::AvailableTokenizerArms().back());
}

TEST(SimdDispatchTest, SetTokenizerArmSwitchesAndReportsUnavailable) {
  const simd::TokenizerArm prev = simd::TokenizerDispatch();
  const auto arms = simd::AvailableTokenizerArms();
  for (const simd::TokenizerArm arm : arms) {
    ASSERT_TRUE(simd::SetTokenizerArm(arm));
    EXPECT_EQ(simd::TokenizerDispatch(), arm);
    EXPECT_EQ(simd::ActiveTokenizerKernels().arm, arm);
  }
  if (arms.back() != simd::TokenizerArm::kSse2) {
    ASSERT_TRUE(simd::SetTokenizerArm(simd::TokenizerArm::kSwar));
    EXPECT_FALSE(simd::SetTokenizerArm(simd::TokenizerArm::kSse2));
    EXPECT_EQ(simd::TokenizerDispatch(), simd::TokenizerArm::kSwar)
        << "failed SetTokenizerArm must leave the active arm unchanged";
  }
  ASSERT_TRUE(simd::SetTokenizerArm(prev));
}

// CI's sanitize job runs the suite with AV_SIMD_REQUIRE=sse2: this test
// hard-fails the build when the resolver does not deliver the arm the job
// demanded (e.g. the kernel TU silently fell out of the build and dispatch
// became unreachable dead code). Without AV_SIMD_REQUIRE it checks nothing.
TEST(SimdDispatchTest, RequiredArmIsActive) {
  if (const char* req = std::getenv("AV_SIMD_REQUIRE")) {
    EXPECT_STREQ(simd::TokenizerArmName(simd::TokenizerDispatch()), req)
        << "AV_SIMD_REQUIRE=" << req
        << " demanded an arm this build/CPU did not select";
  }
}

TEST(TokenizeTest, FuzzNeverCrashesAndCovers) {
  // Deterministic byte soup; the lexer must cover any input exactly.
  uint64_t state = 99;
  for (int iter = 0; iter < 200; ++iter) {
    std::string v;
    const size_t len = (state >> 5) % 64;
    for (size_t i = 0; i < len; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      v.push_back(static_cast<char>(state >> 56));
    }
    const auto tokens = Tokenize(v);
    size_t covered = 0;
    for (const Token& t : tokens) covered += t.len;
    EXPECT_EQ(covered, v.size());
  }
}

}  // namespace
}  // namespace av
