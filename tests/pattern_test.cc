#include "pattern/pattern.h"

#include <gtest/gtest.h>

namespace av {
namespace {

TEST(PatternTest, ToStringBasicAtoms) {
  Pattern p({Atom::Literal("Mar "), Atom::Fixed(AtomKind::kDigitsFix, 2),
             Atom::Literal(" "), Atom::Fixed(AtomKind::kDigitsFix, 4)});
  EXPECT_EQ(p.ToString(), "Mar <digit>{2} <digit>{4}");
}

TEST(PatternTest, ToStringEscapesSpecials) {
  Pattern p({Atom::Literal("a<b\\c")});
  EXPECT_EQ(p.ToString(), "a\\<b\\\\c");
}

TEST(PatternTest, ParseRoundTripsAllKinds) {
  const char* cases[] = {
      "<digit>{2}",        "<digit>+",  "<num>",     "<letter>{3}",
      "<lower>{2}",        "<lower>+",  "<upper>{3}", "<upper>+",
      "<letter>+",         "<alnum>{8}", "<alnum>+", "<other>+",
      "<any>+",            "Mar <digit>{2} <digit>{4}",
      "a\\<b\\\\c",        "/m/<alnum>+",
      "<digit>+/<digit>+/<digit>{4} <digit>+:<digit>{2}:<digit>{2} "
      "<letter>{2}",
  };
  for (const char* text : cases) {
    auto p = Pattern::Parse(text);
    ASSERT_TRUE(p.ok()) << text << ": " << p.status().ToString();
    EXPECT_EQ(p->ToString(), text);
  }
}

TEST(PatternTest, ParseRejectsMalformed) {
  const char* bad[] = {
      "<digit>",      // missing quantifier
      "<digit>{}",    // empty length
      "<digit>{x}",   // non-numeric
      "<digit>{0}",   // zero length
      "<unknown>+",   // unknown tag
      "<digit",       // unterminated
      "abc\\",        // dangling escape
      "<num>+",       // num takes no quantifier
      "<other>{2}",   // other must be var
      "<any>{3}",     // any must be var
      "<digit>{2",    // unterminated brace
  };
  for (const char* text : bad) {
    auto p = Pattern::Parse(text);
    EXPECT_FALSE(p.ok()) << "should reject: " << text;
  }
}

TEST(PatternTest, AppendMergesAdjacentLiterals) {
  Pattern a({Atom::Literal("ab")});
  Pattern b({Atom::Literal("cd"), Atom::Var(AtomKind::kDigitsVar)});
  a.Append(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.atoms()[0].lit, "abcd");
  EXPECT_EQ(a.ToString(), "abcd<digit>+");
}

TEST(PatternTest, SpecificityOrdering) {
  auto score = [](const char* s) {
    return Pattern::Parse(s)->SpecificityScore();
  };
  EXPECT_GT(score("Mar"), score("<letter>{3}"));
  EXPECT_GT(score("<letter>{3}"), score("<letter>+"));
  EXPECT_GT(score("<letter>+"), score("<alnum>+"));
  EXPECT_GT(score("<alnum>+"), score("<any>+"));
}

TEST(PatternTest, KeyDiffersAcrossPatterns) {
  const auto a = PatternKey(*Pattern::Parse("<digit>{2}"));
  const auto b = PatternKey(*Pattern::Parse("<digit>{3}"));
  const auto c = PatternKey(*Pattern::Parse("<letter>{2}"));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, PatternKey(*Pattern::Parse("<digit>{2}")));
}

TEST(PatternTest, EmptyPattern) {
  Pattern p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.ToString(), "");
  auto parsed = Pattern::Parse("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

}  // namespace
}  // namespace av
