#include "core/msa.h"

#include <gtest/gtest.h>

namespace av {
namespace {

ShapeSeq Seq(std::string_view v) { return ShapeSeqOf(v, Tokenize(v)); }

TEST(ShapeSeqTest, ChunksCollapseSymbolsKeepChar) {
  const ShapeSeq a = Seq("12:34");
  const ShapeSeq b = Seq("ab:cd");
  const ShapeSeq c = Seq("12-34");
  EXPECT_EQ(a, b);  // chunk classes are unified
  EXPECT_NE(a, c);  // symbols differ
}

TEST(NeedlemanWunschTest, IdenticalSequencesScoreMax) {
  const ShapeSeq a = Seq("9/12/2019");
  EXPECT_EQ(NeedlemanWunschScore(a, a),
            static_cast<int>(a.size()) * 2);
}

TEST(NeedlemanWunschTest, GapCostsApply) {
  const ShapeSeq a = Seq("1/2");
  const ShapeSeq b = Seq("1/2/3");
  // Best alignment: 3 matches (+6), 2 gaps (-2) = 4.
  EXPECT_EQ(NeedlemanWunschScore(a, b), 4);
}

}  // namespace
}  // namespace av
