// Token-class sequences and their Needleman-Wunsch alignment score: the
// distance the FlashProfile baseline clusters values by
// (baselines/flashprofile.cc).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "pattern/token.h"

namespace av {

/// One element of a token-class sequence: (category << 8) | symbol char.
/// All chunk tokens share one element; symbols are distinguished by char.
using ShapeSeq = std::vector<uint16_t>;

/// Builds the token-class sequence of a value.
ShapeSeq ShapeSeqOf(std::string_view value, std::span<const Token> tokens);

/// Needleman-Wunsch global alignment score of two sequences
/// (match +2, mismatch -2, gap -1).
int NeedlemanWunschScore(const ShapeSeq& a, const ShapeSeq& b);

}  // namespace av
