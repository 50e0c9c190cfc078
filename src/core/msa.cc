#include "core/msa.h"

#include <algorithm>

namespace av {

ShapeSeq ShapeSeqOf(std::string_view value, std::span<const Token> tokens) {
  ShapeSeq seq;
  seq.reserve(tokens.size());
  for (const Token& t : tokens) {
    switch (t.cls) {
      case TokenClass::kDigits:
      case TokenClass::kLetters:
      case TokenClass::kAlnum:
        seq.push_back(1u << 8);
        break;
      case TokenClass::kOther:
        seq.push_back(2u << 8);
        break;
      case TokenClass::kSymbol:
        seq.push_back(static_cast<uint16_t>(
            (3u << 8) | static_cast<unsigned char>(value[t.begin])));
        break;
    }
  }
  return seq;
}

int NeedlemanWunschScore(const ShapeSeq& a, const ShapeSeq& b) {
  constexpr int kMatch = 2, kMismatch = -2, kGap = -1;
  const size_t n = a.size(), m = b.size();
  std::vector<std::vector<int>> dp(n + 1, std::vector<int>(m + 1, 0));
  for (size_t i = 1; i <= n; ++i) dp[i][0] = dp[i - 1][0] + kGap;
  for (size_t j = 1; j <= m; ++j) dp[0][j] = dp[0][j - 1] + kGap;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const int diag =
          dp[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? kMatch : kMismatch);
      const int up = dp[i - 1][j] + kGap;
      const int left = dp[i][j - 1] + kGap;
      dp[i][j] = std::max({diag, up, left});
    }
  }
  return dp[n][m];
}

}  // namespace av
