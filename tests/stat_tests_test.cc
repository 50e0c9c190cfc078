#include "core/stat_tests.h"

#include <gtest/gtest.h>
#include <math.h>

#include <algorithm>
#include <cmath>

namespace av {
namespace {

/// C(n, k) in exact integers (n <= 60 here, so it fits in 64 bits).
unsigned __int128 Choose(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  unsigned __int128 c = 1;
  for (uint64_t i = 0; i < k; ++i) c = c * (n - i) / (i + 1);
  return c;
}

/// Fisher's two-tailed p in exact integer arithmetic. Every table with the
/// observed margins has hypergeometric weight w(x) = C(r1, x) * C(r2, c1 - x)
/// (its probability times C(n, c1)); the sum takes the tables with
/// w(x) * 10^7 <= w(obs) * (10^7 + 1), the ratio form of the 1e-7 log
/// tolerance with which FisherExactTwoTailedP counts a table as at most as
/// probable as the observed one.
double BruteForceFisherP(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  const uint64_t r1 = a + b;
  const uint64_t r2 = c + d;
  const uint64_t c1 = a + c;
  const auto w = [&](uint64_t x) {
    return Choose(r1, x) * Choose(r2, c1 - x);
  };
  const unsigned __int128 w_obs = w(a);
  unsigned __int128 sum = 0;
  unsigned __int128 total = 0;
  for (uint64_t x = c1 > r2 ? c1 - r2 : 0; x <= std::min(r1, c1); ++x) {
    total += w(x);
    if (w(x) * 10000000 <= w_obs * 10000001) sum += w(x);
  }
  return static_cast<double>(sum) / static_cast<double>(total);
}

TEST(LogChooseTest, KnownValues) {
  EXPECT_NEAR(LogChoose(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogChoose(10, 0), 0.0, 1e-9);
  EXPECT_NEAR(LogChoose(10, 10), 0.0, 1e-9);
  EXPECT_EQ(LogChoose(3, 5), -INFINITY);
}

TEST(LogChooseTest, LeavesGlobalSigngamAlone) {
  // std::lgamma stores the sign of Gamma(x) in the process-global
  // `signgam`, a write that races between concurrent validations (and
  // that a sanitizer cannot see when the call binds straight to libm).
  // LogChoose must keep the sign local.
  signgam = 0;
  EXPECT_GT(LogChoose(50, 7), 0.0);
  EXPECT_EQ(signgam, 0);
}

TEST(FisherTest, ClassicTeaTasting) {
  // Fisher's lady-tasting-tea 2x2 table [[3,1],[1,3]]: two-tailed p ~ 0.486.
  EXPECT_NEAR(FisherExactTwoTailedP(3, 1, 1, 3), 0.4857, 1e-3);
}

TEST(FisherTest, IdenticalDistributionsGiveHighP) {
  EXPECT_GT(FisherExactTwoTailedP(5, 95, 5, 95), 0.99);
  EXPECT_DOUBLE_EQ(FisherExactTwoTailedP(0, 100, 0, 900), 1.0);
}

TEST(FisherTest, StrongDivergenceGivesTinyP) {
  // theta_train = 0.1% (1/1000), theta_test = 5% (45/900): Section 4's
  // example of a real issue.
  const double p = FisherExactTwoTailedP(1, 999, 45, 855);
  EXPECT_LT(p, 1e-8);
}

TEST(FisherTest, ZeroMarginsReturnOne) {
  EXPECT_DOUBLE_EQ(FisherExactTwoTailedP(0, 0, 3, 7), 1.0);
  EXPECT_DOUBLE_EQ(FisherExactTwoTailedP(3, 7, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(FisherExactTwoTailedP(3, 0, 7, 0), 1.0);
}

TEST(FisherTest, SymmetricInRowSwap) {
  const double p1 = FisherExactTwoTailedP(2, 48, 9, 41);
  const double p2 = FisherExactTwoTailedP(9, 41, 2, 48);
  EXPECT_NEAR(p1, p2, 1e-9);
}

TEST(FisherTest, PIsAProbability) {
  for (uint64_t a = 0; a <= 6; ++a) {
    for (uint64_t c = 0; c <= 6; ++c) {
      const double p = FisherExactTwoTailedP(a, 10 - a, c, 12 - c);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(FisherTest, MatchesBruteForceSumOnEverySmallTable) {
  // Every 2x2 table with row margins up to 16, against the exact-integer
  // sum: the lgamma-based log probabilities must pick the same tables and
  // sum them to within a relative 1e-9.
  size_t tables = 0;
  for (uint64_t r1 = 0; r1 <= 16; ++r1) {
    for (uint64_t r2 = 0; r2 <= 16; ++r2) {
      for (uint64_t a = 0; a <= r1; ++a) {
        for (uint64_t c = 0; c <= r2; ++c) {
          const double got = FisherExactTwoTailedP(a, r1 - a, c, r2 - c);
          const double want = BruteForceFisherP(a, r1 - a, c, r2 - c);
          ASSERT_LE(std::fabs(got - want), 1e-9 * want)
              << "[[" << a << "," << r1 - a << "],[" << c << "," << r2 - c
              << "]]: " << got << " vs " << want;
          ++tables;
        }
      }
    }
  }
  EXPECT_EQ(tables, 23409u);
}

TEST(FisherTest, MatchesBruteForceSumOnLargerTables) {
  // Tables up to n = 60, where every weight still fits in 64 bits.
  const uint64_t cases[][4] = {
      {1, 29, 15, 15}, {0, 30, 8, 22},  {12, 18, 18, 12}, {20, 10, 5, 25},
      {3, 27, 27, 3},  {30, 0, 0, 30},  {2, 40, 9, 9},    {7, 23, 7, 23},
      {0, 1, 29, 30},  {15, 15, 15, 15}};
  for (const auto& t : cases) {
    const double got = FisherExactTwoTailedP(t[0], t[1], t[2], t[3]);
    const double want = BruteForceFisherP(t[0], t[1], t[2], t[3]);
    EXPECT_LE(std::fabs(got - want), 1e-9 * want)
        << "[[" << t[0] << "," << t[1] << "],[" << t[2] << "," << t[3]
        << "]]: " << got << " vs " << want;
  }
}

TEST(ChiSquaredTest, SurvivalFunctionKnownValues) {
  EXPECT_NEAR(ChiSquared1Sf(3.841), 0.05, 2e-3);   // 95th percentile
  EXPECT_NEAR(ChiSquared1Sf(6.635), 0.01, 1e-3);   // 99th percentile
  EXPECT_DOUBLE_EQ(ChiSquared1Sf(0), 1.0);
  EXPECT_DOUBLE_EQ(ChiSquared1Sf(-1), 1.0);
}

TEST(ChiSquaredTest, YatesMatchesKnownExample) {
  // Table [[20,80],[40,60]]: chi2_yates ~ 8.3, p ~ 0.004.
  const double p = ChiSquaredYatesP(20, 80, 40, 60);
  EXPECT_GT(p, 0.001);
  EXPECT_LT(p, 0.01);
}

TEST(ChiSquaredTest, ZeroMarginsReturnOne) {
  EXPECT_DOUBLE_EQ(ChiSquaredYatesP(0, 0, 1, 1), 1.0);
  EXPECT_DOUBLE_EQ(ChiSquaredYatesP(0, 10, 0, 10), 1.0);
}

TEST(ChiSquaredTest, YatesIsConservativeVsUncorrected) {
  // With the correction, small deviations should not be significant.
  const double p = ChiSquaredYatesP(1, 99, 2, 98);
  EXPECT_GT(p, 0.3);
}

TEST(AgreementTest, FisherAndChiSquaredAgreeOnLargeSamples) {
  // Both tests should make the same call at alpha = 0.01 for clear cases.
  struct Case {
    uint64_t a, b, c, d;
    bool significant;
  };
  const Case cases[] = {
      {1, 999, 45, 855, true},    // strong drift
      {5, 995, 6, 994, false},    // no drift
      {0, 500, 50, 450, true},    // new non-conforming mass
      {10, 990, 12, 988, false},  // noise
  };
  for (const auto& c : cases) {
    const double pf = FisherExactTwoTailedP(c.a, c.b, c.c, c.d);
    const double px = ChiSquaredYatesP(c.a, c.b, c.c, c.d);
    EXPECT_EQ(pf < 0.01, c.significant) << pf;
    EXPECT_EQ(px < 0.01, c.significant) << px;
  }
}

}  // namespace
}  // namespace av
