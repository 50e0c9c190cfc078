#include "core/stat_tests.h"

#include <math.h>

#include <algorithm>
#include <cmath>

namespace av {

namespace {

/// log Gamma(x) for x >= 1. std::lgamma stores the sign of Gamma(x) in the
/// global `signgam`, a data race between concurrent validations;
/// lgamma_r (same glibc kernel, same results) returns it locally.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double LogChoose(uint64_t n, uint64_t k) {
  if (k > n) return -INFINITY;
  return LogGamma(static_cast<double>(n) + 1) -
         LogGamma(static_cast<double>(k) + 1) -
         LogGamma(static_cast<double>(n - k) + 1);
}

namespace {

/// log-probability of a 2x2 table under the hypergeometric null with fixed
/// margins (r1 = a+b, r2 = c+d, c1 = a+c).
double LogHypergeom(uint64_t a, uint64_t r1, uint64_t r2, uint64_t c1) {
  const uint64_t n = r1 + r2;
  return LogChoose(r1, a) + LogChoose(r2, c1 - a) - LogChoose(n, c1);
}

}  // namespace

double FisherExactTwoTailedP(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  const uint64_t r1 = a + b;
  const uint64_t r2 = c + d;
  const uint64_t c1 = a + c;
  if (r1 == 0 || r2 == 0) return 1.0;
  if (c1 == 0 || b + d == 0) return 1.0;

  const double log_obs = LogHypergeom(a, r1, r2, c1);
  const uint64_t a_lo = c1 > r2 ? c1 - r2 : 0;
  const uint64_t a_hi = std::min(r1, c1);

  // Two-tailed: sum all tables at most as probable as the observed one.
  constexpr double kRelTol = 1e-7;
  double p = 0;
  for (uint64_t x = a_lo; x <= a_hi; ++x) {
    const double lp = LogHypergeom(x, r1, r2, c1);
    if (lp <= log_obs + kRelTol) p += std::exp(lp);
  }
  return std::min(1.0, p);
}

double ChiSquared1Sf(double x) {
  if (x <= 0) return 1.0;
  // For 1 dof: P(X > x) = erfc(sqrt(x / 2)).
  return std::erfc(std::sqrt(x / 2.0));
}

double ChiSquaredYatesP(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  const double r1 = static_cast<double>(a + b);
  const double r2 = static_cast<double>(c + d);
  const double c1 = static_cast<double>(a + c);
  const double c2 = static_cast<double>(b + d);
  const double n = r1 + r2;
  if (r1 == 0 || r2 == 0 || c1 == 0 || c2 == 0) return 1.0;
  const double ad_bc = std::fabs(static_cast<double>(a) * d -
                                 static_cast<double>(b) * c);
  const double corrected = std::max(0.0, ad_bc - n / 2.0);
  const double chi2 = n * corrected * corrected / (r1 * r2 * c1 * c2);
  return ChiSquared1Sf(chi2);
}

}  // namespace av
