// Public configuration types of the Auto-Validate core.
#pragma once

#include "pattern/generalize.h"

namespace av {

/// Which algorithm variant to run (Sections 2-4).
enum class Method {
  kFmdv = 0,    ///< basic FMDV (Section 2)
  kFmdvV = 1,   ///< vertical cuts (Section 3)
  kFmdvH = 2,   ///< horizontal cuts (Section 4)
  kFmdvVH = 3,  ///< vertical + horizontal cuts
};

const char* MethodName(Method m);

/// Two-sample homogeneity test used at validation time (Section 4).
enum class HomogeneityTest {
  kFisherExact = 0,      ///< Fisher's exact test, two-tailed
  kChiSquaredYates = 1,  ///< Pearson chi-squared with Yates correction
  kNaiveThreshold = 2,   ///< flag whenever theta_test > theta_train (ablation)
};

const char* HomogeneityTestName(HomogeneityTest t);

/// All knobs of the online stage. Defaults follow the experiments of the
/// paper: r = 0.1 and m = 100 ("FMDV-VH (C=100, r=0.1)", Figure 11),
/// Fisher's exact test at significance 0.01 (Section 5.2).
struct AutoValidateOptions {
  GeneralizeConfig gen;

  /// r: FPR target of Equation (6).
  double fpr_target = 0.1;
  /// m: coverage floor of Equation (7).
  uint64_t min_coverage = 100;
  /// theta: max fraction of non-conforming values cut by FMDV-H (Eq. 16).
  double theta = 0.1;

  HomogeneityTest test = HomogeneityTest::kFisherExact;
  double significance = 0.01;

  /// Cap on example non-conforming values collected into
  /// ValidationReport::sample_violations (actionable-alert context).
  size_t max_sample_violations = 5;

  /// Ablation (Section 3): aggregate segment FPRs with max instead of the
  /// paper's pessimistic sum in Equation (8).
  bool vertical_use_max = false;

  /// Coverage floor used by the Auto-Tag dual (most-restrictive pattern).
  uint64_t autotag_min_coverage = 10;
};

}  // namespace av
