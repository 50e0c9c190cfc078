// FMDV — the FPR-minimizing data-validation optimization (Section 2.3):
//
//   min  FPR_T(h)   over h in H(C)
//   s.t. FPR_T(h) <= r,  Cov_T(h) >= m
//
// evaluated against the offline PatternIndex. Also provides the CMDV
// alternative objective (minimize coverage; Section 2.3's variant) and the
// feasibility scan shared by the vertical-cut dynamic program.
#pragma once

#include <string>
#include <vector>

#include "common/column_view.h"
#include "common/status.h"
#include "core/options.h"
#include "index/pattern_index.h"
#include "pattern/generalize.h"

namespace av {

/// Solution of one FMDV instance.
struct FmdvSolution {
  Pattern pattern;
  double fpr = 0;
  uint64_t coverage = 0;
  size_t hypotheses_enumerated = 0;
  size_t hypotheses_feasible = 0;
};

/// Objective used when scanning the hypothesis space.
enum class FmdvObjective {
  kMinFpr,       ///< FMDV (paper's conservative default)
  kMinCoverage,  ///< CMDV / Auto-Tag dual
};

/// Solves FMDV over the hypotheses of `options` restricted to token
/// positions [begin, end). Returns kInfeasible when no hypothesis meets the
/// constraints (or none exists).
Result<FmdvSolution> SolveFmdvRange(const ShapeOptions& options, size_t begin,
                                    size_t end, const PatternIndex& index,
                                    const AutoValidateOptions& opts,
                                    FmdvObjective objective =
                                        FmdvObjective::kMinFpr);

/// kInfeasible naming GeneralizeConfig::max_distinct_values when `profile`
/// has one shape group and rows past that cap, which join no group; OK
/// otherwise. The trainers ask it before their homogeneity checks, which
/// would blame those rows on empty values or on heterogeneity.
Status CheckDistinctCap(const ColumnProfile& profile,
                        const GeneralizeConfig& gen);

/// Solves basic FMDV for a query column. Requires homogeneous values (a
/// single shape group); returns kInfeasible otherwise — callers wanting
/// tolerance use the horizontal-cut variants (Section 4).
Result<FmdvSolution> SolveFmdv(ColumnView values, const PatternIndex& index,
                               const AutoValidateOptions& opts,
                               FmdvObjective objective =
                                   FmdvObjective::kMinFpr);

}  // namespace av
