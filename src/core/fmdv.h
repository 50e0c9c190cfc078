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

/// Solves basic FMDV over the hypotheses of `group`, a shape group of
/// `profile` that SelectConforming (core/horizontal.h) chose and checked:
/// H(C) is the patterns consistent with every value of the group.
Result<FmdvSolution> SolveFmdv(const ColumnProfile& profile,
                               const ShapeGroup& group,
                               const PatternIndex& index,
                               const AutoValidateOptions& opts,
                               FmdvObjective objective =
                                   FmdvObjective::kMinFpr);

}  // namespace av
