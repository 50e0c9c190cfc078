// FMDV-V: vertical cuts for composite domains (Section 3).
//
// The query column's aligned token positions are segmented by a bottom-up
// dynamic program over Equation (11): the minimum-FPR m-segmentation where
// each segment's pattern is solved by FMDV against the offline index. The
// pessimistic objective sums segment FPRs (Equation 8); the optimistic
// max-aggregation is available as an ablation (AutoValidateOptions).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/options.h"
#include "index/pattern_index.h"
#include "pattern/generalize.h"

namespace av {

/// Solution of one FMDV-V instance.
struct VerticalSolution {
  /// Concatenation of the segment patterns — the validation pattern for C.
  Pattern pattern;
  std::vector<Pattern> segment_patterns;
  /// Token-position ranges [begin, end) of each segment.
  std::vector<std::pair<size_t, size_t>> segment_ranges;
  /// Objective value: sum (or max, in the ablation) of segment FPRs.
  double fpr_total = 0;
  /// Minimum coverage across segments (conservative coverage estimate).
  uint64_t min_segment_coverage = 0;
  size_t hypotheses_enumerated = 0;
};

/// Solves FMDV-V over `group`, a shape group of `profile` that
/// SelectConforming (core/horizontal.h) chose and checked; the profile is
/// built with tau unbounded, since segments, not the group, obey tau.
Result<VerticalSolution> SolveFmdvV(const ColumnProfile& profile,
                                    const ShapeGroup& group,
                                    const PatternIndex& index,
                                    const AutoValidateOptions& opts);

}  // namespace av
