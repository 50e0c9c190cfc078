// FMDV-H: horizontal cuts for columns with ad-hoc non-conforming values
// (Section 4, Figure 9).
//
// The paper's greedy optimization discards values whose patterns do not
// intersect with those of most other values, then solves FMDV on the
// remaining conforming values. Values sharing the dominant shape group form
// exactly that maximal intersecting set in the ladder pattern space, so the
// cut is the choice of the heaviest group of the column's profile, and the
// solvers run on that group of the same profile.
#pragma once

#include <cstdint>

#include "common/column_view.h"
#include "common/status.h"
#include "core/options.h"
#include "pattern/generalize.h"

namespace av {

/// The profile a training solves on, built once per training: every
/// distinct value of `values` (the distinct cap applies to the chosen group,
/// in SelectConforming), with tau unbounded when `vertical`, because
/// vertical cuts segment columns wider than tau.
ColumnProfile TrainingProfile(ColumnView values, const GeneralizeConfig& gen,
                              bool vertical);

/// The shape group FMDV is solved on, and the rows left outside it.
struct ConformingSplit {
  /// The conforming values: the heaviest shape group of the profile.
  const ShapeGroup* group = nullptr;
  /// Rows of other shapes and of empty values (theta_C's numerator).
  uint64_t nonconforming = 0;
};

/// Chooses the group of `profile` that a trainer solves on, with every check
/// the solvers need. With `cut` (FMDV-H, FMDV-VH, Auto-Tag) it is the
/// heaviest group, kInfeasible when more than `opts.theta` of the rows lie
/// outside it (Equation 16); without, the column must be one shape group
/// holding every row. Either way the group must have at most
/// `max_distinct_values` distinct values and, unless the profile was built
/// for vertical cuts, at most tau tokens. kInvalidArgument for an empty
/// column.
Result<ConformingSplit> SelectConforming(const ColumnProfile& profile,
                                         bool cut,
                                         const AutoValidateOptions& opts);

}  // namespace av
