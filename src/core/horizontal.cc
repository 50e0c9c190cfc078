#include "core/horizontal.h"

#include <string>

namespace av {

ColumnProfile TrainingProfile(ColumnView values, const GeneralizeConfig& gen,
                              bool vertical) {
  GeneralizeConfig cfg = gen;
  cfg.max_distinct_values = static_cast<size_t>(-1);
  if (vertical) cfg.max_tokens = static_cast<size_t>(-1);
  return ColumnProfile::Build(values, cfg);
}

Result<ConformingSplit> SelectConforming(const ColumnProfile& profile,
                                         bool cut,
                                         const AutoValidateOptions& opts) {
  if (profile.num_distinct() == 0) {
    return Status::InvalidArgument("empty query column");
  }
  if (profile.shapes().empty()) {
    return Status::Infeasible("no tokenizable values in query column");
  }
  const ShapeGroup& group = profile.shapes().front();
  const ConformingSplit split{&group, profile.total_weight() - group.weight};
  if (cut) {
    const double theta_train = static_cast<double>(split.nonconforming) /
                               static_cast<double>(profile.total_weight());
    if (theta_train > opts.theta) {
      return Status::Infeasible("non-conforming fraction " +
                                std::to_string(theta_train) +
                                " exceeds tolerance theta");
    }
  } else if (profile.shapes().size() > 1) {
    return Status::Infeasible(
        "query column is not homogeneous (H(C) is empty); "
        "use a horizontal-cut variant");
  } else if (split.nonconforming > 0) {
    return Status::Infeasible("query column contains empty values");
  }
  if (group.value_ids.size() > opts.gen.max_distinct_values) {
    return Status::Infeasible(
        "the conforming values hold " + std::to_string(group.value_ids.size()) +
        " distinct values, more than max_distinct_values (" +
        std::to_string(opts.gen.max_distinct_values) + ")");
  }
  if (group.over_token_limit) {
    return Status::Infeasible(
        "query column exceeds the token limit tau; use vertical cuts");
  }
  return split;
}

}  // namespace av
