#include "core/auto_validate.h"

#include <algorithm>

#include "core/horizontal.h"
#include "core/vertical.h"
#include "pattern/matcher.h"

namespace av {

AutoValidate::AutoValidate(const PatternIndex* index, AutoValidateOptions opts)
    : index_(index), opts_(std::move(opts)) {}

Result<ValidationRule> AutoValidate::TrainInternal(
    ColumnView train_values, Method method, FmdvObjective objective) const {
  const bool horizontal =
      method == Method::kFmdvH || method == Method::kFmdvVH;
  const bool vertical = method == Method::kFmdvV || method == Method::kFmdvVH;

  // One profile per training: the horizontal cut picks one of its groups
  // and the solver runs on that group of the same profile.
  const ColumnProfile profile =
      TrainingProfile(train_values, opts_.gen, vertical);
  auto split = SelectConforming(profile, horizontal, opts_);
  if (!split.ok()) return split.status();

  ValidationRule rule;
  rule.method = method;
  rule.test = opts_.test;
  rule.significance = opts_.significance;
  rule.train_size = train_values.total_rows();
  rule.train_nonconforming = split->nonconforming;
  if (vertical) {
    auto sol = SolveFmdvV(profile, *split->group, *index_, opts_);
    if (!sol.ok()) return sol.status();
    rule.pattern = std::move(sol->pattern);
    rule.segments = std::move(sol->segment_patterns);
    rule.fpr_estimate = sol->fpr_total;
    rule.coverage = sol->min_segment_coverage;
  } else {
    auto sol = SolveFmdv(profile, *split->group, *index_, opts_, objective);
    if (!sol.ok()) return sol.status();
    rule.pattern = sol->pattern;
    rule.segments = {sol->pattern};
    rule.fpr_estimate = sol->fpr;
    rule.coverage = sol->coverage;
  }
  return rule;
}

Result<ValidationRule> AutoValidate::Train(ColumnView train_values,
                                           Method method) const {
  return TrainInternal(train_values, method, FmdvObjective::kMinFpr);
}

ValidationReport AutoValidate::Validate(const ValidationRule& rule,
                                        ColumnView values) const {
  return ValidateColumn(rule, values, opts_.max_sample_violations);
}

Result<ValidationRule> AutoValidate::TrainCmdv(ColumnView train_values) const {
  return TrainInternal(train_values, Method::kFmdv,
                       FmdvObjective::kMinCoverage);
}

Result<Pattern> AutoValidate::AutoTag(ColumnView train_values) const {
  // Dual formulation: tolerate up to theta non-conforming values (the FNR
  // budget), then pick the most restrictive pattern with enough corpus
  // support to be a real domain.
  const ColumnProfile profile =
      TrainingProfile(train_values, opts_.gen, /*vertical=*/false);
  auto split = SelectConforming(profile, /*cut=*/true, opts_);
  if (!split.ok()) return split.status();

  AutoValidateOptions tag_opts = opts_;
  tag_opts.min_coverage = opts_.autotag_min_coverage;
  tag_opts.fpr_target = 1.0;  // FPR is unconstrained in the dual
  auto sol = SolveFmdv(profile, *split->group, *index_, tag_opts,
                       FmdvObjective::kMinCoverage);
  if (!sol.ok()) return sol.status();
  return sol->pattern;
}

Result<ValidationRule> TrainFmdvNoIndex(const Corpus& corpus,
                                        ColumnView train_values,
                                        const AutoValidateOptions& opts) {
  const ColumnProfile profile =
      TrainingProfile(train_values, opts.gen, /*vertical=*/false);
  auto split = SelectConforming(profile, /*cut=*/false, opts);
  if (!split.ok()) return split.status();
  ShapeOptions options(profile, *split->group, opts.gen);

  // Gather hypotheses first, then make ONE full scan over T computing
  // Imp_D(h) / Cov_T(h) for all of them (Definitions 1-3, no index).
  std::vector<Pattern> hypotheses;
  options.EnumerateHypotheses(opts.gen.max_hypotheses, [&](Pattern&& h) {
    hypotheses.push_back(std::move(h));
  });
  if (hypotheses.empty()) {
    return Status::Infeasible("no hypotheses");
  }

  // One full scan of T: each column is tokenized once and every hypothesis
  // matcher (with its reusable memo) runs over the same spans.
  std::vector<PatternMatcher> matchers;
  matchers.reserve(hypotheses.size());
  for (const Pattern& h : hypotheses) matchers.emplace_back(h);
  std::vector<double> sum_imp(hypotheses.size(), 0);
  std::vector<uint64_t> cols(hypotheses.size(), 0);
  for (const Column* column : corpus.AllColumns()) {
    if (column->values.empty()) continue;
    const TokenizedColumn tokenized = TokenizedColumn::Build(column->values);
    for (size_t i = 0; i < hypotheses.size(); ++i) {
      const uint64_t matched = matchers[i].CountRows(tokenized);
      if (matched == 0) continue;
      cols[i] += 1;
      sum_imp[i] += 1.0 - static_cast<double>(matched) /
                              static_cast<double>(tokenized.total_rows());
    }
  }

  ValidationRule rule;
  rule.method = Method::kFmdv;
  rule.test = opts.test;
  rule.significance = opts.significance;
  rule.train_size = train_values.total_rows();
  // Same preference order as the indexed solver: min FPR, then most
  // restrictive (min coverage), then most specific, then lexicographic.
  bool found = false;
  for (size_t i = 0; i < hypotheses.size(); ++i) {
    if (cols[i] == 0) continue;
    const double fpr = sum_imp[i] / static_cast<double>(cols[i]);
    if (fpr > opts.fpr_target || cols[i] < opts.min_coverage) continue;
    bool better = !found;
    if (found) {
      if (fpr != rule.fpr_estimate) {
        better = fpr < rule.fpr_estimate;
      } else if (cols[i] != rule.coverage) {
        better = cols[i] < rule.coverage;
      } else {
        const int si = hypotheses[i].SpecificityScore();
        const int sr = rule.pattern.SpecificityScore();
        better = si != sr ? si > sr
                          : hypotheses[i].ToString() < rule.pattern.ToString();
      }
    }
    if (better) {
      rule.pattern = hypotheses[i];
      rule.segments = {hypotheses[i]};
      rule.fpr_estimate = fpr;
      rule.coverage = cols[i];
      found = true;
    }
  }
  if (!found) {
    return Status::Infeasible("no hypothesis meets constraints (no-index)");
  }
  return rule;
}

}  // namespace av
