// ValidationRule and the validation-time logic: per-value pattern matching
// plus the distributional test on the non-conforming fraction (Section 4).
//
// Validation is factored into a streaming-friendly pipeline:
//
//   counts      ValidationStats — per-batch match counts, mergeable with an
//               associative Merge() so N micro-batches (or N shards) reduce
//               to exactly the single-pass counts;
//   session     ValidationSession — accumulates stats batch by batch and
//               runs the homogeneity test once, at Finish();
//   one-shot    ValidateColumn — a Feed + Finish over a single batch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/column_view.h"
#include "core/options.h"
#include "pattern/matcher.h"
#include "pattern/pattern.h"

namespace av {

/// A trained data-validation rule for one column.
struct ValidationRule {
  Method method = Method::kFmdv;
  /// The validation pattern h(C) (concatenated across vertical segments).
  Pattern pattern;
  /// Vertical-cut segment patterns ([pattern] itself if no cuts were made).
  std::vector<Pattern> segments;

  /// Corpus-estimated statistics of the pattern at training time.
  double fpr_estimate = 0;
  uint64_t coverage = 0;

  /// Training-side counts for the two-sample test.
  uint64_t train_size = 0;
  uint64_t train_nonconforming = 0;

  HomogeneityTest test = HomogeneityTest::kFisherExact;
  double significance = 0.01;

  /// theta_C(h): trained non-conforming ratio.
  double theta_train() const {
    return train_size == 0 ? 0.0
                           : static_cast<double>(train_nonconforming) /
                                 static_cast<double>(train_size);
  }

  /// One-line human-readable summary.
  std::string Describe() const;

  /// Serializes the rule to a single line (stable format, versioned), so
  /// recurring pipelines can persist rules between runs.
  std::string Serialize() const;

  /// Parses a line produced by Serialize(). Rejects malformed input
  /// (truncated fields, unknown keys, non-numeric numbers, bad enum ids).
  static Result<ValidationRule> Deserialize(std::string_view text);
};

/// Outcome of validating a future batch C' against a rule.
struct ValidationReport {
  uint64_t total = 0;
  uint64_t nonconforming = 0;
  double theta_test = 0;
  /// p-value of the two-sample homogeneity test (1.0 when not applicable).
  double p_value = 1.0;
  /// True when the batch is reported as a data-quality issue.
  bool flagged = false;
  /// The first distinct non-conforming values in stream order, up to the
  /// configured cap (default AutoValidateOptions::max_sample_violations),
  /// for actionable alerts.
  std::vector<std::string> sample_violations;
};

/// Mergeable per-batch match counts. Merge is associative: reducing the
/// stats of any micro-batch partition of a column — in order — yields
/// exactly the stats of one pass over the whole column, so sharded or
/// streaming validation reports are identical to batch reports.
struct ValidationStats {
  uint64_t total = 0;
  uint64_t nonconforming = 0;
  /// The first `max_samples` distinct non-conforming values, in stream
  /// order (owned copies: stats outlive the borrowed input buffers). The
  /// first K distinct values of a concatenation lie within the first-K
  /// lists of its parts, so an in-order merge equals one pass.
  std::vector<std::string> sample_violations;

  /// Appends `value` unless the list is full or already holds it. Every
  /// sample enters the list through here.
  void AddSample(std::string_view value, size_t max_samples);

  /// Folds `other` (the stats of the *later* micro-batch) into this.
  /// Self-merge (`&other == this`) is well-defined and equivalent to
  /// merging an identical copy: counts double and the samples stay the
  /// same.
  void MergeFrom(const ValidationStats& other, size_t max_samples);

  /// Associative two-sided merge.
  static ValidationStats Merge(const ValidationStats& a,
                               const ValidationStats& b, size_t max_samples);
};

/// Matches one micro-batch against `matcher`'s pattern, accumulating counts
/// (weighted rows) and sample violations into `stats`. A batch that looks
/// all-distinct (EstimateDistinctRatio) is matched row by row; any other is
/// tokenized once (TokenizedColumn) and each distinct value matched once.
/// Both arms give the same stats, except that rows of a batch whose
/// distinct values overflow the tokenized arena's 32-bit capacity count as
/// non-conforming.
void AccumulateValidation(PatternMatcher& matcher, ColumnView values,
                          size_t max_samples, ValidationStats* stats);

/// Runs the rule's homogeneity test on accumulated counts and assembles the
/// report (the Finish step of a streaming validation).
ValidationReport FinishValidation(const ValidationRule& rule,
                                  const ValidationStats& stats);

/// Streaming validation of one column arriving as micro-batches: Feed each
/// batch (zero-copy), then Finish() runs the two-sample test on the merged
/// counts. The report over N micro-batches equals the single-pass report.
/// Cheap to construct per stream; movable; not thread-safe (one session per
/// stream — shard across sessions and Absorb their stats to parallelize).
class ValidationSession {
 public:
  /// Shares the rule (the ValidationService rule-store path — the rule
  /// stays alive across concurrent store updates).
  explicit ValidationSession(std::shared_ptr<const ValidationRule> rule,
                            size_t max_samples = 5);
  /// Copies the rule once (standalone use).
  explicit ValidationSession(const ValidationRule& rule,
                             size_t max_samples = 5);

  /// Accumulates one micro-batch (AccumulateValidation). No per-value
  /// string copies.
  void Feed(ColumnView batch);

  /// Merges the stats of another shard of the same stream (in shard order).
  void Absorb(const ValidationStats& shard);

  const ValidationStats& stats() const { return stats_; }
  const ValidationRule& rule() const { return *rule_; }
  /// The rule as a shareable handle (stays alive past this session).
  const std::shared_ptr<const ValidationRule>& shared_rule() const {
    return rule_;
  }

  /// The homogeneity test on the merged counts.
  ValidationReport Finish() const { return FinishValidation(*rule_, stats_); }

 private:
  std::shared_ptr<const ValidationRule> rule_;
  PatternMatcher matcher_;  ///< points at rule_->pattern (heap-stable)
  ValidationStats stats_;
  size_t max_samples_;
};

/// Validates `values` against `rule` (matching + distributional test) in one
/// pass. Equivalent to a single-Feed session. If `stats` is non-null the
/// accumulated mergeable counts are also written there (the raw state
/// TableReport::Merge reduces over).
ValidationReport ValidateColumn(const ValidationRule& rule, ColumnView values,
                                size_t max_samples = 5,
                                ValidationStats* stats = nullptr);

/// Cheap duplication sniff: fingerprints up to `sample_size` values (at
/// most 32 — the sniff must stay a vanishing fraction of a validate call),
/// evenly strided across the batch, into a small open-addressed table and
/// returns the observed distinct fraction in (0, 1] (1.0 for an empty
/// batch). Fingerprint collisions can only under-estimate the ratio, never
/// crash or bias the report — the estimate feeds a path choice, not a
/// count, and the tokenized fallback is always correct.
double EstimateDistinctRatio(ColumnView values, size_t sample_size = 32);

// Helpers of the line formats, shared by ValidationRule::Serialize and the
// ValidationService rule-set files: '|'-separated fields with '\' escape,
// and strict numeric field parsing (digits-only u64, decimal/scientific
// f64; whole-string consumption — no whitespace, sign-wrap, inf/nan or hex
// floats).
std::string EscapeRuleField(std::string_view s);
std::string UnescapeRuleField(std::string_view s);
bool ParseRuleU64(const std::string& s, uint64_t* out);
bool ParseRuleF64(const std::string& s, double* out);

}  // namespace av
