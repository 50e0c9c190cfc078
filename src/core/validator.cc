#include "core/validator.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "common/strings.h"
#include "core/stat_tests.h"
#include "pattern/tokenized_column.h"

namespace av {

namespace {

constexpr char kRuleMagic[] = "AVRULE1";

/// Splits on unescaped '|' and unescapes fields.
std::vector<std::string> SplitFields(std::string_view s) {
  std::vector<std::string> out;
  std::string field;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      field.push_back(s[++i]);
    } else if (s[i] == '|') {
      out.push_back(std::move(field));
      field.clear();
    } else {
      field.push_back(s[i]);
    }
  }
  out.push_back(std::move(field));
  return out;
}

/// Strict enum-id parse into [0, max].
bool ParseEnumId(const std::string& s, int max, int* out) {
  uint64_t v = 0;
  if (!ParseRuleU64(s, &v) || v > static_cast<uint64_t>(max)) return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

bool ParseRuleU64(const std::string& s, uint64_t* out) {
  // Digits only: no sign, no whitespace (strtoull alone skips leading
  // spaces and wraps negatives to huge values).
  if (s.empty()) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseRuleF64(const std::string& s, double* out) {
  // Decimal/scientific notation only: rejects whitespace, inf/nan and hex
  // floats up front, then requires strtod to consume the whole string.
  if (s.empty()) return false;
  for (const char c : s) {
    if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-')) {
      return false;
    }
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

std::string EscapeRuleField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '|' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string UnescapeRuleField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) ++i;
    out.push_back(s[i]);
  }
  return out;
}

std::string ValidationRule::Serialize() const {
  std::string out = kRuleMagic;
  out += StrFormat("|method=%d|fpr=%.17g|cov=%llu|train=%llu|nonconf=%llu"
                   "|test=%d|alpha=%.17g",
                   static_cast<int>(method), fpr_estimate,
                   static_cast<unsigned long long>(coverage),
                   static_cast<unsigned long long>(train_size),
                   static_cast<unsigned long long>(train_nonconforming),
                   static_cast<int>(test), significance);
  out += "|pattern=" + EscapeRuleField(pattern.ToString());
  for (const Pattern& seg : segments) {
    out += "|segment=" + EscapeRuleField(seg.ToString());
  }
  return out;
}

Result<ValidationRule> ValidationRule::Deserialize(std::string_view text) {
  const std::vector<std::string> fields = SplitFields(text);
  if (fields.empty() || fields[0] != kRuleMagic) {
    return Status::Corruption("not a serialized ValidationRule");
  }
  ValidationRule rule;
  bool saw_pattern = false;
  // Every field except the repeatable `segment` list may appear at most
  // once: accepting duplicates would silently last-wins-overwrite earlier
  // values, so a corrupted (e.g. spliced) line could carry two conflicting
  // trainings and parse successfully.
  enum SeenBit : uint32_t {
    kMethod = 1u << 0,
    kFpr = 1u << 1,
    kCov = 1u << 2,
    kTrain = 1u << 3,
    kNonconf = 1u << 4,
    kTest = 1u << 5,
    kAlpha = 1u << 6,
  };
  uint32_t seen = 0;
  const auto mark_once = [&seen](uint32_t bit) {
    if (seen & bit) return false;
    seen |= bit;
    return true;
  };
  for (size_t i = 1; i < fields.size(); ++i) {
    const std::string& f = fields[i];
    const size_t eq = f.find('=');
    if (eq == std::string::npos) {
      return Status::Corruption("malformed rule field: " + f);
    }
    const std::string key = f.substr(0, eq);
    const std::string value = f.substr(eq + 1);
    if (key != "segment" &&
        ((key == "pattern" && saw_pattern) ||
         (key == "method" && !mark_once(kMethod)) ||
         (key == "fpr" && !mark_once(kFpr)) ||
         (key == "cov" && !mark_once(kCov)) ||
         (key == "train" && !mark_once(kTrain)) ||
         (key == "nonconf" && !mark_once(kNonconf)) ||
         (key == "test" && !mark_once(kTest)) ||
         (key == "alpha" && !mark_once(kAlpha)))) {
      return Status::Corruption("duplicate rule field: " + key);
    }
    if (key == "method") {
      int m = 0;
      if (!ParseEnumId(value, static_cast<int>(Method::kFmdvVH), &m)) {
        return Status::Corruption("bad method id: " + value);
      }
      rule.method = static_cast<Method>(m);
    } else if (key == "fpr") {
      if (!ParseRuleF64(value, &rule.fpr_estimate)) {
        return Status::Corruption("non-numeric fpr: " + value);
      }
    } else if (key == "cov") {
      if (!ParseRuleU64(value, &rule.coverage)) {
        return Status::Corruption("non-numeric cov: " + value);
      }
    } else if (key == "train") {
      if (!ParseRuleU64(value, &rule.train_size)) {
        return Status::Corruption("non-numeric train: " + value);
      }
    } else if (key == "nonconf") {
      if (!ParseRuleU64(value, &rule.train_nonconforming)) {
        return Status::Corruption("non-numeric nonconf: " + value);
      }
    } else if (key == "test") {
      int t = 0;
      if (!ParseEnumId(value, static_cast<int>(HomogeneityTest::kNaiveThreshold),
                       &t)) {
        return Status::Corruption("bad test id: " + value);
      }
      rule.test = static_cast<HomogeneityTest>(t);
    } else if (key == "alpha") {
      if (!ParseRuleF64(value, &rule.significance)) {
        return Status::Corruption("non-numeric alpha: " + value);
      }
    } else if (key == "pattern") {
      auto p = Pattern::Parse(value);
      if (!p.ok()) return p.status();
      rule.pattern = std::move(p).value();
      saw_pattern = true;
    } else if (key == "segment") {
      auto p = Pattern::Parse(value);
      if (!p.ok()) return p.status();
      rule.segments.push_back(std::move(p).value());
    } else {
      return Status::Corruption("unknown rule field: " + key);
    }
  }
  if (!saw_pattern) {
    return Status::Corruption("serialized rule has no pattern");
  }
  if (rule.train_nonconforming > rule.train_size) {
    return Status::Corruption("non-conforming count exceeds training size");
  }
  return rule;
}

std::string ValidationRule::Describe() const {
  return StrFormat("%s rule: pattern=\"%s\" fpr=%.4g cov=%llu theta=%.3g",
                   MethodName(method), pattern.ToString().c_str(),
                   fpr_estimate, static_cast<unsigned long long>(coverage),
                   theta_train());
}

void ValidationStats::AddSample(std::string_view value, size_t max_samples) {
  if (sample_violations.size() >= max_samples) return;
  // Linear scan: the list is capped at a handful of entries.
  for (const std::string& s : sample_violations) {
    if (s == value) return;
  }
  sample_violations.emplace_back(value);
}

void ValidationStats::MergeFrom(const ValidationStats& other,
                                size_t max_samples) {
  total += other.total;
  nonconforming += other.nonconforming;
  // Index-based with the source size snapshotted up front: when
  // `&other == this` (self-merge), a range-for over other.sample_violations
  // would be invalidated by any append. Self-merge appends nothing (every
  // value is already held), so it behaves like merging a copy.
  const size_t n = other.sample_violations.size();
  for (size_t i = 0; i < n && sample_violations.size() < max_samples; ++i) {
    AddSample(other.sample_violations[i], max_samples);
  }
}

ValidationStats ValidationStats::Merge(const ValidationStats& a,
                                       const ValidationStats& b,
                                       size_t max_samples) {
  ValidationStats out = a;
  out.MergeFrom(b, max_samples);
  return out;
}

ValidationReport FinishValidation(const ValidationRule& rule,
                                  const ValidationStats& stats) {
  ValidationReport report;
  report.total = stats.total;
  report.nonconforming = stats.nonconforming;
  report.sample_violations = stats.sample_violations;
  if (stats.total == 0) return report;

  report.theta_test = static_cast<double>(report.nonconforming) /
                      static_cast<double>(report.total);

  const double theta_train = rule.theta_train();
  if (report.theta_test <= theta_train) {
    // No increase in non-conforming fraction: never an issue. Set the
    // p-value explicitly rather than relying on the field's default, so the
    // report is fully determined by this function.
    report.p_value = 1.0;
    report.flagged = false;
    return report;
  }

  switch (rule.test) {
    case HomogeneityTest::kNaiveThreshold:
      // Ablation: alert on any increase (prone to false positives).
      report.p_value = 0.0;
      report.flagged = true;
      break;
    case HomogeneityTest::kFisherExact:
      report.p_value = FisherExactTwoTailedP(
          rule.train_nonconforming, rule.train_size - rule.train_nonconforming,
          report.nonconforming, report.total - report.nonconforming);
      report.flagged = report.p_value < rule.significance;
      break;
    case HomogeneityTest::kChiSquaredYates:
      report.p_value = ChiSquaredYatesP(
          rule.train_nonconforming, rule.train_size - rule.train_nonconforming,
          report.nonconforming, report.total - report.nonconforming);
      report.flagged = report.p_value < rule.significance;
      break;
  }
  return report;
}

ValidationSession::ValidationSession(
    std::shared_ptr<const ValidationRule> rule, size_t max_samples)
    : rule_(std::move(rule)),
      matcher_(rule_->pattern),
      max_samples_(max_samples) {}

ValidationSession::ValidationSession(const ValidationRule& rule,
                                     size_t max_samples)
    : ValidationSession(std::make_shared<const ValidationRule>(rule),
                        max_samples) {}

void ValidationSession::Feed(ColumnView batch) {
  AccumulateValidation(matcher_, batch, max_samples_, &stats_);
}

void ValidationSession::Absorb(const ValidationStats& shard) {
  stats_.MergeFrom(shard, max_samples_);
}

ValidationReport ValidateColumn(const ValidationRule& rule, ColumnView values,
                                size_t max_samples, ValidationStats* stats) {
  ValidationStats local;
  ValidationStats* s = stats != nullptr ? stats : &local;
  PatternMatcher matcher(rule.pattern);
  AccumulateValidation(matcher, values, max_samples, s);
  return FinishValidation(rule, *s);
}

namespace {

/// Row-by-row arm: one tokenization and match per row.
void AccumulateRows(PatternMatcher& matcher, ColumnView values,
                    size_t max_samples, ValidationStats* stats) {
  for (size_t i = 0; i < values.size(); ++i) {
    const std::string_view v = values[i];
    const uint32_t w = values.weight(i);
    stats->total += w;
    if (matcher.Matches(v)) continue;
    stats->nonconforming += w;
    stats->AddSample(v, max_samples);
  }
}

/// Tokenize-once arm: drives `matcher` over `column`'s prebuilt token spans,
/// so each distinct value is tokenized and matched exactly once regardless
/// of its row count.
void AccumulateDistinct(PatternMatcher& matcher, const TokenizedColumn& column,
                        size_t max_samples, ValidationStats* stats) {
  for (size_t i = 0; i < column.num_distinct(); ++i) {
    const uint32_t w = column.weight(i);
    stats->total += w;
    if (matcher.Matches(column.value(i), column.tokens(i))) continue;
    stats->nonconforming += w;
    stats->AddSample(column.value(i), max_samples);
  }
  // Rows whose distinct value overflowed the arena have no token spans;
  // they conservatively count as non-conforming (matching CountRows).
  const uint64_t overflow = column.total_rows() - column.admitted_rows();
  stats->total += overflow;
  stats->nonconforming += overflow;
}

/// Distinct fraction at or above which the streaming arm wins: the
/// tokenized build pays one hash-map insert per row and only earns it back
/// by skipping repeated tokenizations, so it needs a meaningful duplicate
/// share before it is cheaper than streaming.
constexpr double kStreamingDistinctRatio = 0.875;

/// A few-nanosecond fingerprint for the duplication sniff: 8-byte prefix +
/// 8-byte suffix + length, mixed with two multiplies. Values agreeing on
/// all three collide, which only UNDER-estimates the distinct ratio — the
/// sniff then picks the tokenized arm, which is always correct (and merely
/// pessimal if the batch really was distinct). A full-strength hash here
/// would cost a visible fraction of the whole validate call.
inline uint64_t SniffHash(std::string_view v) {
  const size_t n = v.size();
  uint64_t a = 0;
  uint64_t b = 0;
  if (n >= 8) {
    std::memcpy(&a, v.data(), 8);
    std::memcpy(&b, v.data() + n - 8, 8);
  } else {
    for (size_t i = 0; i < n; ++i) {
      a = (a << 8) | static_cast<unsigned char>(v[i]);
    }
  }
  return a * 0x9e3779b97f4a7c15ULL ^ b * 0xc2b2ae3d27d4eb4fULL ^
         (n + 0x165667b19e3779f9ULL);
}

}  // namespace

double EstimateDistinctRatio(ColumnView values, size_t sample_size) {
  const size_t n = values.size();
  if (n == 0) return 1.0;
  const size_t sample = std::min({n, sample_size, size_t{32}});
  // Open-addressed table of raw fingerprints, 2x the maximum sample so
  // probe chains stay short. Zero marks an empty slot (a genuine zero
  // fingerprint is nudged; at worst that merges two samples, slightly
  // lowering the estimate).
  constexpr size_t kSlots = 64;
  uint64_t slots[kSlots] = {};
  const size_t stride = n / sample;
  size_t distinct = 0;
  for (size_t k = 0; k < sample; ++k) {
    uint64_t h = SniffHash(values[k * stride]);
    if (h == 0) h = 1;
    size_t at = h & (kSlots - 1);
    while (slots[at] != 0 && slots[at] != h) at = (at + 1) & (kSlots - 1);
    if (slots[at] == 0) {
      slots[at] = h;
      ++distinct;
    }
  }
  return static_cast<double>(distinct) / static_cast<double>(sample);
}

void AccumulateValidation(PatternMatcher& matcher, ColumnView values,
                          size_t max_samples, ValidationStats* stats) {
  if (EstimateDistinctRatio(values) >= kStreamingDistinctRatio) {
    AccumulateRows(matcher, values, max_samples, stats);
  } else {
    AccumulateDistinct(matcher, TokenizedColumn::Build(values), max_samples,
                       stats);
  }
}

}  // namespace av
