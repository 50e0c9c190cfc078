#include "core/rule_lifecycle.h"

#include <chrono>
#include <utility>

namespace av {

namespace {

uint64_t SystemNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

RuleLifecycle::RuleLifecycle(ValidationService* service,
                             RuleLifecycleOptions opts)
    : service_(service), opts_(std::move(opts)) {
  if (!opts_.now_ms) opts_.now_ms = SystemNowMs;
}

RuleLifecycle::~RuleLifecycle() { StopScanner(); }

void RuleLifecycle::CacheRows(ColumnView values, ColumnState* state) const {
  const size_t n = std::min(values.size(), opts_.max_cached_rows);
  state->cached_rows.clear();
  state->cached_rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    state->cached_rows.emplace_back(values[i]);
  }
}

Result<ValidationRule> RuleLifecycle::Train(const std::string& name,
                                            ColumnView values, Method method,
                                            std::optional<uint64_t> ttl_ms) {
  if (service_->engine().index() == nullptr) {
    return Status::InvalidArgument(
        "validate-only service (no index): cannot train");
  }
  auto rule = service_->engine().Train(values, method);
  if (!rule.ok()) return rule.status();

  RuleMeta meta;
  meta.trained_at_ms = NowMs();
  meta.ttl_ms = ttl_ms.value_or(opts_.default_ttl_ms);

  std::vector<ValidationService::RuleUpdate> batch;
  batch.push_back({name, rule.value(), meta});
  service_->UpsertBatch(std::move(batch));

  std::lock_guard<std::mutex> lock(mu_);
  ColumnState& state = columns_[name];
  CacheRows(values, &state);
  state.flagged_since_train = 0;
  return rule;
}

void RuleLifecycle::RecordOutcome(std::string_view name, bool flagged) {
  if (!flagged) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = columns_.find(name);
  if (it == columns_.end()) {
    it = columns_.emplace(std::string(name), ColumnState{}).first;
  }
  ++it->second.flagged_since_train;
}

void RuleLifecycle::RecordBatch(std::string_view name, ColumnView values) {
  if (values.size() == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = columns_.find(name);
  if (it == columns_.end()) {
    it = columns_.emplace(std::string(name), ColumnState{}).first;
  }
  CacheRows(values, &it->second);
}

size_t RuleLifecycle::ScanOnce() {
  const uint64_t now = NowMs();
  // One snapshot decides due-ness for the whole pass (the same generation
  // discipline as serving: no mixed-store decisions).
  const auto snapshot = service_->Snapshot();

  struct Work {
    std::string name;
    /// The stored rule this retrain replaces, and the only one it may.
    std::shared_ptr<const ValidationRule> rule;
    std::vector<std::string> rows;
    RuleMeta meta;  ///< previous meta (ttl carried forward)
  };
  std::vector<Work> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : snapshot->rules) {
      const RuleMeta meta = entry.meta.value_or(RuleMeta{});
      bool is_due = meta.ExpiredAt(now);
      const auto state_it = columns_.find(name);
      if (!is_due && opts_.violation_threshold > 0 &&
          state_it != columns_.end() &&
          state_it->second.flagged_since_train >= opts_.violation_threshold) {
        is_due = true;
      }
      if (!is_due) continue;
      if (state_it == columns_.end() || state_it->second.cached_rows.empty()) {
        ++retrains_skipped_;
        continue;
      }
      due.push_back({name, entry.rule, state_it->second.cached_rows, meta});
    }
  }

  // Retrain outside the lock, off the serving threads: neither readers nor
  // RecordOutcome/RecordBatch ever stall behind a training.
  std::vector<ValidationService::RuleUpdate> updates;
  std::vector<std::string> names;  ///< of `updates`
  for (Work& w : due) {
    auto rule =
        service_->engine().Train(ColumnView(w.rows), opts_.retrain_method);
    if (!rule.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++retrains_failed_;
      continue;
    }
    RuleMeta meta;
    meta.trained_at_ms = now;
    meta.ttl_ms = w.meta.ttl_ms != 0 ? w.meta.ttl_ms : opts_.default_ttl_ms;
    meta.retrains = w.meta.retrains + 1;
    updates.push_back(
        {w.name, std::move(rule).value(), meta, std::move(w.rule)});
    names.push_back(std::move(w.name));
  }

  // ONE warm-swapped generation for the whole round: a reader sees either
  // every retrained rule or none of them. A rule stored or removed while
  // its retrain ran stays as the newer write left it.
  const std::vector<bool> installed = service_->UpsertBatch(std::move(updates));

  std::lock_guard<std::mutex> lock(mu_);
  size_t retrained = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    if (!installed[i]) continue;
    ++retrained;
    auto it = columns_.find(names[i]);
    if (it != columns_.end()) it->second.flagged_since_train = 0;
  }
  retrains_completed_ += retrained;
  ++scans_;
  return retrained;
}

void RuleLifecycle::StartScanner() {
  std::lock_guard<std::mutex> lock(scanner_mu_);
  if (scanner_.joinable()) return;
  scanner_stop_ = false;
  scanner_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(scanner_mu_);
    while (!scanner_stop_) {
      scanner_cv_.wait_for(lock,
                           std::chrono::milliseconds(opts_.scan_interval_ms),
                           [this] { return scanner_stop_; });
      if (scanner_stop_) break;
      lock.unlock();
      ScanOnce();
      lock.lock();
    }
  });
}

void RuleLifecycle::StopScanner() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(scanner_mu_);
    if (!scanner_.joinable()) return;
    scanner_stop_ = true;
    scanner_cv_.notify_all();
    to_join = std::move(scanner_);
  }
  to_join.join();
}

uint64_t RuleLifecycle::retrains_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retrains_completed_;
}

uint64_t RuleLifecycle::retrains_failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retrains_failed_;
}

uint64_t RuleLifecycle::retrains_skipped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retrains_skipped_;
}

uint64_t RuleLifecycle::scans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scans_;
}

}  // namespace av
