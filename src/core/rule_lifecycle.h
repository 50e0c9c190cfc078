// RuleLifecycle: the rule-freshness layer a deployed validator needs on
// top of ValidationService. Lake-inferred patterns go stale — domains
// drift, formats evolve — so rules carry a TTL (RuleMeta, persisted through
// AVRULESET2) and a background scanner retrains expired or violation-heavy
// rules *off the serving threads*, installing each retrain round as ONE
// warm-swapped store generation (ValidationService::UpsertBatch): readers
// and already-open sessions never observe a mixed rule store.
//
//   av::RuleLifecycle lifecycle(&service, opts);     // opts.default_ttl_ms
//   lifecycle.Train("locale", first_batch);          // stamps trained_at/TTL
//   lifecycle.StartScanner();                        // background freshness
//   ...serving...
//   report = service.Validate("locale", batch);
//   lifecycle.RecordOutcome("locale", report->flagged);  // violation signal
//
// Retraining needs data: Train() caches (a bounded prefix of) the column's
// most recent training values as the retrain source, and RecordBatch() lets
// the serving layer refresh that cache from live traffic, so an expired
// rule retrains on the freshest feed rather than the original one. A rule
// whose source was never seen (e.g. loaded from disk into a fresh process)
// is skipped and counted, never blocks anything.
//
// Concurrency: all mutable state lives behind one mutex (the scanner tick
// and the serving-path RecordOutcome/RecordBatch touches are brief);
// training itself runs outside the lock on the caller/scanner thread, and
// the store install is the service's pointer swap. A background retrain
// never overwrites a newer write: each retrained rule is installed only if
// the store still holds the exact rule the scan retrained (UpsertBatch's
// `if_current`), so a Train or Upsert that lands while the retrain runs
// keeps its rule, and a Remove stays removed. Clock is injectable
// (options.now_ms) so expiry is testable without sleeping.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/validation_service.h"

namespace av {

struct RuleLifecycleOptions {
  /// TTL stamped on rules trained through the lifecycle when the caller
  /// gives none. 0 = rules do not expire (violation retrain may still run).
  uint64_t default_ttl_ms = 0;
  /// Background scanner tick period.
  uint64_t scan_interval_ms = 1000;
  /// Retrain a rule once this many flagged reports accumulate since its
  /// last (re)training. 0 disables violation-triggered retraining.
  uint64_t violation_threshold = 0;
  /// Training method used by background retrains.
  Method retrain_method = Method::kFmdvVH;
  /// Rows kept per column as the retrain source (training values or the
  /// latest RecordBatch feed). Bounds the lifecycle's memory.
  size_t max_cached_rows = 4096;
  /// Injectable wall clock (Unix milliseconds); defaults to the system
  /// clock. Tests drive expiry deterministically through this.
  std::function<uint64_t()> now_ms;
};

class RuleLifecycle {
 public:
  /// `service` must outlive the lifecycle. The service must be able to
  /// train (hold an index) for Train/retraining to succeed.
  RuleLifecycle(ValidationService* service, RuleLifecycleOptions opts);
  ~RuleLifecycle();  ///< stops the scanner

  RuleLifecycle(const RuleLifecycle&) = delete;
  RuleLifecycle& operator=(const RuleLifecycle&) = delete;

  // ------------------------------------------------------------- training

  /// Trains `name` on the service's engine, installs rule + lifecycle meta
  /// as one generation (UpsertBatch, which keeps the column's retrain
  /// count), and caches the values as the retrain source. `ttl_ms`
  /// overrides options.default_ttl_ms when set.
  Result<ValidationRule> Train(const std::string& name, ColumnView values,
                               Method method = Method::kFmdvVH,
                               std::optional<uint64_t> ttl_ms = std::nullopt);

  // ------------------------------------------------- serving-side signals

  /// Feeds one serving outcome into the violation counter (flagged reports
  /// push a rule toward retraining when violation_threshold is set).
  void RecordOutcome(std::string_view name, bool flagged);

  /// Refreshes the retrain source for `name` from live traffic (keeps the
  /// first max_cached_rows values). Call with batches that validated clean
  /// so retraining tracks the current domain.
  void RecordBatch(std::string_view name, ColumnView values);

  // ------------------------------------------------------- the background

  /// Starts the background scanner thread (idempotent).
  void StartScanner();
  /// Stops and joins the scanner (idempotent; the destructor calls it).
  void StopScanner();

  /// One synchronous freshness pass: finds every stored rule that is
  /// expired (RuleMeta::ExpiredAt) or violation-heavy, retrains each from
  /// its cached source off the serving threads, and installs all successful
  /// retrains as ONE warm-swapped generation. A retrain whose rule was
  /// replaced or removed while it ran is dropped, and the version moves
  /// only when some retrain was installed. Returns the number of rules
  /// installed. The scanner calls this every tick; tests call it directly.
  size_t ScanOnce();

  // ---------------------------------------------------------------- stats

  uint64_t retrains_completed() const;
  uint64_t retrains_failed() const;   ///< training errors during retrain
  uint64_t retrains_skipped() const;  ///< due rules with no cached source
  uint64_t scans() const;             ///< completed ScanOnce passes

  const RuleLifecycleOptions& options() const { return opts_; }
  uint64_t NowMs() const { return opts_.now_ms(); }

 private:
  struct ColumnState {
    std::vector<std::string> cached_rows;  ///< retrain source (bounded)
    uint64_t flagged_since_train = 0;
  };

  /// Copies the first max_cached_rows values of `values` into `state`.
  void CacheRows(ColumnView values, ColumnState* state) const;

  ValidationService* service_;
  RuleLifecycleOptions opts_;

  mutable std::mutex mu_;
  std::map<std::string, ColumnState, std::less<>> columns_;
  uint64_t retrains_completed_ = 0;
  uint64_t retrains_failed_ = 0;
  uint64_t retrains_skipped_ = 0;
  uint64_t scans_ = 0;

  std::mutex scanner_mu_;
  std::condition_variable scanner_cv_;
  std::thread scanner_;
  bool scanner_stop_ = false;
};

}  // namespace av
