// ValidationService: the thread-safe, multi-column serving layer of the
// online stage — the shape production deployments of Auto-Validate use
// (recurring pipelines with many named columns, rules persisted between
// runs, data arriving as micro-batches).
//
//   av::ValidationService service(&index, opts);
//   service.TrainAll(columns);                    // fan-out over a pool
//   service.Save("rules.avrs");                   // persist the rule set
//   ...next pipeline run...
//   service.Load("rules.avrs");
//   auto table = service.ValidateAll(todays_table);  // whole-table serving
//   auto report = service.Validate("locale", todays_batch);   // any thread
//
// Concurrency model: the rule store is an immutable snapshot behind a
// shared_ptr. Readers (Validate / ValidateAll / OpenSession /
// OpenTableSession / Find) copy the pointer under a mutex held for that
// copy alone, and then never block; writers (Upsert / UpsertBatch / Remove
// / TrainAll / Load) serialize on a second mutex, derive the next snapshot
// from the current one, and publish it with a bumped version by swapping
// the pointer under the first. The rules live in a PersistentMap
// (common/persistent_map.h), so deriving a snapshot copies only the tree
// path of each rule written, never the whole store: a publish costs
// O(log n) in the number of stored rules. A reader holding a snapshot keeps
// its rules alive across any number of store updates.
//
// Table-level serving: ValidateAll loads ONE snapshot, fans the table's
// columns out over the service's thread pool, and judges every column
// against that single store generation (a report never mixes rules from two
// generations, no matter how writers churn concurrently). The per-column
// reports are byte-identical to single-column Validate calls on the same
// snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/column_view.h"
#include "common/persistent_map.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/auto_validate.h"
#include "core/validator.h"

namespace av {

class TableSession;

/// One named column of a table / feed (training or validation input).
struct NamedColumn {
  std::string name;
  ColumnView values;  ///< borrowed; must outlive the TrainAll/ValidateAll call
};

/// Outcome of validating a whole table against one rule-store generation.
/// Holds the finished per-column reports plus the raw mergeable counts, so
/// row-sharded table runs reduce exactly like ValidationStats does: merge
/// the shard TableReports (associative) and the counts / p-values / flags
/// equal the single-pass table run.
struct TableReport {
  struct ColumnOutcome {
    std::string name;
    /// OK when the snapshot held a rule for the column; NotFound otherwise
    /// (the column was scanned but is unmonitored).
    Status status;
    /// Finished report (homogeneity test on the merged counts). Meaningful
    /// only when status.ok().
    ValidationReport report;
    /// Raw mergeable counts behind `report` (the state Merge reduces over).
    ValidationStats stats;
    /// The rule the column was judged by, owned by the snapshot generation
    /// (kept alive past any store update). Null when status is NotFound.
    std::shared_ptr<const ValidationRule> rule;
  };

  /// Rule-store generation every column of this report was judged by.
  uint64_t store_version = 0;
  /// Sum of scanned rows (weighted values) across the validated columns.
  uint64_t rows_scanned = 0;
  size_t columns_total = 0;      ///< columns submitted
  size_t columns_validated = 0;  ///< columns with a stored rule
  size_t columns_flagged = 0;    ///< validated columns reported as issues
  /// Per-column outcomes, in submission order (first-fed order for
  /// TableSession reports).
  std::vector<ColumnOutcome> columns;

  bool any_flagged() const { return columns_flagged > 0; }
  /// Outcome for `name`, or null. Linear scan (tables are narrow).
  const ColumnOutcome* Find(std::string_view name) const;

  /// Folds another shard of the same table run into this report: outcomes
  /// are matched by (name, occurrence index) — plain name matching for the
  /// usual unique-name table, and correct shard-reduction for tables that
  /// repeat a column name — their stats merged (associatively) and the
  /// homogeneity test re-run on the merged counts; entries only in `other`
  /// are appended. Both operands must come from the same store generation:
  /// a store_version mismatch aborts (enforced in all build modes).
  /// Self-merge is well-defined (doubles counts), mirroring
  /// ValidationStats::MergeFrom.
  void MergeFrom(const TableReport& other, size_t max_samples);

  /// Associative two-sided merge (see MergeFrom).
  static TableReport Merge(const TableReport& a, const TableReport& b,
                           size_t max_samples);

 private:
  friend class ValidationService;
  friend class TableSession;
  /// Recomputes rows_scanned / columns_* from `columns`.
  void RecomputeRollups();
};

/// Lifecycle metadata of one stored rule: when it was trained and how long
/// it stays fresh. Carried through AVRULESET2 save/load (a meta section
/// after the rule lines; absent entries default-construct), consumed by
/// RuleLifecycle's background retrain scanner. A rule with no meta entry
/// never expires.
struct RuleMeta {
  /// Wall-clock training time (Unix milliseconds). 0 = unknown provenance.
  uint64_t trained_at_ms = 0;
  /// Time-to-live after `trained_at_ms`; 0 = the rule never expires.
  uint64_t ttl_ms = 0;
  /// Completed background retrains of this rule (monotone across swaps).
  uint64_t retrains = 0;

  /// True when the TTL has elapsed at wall-clock `now_ms` (never for
  /// ttl_ms == 0 or unknown training time).
  bool ExpiredAt(uint64_t now_ms) const {
    return ttl_ms != 0 && trained_at_ms != 0 &&
           now_ms >= trained_at_ms + ttl_ms;
  }

  bool operator==(const RuleMeta&) const = default;
};

class ValidationService {
 public:
  /// Backward-compatible alias (NamedColumn was formerly a nested type).
  using NamedColumn = av::NamedColumn;

  /// Per-column outcome of a TrainAll batch.
  struct TrainOutcome {
    std::string name;
    Status status;  ///< OK when a rule was trained and stored
  };

  /// One stored rule and its lifecycle meta.
  struct RuleEntry {
    std::shared_ptr<const ValidationRule> rule;
    /// nullopt: no meta (unknown provenance, never expires). Writers store
    /// an all-zero RuleMeta as nullopt; only a loaded file's explicit
    /// all-zero AVRULEMETA1 line is kept engaged, so it saves back as it
    /// was read.
    std::optional<RuleMeta> meta;
  };

  /// An immutable, versioned snapshot of the rule store. Copying one copies
  /// the map's root pointer; the entries are shared.
  struct RuleSet {
    uint64_t version = 0;
    /// Name order, so iteration (and Save) is deterministic; transparent
    /// comparator, so lookups by string_view allocate nothing.
    PersistentMap<std::string, RuleEntry> rules;
  };

  /// One entry of an UpsertBatch generation install.
  struct RuleUpdate {
    std::string name;
    ValidationRule rule;
    RuleMeta meta;
    /// When set, the update installs only if the store still holds exactly
    /// this rule under `name` (a compare-and-swap); an update whose rule was
    /// replaced or removed since is skipped. Null installs unconditionally.
    std::shared_ptr<const ValidationRule> if_current = nullptr;
  };

  /// `index` must outlive the service; it may be null for a validate-only
  /// service (training then fails with InvalidArgument). `num_train_threads`
  /// sizes the TrainAll pool (0 = hardware concurrency).
  ValidationService(const PatternIndex* index, AutoValidateOptions opts,
                    size_t num_train_threads = 0);

  // ------------------------------------------------------------- training

  /// Trains a rule for `name` and stores it (replacing any previous
  /// version). Returns the trained rule.
  Result<ValidationRule> Train(const std::string& name, ColumnView values,
                               Method method = Method::kFmdvVH);

  /// Trains every column concurrently on the pool, then installs all
  /// successful rules as ONE store update (a single version bump, so
  /// readers see either the old or the complete new generation). Columns
  /// that fail to train keep any previously stored rule.
  std::vector<TrainOutcome> TrainAll(std::span<const NamedColumn> columns,
                                     Method method = Method::kFmdvVH);

  // -------------------------------------------------------------- serving

  /// Validates a batch against the stored rule for `name`. A writer delays
  /// it by one pointer swap at most; NotFound when no rule is stored for
  /// the column.
  Result<ValidationReport> Validate(std::string_view name,
                                    ColumnView values) const;

  /// Validates a whole table in one call: loads ONE rule-store snapshot,
  /// fans the columns out over the service's thread pool and judges each
  /// column by that snapshot's rule (ValidateColumn). Per-column reports
  /// are byte-identical to single-column Validate calls against the same
  /// snapshot; columns without a stored rule get a NotFound outcome.
  /// Safe to call from any thread, concurrently with writers.
  TableReport ValidateAll(std::span<const NamedColumn> columns) const;

  /// Opens a streaming session on the stored rule for `name` (micro-batch
  /// accumulation; see ValidationSession). The session keeps the rule alive
  /// even if the store is updated concurrently.
  Result<ValidationSession> OpenSession(std::string_view name) const;

  /// Opens a streaming table session pinned to the current snapshot: every
  /// column fed later — even one first seen many micro-batches in — is
  /// judged by this one store generation. See TableSession.
  TableSession OpenTableSession() const;

  // ----------------------------------------------------------- rule store

  /// Installs (or replaces) a rule. Bumps the store version. Any lifecycle
  /// meta previously stored for `name` is reset (unknown provenance) — use
  /// UpsertBatch to install a rule together with its meta.
  void Upsert(const std::string& name, ValidationRule rule);

  /// Warm swap: installs every update — rules AND lifecycle meta — as ONE
  /// store generation (a single version bump). Readers and
  /// already-open sessions observe either the previous snapshot or the
  /// complete new one, never a mix; this is the install path background
  /// retraining uses (RuleLifecycle) and the same machinery TrainAll's
  /// batch install rides. A later duplicate name within one batch wins, and
  /// its `if_current` is checked against the store as the earlier updates
  /// left it. An update never lowers the `retrains` of the entry it
  /// replaces. Returns, per update, whether it was installed; the version is
  /// bumped only when at least one was (so never on an empty batch).
  std::vector<bool> UpsertBatch(std::vector<RuleUpdate> updates);

  /// Removes a rule (and its lifecycle meta); returns false when absent
  /// (version bumped only on actual removal).
  bool Remove(std::string_view name);

  /// The stored rule for `name`, or null. The shared_ptr keeps the rule
  /// alive independently of later store updates.
  std::shared_ptr<const ValidationRule> Find(std::string_view name) const;

  /// Lifecycle meta of the stored rule for `name` (default-constructed
  /// when the rule exists but carries no meta); nullopt when no rule is
  /// stored under `name`.
  std::optional<RuleMeta> FindMeta(std::string_view name) const;

  /// Snapshot of the whole rule set (a pointer copy under head_mu_).
  std::shared_ptr<const RuleSet> Snapshot() const;

  size_t size() const { return Snapshot()->rules.size(); }
  uint64_t version() const { return Snapshot()->version; }

  // ---------------------------------------------------------- persistence

  /// Writes the whole rule set to `path`: SerializeRuleSet's bytes, landed
  /// crash-safe — temp file + checksum trailer + fsync + atomic rename, so
  /// a killed save never leaves a torn file and never destroys the
  /// previously saved rule set.
  Status Save(const std::string& path) const;

  /// The text payload of a rule-set file, format AVRULESET2 (Save appends
  /// the checksum trailer). Deterministic: rules in name order, one
  /// line-serialized rule per line, then one AVRULEMETA1 line per rule with
  /// lifecycle meta. A set with no meta produces bytes identical to the
  /// pre-lifecycle format. The bytes depend only on the set's content and
  /// version, never on the order its rules were stored in.
  static std::string SerializeRuleSet(const RuleSet& set);

  /// Replaces the rule store with the set loaded from `path` (adopting the
  /// file's version). Reads AVRULESET2 (trailer-verified) and, for
  /// compatibility, untrailed AVRULESET1 files. Rejects malformed files
  /// without touching the store.
  Status Load(const std::string& path);

  /// Load from an in-memory file image (the fuzz-harness entry point; Load
  /// is a file slurp plus this).
  Status LoadFromBuffer(std::string_view data);

  /// Pure parse of a rule-set file image into a RuleSet — no service
  /// instance, no store mutation (fuzzing, tooling). Same validation and
  /// version handling as Load. The entries are sorted and bulk-built into
  /// the map in one pass.
  static Result<RuleSet> ParseRuleSetBuffer(std::string_view data);

  const AutoValidateOptions& options() const { return engine_.options(); }
  const AutoValidate& engine() const { return engine_; }

 private:
  /// Copy-on-write helper: copies the current snapshot (its map's root
  /// pointer), applies `mutate` (returning whether anything changed; the
  /// map's writes copy only the paths they touch), publishes with
  /// version + 1.
  template <typename Mutate>
  bool Update(const Mutate& mutate);
  /// Swaps the published snapshot for `next`.
  void Publish(std::shared_ptr<const RuleSet> next);

  AutoValidate engine_;
  mutable ThreadPool pool_;

  /// Guards only the copy or swap of head_. (libstdc++'s
  /// std::atomic<std::shared_ptr> is a lock-bit spinlock, not lock-free,
  /// and ThreadSanitizer reports its load and swap as a race.)
  mutable std::mutex head_mu_;
  std::shared_ptr<const RuleSet> head_;
  std::mutex write_mu_;  ///< serializes writers; readers never take it
};

/// Streaming validation of a whole table arriving as micro-batches: one
/// ValidationSession per column, keyed by name, all pinned to the single
/// rule-store snapshot captured at OpenTableSession time. Finish() runs
/// every column's homogeneity test on its merged counts and assembles a
/// TableReport whose store_version is the captured generation. Not
/// thread-safe (one session per table stream); movable.
class TableSession {
 public:
  /// Feeds one micro-batch of one column. Columns first seen mid-stream are
  /// admitted (a session is opened on the captured snapshot's rule);
  /// columns without a rule in the snapshot accumulate a NotFound outcome.
  /// Sessions are keyed by name: feeding two columns under one name merges
  /// them into a single stream (unlike ValidateAll, which reports each
  /// duplicate-name entry separately).
  void Feed(std::string_view name, ColumnView batch);

  /// Feeds one micro-batch of the whole table (Feed per named column).
  void Feed(std::span<const NamedColumn> batch);

  /// Rule-store generation this session is pinned to.
  uint64_t store_version() const { return snapshot_->version; }

  /// Per-column homogeneity tests on the merged counts. The report equals
  /// ValidateAll on the concatenated batches.
  TableReport Finish() const;

 private:
  friend class ValidationService;
  TableSession(std::shared_ptr<const ValidationService::RuleSet> snapshot,
               size_t max_samples);

  std::shared_ptr<const ValidationService::RuleSet> snapshot_;
  size_t max_samples_;
  /// First-fed order of column names (the report's column order).
  std::vector<std::string> order_;
  /// nullopt marks a fed column with no rule in the snapshot.
  std::map<std::string, std::optional<ValidationSession>, std::less<>>
      sessions_;
};

}  // namespace av
