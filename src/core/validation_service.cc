#include "core/validation_service.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/durable_file.h"
#include "common/strings.h"

namespace av {

namespace {

/// Current format: checksum-trailed, crash-safe writes (docs/FILE_FORMATS.md).
constexpr char kRuleSetMagic[] = "AVRULESET2";
/// Previous format, still readable (identical text payload, no trailer).
constexpr char kRuleSetMagicV1[] = "AVRULESET1";
/// Line magic of the optional lifecycle-meta section (after the rules).
constexpr char kRuleMetaMagic[] = "AVRULEMETA1";

/// Position of the first unescaped '|', or npos.
size_t FindUnescapedSep(std::string_view s) {
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;  // skip escaped char
    } else if (s[i] == '|') {
      return i;
    }
  }
  return std::string_view::npos;
}

/// Strict "<key>=<decimal>" parse of one header field (same digits-only
/// rules as the rule line format).
bool ParseHeaderU64(const std::string& field, std::string_view key,
                    uint64_t* out) {
  if (field.size() <= key.size() + 1 ||
      std::string_view(field).substr(0, key.size()) != key ||
      field[key.size()] != '=') {
    return false;
  }
  return ParseRuleU64(field.substr(key.size() + 1), out);
}

}  // namespace

ValidationService::ValidationService(const PatternIndex* index,
                                     AutoValidateOptions opts,
                                     size_t num_train_threads)
    : engine_(index, std::move(opts)),
      pool_(num_train_threads),
      head_(std::make_shared<const RuleSet>()) {}

void ValidationService::Publish(std::shared_ptr<const RuleSet> next) {
  {
    std::lock_guard<std::mutex> lock(head_mu_);
    head_.swap(next);
  }
  // `next` now holds the previous generation; a last reference drops here,
  // outside the lock.
}

template <typename Mutate>
bool ValidationService::Update(const Mutate& mutate) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const std::shared_ptr<const RuleSet> cur = Snapshot();
  auto next = std::make_shared<RuleSet>(*cur);
  if (!mutate(next.get())) return false;
  next->version = cur->version + 1;
  Publish(std::move(next));
  return true;
}

std::shared_ptr<const ValidationService::RuleSet> ValidationService::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(head_mu_);
  return head_;
}

Result<ValidationRule> ValidationService::Train(const std::string& name,
                                                ColumnView values,
                                                Method method) {
  if (engine_.index() == nullptr) {
    return Status::InvalidArgument(
        "validate-only service (no index): cannot train");
  }
  auto rule = engine_.Train(values, method);
  if (!rule.ok()) return rule.status();
  Upsert(name, rule.value());
  return rule;
}

std::vector<ValidationService::TrainOutcome> ValidationService::TrainAll(
    std::span<const NamedColumn> columns, Method method) {
  std::vector<TrainOutcome> outcomes(columns.size());
  if (engine_.index() == nullptr) {
    for (size_t i = 0; i < columns.size(); ++i) {
      outcomes[i] = {columns[i].name,
                     Status::InvalidArgument(
                         "validate-only service (no index): cannot train")};
    }
    return outcomes;
  }

  // Fan out: each task writes only its own slot, so no synchronization
  // beyond the pool's completion barrier is needed.
  std::vector<std::shared_ptr<const ValidationRule>> trained(columns.size());
  pool_.ParallelFor(columns.size(), [&](size_t i) {
    auto rule = engine_.Train(columns[i].values, method);
    outcomes[i].name = columns[i].name;
    outcomes[i].status = rule.status();
    if (rule.ok()) {
      trained[i] =
          std::make_shared<const ValidationRule>(std::move(rule).value());
      outcomes[i].status = Status::OK();
    }
  });

  // Install the whole generation as one update: readers never observe a
  // half-trained feed.
  Update([&](RuleSet* next) {
    bool changed = false;
    for (size_t i = 0; i < columns.size(); ++i) {
      if (trained[i] == nullptr) continue;
      // Fresh training: no lifecycle meta (the service keeps no clock —
      // RuleLifecycle stamps meta through UpsertBatch).
      next->rules.Set(columns[i].name, {std::move(trained[i]), std::nullopt});
      changed = true;
    }
    return changed;
  });
  return outcomes;
}

Result<ValidationReport> ValidationService::Validate(std::string_view name,
                                                     ColumnView values) const {
  const auto rule = Find(name);
  if (rule == nullptr) {
    return Status::NotFound("no rule for column '" + std::string(name) + "'");
  }
  return ValidateColumn(*rule, values, options().max_sample_violations);
}

TableReport ValidationService::ValidateAll(
    std::span<const NamedColumn> columns) const {
  // ONE snapshot for the whole table: every column is judged by the same
  // store generation, regardless of concurrent writers.
  const std::shared_ptr<const RuleSet> snapshot = Snapshot();
  const size_t max_samples = options().max_sample_violations;

  TableReport table;
  table.store_version = snapshot->version;
  table.columns.resize(columns.size());
  // Fan out over the pool; each task touches only its own slot, so the only
  // synchronization is the pool's completion barrier.
  pool_.ParallelFor(columns.size(), [&](size_t i) {
    TableReport::ColumnOutcome& out = table.columns[i];
    out.name = columns[i].name;
    const RuleEntry* entry = snapshot->rules.Find(out.name);
    if (entry == nullptr) {
      out.status =
          Status::NotFound("no rule for column '" + out.name + "'");
      return;
    }
    out.rule = entry->rule;
    out.report = ValidateColumn(*out.rule, columns[i].values, max_samples,
                                &out.stats);
    out.status = Status::OK();
  });
  table.RecomputeRollups();
  return table;
}

Result<ValidationSession> ValidationService::OpenSession(
    std::string_view name) const {
  auto rule = Find(name);
  if (rule == nullptr) {
    return Status::NotFound("no rule for column '" + std::string(name) + "'");
  }
  return ValidationSession(std::move(rule), options().max_sample_violations);
}

TableSession ValidationService::OpenTableSession() const {
  return TableSession(Snapshot(), options().max_sample_violations);
}

// ---------------------------------------------------------------------------
// TableReport

const TableReport::ColumnOutcome* TableReport::Find(
    std::string_view name) const {
  for (const ColumnOutcome& c : columns) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

void TableReport::RecomputeRollups() {
  rows_scanned = 0;
  columns_total = columns.size();
  columns_validated = 0;
  columns_flagged = 0;
  for (const ColumnOutcome& c : columns) {
    rows_scanned += c.stats.total;
    if (!c.status.ok()) continue;
    ++columns_validated;
    if (c.report.flagged) ++columns_flagged;
  }
}

void TableReport::MergeFrom(const TableReport& other, size_t max_samples) {
  // Merging shards judged by different store generations would sum counts
  // gathered under different rules and re-test them against whichever rule
  // this operand holds — a silently wrong verdict. Enforced in all build
  // modes (like ColumnView's weight check): fail fast on the misuse.
  if (store_version != other.store_version) {
    std::fprintf(stderr,
                 "TableReport::MergeFrom: cannot merge store generation "
                 "%llu with %llu (shards of one table run must be validated "
                 "against one snapshot)\n",
                 static_cast<unsigned long long>(store_version),
                 static_cast<unsigned long long>(other.store_version));
    std::abort();
  }
  // Outcomes are matched by (name, occurrence index): the k-th entry named
  // N in `other` merges into the k-th entry named N here. For the usual
  // unique-name table this is plain name matching; it also keeps tables
  // that legitimately repeat a column name (ValidateAll supports them)
  // shard-reducing without cross-feeding one entry's stats into another.
  // Index-based with the source size snapshotted, for the same aliasing
  // reason as ValidationStats::MergeFrom: self-merge must not walk its own
  // appends (here none occur — every (name, occurrence) matches itself —
  // but appends of entries only in `other` would otherwise invalidate
  // range-for iterators).
  const size_t mine_original = columns.size();
  const size_t n = other.columns.size();
  std::map<std::string, size_t, std::less<>> occurrence;
  for (size_t i = 0; i < n; ++i) {
    const size_t occ = occurrence[other.columns[i].name]++;
    ColumnOutcome* mine = nullptr;
    for (size_t j = 0, seen = 0; j < mine_original; ++j) {
      if (columns[j].name != other.columns[i].name) continue;
      if (seen++ == occ) {
        mine = &columns[j];
        break;
      }
    }
    if (mine == nullptr) {
      columns.push_back(other.columns[i]);
      continue;
    }
    const ColumnOutcome& theirs = other.columns[i];
    if (mine->rule == nullptr && theirs.rule != nullptr) {
      // Cannot happen for shards of one generation; adopt the rule-bearing
      // side so the merge degrades gracefully anyway.
      mine->rule = theirs.rule;
      mine->status = theirs.status;
    }
    mine->stats.MergeFrom(theirs.stats, max_samples);
    if (mine->rule != nullptr) {
      mine->report = FinishValidation(*mine->rule, mine->stats);
    }
  }
  RecomputeRollups();
}

TableReport TableReport::Merge(const TableReport& a, const TableReport& b,
                               size_t max_samples) {
  TableReport out = a;
  out.MergeFrom(b, max_samples);
  return out;
}

// ---------------------------------------------------------------------------
// TableSession

TableSession::TableSession(
    std::shared_ptr<const ValidationService::RuleSet> snapshot,
    size_t max_samples)
    : snapshot_(std::move(snapshot)), max_samples_(max_samples) {}

void TableSession::Feed(std::string_view name, ColumnView batch) {
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    // First sight of this column: open its session on the pinned snapshot.
    std::optional<ValidationSession> session;
    if (const auto* entry = snapshot_->rules.Find(name); entry != nullptr) {
      session.emplace(entry->rule, max_samples_);
    }
    it = sessions_.emplace(std::string(name), std::move(session)).first;
    order_.push_back(it->first);
  }
  if (it->second.has_value()) {
    it->second->Feed(batch);
  }
}

void TableSession::Feed(std::span<const NamedColumn> batch) {
  for (const NamedColumn& column : batch) Feed(column.name, column.values);
}

TableReport TableSession::Finish() const {
  TableReport table;
  table.store_version = snapshot_->version;
  table.columns.reserve(order_.size());
  for (const std::string& name : order_) {
    TableReport::ColumnOutcome out;
    out.name = name;
    const auto& session = sessions_.find(name)->second;
    if (!session.has_value()) {
      out.status = Status::NotFound("no rule for column '" + name + "'");
    } else {
      out.rule = session->shared_rule();
      out.stats = session->stats();
      out.report = session->Finish();
      out.status = Status::OK();
    }
    table.columns.push_back(std::move(out));
  }
  table.RecomputeRollups();
  return table;
}

void ValidationService::Upsert(const std::string& name, ValidationRule rule) {
  auto shared = std::make_shared<const ValidationRule>(std::move(rule));
  Update([&](RuleSet* next) {
    // A manual upsert has unknown provenance: stale lifecycle meta (old
    // training time / TTL) must not carry over to the new rule.
    next->rules.Set(name, {std::move(shared), std::nullopt});
    return true;
  });
}

std::vector<bool> ValidationService::UpsertBatch(
    std::vector<RuleUpdate> updates) {
  std::vector<bool> installed(updates.size(), false);
  Update([&](RuleSet* next) {
    bool changed = false;
    for (size_t i = 0; i < updates.size(); ++i) {
      RuleUpdate& u = updates[i];
      const RuleEntry* entry = next->rules.Find(u.name);
      if (u.if_current != nullptr &&
          (entry == nullptr || entry->rule != u.if_current)) {
        continue;
      }
      // Retrain counts are monotone across swaps: an update that read an
      // older count (a TRAIN racing a background retrain) keeps the newer.
      if (entry != nullptr && entry->meta.has_value()) {
        u.meta.retrains = std::max(u.meta.retrains, entry->meta->retrains);
      }
      auto rule = std::make_shared<const ValidationRule>(std::move(u.rule));
      std::optional<RuleMeta> meta;
      if (u.meta != RuleMeta{}) meta = u.meta;
      next->rules.Set(std::move(u.name), {std::move(rule), meta});
      installed[i] = true;
      changed = true;
    }
    return changed;
  });
  return installed;
}

bool ValidationService::Remove(std::string_view name) {
  return Update([&](RuleSet* next) { return next->rules.Erase(name); });
}

std::shared_ptr<const ValidationRule> ValidationService::Find(
    std::string_view name) const {
  const auto snapshot = Snapshot();
  const RuleEntry* entry = snapshot->rules.Find(name);
  return entry == nullptr ? nullptr : entry->rule;
}

std::optional<RuleMeta> ValidationService::FindMeta(
    std::string_view name) const {
  const auto snapshot = Snapshot();
  const RuleEntry* entry = snapshot->rules.Find(name);
  if (entry == nullptr) return std::nullopt;
  return entry->meta.value_or(RuleMeta{});
}

std::string ValidationService::SerializeRuleSet(const RuleSet& set) {
  size_t meta_count = 0;
  for (const auto& [name, entry] : set.rules) {
    if (entry.meta.has_value()) ++meta_count;
  }
  std::ostringstream text;
  text << kRuleSetMagic << "|version=" << set.version
       << "|count=" << set.rules.size();
  // The meta header field (and section) is emitted only when some rule
  // carries lifecycle meta, so a set without TTLs produces bytes identical
  // to the pre-lifecycle AVRULESET2 format.
  if (meta_count != 0) text << "|meta=" << meta_count;
  text << "\n";
  for (const auto& [name, entry] : set.rules) {
    text << EscapeRuleField(name) << "|" << entry.rule->Serialize() << "\n";
  }
  for (const auto& [name, entry] : set.rules) {
    if (!entry.meta.has_value()) continue;
    const RuleMeta& meta = *entry.meta;
    text << EscapeRuleField(name) << "|" << kRuleMetaMagic
         << "|trained_at_ms=" << meta.trained_at_ms
         << "|ttl_ms=" << meta.ttl_ms << "|retrains=" << meta.retrains
         << "\n";
  }
  return std::move(text).str();
}

Status ValidationService::Save(const std::string& path) const {
  // Crash-safe save: serialize aside, land via temp file + checksum trailer
  // + fsync + atomic rename. The previous rule-set file is untouched until
  // the new one is fully durable — a killed save can no longer destroy the
  // last good generation (the old code opened the target with trunc).
  const std::string text = SerializeRuleSet(*Snapshot());
  DurableFileWriter out;
  AV_RETURN_NOT_OK(out.Open(path));
  AV_RETURN_NOT_OK(out.Append(text));
  return out.Commit();
}

Result<ValidationService::RuleSet> ValidationService::ParseRuleSetBuffer(
    std::string_view data) {
  std::string_view payload = data;
  const std::string_view magic_v2(kRuleSetMagic);
  const std::string_view magic_v1(kRuleSetMagicV1);
  if (data.substr(0, magic_v2.size()) == magic_v2) {
    // AVRULESET2: the binary trailer covers the whole text payload; a torn
    // or spliced file fails here before any rule line is parsed.
    auto len = VerifyTrailer(data);
    if (!len.ok()) return len.status();
    payload = data.substr(0, static_cast<size_t>(*len));
  } else if (data.substr(0, magic_v1.size()) != magic_v1) {
    return Status::Corruption("not a rule-set file (bad magic)");
  }

  std::istringstream in{std::string(payload)};
  std::string header;
  if (!std::getline(in, header)) {
    return Status::Corruption("empty rule-set file");
  }
  // Header: AVRULESET<v>|version=<v>|count=<n>[|meta=<m>]
  uint64_t version = 0;
  uint64_t count = 0;
  uint64_t meta_count = 0;
  {
    std::istringstream hs(header);
    std::string magic, vfield, cfield;
    if (!std::getline(hs, magic, '|') ||
        (magic != kRuleSetMagic && magic != kRuleSetMagicV1)) {
      return Status::Corruption("not a rule-set file (bad magic)");
    }
    if (!std::getline(hs, vfield, '|') ||
        !ParseHeaderU64(vfield, "version", &version) ||
        !std::getline(hs, cfield, '|') ||
        !ParseHeaderU64(cfield, "count", &count)) {
      return Status::Corruption("malformed rule-set header: " + header);
    }
    std::string mfield;
    if (std::getline(hs, mfield, '|')) {
      std::string trailing;
      if (!ParseHeaderU64(mfield, "meta", &meta_count) ||
          meta_count > count || std::getline(hs, trailing, '|')) {
        return Status::Corruption("malformed rule-set header: " + header);
      }
    }
  }

  // Entries are gathered, sorted by name (a saved file already is) and
  // bulk-built into the map: no path copy per line.
  using Item = std::pair<std::string, RuleEntry>;
  const auto by_name = [](const Item& a, const Item& b) {
    return a.first < b.first;
  };
  std::vector<Item> items;
  // Every rule line takes at least two bytes, so a forged count cannot
  // reserve more than the payload could hold.
  items.reserve(
      static_cast<size_t>(std::min<uint64_t>(count, payload.size() / 2)));
  std::string line;
  for (uint64_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      return Status::Corruption(
          StrFormat("rule-set truncated: %llu of %llu rules",
                    static_cast<unsigned long long>(i),
                    static_cast<unsigned long long>(count)));
    }
    const size_t sep = FindUnescapedSep(line);
    if (sep == std::string_view::npos) {
      return Status::Corruption("malformed rule-set line: " + line);
    }
    std::string name = UnescapeRuleField(std::string_view(line).substr(0, sep));
    if (name.empty()) {
      return Status::Corruption("rule-set entry with empty column name");
    }
    auto rule =
        ValidationRule::Deserialize(std::string_view(line).substr(sep + 1));
    if (!rule.ok()) return rule.status();
    items.emplace_back(std::move(name),
                       RuleEntry{std::make_shared<const ValidationRule>(
                                     std::move(rule).value()),
                                 std::nullopt});
  }
  if (!std::is_sorted(items.begin(), items.end(), by_name)) {
    std::sort(items.begin(), items.end(), by_name);
  }
  if (std::adjacent_find(items.begin(), items.end(),
                         [](const Item& a, const Item& b) {
                           return a.first == b.first;
                         }) != items.end()) {
    return Status::Corruption("duplicate rule-set entry");
  }
  // Optional lifecycle-meta section: one AVRULEMETA1 line per entry, each
  // naming a rule parsed above. Strict: fixed field order, digits-only
  // values, no duplicates or orphans.
  for (uint64_t i = 0; i < meta_count; ++i) {
    if (!std::getline(in, line)) {
      return Status::Corruption(
          StrFormat("rule-set meta truncated: %llu of %llu entries",
                    static_cast<unsigned long long>(i),
                    static_cast<unsigned long long>(meta_count)));
    }
    const size_t sep = FindUnescapedSep(line);
    if (sep == std::string_view::npos) {
      return Status::Corruption("malformed rule-set meta line: " + line);
    }
    std::string name = UnescapeRuleField(std::string_view(line).substr(0, sep));
    const auto it = std::lower_bound(
        items.begin(), items.end(), name,
        [](const Item& item, const std::string& n) { return item.first < n; });
    if (it == items.end() || it->first != name) {
      return Status::Corruption("rule-set meta for unknown rule '" + name +
                                "'");
    }
    std::istringstream ms{line.substr(sep + 1)};
    std::string magic, t_field, l_field, r_field;
    RuleMeta meta;
    if (!std::getline(ms, magic, '|') || magic != kRuleMetaMagic ||
        !std::getline(ms, t_field, '|') ||
        !ParseHeaderU64(t_field, "trained_at_ms", &meta.trained_at_ms) ||
        !std::getline(ms, l_field, '|') ||
        !ParseHeaderU64(l_field, "ttl_ms", &meta.ttl_ms) ||
        !std::getline(ms, r_field, '|') ||
        !ParseHeaderU64(r_field, "retrains", &meta.retrains) ||
        std::getline(ms, magic, '|')) {
      return Status::Corruption("malformed rule-set meta line: " + line);
    }
    if (it->second.meta.has_value()) {
      return Status::Corruption("duplicate rule-set meta entry");
    }
    it->second.meta = meta;
  }
  RuleSet set;
  set.version = version;
  set.rules =
      PersistentMap<std::string, RuleEntry>::FromSorted(std::move(items));
  return set;
}

Status ValidationService::LoadFromBuffer(std::string_view data) {
  auto set = ParseRuleSetBuffer(data);
  if (!set.ok()) return set.status();

  // Publish the loaded generation, adopting the file's version.
  std::lock_guard<std::mutex> lock(write_mu_);
  Publish(std::make_shared<const RuleSet>(std::move(set).value()));
  return Status::OK();
}

Status ValidationService::Load(const std::string& path) {
  auto data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  const Status st = LoadFromBuffer(*data);
  if (!st.ok()) return Status(st.code(), st.message() + " in " + path);
  return Status::OK();
}

}  // namespace av
