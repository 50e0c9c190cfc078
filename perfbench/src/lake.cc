#include "lake.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common/hash.h"
#include "common/rng.h"
#include "lakegen/lakegen.h"

namespace avbench {

namespace {

template <typename T>
void Shuffle(std::vector<T>* v, av::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

av::Corpus MakeLake(uint64_t seed, uint64_t lake_seed, size_t columns) {
  const av::Corpus generated = av::GenerateLake(av::EnterpriseLakeConfig(columns, lake_seed));
  std::vector<size_t> order(generated.num_tables());
  for (size_t t = 0; t < order.size(); ++t) order[t] = t;
  av::Rng rng(seed);
  Shuffle(&order, &rng);
  av::Corpus lake;
  char name[32];
  for (size_t rank = 0; rank < order.size(); ++rank) {
    av::Table table = generated.tables()[order[rank]];
    std::snprintf(name, sizeof(name), "t%04zu", rank);
    table.name = name;
    for (av::Column& col : table.columns) col.table_name = name;
    lake.AddTable(std::move(table));
  }
  return lake;
}

Plan MakePlan(const av::Corpus& lake) {
  Plan plan;
  // About half of the tables already have rules when the server restarts;
  // the rest are onboarded over the wire. The split follows a hash of each
  // table's first (lake-unique) column name, so every layout of one lake
  // trains the same columns.
  std::vector<bool> initial_table(lake.num_tables(), false);
  for (size_t t = 0; t < lake.num_tables(); ++t) {
    const av::Table& table = lake.tables()[t];
    initial_table[t] = !table.columns.empty() && (av::Fnv1a64(table.columns[0].name) & 1) == 0;
  }

  for (size_t t = 0; t < lake.num_tables(); ++t) {
    const av::Table& table = lake.tables()[t];
    plan.table_names.push_back(table.name);
    for (const av::Column& col : table.columns) {
      PlanColumn pc;
      pc.table = t;
      pc.name = col.name;
      const size_t n = col.values.size();
      const size_t k = std::min(n, std::max<size_t>(2, (n + 9) / 10));
      pc.train.assign(col.values.begin(), col.values.begin() + static_cast<long>(k));
      pc.batch.assign(col.values.begin() + static_cast<long>(k), col.values.end());
      (initial_table[t] ? plan.initial : plan.onboard).push_back(plan.columns.size());
      plan.columns.push_back(std::move(pc));
    }
  }
  return plan;
}

void PlanValidates(Plan* plan, const std::vector<std::string>& ruled, uint64_t seed) {
  av::Rng rng(seed ^ 0xba7c4e5ULL);
  const std::set<std::string> has_rule(ruled.begin(), ruled.end());
  for (size_t c = 0; c < plan->columns.size(); ++c) {
    const PlanColumn& pc = plan->columns[c];
    if (has_rule.count(pc.name) && !pc.batch.empty()) {
      plan->validates.push_back({pc.name, &pc.batch, false});
    }
  }
  // Drift candidates: each format-sibling pair (iso_date_* / compact_date_*
  // of one table, the same dates in two formats) sent crosswise, so the
  // rule of one judges the other's batch.
  std::vector<ValidateOp> drift;
  std::map<size_t, std::vector<size_t>> iso, compact;
  for (size_t c = 0; c < plan->columns.size(); ++c) {
    const PlanColumn& pc = plan->columns[c];
    if (StartsWith(pc.name, "iso_date_")) iso[pc.table].push_back(c);
    if (StartsWith(pc.name, "compact_date_")) compact[pc.table].push_back(c);
  }
  for (const auto& [table, isos] : iso) {
    const auto it = compact.find(table);
    if (it == compact.end()) continue;
    for (size_t a : isos) {
      for (size_t b : it->second) {
        const PlanColumn& ca = plan->columns[a];
        const PlanColumn& cb = plan->columns[b];
        if (has_rule.count(ca.name) && !cb.batch.empty()) {
          drift.push_back({ca.name, &cb.batch, true});
        }
        if (has_rule.count(cb.name) && !ca.batch.empty()) {
          drift.push_back({cb.name, &ca.batch, true});
        }
      }
    }
  }
  // About one VALIDATE batch in ten is drifted.
  Shuffle(&drift, &rng);
  const size_t want = (plan->validates.size() + 4) / 9;
  drift.resize(std::min(drift.size(), want));
  plan->drifted = drift.size();
  for (ValidateOp& op : drift) plan->validates.push_back(std::move(op));

  for (size_t t = 0; t < plan->table_names.size(); ++t) {
    TableOp op;
    for (const PlanColumn& pc : plan->columns) {
      if (pc.table == t) op.columns.emplace_back(pc.name, pc.batch);
    }
    if (!op.columns.empty() && !op.columns.front().second.empty()) {
      plan->tables.push_back(std::move(op));
    }
  }
  Shuffle(&plan->validates, &rng);
  Shuffle(&plan->tables, &rng);
}

}  // namespace avbench
