// Workload inputs: the seeded enterprise lake and the serving plan derived
// from it (which tables start with rules, which are onboarded by TRAIN,
// each column's training prefix and held-out validate batch, and which
// batches are drifted).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus.h"

namespace avbench {

/// Generates the enterprise-profile lake of `lake_seed` and lays its tables
/// out in an order drawn from `seed` (tables are renamed t0000, t0001, ...
/// in that order, so file order and the indexer's chunk boundaries follow
/// it). Deterministic in both seeds.
av::Corpus MakeLake(uint64_t seed, uint64_t lake_seed, size_t columns);

/// One column's share of the plan.
struct PlanColumn {
  size_t table = 0;
  std::string name;
  std::vector<std::string> train;  ///< first ~10% of rows
  std::vector<std::string> batch;  ///< the held-out ~90%
};

/// One VALIDATE request: the rule `name` judges `values`. A drifted request
/// sends a format sibling's batch under `name`.
struct ValidateOp {
  std::string name;
  const std::vector<std::string>* values = nullptr;
  bool drifted = false;
};

/// One VALIDATE_TABLE request: a table's held-out rows, every column.
struct TableOp {
  std::vector<std::pair<std::string, std::vector<std::string>>> columns;
};

struct Plan {
  std::vector<std::string> table_names;
  std::vector<PlanColumn> columns;
  std::vector<size_t> initial;  ///< columns whose rules are trained in set-up
  std::vector<size_t> onboard;  ///< columns onboarded with TRAIN
  std::vector<ValidateOp> validates;  ///< in the order they are sent
  std::vector<TableOp> tables;        ///< in the order they are sent
  size_t drifted = 0;
};

/// Derives the tables' split and each column's rows from a loaded lake. The
/// split depends on the tables' content only, not on their order.
Plan MakePlan(const av::Corpus& lake);

/// Adds the validate phase to `plan` once the columns with a rule (`ruled`)
/// are known; only those get VALIDATE requests.
void PlanValidates(Plan* plan, const std::vector<std::string>& ruled, uint64_t seed);

}  // namespace avbench
