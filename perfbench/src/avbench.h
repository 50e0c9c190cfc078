// Subcommands of avbench and the pieces they share.
#pragma once

#include <string>

#include "common/status.h"
#include "index/indexer.h"
#include "index/pattern_index.h"
#include "lake.h"
#include "util.h"

namespace avbench {

/// Prints `msg` to stderr and returns the failing exit code.
int Fail(const std::string& msg);

/// The indexer configuration every workload uses: CSV lake, explicit
/// thread count, and with a budget the strict out-of-core path.
av::IndexerConfig IndexConfig(size_t threads, uint64_t budget_bytes,
                              const std::string& spill_dir);

struct RulesSummary {
  size_t attempted = 0;
  size_t stored = 0;
};

/// Trains the plan's initial columns against `index` and saves the rule set.
av::Result<RulesSummary> TrainInitialRules(const std::string& lake_dir,
                                           const av::PatternIndex& index, size_t threads,
                                           const std::string& rules_path);

int CmdSetup(const Args& args);
int CmdOffline(const Args& args);
int CmdReplay(const Args& args);
int CmdRules(const Args& args);
int CmdServe(const Args& args);
int CmdProbe(const Args& args);
int CmdSession(const Args& args);

}  // namespace avbench
