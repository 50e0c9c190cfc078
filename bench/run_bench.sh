#!/bin/sh
# Runs the perf-tracking benches, writes the run to BENCH_micro.json (the
# latest point) and appends it as one line to BENCH_history.jsonl beside it
# (the trajectory), so future PRs have points to compare against.
#
# Usage: bench/run_bench.sh [build_dir] [out_json]
#   build_dir  directory containing bench_micro / bench_offline_indexing
#              (default: build)
#   out_json   output path (default: BENCH_micro.json in the repo root);
#              the history file is BENCH_history.jsonl in its directory
#
# Emits: {git_rev, date (UTC), machine: {nproc, cpu_model, tokenizer_arm,
#         compiler, build_type, platform}, micro: <google-benchmark json,
#         key subset>, offline_indexing_*: <per-tau wall-clock +
#         patterns/sec>}. The tokenizer arm, compiler and build type come
#         from bench_micro's JSON context.
#
# The micro section includes the per-arm tokenizer benches
# (BM_TokenizeMixedColumn_<arm> / BM_TokenCountMixedColumn_<arm>) for every
# dispatch arm the machine can run.
set -eu

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_micro.json}"
TMP_MICRO="$(mktemp)"
TMP_OFF150="$(mktemp)"
TMP_OFF800="$(mktemp)"
trap 'rm -f "$TMP_MICRO" "$TMP_OFF150" "$TMP_OFF800"' EXIT

FILTER='BM_MatchColumnScalar|BM_MatchColumnBatched|BM_Match$|BM_Tokenize$|BM_TokenizeInto|BM_TokenCount|BM_TokenizeMixedColumn|BM_TokenizedColumnBuild|BM_PatternKey|BM_IndexLookup|BM_IndexLookupByKey|BM_IndexColumn|BM_BuildIndexSmall|BM_BuildIndexSpill|BM_IndexLoad|BM_TrainFmdv$|BM_ValidateColumn|BM_ValidateColumnView|BM_ServiceValidateThroughput|BM_ServiceValidateAll|BM_ServiceValidateNLoop|BM_ServiceValidateStreamLoop|BM_ServerRoundTrip|BM_ServerSaturation|BM_BuildIndexJsonl|BM_BuildIndexAvcol'

"$BUILD_DIR/bench_micro" \
  --benchmark_filter="$FILTER" \
  --benchmark_min_time=0.2 \
  --benchmark_format=json >"$TMP_MICRO"

"$BUILD_DIR/bench_offline_indexing" --columns=150 --seed=7 \
  --json="$TMP_OFF150" >/dev/null
"$BUILD_DIR/bench_offline_indexing" --columns=800 --seed=7 \
  --json="$TMP_OFF800" >/dev/null

# A run on a modified tree is stamped "<rev>-dirty": its numbers are not
# the revision's.
GIT_REV="$(git describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)"
HISTORY="$(dirname "$OUT")/BENCH_history.jsonl"

python3 - "$TMP_MICRO" "$TMP_OFF150" "$TMP_OFF800" "$OUT" "$HISTORY" \
  "$GIT_REV" <<'EOF'
import datetime, json, os, platform, sys

micro_path, off150_path, off800_path, out_path, history_path, git_rev = \
    sys.argv[1:7]
with open(micro_path) as f:
    micro = json.load(f)
with open(off150_path) as f:
    off150 = json.load(f)
with open(off800_path) as f:
    off800 = json.load(f)

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"

context = micro.get("context", {})
benches = {
    b["name"]: {
        "real_time_ns": b["real_time"],
        **({"items_per_second": b["items_per_second"]}
           if "items_per_second" in b else {}),
    }
    for b in micro.get("benchmarks", [])
}

out = {
    "git_rev": git_rev,
    "date": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "machine": {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "tokenizer_arm": context.get("tokenizer_arm", "unknown"),
        "compiler": context.get("compiler", "unknown"),
        "build_type": context.get("build_type", "unknown"),
        "platform": platform.platform(),
    },
    "micro": benches,
    "offline_indexing_150col": off150,
    "offline_indexing_800col": off800,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
with open(history_path, "a") as f:
    f.write(json.dumps(out, separators=(",", ":")) + "\n")
print(f"wrote {out_path}, appended to {history_path}")
EOF
