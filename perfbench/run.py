#!/usr/bin/env python3
"""End-to-end benchmark of the Auto-Validate repository.

    python3 perfbench/run.py --workload lake_index --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

--seconds defaults to BENCHMARK.json's run_seconds.

Builds the `avbench` program (perfbench/CMakeLists.txt) from the checkout's
sources, runs one workload and prints, as the last line of standard output,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of a traced replay. The line before it
records the machine, the build and the workload's input properties; the same
record and the traced run's spans are kept under .bench_results/.

See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import functools
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lake_index", "lake_index_spill", "serve_loopback")

# Lake size and the out-of-core budget. The budget holds one chunk index
# (about 22 MiB) but is far below their total (about 175 MiB at 2000
# columns), so every chunk spills.
COLUMNS = 2000
LAKE_SEED = 42
SMOKE_COLUMNS = 120
SPILL_BUDGET_MB = 32
INDEX_THREADS = 2
SETUP_REPS = {"lake_index": 3, "lake_index_spill": 3, "serve_loopback": 3}
# The lake workloads run in rounds until --seconds have passed (at least
# MIN_ROUNDS): one more set-up, one build of the index (saved twice), then
# one round of the in-process serving session (a restart, a TRAIN pass, and
# VALIDATE and VALIDATE_TABLE passes for --seconds / SLICE_DIV seconds each).
MIN_ROUNDS = 4
SLICE_DIV = 80


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds avbench; returns its path."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("the repository sources (CMakeLists.txt, src/) are missing")
    if not (build_dir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(build_dir), "--target", "avbench", "-j", jobs])
    exe = build_dir / "avbench"
    if not exe.is_file():
        raise BenchError("the build produced no avbench binary")
    return exe


def run_logged(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    if proc.returncode != 0:
        raise BenchError(f"command failed ({proc.returncode}): {' '.join(cmd)}")


# A run ends within --seconds plus this margin of the build (a hung step is
# killed); the margin covers set-up, the checks and the traced replay.
RUN_MARGIN_S = 130
deadline = time.monotonic() + RUN_MARGIN_S


def avbench(exe, *args):
    """Runs one avbench subcommand; returns its JSON result line."""
    cmd = [str(exe)] + [str(a) for a in args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"avbench {args[0]} failed ({proc.returncode})")
    return json.loads(lines[-1])


class Stepped:
    """An avbench process in stepped mode: it does one step per line
    written to its stdin and prints its result line when stdin closes.
    Taking turns between such processes spreads every metric's samples over
    the whole run, so a stretch in which the machine's other tenants slow
    it down moves all of them a little instead of one of them a lot."""

    live = []

    def __init__(self, exe, *args):
        self.name = args[0]
        cmd = [str(a) for a in (exe, *args, "--stepped", 1)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=sys.stderr, text=True)
        Stepped.live.append(self)
        self._expect_step()  # step 0: the process has set itself up

    def _wait_readable(self):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
            raise BenchError(f"avbench {self.name} timed out")

    def _expect_step(self):
        self._wait_readable()
        if not self.proc.stdout.readline().startswith("step"):
            raise BenchError(f"avbench {self.name} failed in a step")

    def step(self):
        self.proc.stdin.write("step\n")
        self.proc.stdin.flush()
        self._expect_step()

    def finish(self):
        """Ends the process; returns its JSON result line."""
        self.proc.stdin.close()
        lines = []
        while True:
            self._wait_readable()
            line = self.proc.stdout.readline()
            if not line:
                break
            lines.append(line)
        code = self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        Stepped.live.remove(self)
        if code != 0 or not lines:
            raise BenchError(f"avbench {self.name} failed ({code})")
        return json.loads(lines[-1])

    @classmethod
    def stop_all(cls):
        for s in cls.live:
            s.proc.kill()
            s.proc.wait()
        cls.live.clear()


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@functools.lru_cache(maxsize=None)
def build_id(exe):
    """The avbench binary's hash: identifies the sources, compiler and flags
    that produced an index."""
    return sha256(exe)


def median(values):
    return statistics.median(values)


def metric(value, unit):
    return {"value": value, "unit": unit}


def machine_record(exe, seed):
    env = avbench(exe, "env")
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = ""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    env.update({"cpu_model": cpu, "git_revision": rev or "unknown (not a git checkout)",
                "avbench_sha256": build_id(exe), "seed": seed})
    return env


class Checks:
    """Counts operations and failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def session(self, res):
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        if res["failed"]:
            self.notes.append("session: " + res["failures"])


def record_index(exe, results, seed, lake_seed, columns, digest, entries, checks):
    """Index bytes must not depend on the path that built them: every
    workload and the traced replay record (hash, entries) per seed and must
    agree with what an earlier run of the same avbench binary recorded. A
    binary built from other sources may change the bytes, so it gets keys of
    its own."""
    path = results / "index_hashes.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    key = f"avbench={build_id(exe)},seed={seed},lake_seed={lake_seed},columns={columns}"
    got = {"sha256": digest, "entries": entries}
    if key in known:
        checks.expect(known[key] == got, f"index for {key} differs from an earlier run")
    else:
        known[key] = got
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
    return got


def session_metrics(res):
    return {
        "restart_s": metric(res["restart_s"], "s"),
        "train_p50_ms": metric(res["train_ms_p50"], "ms"),
        "validate_p50_us": metric(res["validate_us_p50"], "us"),
        "validate_p99_us": metric(res["validate_us_p99"], "us"),
        "table_p50_us": metric(res["table_us_p50"], "us"),
        "table_p99_us": metric(res["table_us_p99"], "us"),
        "serve_rows_per_s": metric(res["serve_rows_per_s"], "rows/s"),
    }


def session_inputs(res):
    keys = ("onboard_columns", "onboard_feasible", "validate_ops", "table_ops",
            "drifted_ops", "drifted_flagged", "distinct_ratio_p10", "distinct_ratio_p50",
            "distinct_ratio_p90", "table_width_min", "table_width_p50", "table_width_max",
            "train_phase_s", "train_ms_n", "validate_us_n", "table_us_n", "train_ms_p99",
            "train_ms_p99_windows", "train_ms_p99_by_window", "train_ms_p50_by_window",
            "train_ms_warmup_p50", "validate_us_p50_by_window", "table_us_p50_by_window",
            "validate_us_p99_windows", "table_us_p99_windows", "train_ms_p99_pooled",
            "validate_us_p99_pooled", "table_us_p99_pooled", "train_ms_p50_pooled",
            "validate_us_p50_pooled", "table_us_p50_pooled", "restart_s_all", "rounds")
    out = {k: res[k] for k in keys}
    out["drifted_share"] = res["drifted_ops"] / max(1, res["validate_ops"])
    out["train_feasible_share"] = res["onboard_feasible"] / max(1, res["onboard_columns"])
    return out


def run_untraced(exe, workload, seed, lake_seed, seconds, columns, work, results, checks,
                 inputs):
    lake, index, rules = work / "lake", work / "lake.idx", work / "rules.avrs"
    serve = workload == "serve_loopback"
    setup_args = ["setup", "--seed", seed, "--lake-seed", lake_seed, "--columns", columns,
                  "--lake", lake, "--reps", SETUP_REPS[workload], "--threads", INDEX_THREADS]
    if serve:
        setup_args += ["--index", index, "--rules", rules]
    setup = avbench(exe, *setup_args)
    inputs["lake"] = {k: setup[k] for k in ("lake_columns", "lake_tables", "lake_values",
                                            "lake_bytes")}
    setup_s = list(setup["setup_s"])

    if serve:
        checks.expect(setup["index_same_bytes"], "set-up index builds differ")
        build_s, save_s = setup["index_build_s"], setup["index_save_s"]
        checks.attempted += len(build_s) - 1
        digest = sha256(index)
        inputs["index"] = record_index(exe, results, seed, lake_seed, columns, digest,
                                       setup["index_entries"], checks)
        inputs["rules"] = {"initial_columns": setup["initial_columns"],
                           "initial_rules": setup["initial_rules"]}
        res = avbench(exe, "session", "--mode", "remote", "--lake", lake, "--index", index,
                      "--rules", rules, "--seed", seed, "--seconds", seconds,
                      "--slice-seconds", seconds / SLICE_DIV, "--work", work)
        checks.session(res)
        peak_rss_mb = res["server_peak_rss_mb"]
    else:
        spill = workload == "lake_index_spill"
        off_args = ["offline", "--lake", lake, "--index", index, "--threads", INDEX_THREADS]
        if spill:
            off_args += ["--budget-mb", SPILL_BUDGET_MB, "--spill-dir", work]
        offline = Stepped(exe, *off_args)
        offline.step()  # warms the process up and writes the index
        rules_res = avbench(exe, "rules", "--lake", lake, "--index", index, "--rules", rules,
                            "--threads", INDEX_THREADS)
        inputs["rules"] = {k: rules_res[k] for k in ("initial_columns", "initial_rules")}
        session = Stepped(exe, "session", "--mode", "local", "--lake", lake, "--index", index,
                          "--rules", rules, "--seed", seed,
                          "--slice-seconds", seconds / SLICE_DIV, "--work", work)
        setup_args[setup_args.index("--reps") + 1] = 1
        rounds = []
        # Rounds run while the next one, as long as the median round so
        # far, still ends within --seconds.
        while len(rounds) < MIN_ROUNDS or sum(rounds) + median(rounds) <= seconds:
            t0 = time.monotonic()
            setup_s += avbench(exe, *setup_args)["setup_s"]
            offline.step()
            session.step()
            rounds.append(time.monotonic() - t0)
        inputs["rounds"] = {"count": len(rounds), "seconds": rounds}
        off = offline.finish()
        res = session.finish()
        checks.session(res)
        build_s, save_s = off["index_build_s"], off["index_save_s"]
        checks.attempted += len(build_s) - 1
        checks.expect(off["index_same_bytes"], "repeated index builds differ")
        if spill:
            chunks = -(-setup["lake_columns"] // 256)  # the indexer's 256-column chunks
            checks.expect(off["spill_runs"] == chunks, "not every chunk spilled")
        digest = sha256(index)
        inputs["index"] = record_index(exe, results, seed, lake_seed, columns, digest,
                                       off["index_entries"], checks)
        peak_mb = off["peak_chunk_index_bytes"] / 2**20
        inputs["budget"] = {
            "spill_budget_mb": SPILL_BUDGET_MB, "budget_applied": spill,
            "peak_chunk_index_mb": peak_mb, "peak_fits_budget": peak_mb <= SPILL_BUDGET_MB,
            "spill_runs": off["spill_runs"], "spill_mb": off["spill_bytes"] / 2**20,
            "merge_passes": off["merge_passes"],
            "patterns_emitted": off["patterns_emitted"]}
        peak_rss_mb = off["peak_rss_mb"]
        inputs["offline_reps"] = {"index_build_s": build_s, "index_save_s": save_s,
                                  "peak_rss_first_mb": off["peak_rss_first_mb"]}
    inputs["setup_reps_s"] = setup_s
    inputs["session"] = session_inputs(res)
    metrics = {"setup_s": metric(median(setup_s), "s"),
               "peak_rss_mb": metric(peak_rss_mb, "MiB")}
    metrics.update({
        "index_build_s": metric(median(build_s), "s"),
        "index_save_s": metric(median(save_s), "s"),
        "index_file_mb": metric(index.stat().st_size / 2**20, "MiB"),
    })
    metrics.update(session_metrics(res))
    return metrics


def run_traced(exe, workload, seed, lake_seed, seconds, columns, work, results, checks,
               inputs):
    lake, index, rules = work / "lake", work / "lake.idx", work / "rules.avrs"
    setup = avbench(exe, "setup", "--seed", seed, "--lake-seed", lake_seed, "--columns", columns,
                    "--lake", lake,
                    "--reps", 1, "--threads", INDEX_THREADS, "--index", index, "--rules", rules)
    inputs["lake"] = {k: setup[k] for k in ("lake_columns", "lake_tables", "lake_values",
                                            "lake_bytes")}
    # The untraced reference: one single-threaded build on the workload's path.
    spill = workload == "lake_index_spill"
    ref_index = work / "ref.idx"
    off_args = ["offline", "--lake", lake, "--index", ref_index, "--threads", 1,
                "--seconds", 0, "--min-reps", 2]
    if spill:
        off_args += ["--budget-mb", SPILL_BUDGET_MB, "--spill-dir", work]
    off = avbench(exe, *off_args)
    digest = sha256(ref_index)
    checks.expect(digest == sha256(index), "1-thread and 2-thread indexes differ")
    inputs["index"] = record_index(exe, results, seed, lake_seed, columns, digest,
                                   off["index_entries"], checks)

    spans_dir = results / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}"
    rep = avbench(exe, "replay", "--lake", lake, "--work", work, "--budget-mb", SPILL_BUDGET_MB,
                  "--spans", spans_dir / f"{tag}-offline.jsonl")
    for which in ("replay_mem_hash", "replay_spill_hash"):
        checks.expect(rep[which] == off["index_hash"],
                      f"{which} differs from the untraced build's index")
    checks.expect(rep["index.entries"] == off["index_entries"], "replay entry count differs")

    res = avbench(exe, "session", "--mode", "remote", "--trace", 1, "--lake", lake, "--index",
                  index, "--rules", rules, "--seed", seed, "--seconds", seconds,
                  "--slice-seconds", seconds / SLICE_DIV, "--work", work,
                  "--spans", spans_dir / f"{tag}-online.jsonl")
    checks.session(res)
    inputs["session"] = session_inputs(res)
    # The replay's stage time for the workload's path, against the same build
    # untraced on one thread: the offline tracing overhead.
    reduce_s = (rep["index.spill_write_s"] + rep["index.spill_merge_s"] if spill
                else rep["index.reduce_s"])
    replay_build_s = rep["corpus.read_s"] + rep["index.enumerate_s"] + reduce_s
    inputs["trace_reference"] = {"untraced_1thread_build_s": off["index_build_s"][0],
                                 "replay_build_s": replay_build_s,
                                 "untraced_validate_p50_us": res["validate_us_p50"]}

    source = dict(rep)
    source.update(res)
    source["index.peak_chunk_index_mb"] = off["peak_chunk_index_bytes"] / 2**20
    source["server.replies_error"] = res["stats_replies_error"]
    source["server.protocol_errors"] = res["stats_protocol_errors"]
    source["server.connections_evicted"] = res["stats_connections_evicted"]
    source["trace.build_overhead_pct"] = 100.0 * (replay_build_s / off["index_build_s"][0] - 1.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: metric(source[m["name"]], m["unit"]) for m in spec}


def run_workload(exe, workload, seed, seconds, trace, columns=COLUMNS, lake_seed=LAKE_SEED):
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    inputs = {"workload": workload, "columns": columns, "lake_seed": lake_seed}
    try:
        start = time.monotonic()
        runner = run_traced if trace else run_untraced
        metrics = runner(exe, workload, seed, lake_seed, seconds, columns, work, results, checks,
                         inputs)
        inputs["wall_s"] = time.monotonic() - start
    finally:
        Stepped.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    record = {"environment": machine_record(exe, seed), "inputs": inputs,
              "checks_failed": checks.notes}
    out = {"correct": checks.failed == 0, "attempted": checks.attempted,
           "failed": checks.failed, "metrics": metrics}
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"record": record, "result": out}, indent=1))
    return record, out


def smoke(exe):
    """Tiny lake, every workload in both modes: checks the metric names and
    units against BENCHMARK.json and that every output check passes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, out = run_workload(exe, workload, 7, 1, trace, SMOKE_COLUMNS)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            good = (got == want and out["correct"] and out["failed"] == 0 and
                    out["attempted"] > 0)
            if trace == 0:
                good = good and all(v["value"] > 0 for v in out["metrics"].values())
            ok = ok and good
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'}"
                  f" ({out['attempted']} ops, {out['failed']} failed)", flush=True)
            if got != want:
                print(f"  metric names/units differ: {sorted(set(got) ^ set(want))}")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--lake-seed", type=int, default=LAKE_SEED)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")
    global deadline
    try:
        if args.seconds is None:
            args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        exe = build()
        deadline = time.monotonic() + args.seconds + RUN_MARGIN_S
        if args.smoke:
            deadline += 3600  # many short runs
            return smoke(exe)
        record, out = run_workload(exe, args.workload, args.seed, args.seconds, args.trace,
                                   lake_seed=args.lake_seed)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(record))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
