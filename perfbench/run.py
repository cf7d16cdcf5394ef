#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload shared_cells --seed 1 --seconds 10 --trace 0

Builds the benchmark package (`perfbench/Cargo.toml`) in release mode,
then runs the workload in child processes, one workload per process:

* ``--trace 0``: several ``perfbench measure`` processes one after the
  other, each of which sets up the workload and then times full-population
  ``FleetRunner::run`` calls until its share of ``--seconds`` is spent,
  plus one ``perfbench check`` process that runs the population on one
  thread for the correctness check. Prints the end-to-end metrics.
* ``--trace 1``: one ``perfbench-trace`` process: the traced per-layer
  replay. Prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it carry a provenance block and, for traced runs, the traffic report;
neither is compared between runs. Build output goes to standard error.
``--inject-diff`` adds one fabricated transaction to the one-thread run
before it is digested, to show that the correctness check catches it.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("isolated_storefront", "shared_cells", "shared_search")
# Untraced measuring processes per run: each reports its own set-up
# time and peak RSS, and the run reports their medians.
MEASURE_PROCESSES = 3
# Every run must finish within 180 s of its start (after the build); a
# child still running at this many seconds is killed and the run fails.
RUN_DEADLINE_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
           str(ROOT / "perfbench" / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return target / "release"


def run_child(cmd, deadline):
    """Runs one benchmark process; returns its last JSON line, or None if
    it crashed, ran past `deadline` (a `time.monotonic()` value) or
    printed no result."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {cmd[0]} exited with {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result can be
    tied to its code even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench/src"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file() and p.suffix in (".rs", ".toml"))
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, threads, runs):
    return {
        "nproc": os.cpu_count(),
        "threads": threads,
        "rustc": command_output(["rustc", "-V"]),
        "profile": "release (thin LTO, 1 codegen unit)",
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": runs,
    }


def metric_specs(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def untraced(args, bin_dir, deadline):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    budget_ms = str(args.seconds * 1000 // MEASURE_PROCESSES)
    children = [run_child([str(bin_dir / "perfbench"), "measure", *common, "--budget-ms", budget_ms],
                          deadline)
                for _ in range(MEASURE_PROCESSES)]
    check = run_child([str(bin_dir / "perfbench"), "check", *common]
                      + (["--inject"] if args.inject_diff else []), deadline)

    measured = [c for c in children if c is not None]
    reps = [r for c in measured for r in c["reps"]]
    attempted = sum(r["txns"] for r in reps) + (check["attempted"] if check else 0)
    failed = sum(r["unexpected_failures"] for r in reps)
    problems = []
    if len(measured) < len(children) or check is None:
        problems.append("a benchmark process crashed or timed out")
    else:
        digests = {r["digest"] for r in reps}
        if digests != {check["digest"]}:
            problems.append(f"digest at {measured[0]['threads']} threads {sorted(digests)} "
                            f"!= digest at 1 thread {check['digest']}")
        if check["recorded"] is not None and check["digest"] != check["recorded"]:
            problems.append(f"digest {check['digest']} != recorded {check['recorded']}")
        expected = {c["expected_attempted"] for c in measured}
        if any(r["txns"] not in expected for r in reps) or len(expected) != 1:
            problems.append("a run attempted a different number of transactions than its inputs hold")
        if failed:
            problems.append(f"{failed} transactions failed unexpectedly; "
                            f"failures at 1 thread: {check['failures']}")
    correct = not problems
    if not correct:
        # A wrong or crashed run delivered nothing: every transaction of
        # the run counts as failed.
        attempted = max(attempted, 1)
        failed = attempted

    values = {
        "txns_per_s": statistics.median(r["txns"] / r["wall_s"] for r in reps) if reps else 0.0,
        "cpu_us_per_txn": statistics.median(r["cpu_s"] / r["txns"] * 1e6 for r in reps) if reps else 0.0,
        "peak_rss_mb": statistics.median(c["peak_rss_kb"] / 1024 for c in measured) if measured else 0.0,
        "setup_s": statistics.median(c["setup_s"] for c in measured) if measured else 0.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_specs("end_to_end")}
    threads = measured[0]["threads"] if measured else None
    runs = {"measure_processes": len(children), "timed_runs": len(reps), "check_processes": 1}
    return correct, problems, attempted, failed, metrics, None, provenance(args, threads, runs)


def traced(args, bin_dir, deadline):
    out = run_child([str(bin_dir / "perfbench-trace"), "--workload", args.workload,
                     "--seed", str(args.seed), "--budget-ms", str(args.seconds * 1000)], deadline)
    problems = []
    metrics = {}
    if out is None:
        problems.append("the traced process crashed or timed out")
        attempted, failed = 1, 1
    else:
        attempted, failed = out["attempted"], out["unexpected_failures"]
        if not out["digest_ok"]:
            problems.append("the traced run's digest differs from the recorded one")
        if not out["alloc_repeat"]:
            problems.append("allocation counts differ between two replay passes of one seed")
        if failed:
            problems.append(f"{failed} transactions failed unexpectedly")
        for name, unit in metric_specs("per_layer"):
            if name not in out["metrics"]:
                problems.append(f"per-layer metric {name} missing")
                continue
            if out["metrics"][name]["unit"] != unit:
                problems.append(f"per-layer metric {name} measured in {out['metrics'][name]['unit']}, "
                                f"not {unit}")
            metrics[name] = {"value": out["metrics"][name]["value"], "unit": unit}
    correct = not problems
    if not correct:
        attempted = max(attempted, 1)
        failed = attempted
    runs = {"traced_processes": 1, "replay_passes": out["passes"] if out else 0}
    traffic = out["traffic"] if out else None
    threads = out["threads"] if out else None
    return correct, problems, attempted, failed, metrics, traffic, provenance(args, threads, runs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject-diff", action="store_true",
                        help="self-test: perturb the one-thread digest by one transaction")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    bin_dir = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    run = traced if args.trace else untraced
    correct, problems, attempted, failed, metrics, traffic, prov = run(args, bin_dir, deadline)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    if traffic is not None:
        print(json.dumps({"traffic": {"workload": args.workload, **traffic}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
