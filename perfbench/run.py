#!/usr/bin/env python3
"""The repository benchmark: builds the system from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds `cnctl` (main workspace) and the `perfbench` binary
(this directory's own package), runs it, and passes its output
through: the last line of stdout is the result object. `--smoke` is the
benchmark's own test: the binary's unit tests, then every workload (the
gated ones of BENCHMARK.json and the ungated ones below) at a tiny size,
traced and untraced, checking that each named metric appears exactly once
with its unit and that every oracle held. Build output goes to stderr.
Builds land in $CARGO_TARGET_DIR (default: .bench_build at the repository
root).
"""

import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workloads perfbench can run beyond those BENCHMARK.json gates: portal_tc
# fails a job now and then when the host stalls (its wire runner's
# discovery gives up), and the other two are CPU-bound, so their
# run-to-run spread follows the host's steal time (see NOTES.md). The
# smoke test still runs them so they keep working.
UNGATED = ["portal_tc", "tc_floyd", "portal_ingest"]

# A build keeps both cores busy for a minute or more, and on a shared VM
# the seconds right after it run measurably slower (NOTES.md: "Bounds and
# measured spread"). A run whose build compiled anything waits this long
# before it starts.
SETTLE_AFTER_BUILD_S = 20
# A build that only checks freshness is done well within this.
NO_OP_BUILD_S = 5

# Per-layer metrics each workload drives: its traced run must report them
# non-zero. Every other per-layer metric reads 0 on that workload.
DRIVEN = {
    "portal_sim": [
        "portal.accept_ms", "portal.run_ms", "portal.jobs_per_batch",
        "compile.sniff_ms", "compile.xmi2cnx_ms", "compile.cnx_ms", "compile.total_ms",
        "core.deploy_ms", "core.create_job_ms", "core.add_task_ms",
        "core.placement_over_window", "core.bids_per_solicit", "core.seed_ms", "core.start_ms",
        "core.wait_ms", "core.dispatch_us", "net.msgs_per_job", "observe.journal_ms",
        "observe.journal_bytes", "tasks.floyd_seq_ms", "tasks.speedup_vs_seq",
    ],
    "portal_tc": [
        "portal.accept_ms", "portal.run_ms", "portal.jobs_per_batch",
        "compile.sniff_ms", "compile.xmi2cnx_ms", "compile.cnx_ms", "compile.total_ms",
        "wire.client_fabric_ms", "wire.frames_per_job", "wire.frames_per_flush",
        "core.create_job_ms", "core.add_task_ms", "core.placement_over_window",
        "core.bids_per_solicit", "core.seed_ms", "core.start_ms", "core.wait_ms",
        "core.dispatch_us", "observe.journal_ms", "observe.journal_bytes",
        "tasks.floyd_seq_ms", "tasks.speedup_vs_seq",
    ],
    "portal_ingest": [
        "portal.accept_ms", "portal.run_ms", "portal.jobs_per_batch",
        "compile.sniff_ms", "compile.xmi2cnx_ms", "compile.cnx_ms", "compile.total_ms",
        "trace.unattributed_ms",
    ],
    "tc_floyd": [
        "core.create_job_ms", "core.add_task_ms", "core.placement_over_window",
        "core.bids_per_solicit", "core.seed_ms", "core.start_ms", "core.wait_ms",
        "core.dispatch_us", "net.msgs_per_job", "tasks.floyd_seq_ms", "tasks.speedup_vs_seq",
    ],
    "contention": [
        "core.create_job_ms", "core.add_task_ms", "core.placement_over_window",
        "core.bids_per_solicit", "core.start_ms", "core.wait_ms", "core.dispatch_us",
        "net.msgs_per_job", "sched.placement_skew", "sched.ideal_makespan_ms",
        "sched.makespan_over_ideal",
    ],
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(target)


def build():
    """Build cnctl and perfbench; return their paths and whether it compiled."""
    for needed in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: the benchmark builds the system from source")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    start = time.monotonic()
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "computational-neighborhood", "--bin", "cnctl"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", done.returncode or 2)
    release = os.path.join(target_dir(), "release")
    compiled = time.monotonic() - start > NO_OP_BUILD_S
    return os.path.join(release, "cnctl"), os.path.join(release, "perfbench"), compiled


def run_bench(bench, cnctl, args, seconds, capture=False):
    """Run perfbench in its own process group; kill the group on timeout."""
    cmd = [bench, *args, "--cnctl", cnctl]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=seconds * 3 + 90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("perfbench timed out", 3)
    return proc.returncode, (out.decode() if capture else "")


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"duplicate keys {sorted(dup)}")
    return dict(pairs)


def smoke():
    cnctl, bench, _ = build()
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target_dir()),
        stdout=sys.stderr, check=False,
    )
    if tests.returncode != 0:
        fail("perfbench unit tests failed", 1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]] + UNGATED:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--smoke"]
            code, out = run_bench(bench, cnctl, args, 1, capture=True)
            where = f"{workload} --trace {trace}"
            if code != 0:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1], object_pairs_hook=no_duplicates)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            must = list(want) if trace == "0" else DRIVEN[workload]
            zero = [k for k in must if not values.get(k)]
            if zero:
                problems.append(f"{where}: zero metrics {zero}")
            print(f"smoke {where}: ok={not zero} attempted={result['attempted']}", file=sys.stderr)
    if problems:
        fail("smoke failed:\n  " + "\n  ".join(problems), 1)
    print("smoke OK")


def main(argv):
    if argv == ["--smoke"]:
        smoke()
        return 0
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seed", "--seconds", "--trace"} <= set(opts):
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1 | --smoke")
    try:
        seconds = float(opts["--seconds"])
    except ValueError:
        fail(f"bad --seconds {opts['--seconds']!r}")
    cnctl, bench, compiled = build()
    if compiled:
        time.sleep(SETTLE_AFTER_BUILD_S)
    code, _ = run_bench(bench, cnctl, argv, seconds)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
