#!/usr/bin/env python3
"""End-to-end benchmark of the Astra explorer.

Run from the repository root:

    python3 e2ebench/run.py --workload milstm-cold --seed 7 --seconds 30 --trace 0

Builds the benchmark binary (``e2ebench/``, a cargo package of its own
that depends on the repository's crates by path) and times set-up
(``Model::build`` + ``Astra::new``) repeatedly in one process. It then runs
repetitions of one workload, one process each, until the next repetition
would end past ``--seconds``; at least one always runs. Each repetition
times its own set-up and one ``Astra::optimize``, checks the winning plan
independently of the optimizer, and reports its deterministic counters. Every input is fixed per workload (see ``src/main.rs``), so
``--seed`` is recorded but selects nothing. This script measures each
repetition's peak RSS from the kernel's per-process accounting, fails any
repetition whose plan or counters differ from the workload's first run
with the same binary, and prints:

* a line ``{"info": ...}`` with host metadata, the plan fingerprint, every
  counter, ``failed_frac`` and the per-repetition figures;
* as the last line, ``{"correct", "attempted", "failed", "metrics"}``: with
  ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
  metrics of one extra, traced repetition (its spans are written to
  ``.bench_work/trace-<workload>-<seed>.json``).

Exits 1 without a result when the binary does not build.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".bench_work"

WORKLOADS = ("milstm-cold", "milstm-warm-store", "rhn-chaos")
# Workloads that replay a store filled by an untimed cold run, kept as a
# fixture per binary.
STORE_WORKLOADS = ("milstm-warm-store",)

# Seconds of set-up samples taken before the measurement window; the
# median over these and each repetition's own set-up is reported.
SETUP_SECONDS = 3.0
# Wall-clock limits, after the build.
CHILD_TIMEOUT_S = 150.0
INVOCATION_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "optimize_s": "s",
    "peak_rss_mib": "MiB",
    "steady_ms": "sim_ms",
    "exploration_ms": "sim_ms",
}

PER_LAYER = {
    "enumerate.ms": "ms",
    "plan.build_units.calls": "count",
    "plan.build_units.ms_per_call": "ms",
    "plan.cache_hit_ratio": "ratio",
    "plan.emit.calls": "count",
    "plan.emit.ms_per_call": "ms",
    "plan.emit.cmds": "count",
    "verify.calls": "count",
    "verify.ms_per_call": "ms",
    "verify.rejects": "count",
    "lint.ms_per_call": "ms",
    "lint.rejects": "count",
    "predict.features_us_per_call": "us",
    "predict.updates": "count",
    "predict.pruned": "count",
    "predict.prune_ratio": "ratio",
    "predict.mae_us": "us",
    "engine.runs": "count",
    "engine.ms_per_run": "ms",
    "engine.ns_per_cmd": "ns",
    "simcache.hits": "count",
    "simcache.misses": "count",
    "simcache.hit_ratio": "ratio",
    "simcache.resumed_fraction": "ratio",
    "simcache.prefix_groups": "count",
    "engine.resume_ms_per_run": "ms",
    "faults.events": "count",
    "faults.retries": "count",
    "faults.quarantined": "count",
    "store.open_ms": "ms",
    "store.loaded_keys": "count",
    "store.corrupt_records": "count",
    "store.journal_appends": "count",
    "store.compactions": "count",
    "store.bytes_after": "bytes",
    "store.compact_ms": "ms",
    "explore.configs": "count",
    "explore.candidates": "count",
    "explore.host_ms_per_candidate": "ms",
    "explore.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class Child:
    """One benchmark process: its exit code, parsed last line and peak RSS."""

    running = None

    def __init__(self, cmd, out_path, timeout_s):
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(cmd, stdout=out)
            Child.running = proc
            deadline = time.monotonic() + timeout_s
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    print(f"e2ebench: {cmd[1]} timed out after {timeout_s:.0f} s", file=sys.stderr)
                    break
                time.sleep(0.02)
            # Reaped by wait4 above; keep Popen from waiting again.
            proc.returncode = os.waitstatus_to_exitcode(status)
            Child.running = None
        self.code = proc.returncode
        self.peak_rss_mib = usage.ru_maxrss / 1024.0  # KiB on Linux
        lines = out_path.read_text().strip().splitlines()
        self.out = None
        if self.code == 0 and lines:
            try:
                self.out = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass


def stop_child(*_):
    if Child.running is not None and Child.running.poll() is None:
        Child.running.kill()
        Child.running.wait()
    sys.exit(1)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr, env=env, check=False).returncode != 0:
        return None
    binary = (ROOT / target if not target.is_absolute() else target) / "release" / "e2ebench"
    return binary if binary.is_file() else None


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def host_info(workers):
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 cwd=ROOT, check=False)
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "profile": "release",
        "git_rev": git_rev,
    }


def write_atomic(path, text):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def prepare_fixture(binary, workload, key, budget_end):
    """The warm-store fixture: a store filled by one untimed cold run,
    plus that run's steady time and plan. Cached per binary."""
    fixtures = WORK / "fixtures"
    name = f"{workload}-{key}"
    store, expect = fixtures / name, fixtures / f"{name}.expect"
    if store.is_dir() and expect.is_file():
        return store, expect
    if fixtures.is_dir():
        shutil.rmtree(fixtures)
    fixtures.mkdir(parents=True)
    tmp_store, tmp_expect = fixtures / f"{name}.tmp", fixtures / f"{name}.expect.tmp"
    cmd = [str(binary), "prep", "--workload", workload,
           "--store", str(tmp_store), "--expect", str(tmp_expect)]
    child = Child(cmd, WORK / "prep.out", min(CHILD_TIMEOUT_S, budget_end - time.monotonic()))
    if child.out is None:
        return None
    tmp_store.replace(store)
    tmp_expect.replace(expect)
    return store, expect


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop_child)

    binary = build()
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    budget_end = time.monotonic() + INVOCATION_BUDGET_S
    key = file_digest(binary)
    run_dir = WORK / "run"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)

    workload = ["--workload", args.workload, "--work", str(run_dir)]
    fixture_args, expect_args = [], []
    if args.workload in STORE_WORKLOADS:
        fixture = prepare_fixture(binary, args.workload, key, budget_end)
        if fixture is None:
            print("e2ebench: warm-store fixture run failed", file=sys.stderr)
            return 1
        fixture_args, expect_args = ["--fixture", str(fixture[0])], ["--expect", str(fixture[1])]

    def run_child(subcommand, *extra):
        timeout = max(1.0, min(CHILD_TIMEOUT_S, budget_end - time.monotonic()))
        cmd = [str(binary), subcommand, *workload, *fixture_args, *extra]
        return Child(cmd, run_dir / "child.out", timeout)

    setup_s = []
    if args.trace == 0:
        setup = run_child("setup", "--seconds", str(SETUP_SECONDS))
        if setup.out is None:
            print("e2ebench: set-up failed", file=sys.stderr)
            return 1
        setup_s = setup.out["setup_s"]

    # The measurement window: repetitions until the next would overrun it.
    reps = []
    window_start = time.monotonic()
    while True:
        reps.append(run_child("run", *expect_args))
        elapsed = time.monotonic() - window_start
        per_rep = elapsed / len(reps)
        if elapsed + per_rep > args.seconds or time.monotonic() + 2 * per_rep > budget_end:
            break
    traced = None
    if args.trace:
        trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
        traced = run_child("run", *expect_args, "--trace", str(trace_file))

    # Determinism: every repetition must match the workload's first run
    # with this binary (kept across invocations).
    refs = WORK / "refs"
    refs.mkdir(parents=True, exist_ok=True)
    ref_path = refs / f"{args.workload}-{key}.json"
    ref = json.loads(ref_path.read_text()) if ref_path.is_file() else None
    attempts = reps + ([traced] if traced else [])
    good = []
    for i, rep in enumerate(attempts):
        out = rep.out
        if out is None:
            print(f"e2ebench: repetition {i} failed (exit {rep.code})", file=sys.stderr)
            continue
        if out["problems"]:
            print(f"e2ebench: repetition {i} output check: {out['problems']}", file=sys.stderr)
            continue
        fingerprint = {"plan_fp": out["plan_fp"], "deterministic": out["deterministic"]}
        if ref is None:
            ref = fingerprint
            write_atomic(ref_path, json.dumps(ref, sort_keys=True))
        if fingerprint != ref:
            print(f"e2ebench: repetition {i} is not deterministic: {fingerprint} != {ref}",
                  file=sys.stderr)
            continue
        good.append(rep)
    failed = len(attempts) - len(good)
    untraced = [r for r in good if r is not traced]

    metrics = {}
    if args.trace == 0 and untraced:
        det = untraced[0].out["deterministic"]
        values = {
            "setup_s": statistics.median(setup_s + [r.out["setup_s"] for r in untraced]),
            "optimize_s": statistics.median(r.out["optimize_s"] for r in untraced),
            "peak_rss_mib": statistics.median(r.peak_rss_mib for r in untraced),
            "steady_ms": det["steady_ns"] / 1e6,
            "exploration_ms": det["exploration_ns"] / 1e6,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    elif args.trace == 1 and untraced and traced in good:
        values = dict(traced.out["deterministic"], **traced.out["layers"])
        untraced_s = statistics.median(r.out["optimize_s"] for r in untraced)
        values["trace.overhead_frac"] = traced.out["optimize_s"] / untraced_s - 1.0
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}

    first = good[0].out if good else None
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host_info(int(first["workers"]) if first else None),
        "binary": key,
        "plan_fp": first["plan_fp"] if first else None,
        "failed_frac": failed / len(attempts),
        "reps": [
            {"optimize_s": r.out["optimize_s"] if r.out else None,
             "peak_rss_mib": r.peak_rss_mib, "traced": r is traced}
            for r in attempts
        ],
        "counters": first["deterministic"] if first else None,
    }
    print(json.dumps({"info": info}))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(attempts), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
