#!/usr/bin/env python3
"""One measured run of the end-to-end benchmark.

Usage (from the root of a checkout):

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--spans-out <file>]

Builds the benchmark package in this directory (cargo, offline, release;
into $CARGO_TARGET_DIR, default `.bench_build`), then runs the binary in a
fresh process inside a fresh directory under `.bench_tmp/`, which is
removed afterwards. Nothing else in the checkout is written.

With `--trace 0` the last line printed is the end-to-end metrics JSON.
With `--trace 1` an untraced run of the same workload and seed comes
first, so the traced run can report its tracing overhead; the last line is
then the per-layer metrics JSON, with `attempted`/`failed` summed over
both runs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Budget for the measured run(s) after the build; a run ends within 180 s.
RUN_BUDGET_S = 170


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    return os.path.join(target, "release", "e2e-bench")


def run_once(binary, args, trace, deadline, extra=()):
    """Runs the binary once in a fresh directory; returns (report lines, result)."""
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    # The program receives only the generated inputs: no RLS_* knobs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RLS_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--reference", os.path.join(HERE, "reference.jsonl"), *extra]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"run.py: runs exceeded their {RUN_BUDGET_S} s budget", file=sys.stderr)
        return None, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode == 0 and lines:
            return lines[:-1], json.loads(lines[-1])
    except ValueError:
        pass
    print("\n".join(lines), file=sys.stderr)
    print(f"run.py: benchmark exited with code {proc.returncode} and no result",
          file=sys.stderr)
    return None, None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", help="write the traced run's spans (JSONL) here")
    args = p.parse_args()

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace == 0:
        lines, result = run_once(binary, args, 0, deadline)
        if result is None:
            return 1
        print("\n".join(lines))
        print(json.dumps(result))
        return 0

    base_lines, base = run_once(binary, args, 0, deadline)
    if base is None:
        return 1
    extra = ["--untraced-wall", repr(base["metrics"]["wall_s"]["value"])]
    if args.spans_out:
        extra += ["--spans-out", os.path.abspath(args.spans_out)]
    lines, traced = run_once(binary, args, 1, deadline, extra)
    if traced is None:
        return 1
    print("\n".join(base_lines))
    print("\n".join(lines))
    traced["correct"] = bool(traced["correct"] and base["correct"])
    traced["attempted"] += base["attempted"]
    traced["failed"] += base["failed"]
    print(json.dumps(traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
