#!/usr/bin/env python3
"""The benchmark's entry point: one worker process per workload.

    python3 perfbench/run.py --workload stream_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke            # all four workloads, small, every check
    python3 perfbench/run.py --workload stream_mix --seed 1 --selftest-corrupt-root

The worker is a fresh interpreter in its own process group with a fixed
``PYTHONHASHSEED`` and ``REPRO_SUBSTRATE`` cleared; its work directory lives
inside the checkout and is removed, and the group killed, on every exit
path.  The last line of standard output is the worker's result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKER_TIMEOUT_S = 170          # the driver allows a run 180 s


def fail(message: str) -> "NoReturn":
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def declared() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as error:
        fail(f"cannot read {path}: {error}")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    for name in ("REPRO_SUBSTRATE", "REPRO_SUBSTRATE_WORKERS"):
        env.pop(name, None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_worker(arguments: List[str]) -> int:
    """Run one worker to completion; relay its output; clean up whatever
    happens.  Returns the worker's exit code."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workdir", workdir] + arguments
    process = subprocess.Popen(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )

    def stop(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    previous = {
        sig: signal.signal(sig, stop) for sig in (signal.SIGTERM, signal.SIGHUP)
    }
    try:
        try:
            output, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 3
        sys.stdout.write(output)
        sys.stdout.flush()
        return process.returncode
    finally:
        # The worker is the group's leader: take the whole group down, so a
        # probe's worker pool cannot outlive the run, and wait for it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass                 # another run is using it


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes; without --workload, all four workloads")
    parser.add_argument("--selftest-corrupt-root", action="store_true",
                        help="flip one sealed state root: the run must fail")
    parser.add_argument("--details", default="", help="write the run's full record here")
    parser.add_argument("--spans", default="", help="traced run: write the spans here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail(f"no node to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds < 1:
        fail("--seconds must be at least 1")
    if args.workload is None:
        if not args.smoke:
            fail("--workload is required (or --smoke for all four)")
        chosen = names
    elif args.workload not in names:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json has {names}")
    else:
        chosen = [args.workload]

    worst = 0
    for name in chosen:
        arguments = ["--workload", name, "--seed", str(args.seed),
                     "--seconds", str(seconds), "--trace", str(args.trace)]
        if args.smoke:
            arguments.append("--smoke")
        if args.selftest_corrupt_root:
            arguments.append("--selftest-corrupt-root")
        for flag, value in (("--details", args.details), ("--spans", args.spans)):
            if value:
                arguments += [flag, os.path.abspath(value)]
        code = run_worker(arguments)
        if code != 0 and worst == 0:
            worst = code if code > 0 else 1      # negative: killed by a signal
    return worst


if __name__ == "__main__":
    sys.exit(main())
