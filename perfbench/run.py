#!/usr/bin/env python3
"""Run one perfbench workload against the checkout this file sits in.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark runner and the CLI with dune from the checkout's own
sources, runs the workload, and prints the result object as the last line
of standard output.  Per-op ledger rows and (traced) spans are left in
.perfbench_work/<workload>/.  Exits 2 without a result when the checkout
cannot be built or a run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mp-portfolio", "sp-solve", "serve-mixed")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "ocaml", "bench.exe")
CLI = os.path.join(ROOT, "_build", "default", "bin", "semimatch_cli.exe")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        log("no repository around perfbench/ (dune-project and lib/ missing)")
        return False
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/ocaml/bench.exe",
             "./bin/semimatch_cli.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log("cannot run dune: %s" % e)
        return False
    if r.returncode != 0:
        log("build failed")
        return False
    return True


def run_child(argv, timeout):
    """Run argv in its own process group; kill the whole group on timeout.
    Returns (exit code or None on timeout, stdout)."""
    p = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
        return p.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        return None, ""


def run_workload(workload, seed, seconds, trace, tiny=False):
    work = os.path.join(ROOT, ".perfbench_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = [EXE, "run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work", work, "--cli", CLI]
    if tiny:
        argv.append("--tiny")
    try:
        code, out = run_child(argv, RUN_TIMEOUT_S)
    finally:
        # the inputs are large and regenerated from the seed on every run
        for d in os.listdir(work):
            if d.startswith("setup-"):
                shutil.rmtree(os.path.join(work, d), ignore_errors=True)
    if code is None:
        log("%s timed out after %ds" % (workload, RUN_TIMEOUT_S))
        return None
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        log("%s exited with code %s" % (workload, code))
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("%s printed no result" % workload)
        return None


def self_test():
    """The runner's own checks, then a tiny pass of every workload."""
    code, out = run_child([EXE, "selftest"], RUN_TIMEOUT_S)
    sys.stderr.write(out)
    if code != 0:
        log("selftest failed")
        return 1
    for w in WORKLOADS:
        for trace in (0, 1):
            r = run_workload(w, 1, 1, trace, tiny=True)
            if r is None or not r["correct"] or r["failed"] != 0:
                log("tiny %s trace=%d failed: %s" % (w, trace, r))
                return 1
            log("tiny %s trace=%d ok (%d ops)" % (w, trace, r["attempted"]))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not build():
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    r = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if r is None:
        return 2
    print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
