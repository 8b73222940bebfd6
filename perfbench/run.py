#!/usr/bin/env python3
"""Build and run the repository's wall-clock benchmark.

One run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/perfbench.exe with dune from the repository root, runs
it with the workload's sizes from perfbench/workloads.json and passes
its output through.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

Steadiness mode:

    python3 perfbench/run.py --steadiness K [--workload NAME ...] [--seconds S]

runs K end-to-end runs of each workload (default: all), seeds 1..K,
and prints the median and quartiles of every end-to-end metric per
workload, each spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json, and the widest spread.

--scale tiny shrinks every workload to a few hundred prefixes (the
benchmark's own tests use it); any other option is passed to the
benchmark program unchanged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170

def load_json(path):
    with open(path) as f:
        return json.load(f)


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s not found: run from a checkout of the repository" % need, 2)
    # The shared dune cache lives outside the checkout; keep to _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e, 3)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        die("build failed", 3)


def program_args(workload, seed, seconds, trace, scale, extra):
    sizes = load_json(os.path.join(HERE, "workloads.json"))[workload]["args"]
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    for key, value in sorted(sizes.items()):
        args += ["--" + key, str(value)]
    if scale == "tiny":
        args.append("--tiny")
    return args + extra


def run_once(args):
    """Run the program; return (exit code, stdout text)."""
    try:
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout.decode(errors="replace")


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def steadiness(opts, extra):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    seconds = opts.seconds or bench["run_seconds"]
    widest = (0.0, None)
    for w in workloads:
        values = {}
        t0 = time.time()
        for seed in range(opts.first_seed, opts.first_seed + opts.steadiness):
            code, out = run_once(program_args(w, seed, seconds, 0, opts.scale, extra))
            result = last_json(out) if code == 0 else None
            if not result or not result["correct"]:
                print("%s seed %d: failed (exit %s)" % (w, seed, code))
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in json.loads(out.splitlines()[-2])["detail"].items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    values.setdefault("detail." + name, []).append(v)
        print("== %s: %d runs in %.0f s" % (w, opts.steadiness, time.time() - t0))
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "over 1/3 bound")
                if spread > widest[0]:
                    widest = (spread, "%s %s" % (w, name))
            print("  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f bound %s %s"
                  % (name, med, q1, q3, spread, bound, flag))
    print("widest spread: %.3f (%s)" % widest)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--steadiness", type=int, metavar="K")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    opts, extra = p.parse_known_args()
    build()
    if opts.steadiness:
        steadiness(opts, extra)
        return
    if not opts.workload or len(opts.workload) != 1:
        die("give exactly one --workload", 2)
    if opts.seconds is None:
        opts.seconds = load_json(os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"]
    code, out = run_once(program_args(opts.workload[0], opts.seed, opts.seconds,
                                      opts.trace, opts.scale, extra))
    if code is None:
        die("run timed out after %d s" % RUN_TIMEOUT_S, 4)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
