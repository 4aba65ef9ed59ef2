#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One run, as BENCHMARK.json names it (run from the repository root):

    python3 perfbench/run.py --workload table1 --seed 3 --seconds 30 --trace 0

builds perfbench/rfbench.exe with dune, runs the workload's closed loop
for the given seconds (--trace 0: end-to-end metrics) or one traced pass
(--trace 1: per-layer metrics), and prints one JSON object as the last
line of standard output.  Exit status 0 when every verdict matched the
golden inventory, 1 on a mismatch, 2 when the build fails, 3 when the
run crashed or timed out (no result is printed in the last two cases).

Other modes:

    --workload all            every workload once; a table of every metric
                              by name and unit, and with --trace 1 the
                              layer-coverage report across workloads
    --steady N [--sets 2]     N runs per workload on N seeds (per set);
                              median, quartiles, min/max and spread per
                              metric, checked against BENCHMARK.json
    --inventory               print the run's verdicts in golden format
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "rfbench.exe")
WORKLOADS = ["table1", "fork-wide", "serve-warm"]
RUN_LIMIT_S = 170.0

# Layers of the traced run, and where the layer table says each one
# should do most of its work (heavy) and little (light).
COVERAGE = [
    ("campaign", "table1", "fork-wide"),
    ("runtime", "table1", "fork-wide"),
    ("strategy", "table1", "fork-wide"),
    ("detect", "fork-wide", "table1"),
    ("btrace", "serve-warm", "table1"),
    ("replay", "serve-warm", "fork-wide"),
    ("procpool", "serve-warm", "table1"),
    ("service", "serve-warm", "table1"),
    ("corpus", "serve-warm", "table1"),
]


def err(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/rfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        err("run.py: dune not found on PATH")
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def stop_group(pgid):
    """SIGKILL whatever is left of the run's process group (worker
    processes of a run that died) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_one(workload, seed, seconds, trace, limit=RUN_LIMIT_S, inventory=False):
    """Run the executable once; returns (exit code, result dict or None)."""
    work = os.path.join(WORK, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "result.json")
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", os.path.relpath(work, ROOT), "--out", out]
    if trace:
        cmd += ["--spans", os.path.join(WORK, "trace", workload + ".spans.jsonl")]
    if inventory:
        cmd += ["--print-inventory"]
    env = dict(os.environ, TMPDIR=work)
    # The program's own console output (serve progress lines) goes to a
    # log file; the benchmark's report goes to stderr.
    console = os.path.join(WORK, workload + ".console.log")
    with open(console, "w") as log:
        p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                             stderr=sys.stderr, start_new_session=True)
        try:
            rc = p.wait(timeout=limit)
        except subprocess.TimeoutExpired:
            err("run.py: %s exceeded %.0f s, stopped" % (workload, limit))
            rc = None
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
        stop_group(p.pid)
    if inventory:
        with open(console) as f:
            for line in f:
                if line.startswith(("pair", "confirmed")):
                    print(line, end="")
    result = None
    if rc is not None and os.path.exists(out):
        with open(out) as f:
            result = json.load(f)
    shutil.rmtree(work, ignore_errors=True)
    return rc, result


def report(workload, result):
    err("%s: correct=%s attempted=%d failed=%d" % (
        workload, result["correct"], result["attempted"], result["failed"]))
    for name, m in result["metrics"].items():
        err("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def coverage(results):
    """Layer-coverage report: each layer's share of the traced verdict
    on every workload, against where the layer table expects it."""
    err("\nlayer coverage (share of traced verdict_s):")
    err("  %-10s %10s %10s %10s   heavy on / light on" % ("layer", *WORKLOADS))
    ok = True
    for layer, heavy, light in COVERAGE:
        share = {w: results[w]["metrics"][layer + ".share"]["value"]
                 for w in WORKLOADS if w in results}
        holds = heavy in share and light in share and share[heavy] > share[light]
        ok = ok and holds
        err("  %-10s %s   %s / %s %s" % (
            layer, " ".join("%9.1f%%" % (100 * share.get(w, 0)) for w in WORKLOADS),
            heavy, light, "" if holds else "(NOT SHOWN)"))
    for w, parts in (("fork-wide", ["detect"]), ("table1", ["runtime", "strategy"])):
        if w in results:
            s = sum(results[w]["metrics"][p + ".share"]["value"] for p in parts)
            holds = s > 0.5
            ok = ok and holds
            err("  %s share of %s: %.1f%% %s" % (
                "+".join(parts), w, 100 * s, "(majority)" if holds else "(NOT a majority)"))
    for w in WORKLOADS:
        if w in results:
            m = results[w]["metrics"]
            err("  %s tracing overhead: %.3f s on %.3f s untraced" % (
                w, m["trace.overhead_s"]["value"], m["trace.untraced_verdict_s"]["value"]))
    return ok


def run_all(args):
    results, code = {}, 0
    for w in WORKLOADS:
        rc, r = run_one(w, args.seed, args.seconds, args.trace)
        if r is None:
            err("run.py: %s produced no result" % w)
            return 3
        results[w] = r
        report(w, r)
        if rc != 0 or not r["correct"]:
            code = 1
    if args.trace and not coverage(results):
        code = max(code, 1)
    print(json.dumps({w: r for w, r in results.items()}))
    return code


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args):
    spec = bounds()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    saved = {}
    code = 0
    for w in workloads:
        sets = []
        for k in range(args.sets):
            seeds = [args.seed + k * args.steady + i for i in range(args.steady)]
            values = {}
            for s in seeds:
                rc, r = run_one(w, s, args.seconds, args.trace)
                if r is None or rc != 0 or not r["correct"]:
                    err("run.py: %s seed %d failed (exit %s)" % (w, s, rc))
                    code = 1
                    if r is None:
                        continue
                for name, m in r["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                err("%s seed %d: %s" % (w, s, " ".join(
                    "%s=%.4g" % (n, m["value"]) for n, m in r["metrics"].items())))
            sets.append(values)
        saved[w] = sets
        err("\n%s (%d run(s) per set, %d set(s)):" % (w, args.steady, args.sets))
        err("  %-28s %3s %12s %12s %12s %12s %12s %8s %8s" % (
            "metric", "set", "median", "q1", "q3", "min", "max", "spread", "bound"))
        for name in sets[0]:
            bound = spec.get(name, {}).get("bound")
            medians = []
            for k, values in enumerate(sets):
                xs = values.get(name, [])
                if not xs:
                    continue
                q1, med, q3 = quartiles(xs)
                spread = (q3 - q1) / med if med else 0.0
                medians.append(med)
                flag = ""
                if bound is not None and name != "setup_s":
                    flag = "ok" if spread <= bound / 3 else ("wide" if spread <= bound else "OVER")
                    if flag == "OVER":
                        code = max(code, 1)
                err("  %-28s %3d %12.5g %12.5g %12.5g %12.5g %12.5g %7.1f%% %8s %s" % (
                    name, k + 1, med, q1, q3, min(xs), max(xs), 100 * spread,
                    "-" if bound is None else "%.0f%%" % (100 * bound), flag))
            if bound is not None and len(medians) == 2:
                a, b = medians
                better = spec[name]["better"]
                worse = (b - a) / a if better == "lower" else (a - b) / a
                verdict = "agree" if worse <= bound else "DISAGREE"
                if verdict != "agree":
                    code = max(code, 1)
                err("  %-28s second median %+.1f%% worse than first: %s" % (name, 100 * worse, verdict))
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "steady-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump(saved, f)
    err("raw values: %s" % os.path.relpath(path, ROOT))
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N")
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--inventory", action="store_true")
    args = ap.parse_args()
    start = time.time()
    if not build():
        err("run.py: build failed")
        return 2
    if args.steady:
        return steady(args)
    if args.workload == "all":
        return run_all(args)
    limit = RUN_LIMIT_S - (time.time() - start) if time.time() - start < 60 else RUN_LIMIT_S
    rc, r = run_one(args.workload, args.seed, args.seconds, args.trace,
                    limit=max(30.0, limit), inventory=args.inventory)
    if r is None:
        err("run.py: no result (exit %s)" % rc)
        return 3
    report(args.workload, r)
    print(json.dumps(r))
    return 0 if rc == 0 and r["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
