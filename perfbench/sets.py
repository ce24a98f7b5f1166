#!/usr/bin/env python3
"""Run sets of benchmark runs and compare them.

    python3 perfbench/sets.py run A.jsonl --seeds 1-10 [--workloads ingest,kernel] [--trace 0]
    python3 perfbench/sets.py compare A.jsonl [B.jsonl]

`run` runs perfbench/run.py once per workload and seed and appends one
JSON line per run ({"workload", "seed", "trace", "exit", "result"}) to
the set file. `compare` prints, for every workload and end-to-end
metric, each set's median and quartiles (statistics.quantiles, n=4)
and the spread (interquartile distance over the median) against the
metric's bound from BENCHMARK.json. Given two sets it adds a verdict
on the second set's median against the first's: "ok" when it is not
worse by more than the bound, "WORSE" when it is, and "unresolved"
when either set's spread exceeds the bound (setup_s is exempt from the
spread rule, as it has no spread gate). Traced runs in a set (trace 1)
are summarised per layer, with the traced end-to-end numbers beside
the untraced ones as the tracing overhead.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = p.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                result = None
            rec = {"workload": w, "seed": seed, "trace": args.trace, "exit": p.returncode, "result": result}
            with open(args.out, "a") as f:
                f.write(json.dumps(rec) + "\n")
            print(f"{w} seed {seed}: exit {p.returncode}", flush=True)
    return 0


def load_set(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def values(runs, workload, trace, metric):
    out = []
    for r in runs:
        res = r.get("result")
        if r["workload"] == workload and r["trace"] == trace and res and metric in res["metrics"]:
            out.append(res["metrics"][metric]["value"])
    return out


def stats(vals):
    """median, q1, q3 and spread, or None with fewer than two values."""
    if len(vals) < 2:
        return None
    q1, med, q3 = statistics.quantiles(vals, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def fmt(s):
    if s is None:
        return "n/a"
    med, q1, q3, spread = s
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}"


def cmd_compare(args):
    spec = load_spec()
    sets = [load_set(p) for p in args.sets]
    bad = 0
    for w in [x["name"] for x in spec["workloads"]]:
        print(f"== {w}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            st = [stats(values(s, w, 0, name)) for s in sets]
            line = f"  {name:<20} bound {bound:<5}"
            for s in st:
                line += f" | {fmt(s)}"
            verdict = ""
            if len(st) == 2 and st[0] and st[1]:
                a, b = st[0][0], st[1][0]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                noisy = name != "setup_s" and max(st[0][3], st[1][3]) > bound
                verdict = "WORSE" if worse > bound else ("unresolved" if noisy else "ok")
                line += f" | change {100 * ((b - a) / a):+.1f}% {verdict}"
            elif len(st) == 1 and st[0] and name != "setup_s":
                verdict = "ok" if st[0][3] <= bound else "SPREAD"
                line += f" | {verdict}"
            if verdict in ("WORSE", "SPREAD"):
                bad += 1
            print(line)
        traced = [s for s in sets if any(r["workload"] == w and r["trace"] == 1 for r in s)]
        if traced:
            print("  per-layer (traced runs):")
            for m in spec["per_layer"]:
                line = f"    {m['name']:<28}"
                for s in sets:
                    line += f" | {fmt(stats(values(s, w, 1, m['name'])))}"
                print(line)
            for s in sets:
                for e2e in ("throughput_rps", "latency_p50_ms", "latency_p99_ms"):
                    t, u = values(s, w, 1, "traced." + e2e), values(s, w, 0, e2e)
                    if t and u:
                        tm, um = statistics.median(t), statistics.median(u)
                        print(f"  tracing overhead {e2e}: traced {tm:.6g} vs untraced {um:.6g} ({100 * (tm - um) / um:+.1f}%)")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", default="")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, default=0, choices=(0, 1))
    c = sub.add_parser("compare")
    c.add_argument("sets", nargs="+")
    args = ap.parse_args()
    if args.cmd == "compare" and len(args.sets) > 2:
        ap.error("compare takes one or two set files")
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
