#!/usr/bin/env python3
"""Steadiness check for the RTLCheck benchmark.

    python3 perfbench/steady.py run --runs 10 --out A.json
    python3 perfbench/steady.py show A.json
    python3 perfbench/steady.py compare A.json B.json

`run` runs every workload --runs times for BENCHMARK.json's
run_seconds, each time in a fresh process (perfbench/run.py) with
another seed. Runs are interleaved across workloads and spaced
GAP_S seconds apart, so each workload's runs are spread over the
whole session. `show` prints each end-to-end metric's
median, quartiles and spread (Q3 - Q1 over the median, quartiles as
statistics.quantiles(values, n=4) gives them). `compare` checks two
such sets against the bounds in BENCHMARK.json: every spread but
setup_s's must stay within its bound, no second median may be worse
than the first by more than the bound, and the share of failed
operations must be the same in both sets. It names every metric
outside and exits 1 if there is one.

Run from the repository root.
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
GAP_S = 2.0  # idle time between two runs


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def cmd_run(args):
    bench = load_bench()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out = {"started": time.strftime("%Y-%m-%d %H:%M:%S"),
           "seconds": seconds, "runs": {w: [] for w in workloads}}
    for r in range(args.runs):
        seed = args.seed_base + r
        for w in workloads:
            if r or w != workloads[0]:
                time.sleep(GAP_S)
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            t0 = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().split("\n")
            try:
                res = json.loads(lines[-1])
            except (json.JSONDecodeError, IndexError):
                res = {"correct": False, "attempted": 0, "failed": 0,
                       "metrics": {}}
            rec = {"seed": seed, "exit": proc.returncode,
                   "wall_s": round(time.time() - t0, 2),
                   "correct": res["correct"],
                   "attempted": res["attempted"], "failed": res["failed"],
                   "metrics": {k: v["value"]
                               for k, v in res["metrics"].items()}}
            out["runs"][w].append(rec)
            print(f"run {r + 1}/{args.runs} {w} seed {seed}: "
                  f"exit {proc.returncode}, correct {rec['correct']}, "
                  f"{rec['failed']}/{rec['attempted']} failed, "
                  f"{rec['wall_s']} s", flush=True)
            with open(args.out, "w") as f:
                json.dump(out, f, indent=1)
    show(out, bench)


def show(data, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"set started {data.get('started', '?')}, "
          f"{data.get('seconds', '?')} s per run")
    print(f"{'workload':9} {'metric':19} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for w, runs in data["runs"].items():
        for name, bound in bounds.items():
            vals = [r["metrics"][name] for r in runs
                    if name in r["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = ""
            if name != "setup_s":
                flag = " OUT" if s > bound else (
                    " >1/3" if s > bound / 3 else "")
            print(f"{w:9} {name:19} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{s:7.3f} {bound:6.2f}{flag}")
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        bad = [r["seed"] for r in runs if not r["correct"] or r["exit"]]
        print(f"{w:9} failed/attempted per run: "
              f"{sorted({f / a if a else -1 for f, a in shares})}"
              f"{'  NOT CORRECT on seeds ' + str(bad) if bad else ''}")


def cmd_show(args):
    with open(args.set) as f:
        show(json.load(f), load_bench())


def cmd_compare(args):
    bench = load_bench()
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    outside = []
    print(f"{'workload':9} {'metric':19} {'median 1':>11} {'median 2':>11} "
          f"{'worse':>7} {'spr 1':>6} {'spr 2':>6} {'bound':>6}")
    for w in a["runs"]:
        ra, rb = a["runs"][w], b["runs"].get(w, [])
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name] for r in ra if name in r["metrics"]]
            vb = [r["metrics"][name] for r in rb if name in r["metrics"]]
            if not va or not vb:
                outside.append(f"{w}/{name}: missing")
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else \
                (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            why = []
            if worse > bound:
                why.append(f"median worse by {worse:.3f}")
            if name != "setup_s":
                if sa > bound:
                    why.append(f"spread {sa:.3f} in set 1")
                if sb > bound:
                    why.append(f"spread {sb:.3f} in set 2")
            print(f"{w:9} {name:19} {ma:11.5g} {mb:11.5g} {worse:7.3f} "
                  f"{sa:6.3f} {sb:6.3f} {bound:6.2f}"
                  f"{'  OUTSIDE' if why else ''}")
            if why:
                outside.append(f"{w}/{name}: " + ", ".join(why))
        share = lambda runs: {r["failed"] / r["attempted"]
                              for r in runs if r["attempted"]}
        if share(ra) | share(rb) and len(share(ra) | share(rb)) != 1:
            outside.append(f"{w}: failed share differs "
                           f"({sorted(share(ra))} vs {sorted(share(rb))})")
        for label, runs in (("1", ra), ("2", rb)):
            bad = [r["seed"] for r in runs
                   if not r["correct"] or r["exit"]]
            if bad:
                outside.append(f"{w}: set {label} not correct on seeds {bad}")
    if outside:
        print("outside the bounds:")
        for o in outside:
            print("  " + o)
        sys.exit(1)
    print("every metric within its bound")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run a set of fresh-process runs")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--out", required=True)
    r.add_argument("--seed-base", type=int, default=1,
                   help="run i uses seed seed-base + i")
    r.set_defaults(fn=cmd_run)
    s = sub.add_parser("show", help="summarise one set")
    s.add_argument("set")
    s.set_defaults(fn=cmd_show)
    c = sub.add_parser("compare", help="check two sets against the bounds")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(fn=cmd_compare)
    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
