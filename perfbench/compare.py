"""Collect sets of benchmark runs and compare two sets.

    python3 perfbench/compare.py collect A --seeds 1-10
    python3 perfbench/compare.py collect B --seeds 11-20
    python3 perfbench/compare.py compare A B
    python3 perfbench/compare.py compare PARENT CHANGE --change

``collect`` runs ``perfbench/run.py`` once per workload of BENCHMARK.json
and seed, one run at a time, for the spec's ``run_seconds``, and appends
each run's record to ``perfbench/out/sets/<NAME>.jsonl``.
``compare`` prints, per workload and end-to-end metric, each set's
median and quartiles, the spread (quartile distance over the median) and
whether the two sets agree: both spreads within the metric's bound, the
same share of failed operations, and the medians within the bound of
each other.  Two sets of the same code must agree in both directions:
|B/A - 1| within the bound.  With ``--change`` the second set is a change
measured against the first, and only a worse median counts against it.

``setup_s`` is judged by its medians alone; its spread is printed and
marked.  A set-up lasts half a second, so a run's set-up samples fall
mostly in one of the host's fast or slow spells: on a two-core box whose
operation times spread 0.19 at most, the quartile distance of ten runs'
set-up medians reached 0.34 of their median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = os.path.join(HERE, "out", "sets")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args, spec):
    os.makedirs(SETS, exist_ok=True)
    path = os.path.join(SETS, f"{args.name}.jsonl")
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
                   "--record", path]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{workload} seed {seed}: exit {proc.returncode} {last}", flush=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args, spec):
    sets = []
    for name in (args.first, args.second):
        with open(os.path.join(SETS, f"{name}.jsonl"), encoding="utf-8") as fh:
            sets.append([json.loads(line) for line in fh if line.strip()])
    all_ok = True
    for w in spec["workloads"]:
        runs = [[r for r in s if r["workload"] == w["name"]] for s in sets]
        if not all(runs):
            continue
        shares = []
        for rs in runs:
            attempted = sum(sum(x["attempted"] for x in r["rounds"]) for r in rs)
            failed = sum(sum(x["failed"] for x in r["rounds"]) for r in rs)
            shares.append(failed / attempted)
        print(f"\n{w['name']}  runs {len(runs[0])} / {len(runs[1])}  failed share "
              f"{shares[0]:.4f} / {shares[1]:.4f}")
        print(f"  {'metric':12s} {'median A':>12s} {'q1-q3 A':>25s} {'spread':>7s}"
              f" {'median B':>12s} {'q1-q3 B':>25s} {'spread':>7s} {'B/A-1':>7s} {'bound':>5s}  verdict")
        ok_w = shares[0] == shares[1]
        for m in spec["end_to_end"]:
            stats = []
            for rs in runs:
                q1, med, q3 = quartiles([r["values"][m["name"]] for r in rs])
                stats.append((med, q1, q3, (q3 - q1) / med if med else float("inf")))
            (ma, a1, a3, sa), (mb, b1, b3, sb) = stats
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            drift = worse if args.change else abs(worse)
            spread_ok = sa <= m["bound"] and sb <= m["bound"]
            ok = drift <= m["bound"] and (spread_ok or m["name"] == "setup_s")
            ok_w = ok_w and ok
            if not spread_ok:
                note = " (spread over bound)"
            elif max(sa, sb) >= m["bound"] / 3:
                note = " (spread over bound/3)"
            else:
                note = ""
            verdict = ("agree" if ok else "DISAGREE") + note
            print(f"  {m['name']:12s} {ma:12.6g} {f'{a1:.6g}-{a3:.6g}':>25s} {sa:7.3f}"
                  f" {mb:12.6g} {f'{b1:.6g}-{b3:.6g}':>25s} {sb:7.3f} {worse:+7.3f} {m['bound']:5.2f}  {verdict}")
        all_ok = all_ok and ok_w
    print("\nall agree" if all_ok else "\nsome metric disagrees")
    return 0 if all_ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("name")
    c.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    d = sub.add_parser("compare")
    d.add_argument("first")
    d.add_argument("second")
    d.add_argument("--change", action="store_true",
                   help="the second set is a change against the first: only a worse median counts")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.cmd == "collect":
        collect(args, spec)
        return 0
    return compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
