#!/usr/bin/env python3
"""Compare perfbench run records (standard library only).

    python3 perfbench/compare.py RECORDS_A [RECORDS_B] [--bench BENCHMARK.json]

Each RECORDS argument is a directory (searched recursively) or a single
run-record file, as written by perfbench under .bench_build/records/.

With one set, prints per workload and metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, and judges
each end-to-end metric's spread against its bound in BENCHMARK.json.

With two sets (A = baseline, B = candidate), also prints B's median change
against A, oriented so that a positive change is an improvement, and the
share of (a, b) pairs that B wins. An end-to-end metric whose B median is
worse than A's by more than its bound is a REGRESSION. The share of failed
operations must be exactly equal between the sets.

Exits 1 if any check fails, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys


def load_records(path):
    files = []
    if os.path.isdir(path):
        for root, _, names in os.walk(path):
            files += [os.path.join(root, n) for n in names if n.endswith(".json")]
    else:
        files = [path]
    records = []
    for f in sorted(files):
        with open(f) as fh:
            try:
                rec = json.load(fh)
            except json.JSONDecodeError:
                continue
        if isinstance(rec, dict) and "workload" in rec and "metrics" in rec:
            records.append(rec)
    return records


def group(records):
    """(workload, trace) -> {"metrics": {name: [values]}, "units": {}, "failed": [], ...}"""
    out = {}
    for rec in records:
        key = (rec["workload"], bool(rec.get("trace")))
        g = out.setdefault(key, {"metrics": {}, "units": {}, "failed": [], "attempted": [],
                                 "correct": [], "steal": []})
        for m in rec["metrics"] + (rec.get("reported") or []):
            g["metrics"].setdefault(m["name"], []).append(float(m["value"]))
            g["units"][m["name"]] = m["unit"]
        g["failed"].append(int(rec["failed"]))
        g["attempted"].append(int(rec["attempted"]))
        g["correct"].append(bool(rec["correct"]))
        g["steal"].append(float(rec.get("machine", {}).get("steal_pct", -1)))
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def failed_share(g):
    att = sum(g["attempted"])
    return sum(g["failed"]) / att if att else 0.0


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0
    return (a - b) / a if better == "higher" else (b - a) / a


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b", nargs="?")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()

    spec = {}
    if os.path.exists(args.bench):
        with open(args.bench) as fh:
            bench = json.load(fh)
        for m in bench.get("end_to_end", []):
            spec[m["name"]] = {"better": m["better"], "bound": m["bound"], "e2e": True}
        for m in bench.get("per_layer", []):
            spec[m["name"]] = {"better": m["better"], "bound": None, "e2e": False}

    a = group(load_records(args.a))
    b = group(load_records(args.b)) if args.b else None
    if not a:
        print("no run records under %s" % args.a)
        return 1
    problems = 0
    for key in sorted(a):
        workload, trace = key
        ga = a[key]
        gb = b.get(key) if b is not None else None
        n_b = len(gb["failed"]) if gb else 0
        print("\n== %s (%s)  runs: A=%d%s" % (workload, "traced" if trace else "untraced",
                                             len(ga["failed"]), " B=%d" % n_b if gb else ""))
        if not all(ga["correct"]) or (gb and not all(gb["correct"])):
            print("   INCORRECT runs present")
            problems += 1
        fa = failed_share(ga)
        line = "   failed share A=%.6g" % fa
        if gb:
            fb = failed_share(gb)
            line += " B=%.6g" % fb
            if fa != fb:
                line += "  MISMATCH"
                problems += 1
        print(line)
        steal = [s for s in ga["steal"] if s >= 0]
        if steal:
            print("   machine steal %% A: median %.2f max %.2f" % (statistics.median(steal), max(steal)))
        if gb:
            print("   %-34s %12s %12s %8s %7s %7s %7s  %s" % ("metric", "median A", "median B", "change",
                                                             "sprdA", "sprdB", "B wins", "verdict"))
        else:
            print("   %-34s %12s %12s %12s %7s %7s  %s" % ("metric", "q1", "median", "q3", "spread",
                                                           "bound", "verdict"))
        for name in sorted(ga["metrics"], key=lambda n: (not spec.get(n, {}).get("e2e", False), n)):
            va = ga["metrics"][name]
            s = spec.get(name, {"better": "lower", "bound": None, "e2e": False})
            bound = s["bound"]
            q1, med, q3 = quartiles(va)
            sa = spread(va)
            verdict = ""
            if bound is not None and sa > bound:
                verdict = "SPREAD>BOUND"
                problems += 1
            elif bound is not None and sa > bound / 3:
                verdict = "spread>bound/3"
            if gb is None:
                print("   %-34s %12.4f %12.4f %12.4f %7.3f %7s  %s" % (
                    name, q1, med, q3, sa, "%.3f" % bound if bound is not None else "-", verdict))
                continue
            vb = gb["metrics"].get(name)
            if not vb:
                print("   %-34s %12.4f %12s  MISSING in B" % (name, med, "-"))
                problems += 1
                continue
            mb = statistics.median(vb)
            w = worse_by(med, mb, s["better"])
            pairs = [(x, y) for x in va for y in vb]
            if s["better"] == "higher":
                wins = sum(1 for x, y in pairs if y > x)
            else:
                wins = sum(1 for x, y in pairs if y < x)
            sb = spread(vb)
            if bound is not None:
                if w > bound:
                    verdict = "REGRESSION (> %.0f%%)" % (100 * bound)
                    problems += 1
                else:
                    verdict = "ok (bound %.0f%%)" % (100 * bound)
                if sb > bound:
                    verdict += " SPREAD_B>BOUND"
                    problems += 1
            print("   %-34s %12.4f %12.4f %+7.1f%% %7.3f %7.3f %6.0f%%  %s" % (
                name, med, mb, -100 * w, sa, sb, 100 * wins / len(pairs), verdict))
    if b is not None:
        for key in sorted(set(b) - set(a)):
            print("\n== %s (%s): only in B" % (key[0], "traced" if key[1] else "untraced"))
    print("\n%d problem(s)" % problems)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
