#!/usr/bin/env python3
"""Compare the parent and change sides of a committed paired benchmark record.

    python3 tools/bench_compare.py BENCH_FILE

BENCH_FILE holds paired perfbench runs: "runs" is a list of
{"side": "parent"|"change", "workload", "seed", "first": the side that
ran first in that pair, "result": the run's last stdout line}, in the
order they ran, and "claims" lists the {"workload", "metric"} gains the
change claims. BENCHMARK.json at the root of this checkout gives each
end-to-end metric's direction and bound.

For each workload and end-to-end metric it prints both sides' median
and quartiles, the change in percent and a status:

  worse       the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's interquartile range, as a fraction of its
              median, exceeds the bound, and not every change run beats
              every parent run;
  ok          otherwise.

A claim is met when the side that ran first alternates from pair to
pair (both runs of a pair name the same side), the change wins at least
9 of every 10 pairs (ties count for neither side, and at least 10 pairs
are needed) and the medians differ, in the better direction, by more
than the parent's interquartile range.

Exits 1 on any worse metric, on a higher failed-operation share on any
workload, or on an unmet claim; 0 otherwise.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def quartiles(values):
    """(q1, median, q3) of the values, linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def beats(a, b, better):
    return a > b if better == "higher" else a < b


def pairs_of(runs, workload):
    """{seed: {side: run}} for one workload; every seed needs both sides."""
    pairs = {}
    for r in runs:
        if r["workload"] == workload:
            slot = pairs.setdefault(r["seed"], {})
            if r["side"] in slot:
                sys.exit("bench_compare: two %s runs of %s seed %s"
                         % (r["side"], workload, r["seed"]))
            slot[r["side"]] = r
    for seed, slot in pairs.items():
        if set(slot) != set(SIDES):
            sys.exit("bench_compare: %s seed %s is not a parent/change pair"
                     % (workload, seed))
    return pairs


def alternates(pairs):
    """True when the side that ran first alternates from pair to pair."""
    firsts = []
    for slot in pairs.values():
        first = {slot[s].get("first") for s in SIDES}
        if len(first) != 1 or not first <= set(SIDES):
            return False
        firsts.append(first.pop())
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def value(run, metric):
    return run["result"]["metrics"][metric]["value"]


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: bench_compare.py BENCH_FILE")
    with open(argv[1]) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = bench["runs"]
    problems = []

    print("parent %s, change %s, nproc %s"
          % (bench.get("parent", "?")[:12], bench.get("change", "?")[:12],
             bench.get("nproc", "?")))
    print("%-14s %-24s %-30s %-30s %8s  %s"
          % ("workload", "metric", "parent median [q1, q3]",
             "change median [q1, q3]", "change", "status"))
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = pairs_of(runs, workload)
        if not pairs:
            continue
        for name, m in metrics.items():
            side = {s: [value(p[s], name) for p in pairs.values()]
                    for s in SIDES}
            pq1, pmed, pq3 = quartiles(side["parent"])
            cq1, cmed, cq3 = quartiles(side["change"])
            pct = (cmed - pmed) / pmed * 100 if pmed else 0.0
            if m["better"] == "higher":
                worse = cmed < pmed * (1 - m["bound"])
            else:
                worse = cmed > pmed * (1 + m["bound"])
            separated = all(beats(c, p, m["better"])
                            for c in side["change"] for p in side["parent"])
            wide = pmed and (pq3 - pq1) / abs(pmed) > m["bound"]
            status = ("worse" if worse else
                      "unresolved" if wide and not separated else "ok")
            if worse:
                problems.append("%s %s worse" % (workload, name))
            print("%-14s %-24s %-30s %-30s %+7.1f%%  %s"
                  % (workload, name,
                     "%.4g [%.4g, %.4g]" % (pmed, pq1, pq3),
                     "%.4g [%.4g, %.4g]" % (cmed, cq1, cq3), pct, status))
        share = {}
        for s in SIDES:
            results = [p[s]["result"] for p in pairs.values()]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            share[s] = failed / attempted if attempted else 0.0
            print("%-14s failed ops, %s: %d of %d"
                  % (workload, s, failed, attempted))
        if share["change"] > share["parent"]:
            problems.append("%s failed-op share rose" % workload)

    for claim in bench.get("claims", []):
        workload, name = claim["workload"], claim["metric"]
        better = metrics[name]["better"]
        by_seed = pairs_of(runs, workload)
        if not by_seed:
            problems.append("claim %s %s has no runs" % (workload, name))
            continue
        alternating = alternates(by_seed)
        pairs = by_seed.values()
        wins = sum(beats(value(p["change"], name), value(p["parent"], name),
                         better) for p in pairs)
        parent = [value(p["parent"], name) for p in pairs]
        change = [value(p["change"], name) for p in pairs]
        pq1, pmed, pq3 = quartiles(parent)
        cmed = quartiles(change)[1]
        gap = cmed - pmed if better == "higher" else pmed - cmed
        met = (alternating and len(pairs) >= 10
               and wins * 10 >= 9 * len(pairs) and gap > pq3 - pq1)
        print("claim %s %s: first side %s; change won %d of %d pairs; "
              "median gap %.4g, parent IQR %.4g: %s"
              % (workload, name,
                 "alternates" if alternating else "does not alternate",
                 wins, len(pairs), gap, pq3 - pq1,
                 "met" if met else "not met"))
        if not met:
            problems.append("claim %s %s not met" % (workload, name))

    for p in problems:
        print("bench_compare: " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
