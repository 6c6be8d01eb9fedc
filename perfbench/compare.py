"""Compare two benchmark result sets, parent and change.

A result set is a directory of untraced per-run files written by
``run.py --out DIR``.  Runs are paired by workload and seed.  For each
workload and end-to-end metric this prints both sides' median and
quartiles, the pairs the change wins, and a verdict:

- gain: the change wins at least 9 in 10 of at least 10 pairs and the
  medians differ by more than the parent's quartile distance;
- unresolved: either side's quartile spread exceeds the metric's bound,
  unless every change run is better than every parent run;
- regression: the change median is worse than the parent's by more than
  the bound;
- within bound: none of the above.

A gain also needs the two sides' runs to alternate in time: on a shared
machine whose speed drifts for minutes at a time, a side run entirely
before the other can win every pair with identical code.  Between 30% and
70% of the pairs must have the parent run first; otherwise a gain is
reported as unresolved.

It also reports, per workload, on how many paired replications the
learned outputs (orders, costs, traces, CI-query counts, skeleton counts)
are identical.  Exit code 1 on a regression or when either set repeats a
seed with different outputs.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
PARENT_FIRST = (0.3, 0.7)


def load_set(directory):
    """{workload: {seed: record}} of the untraced runs in ``directory``."""
    out = defaultdict(dict)
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        out[record["workload"]][record["seed"]] = record
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(metric, parent, change, interleaved):
    """Verdict for paired value lists (same seeds, same order)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(a, b):
        return a < b if lower else a > b

    mp, mc = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(mp) if mp else 0.0,
                 (c3 - c1) / abs(mc) if mc else 0.0)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    all_better = all(better(c, p) for c in change for p in parent)
    worse_by = ((mc - mp) if lower else (mp - mc)) / abs(mp) if mp else 0.0
    if len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) \
            and abs(mc - mp) > p3 - p1:
        result = "gain" if interleaved else "unresolved (not alternated)"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "regression"
    else:
        result = "within bound"
    return {"parent": (mp, p1, p3), "change": (mc, c1, c3), "wins": wins,
            "pairs": len(parent), "spread": spread, "verdict": result}


def _repeats_consistent(directory):
    """Seeds run more than once in a set must give identical outputs;
    result files are keyed by seed, so compare traced and untraced runs."""
    bad = []
    for path in sorted(Path(directory).glob("*-trace1.json")):
        traced = json.loads(path.read_text())
        plain_path = path.with_name(path.name.replace("-trace1", "-trace0"))
        if not plain_path.exists():
            continue
        plain = json.loads(plain_path.read_text())
        if plain["seconds"] == traced["seconds"] \
                and plain["fingerprints"] != traced["fingerprints"]:
            bad.append(path.name)
    return bad


def compare(spec, parent_dir, change_dir):
    parent, change = load_set(parent_dir), load_set(change_dir)
    failed = False
    lengths = {r["seconds"] for runs in (parent, change)
               for by_seed in runs.values() for r in by_seed.values()}
    if len(lengths) > 1:
        print(f"run lengths differ between or within the sets: "
              f"{sorted(lengths)} s; rerun with one --seconds")
        return 1
    for directory in (parent_dir, change_dir):
        for name in _repeats_consistent(directory):
            print(f"{directory}: {name} differs from its untraced run")
            failed = True
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        p_runs = [parent[workload][s] for s in seeds]
        c_runs = [change[workload][s] for s in seeds]
        parent_first = sum(p.get("started", 0) < c.get("started", 0)
                           for p, c in zip(p_runs, c_runs)) / len(seeds)
        interleaved = PARENT_FIRST[0] <= parent_first <= PARENT_FIRST[1]
        print(f"\n{workload}: {len(seeds)} pairs (seeds "
              f"{' '.join(map(str, seeds))}); parent ran first in "
              f"{parent_first:.0%} of them")
        print(f"  {'metric':14s} {'parent median [q1, q3]':>32s} "
              f"{'change median [q1, q3]':>32s} {'wins':>7s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            res = verdict(metric, [r["metrics"][name] for r in p_runs],
                          [r["metrics"][name] for r in c_runs], interleaved)
            failed |= res["verdict"] == "regression"
            cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*res[side])
                     for side in ("parent", "change")]
            print(f"  {name:14s} {cells[0]:>32s} {cells[1]:>32s} "
                  f"{res['wins']:>3d}/{res['pairs']:<3d}  {res['verdict']}"
                  f" (spread {res['spread']:.1%}, bound "
                  f"{metric['bound']:.0%}, {metric['better']} is better)")
        same = total = 0
        for p, c in zip(p_runs, c_runs):
            for fp, fc in zip(p["fingerprints"], c["fingerprints"]):
                total += 1
                same += fp == fc
        failed_p = sum(r["failed"] for r in p_runs)
        failed_c = sum(r["failed"] for r in c_runs)
        print(f"  outputs identical on {same}/{total} paired replications; "
              f"failed replications parent {failed_p}/"
              f"{sum(r['attempted'] for r in p_runs)}, change {failed_c}/"
              f"{sum(r['attempted'] for r in c_runs)}")
    return 1 if failed else 0
