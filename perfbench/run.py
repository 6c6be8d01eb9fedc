#!/usr/bin/env python3
"""Seeded end-to-end benchmark of magorder.

One workload, one seed (the form a harness calls; the last stdout line is
a JSON result):

    python3 perfbench/run.py --workload oracle-hc-er90 --seed 0 \
        --seconds 30 --trace 0

All workloads over several seeds, plus one traced run per workload, with a
summary of every end-to-end metric and the tracing overhead:

    python3 perfbench/run.py --all --seeds 0 1 2 --seconds 30 --out DIR

Compare two result sets written by ``--out`` (parent, then change):

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

The library is imported from ``src/`` of the checkout this file sits in
and driven in-process through ``magorder.cli.run`` with one worker.  See
perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import compare, quartiles
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_OUT = ROOT / ".perfbench"
SETUP_PROBES = 3
# Printed and recorded, but not in BENCHMARK.json: shd and the failed share
# are legitimately 0 on some workloads (shd under an oracle VI, failures
# where nothing fails); the raw cost tracks instance size and the RSS growth
# of oracle-hc-er90 is about 2 MB of allocator noise, so both spread across
# seeds by more than a bound allows.  cost_ratio_mean and peak_rss_mb take
# their places.
PRINTED_ONLY = {"shd_mean": "edges", "cost_mean": "edges",
                "rss_growth_mb": "MB", "failed_share": "share"}


# Replications per run are seconds / rep_s, rounded; rep_s is the planning
# figure for one replication on a 2-core x86 machine (not a measurement the
# run depends on), so a seed and a run length fix the replication set.
WORKLOADS = {
    "oracle-hc-er90": {
        "config": {"graph": {"kind": "er", "n": 90, "p": 0.05},
                   "tester": {"kind": "oracle"},
                   "searcher": {"kind": "hc"}},
        "observed": 90, "rep_s": 8.0,
    },
    "oracle-vi-mag14": {
        "config": {"graph": {"kind": "er", "n": 16, "p": 0.2},
                   "latent": {"count": 2},
                   "tester": {"kind": "oracle"},
                   "searcher": {"kind": "vi"}},
        "observed": 14, "rep_s": 5.5,
    },
    "fisherz-insurance-latent3": {
        "config": {"graph": {"kind": "bundled", "name": "insurance"},
                   "latent": {"count": 3},
                   "tester": {"kind": "fisher_z", "alpha": 0.025,
                              "num_samples": 1350, "standardize": True},
                   "searcher": {"kind": "hc", "initializer": "mb_recursive"},
                   "max_sep_size": 2},
        "observed": 24, "rep_s": 0.75,
    },
}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_magorder():
    """Import magorder from this checkout's src/, or exit non-zero."""
    if not (SRC / "magorder" / "__init__.py").is_file():
        sys.exit(f"error: no magorder sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import magorder.cli
    if Path(magorder.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported magorder from {magorder.__file__}, "
                 f"not from {SRC}")
    return magorder.cli


def replications(workload, seconds):
    return max(1, round(seconds / WORKLOADS[workload]["rep_s"]))


def config_dict(workload, seed, reps):
    return {**WORKLOADS[workload]["config"], "replications": reps,
            "seed": seed, "workers": 1}


# -- measurement helpers ------------------------------------------------------

def rss_mb():
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_seconds(workload):
    """Median time from launching a fresh interpreter until it has imported
    magorder and built the workload config, over SETUP_PROBES launches."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--setup-probe",
                 "--workload", workload],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(elapsed)
    return statistics.median(times)


def fingerprint(row):
    """The deterministic part of a report row: everything but timing."""
    metrics = row["metrics"] or {}
    return {"order": row["order"], "cost": row["cost"],
            "trace": row["trace"], "ci_tests": row["ci_tests"],
            "tp": metrics.get("tp"), "fp": metrics.get("fp"),
            "fn": metrics.get("fn"), "error": row["error"],
            "orientation_conflict": row["orientation_conflict"]}


def check_row(workload, row):
    """Names of the output checks this replication fails."""
    if row["error"] is not None:
        return ["raised"]
    spec = WORKLOADS[workload]["config"]
    oracle = spec["tester"]["kind"] == "oracle"
    m = row["metrics"]
    failed = []
    if sorted(row["order"]) != list(range(WORKLOADS[workload]["observed"])):
        failed.append("order-is-permutation")
    if row["cost"] != m["tp"] + m["fp"]:
        failed.append("cost-equals-tp-plus-fp")
    if spec["searcher"]["kind"] in ("hc", "vi"):
        trace = row["trace"]
        if any(b > a for a, b in zip(trace, trace[1:])) \
                or trace[-1] != row["cost"]:
            failed.append("trace-nonincreasing-ends-at-cost")
    if oracle and m["fn"] != 0:
        failed.append(f"oracle-fn-zero(fn={m['fn']})")
    if oracle and spec["searcher"]["kind"] == "vi" and m["shd"] != 0:
        failed.append(f"oracle-vi-shd-zero(shd={m['shd']})")
    return failed


# -- one run ------------------------------------------------------------------

def run_untraced(cli, workload, seed, seconds):
    setup = setup_seconds(workload)
    reps = replications(workload, seconds)
    config = cli.ExperimentConfig.from_dict(config_dict(workload, seed, reps))
    rss_after_setup = rss_mb()
    t0 = time.perf_counter()
    report = cli.run(config)
    elapsed = time.perf_counter() - t0
    peak = peak_rss_mb()
    rows = report.rows
    good = [r for r in rows if r["error"] is None]

    def mean(values):
        values = list(values)
        return statistics.fmean(values) if values else float("nan")

    metrics = {
        "rep_s_p50": statistics.median(r["wall_clock"] for r in rows),
        "reps_per_s": len(rows) / elapsed,
        "setup_s": setup,
        "peak_rss_mb": peak,
        "rss_growth_mb": peak - rss_after_setup,
        "f1_mean": mean(r["metrics"]["f1"] for r in good),
        "shd_mean": mean(r["metrics"]["shd"] for r in good),
        "cost_ratio_mean": mean(
            r["cost"] / (r["metrics"]["tp"] + r["metrics"]["fn"])
            for r in good),
        "cost_mean": mean(r["cost"] for r in good),
    }
    return rows, metrics, {}


def run_traced(cli, workload, seed, seconds, out_dir):
    """Reference pass through ``magorder run``, then the traced pass.

    The first eighth of the replications runs once untraced through the
    command-line entry point and once traced; their outputs must match
    exactly, which shows that the wrappers change no behaviour and that
    the in-process run equals ``magorder run`` with the same config.
    """
    reps = replications(workload, seconds)
    ref_reps = max(1, reps // 8)
    cfg_path = out_dir / f"{workload}-seed{seed}-reference-config.json"
    ref_path = out_dir / f"{workload}-seed{seed}-reference-report.json"
    cfg_path.write_text(json.dumps(config_dict(workload, seed, ref_reps)))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", "--config", str(cfg_path), "--output",
                  str(ref_path)])
    ref_rows = json.loads(ref_path.read_text())["replications"]

    config = cli.ExperimentConfig.from_dict(config_dict(workload, seed, reps))
    with Tracer() as tracer:
        report = cli.run(config)
    rows = report.rows
    mismatched = [r["index"] for r, ref in zip(rows, ref_rows)
                  if fingerprint(r) != fingerprint(ref)]
    layers = tracer.layer_metrics(rows)
    traced_p50 = statistics.median(r["wall_clock"] for r in rows[:ref_reps])
    plain_p50 = statistics.median(r["wall_clock"] for r in ref_rows)
    layers["trace.overhead_s"] = traced_p50 - plain_p50
    extra = {"mismatched_reps": mismatched, "reference_reps": ref_reps,
             "traced_rep_s_p50": statistics.median(
                 r["wall_clock"] for r in rows),
             "spans": tracer.span_records(),
             "counters": tracer.counter_records()}
    return rows, layers, extra


def run_one(args):
    spec = load_spec()
    started = time.time()
    cli = import_magorder()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        rows, values, extra = run_traced(cli, args.workload, args.seed,
                                         args.seconds, out_dir)
        wanted = spec["per_layer"]
    else:
        rows, values, extra = run_untraced(cli, args.workload, args.seed,
                                           args.seconds)
        wanted = spec["end_to_end"]
    checks = {r["index"]: check_row(args.workload, r) for r in rows}
    failed = sum(bool(c) for c in checks.values())
    if not args.trace:
        values["failed_share"] = failed / len(rows)
    correct = (len(rows) == replications(args.workload, args.seconds)
               and not extra.get("mismatched_reps")
               and all(math.isfinite(values[m["name"]]) for m in wanted))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"replications {len(rows)}  trace {args.trace}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(PRINTED_ONLY)
    for name, value in values.items():
        note = f"  (n={len(rows)})" if name == "rep_s_p50" else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
    for index, failures in checks.items():
        if failures:
            print(f"  rep {index} failed checks: {', '.join(failures)}")
    if extra.get("mismatched_reps"):
        print(f"  DETERMINISM: traced output differs from the reference "
              f"run on replications {extra['mismatched_reps']}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "started": started, "correct": correct,
              "attempted": len(rows), "failed": failed, "metrics": values,
              "checks": checks, "fingerprints": [fingerprint(r) for r in rows],
              "wall_clock": [r["wall_clock"] for r in rows], **extra}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": len(rows), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted}}))
    return 0


def setup_probe(args):
    cli = import_magorder()
    cli.ExperimentConfig.from_dict(config_dict(args.workload, 0, 1))
    print("ready", flush=True)
    return 0


# -- all workloads ------------------------------------------------------------

def run_all(args):
    """Each workload untraced on every seed, then traced on the first seed.

    Prints each end-to-end metric's median and quartile spread over the
    seeds, the tracing overhead, and whether the traced run reproduced the
    untraced outputs.  Exit code 1 if any run failed or mismatched."""
    spec = load_spec()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bad = False
    for workload in WORKLOADS:
        results = []
        for trace, seeds in ((0, args.seeds), (1, args.seeds[:1])):
            for seed in seeds:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(args.seconds), "--trace", str(trace), "--out",
                       str(out_dir)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed} trace {trace}: exit "
                          f"{proc.returncode}")
                    bad = True
                    continue
                path = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
                results.append(json.loads(path.read_text()))
        plain = [r for r in results if r["trace"] == 0]
        traced = [r for r in results if r["trace"] == 1]
        print(f"\n{workload}: {len(plain)} untraced runs, seeds "
              f"{' '.join(str(s) for s in args.seeds)}")
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units.update(PRINTED_ONLY)
        for name in units:
            values = [r["metrics"][name] for r in plain]
            if not values:
                continue
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "ok" if spread <= bound / 3 else (
                    "within bound" if spread <= bound else "OVER BOUND")
            print(f"  {name:16s} median {med:12.6g} {units[name]:6s} "
                  f"spread {spread:7.2%}"
                  + (f"  bound {bound:.0%} {verdict}" if bound else ""))
        failed = sum(r["failed"] for r in plain)
        attempted = sum(r["attempted"] for r in plain)
        print(f"  failed replications {failed}/{attempted}")
        for t in traced:
            same = next((r for r in plain if r["seed"] == t["seed"]), None)
            if same is None:
                continue
            match = same["fingerprints"] == t["fingerprints"]
            overhead = t["traced_rep_s_p50"] - same["metrics"]["rep_s_p50"]
            print(f"  traced seed {t['seed']}: outputs "
                  f"{'match' if match else 'DIFFER FROM'} the untraced run; "
                  f"tracing overhead {overhead:+.4f} s per replication "
                  f"({overhead / same['metrics']['rep_s_p50']:+.1%})")
            bad |= not match
        bad |= not all(r["correct"] for r in results)
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="directory for per-run result files")
    parser.add_argument("--all", action="store_true",
                        help="run every workload over --seeds")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two result directories")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(load_spec(), *args.compare)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload, --all or --compare")
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
