"""Command-line experiment harness.

Subcommands: ``run`` executes replicated learn-and-score experiments
from a JSON config and/or flags and writes a versioned JSON report;
``selfcheck`` runs the oracle property suite of ``magorder.checks``;
``gen`` emits a synthetic instance to files; ``score`` compares two
edge-list graphs.
Exit codes: 0 success, 1 check/run failure, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import numbers
import os
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .ci import DataMatrix, FisherZCiTester, OracleCiTester
from .data import (
    bundled_networks,
    erdos_renyi_dag,
    load_bundled,
    load_network,
    make_latent_instance,
    random_sem,
    sample_sem,
    save_data,
    save_network,
    score,
    standardize_sem,
)
from .checks import selfcheck
from .discovery import NeighborFinder, learn_skeleton, orient
from .errors import ConfigError, EdgeListParseError, OrientationConflict
from .search import (INITIALIZERS, HcConfig, PgConfig, ViConfig, hill_climb,
                     policy_gradient, value_iteration)

SCHEMA_VERSION = 1

# The keys each graph kind takes besides ``kind``.
GRAPH_KEYS = {"er": ("n", "p"), "file": ("path", "manifest"),
              "bundled": ("name",)}


@dataclass(frozen=True)
class OracleConfig:
    """The m-separation oracle takes no settings."""


@dataclass(frozen=True)
class FisherZConfig:
    alpha: float = 0.01
    num_samples: int | None = None
    standardize: bool = False

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be a number in (0, 1)")
        if self.num_samples is not None and self.num_samples < 1:
            raise ValueError("num_samples must be a positive integer")

    def sample_size(self, observed):
        """``num_samples``, or 50 per observed variable when unset."""
        return self.num_samples or 50 * observed


# The settings class of each kind: its fields are the kind's only keys.
TESTERS = {"oracle": OracleConfig, "fisher_z": FisherZConfig}
SEARCHERS = {"hc": HcConfig, "vi": ViConfig, "pg": PgConfig}


def _fits(value, hint):
    """Whether a JSON value fits a type hint such as ``int | None``: a bool
    fits only ``bool``, and any real number fits ``float``."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    return any(isinstance(value, numbers.Real if t is float else t)
               for t in allowed)


def _check_types(cls, values, where=""):
    """ConfigError unless each value fits the type hint of the field of
    that name in the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    for name, value in values.items():
        hint = hints[name]
        if not _fits(value, hint):
            raise ConfigError(f"{where}{name} must be "
                              f"{getattr(hint, '__name__', hint)}, "
                              f"got {value!r}")


def _check_keys(section, allowed, what):
    """ConfigError naming the keys of ``section`` outside ``allowed``."""
    extra = set(section) - set(allowed)
    if extra:
        raise ConfigError(f"unknown {what}: {sorted(extra)}")


def _settings(table, section, role):
    """The settings object for a ``{"kind": ..., **settings}`` section."""
    kind = section.get("kind")
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{role} kind must be one of {tuple(table)}")
    values = {k: v for k, v in section.items() if k != "kind"}
    _check_keys(values, [f.name for f in fields(table[kind])],
                f"{role} keys for kind {kind!r}")
    _check_types(table[kind], values, f"{role} ")
    try:
        return table[kind](**values)
    except ValueError as exc:
        raise ConfigError(f"{role} {kind}: {exc}") from None


# -- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: graph source, tester, searcher, replication plan.

    The three variant parts are plain dicts with a ``kind`` key so the
    whole config round-trips through JSON unchanged; the tester and
    searcher settings they hold are also kept as typed objects.
    """

    graph: dict
    tester: dict = field(default_factory=lambda: {"kind": "oracle"})
    searcher: dict = field(default_factory=lambda: {"kind": "hc"})
    latent: dict | None = None
    replications: int = 1
    seed: int = 0
    workers: int = 1
    max_sep_size: int | None = None
    output: str | None = None
    tester_settings: object = field(init=False, repr=False, compare=False)
    searcher_settings: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_types(type(self), self.to_dict())
        kind = self.graph.get("kind")
        if not isinstance(kind, str) or kind not in GRAPH_KEYS:
            raise ConfigError(f"graph kind must be one of {tuple(GRAPH_KEYS)}")
        _check_keys(self.graph, ("kind", *GRAPH_KEYS[kind]),
                    f"graph keys for kind {kind!r}")
        if kind == "er":
            n, p = self.graph.get("n"), self.graph.get("p")
            if not _fits(n, int) or n < 1:
                raise ConfigError("er graph needs a positive integer n")
            if not _fits(p, float) or not 0 <= p <= 1:
                raise ConfigError("er graph needs p in [0, 1]")
        elif kind == "file":
            if not self.graph.get("path"):
                raise ConfigError("file graph needs a path")
            manifest = self.graph.get("manifest")
            counts = (manifest if not isinstance(manifest, dict)
                      else [manifest.get("n"), manifest.get("e")])
            if manifest is not None and not (
                    isinstance(counts, (list, tuple)) and len(counts) == 2
                    and all(_fits(v, int) for v in counts)):
                raise ConfigError('file graph manifest must be [n, e] or '
                                  '{"n": n, "e": e}')
        elif self.graph.get("name") not in bundled_networks():
            raise ConfigError(f"bundled graph name must be one of "
                              f"{bundled_networks()}")
        object.__setattr__(self, "tester_settings",
                           _settings(TESTERS, self.tester, "tester"))
        object.__setattr__(self, "searcher_settings",
                           _settings(SEARCHERS, self.searcher, "searcher"))
        if self.latent is not None:
            _check_keys(self.latent, ("fraction", "count"), "latent keys")
            frac, count = self.latent.get("fraction"), self.latent.get(
                "count")
            if (frac is None) == (count is None):
                raise ConfigError(
                    "latent spec needs exactly one of fraction or count")
            if frac is not None and (not _fits(frac, float)
                                     or not 0 <= frac < 1):
                raise ConfigError("latent fraction must lie in [0, 1)")
            if count is not None and (not _fits(count, int) or count < 0):
                raise ConfigError("latent count must be a nonnegative int")
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.max_sep_size is not None and self.max_sep_size < 0:
            raise ConfigError("max_sep_size must be nonnegative")

    @classmethod
    def from_dict(cls, raw):
        _check_shape(raw)
        if "graph" not in raw:
            raise ConfigError("config needs a graph section")
        return cls(**raw)

    def to_dict(self):
        return {f.name: copy.copy(getattr(self, f.name))
                for f in fields(self) if f.init}


def _check_shape(raw):
    """ConfigError unless ``raw`` is a JSON object of config keys, each
    holding a value of its field's type."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, "
                          f"got {type(raw).__name__}")
    _check_keys(raw, [f.name for f in fields(ExperimentConfig) if f.init],
                "config keys")
    _check_types(ExperimentConfig, raw)


def _build_graph(config, seed):
    kind = config.graph["kind"]
    if kind == "er":
        return erdos_renyi_dag(config.graph["n"], config.graph["p"],
                               seed=seed)
    if kind == "file":
        return load_network(config.graph["path"],
                            manifest=config.graph.get("manifest"))
    return load_bundled(config.graph["name"])


# -- one replication ---------------------------------------------------------

def _run_replication(config, index, seed_seq):
    started = time.perf_counter()
    row = {"index": index, "error": None, "metrics": None, "cost": None,
           "trace": None, "ci_tests": None, "order": None,
           "orientation_conflict": None, "wall_clock": None}
    try:
        streams = seed_seq.spawn(5)
        graph_seed, latent_seed, sem_seed, data_seed, search_seed = streams
        base = _build_graph(config, graph_seed)
        truth, observed = base, tuple(range(base.n))
        if config.latent is not None:
            truth, observed = make_latent_instance(
                base, config.latent.get("fraction", 0.0), seed=latent_seed,
                num_latent=config.latent.get("count"))
        tester = _build_tester(config, base, truth, observed,
                               sem_seed, data_seed)
        order, skeleton, trace = _search(config, tester, search_seed)
        try:
            orient(skeleton, names=truth.names)
        except OrientationConflict as exc:
            row["orientation_conflict"] = str(exc)
        row["metrics"] = score(skeleton, truth).as_dict()
        row["cost"] = skeleton.cost()
        row["trace"] = trace
        row["ci_tests"] = tester.query_count
        row["order"] = list(order)
    except Exception as exc:  # recorded, run continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_clock"] = time.perf_counter() - started
    return row


def _build_tester(config, base, truth, observed, sem_seed, data_seed):
    cfg = config.tester_settings
    if isinstance(cfg, OracleConfig):
        return OracleCiTester(truth)
    if base.bidirected or not base.is_dag():
        raise ConfigError("fisher_z needs a DAG graph source")
    spec = random_sem(base, seed=sem_seed)
    if cfg.standardize:
        spec = standardize_sem(spec)
    data = sample_sem(spec, cfg.sample_size(len(observed)), seed=data_seed)
    values = data.values[:, observed]
    names = None
    if data.names is not None:
        names = tuple(data.names[i] for i in observed)
    return FisherZCiTester(DataMatrix(values, names), alpha=cfg.alpha)


def _search(config, tester, search_seed):
    finder = NeighborFinder(tester, config.max_sep_size)
    cfg = config.searcher_settings
    if isinstance(cfg, HcConfig):
        res = hill_climb(finder, cfg,
                         seed=int(search_seed.generate_state(1)[0]))
        return res.order, res.skeleton, [cost for _, cost, _ in res.trace]
    if isinstance(cfg, ViConfig):
        res = value_iteration(finder, cfg)
        skeleton = learn_skeleton(res.order, finder)
        return res.order, skeleton, [res.total_cost]
    res = policy_gradient(finder, cfg,
                          seed=int(search_seed.generate_state(1)[0]))
    skeleton = learn_skeleton(res.order, finder)
    return res.order, skeleton, [-r for r in res.rewards]


def _run_replication_args(packed):
    return _run_replication(*packed)


# -- the run command ---------------------------------------------------------

def _student_t_cdf(t, df):
    """P(T <= t) for Student's t with integer ``df`` >= 1 and t >= 0, by
    the finite series of Abramowitz & Stegun 26.7.3-4."""
    theta = math.atan(t / math.sqrt(df))
    s, c = math.sin(theta), math.cos(theta)
    c2 = c * c
    term = total = 1.0 if df % 2 == 0 else c
    for k in range(2 + df % 2, df - 1, 2):
        term *= c2 * (k - 1) / k
        total += term
    if df % 2 == 0:
        both = s * total
    else:
        both = 2 / math.pi * (theta + (s * total if df > 1 else 0.0))
    return 0.5 + both / 2


def _student_t_quantile(p, df):
    """Quantile of Student's t for integer ``df`` and 0.5 <= p < 1, by
    bisection on ``_student_t_cdf`` down to adjacent floats."""
    lo, hi = 0.0, 1.0
    while _student_t_cdf(hi, df) < p:
        lo, hi = hi, 2 * hi
    while True:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            return hi
        if _student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid


def _mean_ci(values):
    k = len(values)
    if k == 0:
        return None
    mean = float(np.mean(values))
    if k == 1:
        return {"mean": mean, "ci80": None}
    half = float(_student_t_quantile(0.90, k - 1)
                 * np.std(values, ddof=1) / np.sqrt(k))
    return {"mean": mean, "ci80": [mean - half, mean + half]}


def _aggregate(rows):
    good = [r for r in rows if r["error"] is None]
    out = {"replications": len(rows), "failures": len(rows) - len(good)}
    for key in ("shd", "f1", "precision", "recall"):
        out[key] = _mean_ci([r["metrics"][key] for r in good])
    out["cost"] = _mean_ci([r["cost"] for r in good])
    out["ci_tests"] = _mean_ci([r["ci_tests"] for r in good])
    out["wall_clock"] = _mean_ci([r["wall_clock"] for r in good])
    return out


@dataclass
class RunReport:
    config: dict
    rows: list
    aggregate: dict
    elapsed: float
    schema_version: int = SCHEMA_VERSION

    def to_dict(self):
        return {"schema_version": self.schema_version,
                "config": self.config, "replications": self.rows,
                "aggregate": self.aggregate, "elapsed": self.elapsed}

    def summary_text(self):
        agg = self.aggregate
        lines = [f"replications: {agg['replications']} "
                 f"(failures: {agg['failures']})"]
        for key in ("shd", "f1", "precision", "recall", "cost", "ci_tests"):
            stats = agg[key]
            if stats is None:
                lines.append(f"{key:>10}: n/a")
                continue
            text = f"{key:>10}: {stats['mean']:.4f}"
            if stats["ci80"] is not None:
                lo, hi = stats["ci80"]
                text += f"  (80% CI {lo:.4f} .. {hi:.4f})"
            lines.append(text)
        for row in self.rows:
            if row["error"] is not None:
                lines.append(f"rep {row['index']} failed: {row['error']}")
        return "\n".join(lines)


def _check_observed(config):
    """Reject a graph file that does not load, a latent spec that hides
    every vertex, more observed vertices than the VI subset-table cap, and
    a Fisher-Z sample size too small for the total-conditioning Markov
    boundaries, which condition each pair on every other observed variable
    and so need more than ``observed + 1`` samples."""
    num = getattr(config.tester_settings, "num_samples", None)
    cap = getattr(config.searcher_settings, "cap", None)
    kind = config.graph["kind"]
    if kind == "file":
        try:
            n = _build_graph(config, None).n
        except (OSError, ValueError) as exc:
            raise ConfigError(f"graph file {config.graph['path']!r}: "
                              f"{exc}") from None
    elif config.latent is None and num is None and cap is None:
        return
    else:
        n = config.graph["n"] if kind == "er" \
            else _build_graph(config, None).n
    latent = config.latent or {}
    hidden = latent.get("count")
    if hidden is None:
        hidden = round(latent.get("fraction", 0.0) * n)
    observed = n - hidden
    if observed < 1:
        raise ConfigError(f"the latent spec hides {hidden} of {n} "
                          f"vertices; at least one must stay observed")
    if cap is not None and observed > cap:
        raise ConfigError(f"vi searcher cap {cap} is below the {observed} "
                          f"observed vertices")
    if num is not None and num <= observed + 1:
        raise ConfigError(
            f"fisher_z needs more than observed + 1 = {observed + 1} "
            f"samples for the Markov boundaries, got {num}")


def run(config):
    """Execute all replications of ``config`` and return a RunReport.

    Replication seeds are spawned from the master seed by index, so
    reports are identical across runs and worker counts (wall-clock
    fields aside).  A failed replication is recorded in its row and the
    remaining replications still run.
    """
    started = time.perf_counter()
    _check_observed(config)
    children = np.random.SeedSequence(config.seed).spawn(
        config.replications)
    jobs = [(config, i, child) for i, child in enumerate(children)]
    if config.workers == 1:
        rows = [_run_replication(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_run_replication_args, jobs))
    rows.sort(key=lambda r: r["index"])
    return RunReport(config=config.to_dict(), rows=rows,
                     aggregate=_aggregate(rows),
                     elapsed=time.perf_counter() - started)


# -- argument parsing ---------------------------------------------------------

def _add_run_flags(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--er", nargs=2, metavar=("N", "P"),
                     help="Erdos-Renyi graph source")
    sub.add_argument("--graph-file", help="edge-list graph source")
    sub.add_argument("--network", help="bundled network source",
                     choices=bundled_networks())
    sub.add_argument("--latent-fraction", type=float)
    sub.add_argument("--latent-count", type=int)
    sub.add_argument("--tester", choices=tuple(TESTERS))
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--samples", type=int,
                     help="sample size (default 50 per observed variable)")
    sub.add_argument("--standardize", action="store_true", default=None,
                     help="rescale the SEM to unit population variances")
    sub.add_argument("--searcher", choices=tuple(SEARCHERS))
    sub.add_argument("--max-iter", type=int)
    sub.add_argument("--max-swap", type=int)
    sub.add_argument("--initializer", choices=INITIALIZERS)
    sub.add_argument("--vi-cap", type=int)
    sub.add_argument("--episodes", type=int)
    sub.add_argument("--learning-rate", type=float)
    sub.add_argument("--replications", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--max-sep-size", type=int)
    sub.add_argument("--output", help="write the JSON report here")


def _config_from_args(args):
    raw = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not UTF-8: "
                              f"{exc}") from None
        _check_shape(raw)
    sources = [s for s in (args.er and "er", args.graph_file and "file",
                           args.network and "bundled") if s]
    if len(sources) > 1:
        raise ConfigError("give at most one graph source flag")
    if sources:
        if sources[0] == "er":
            try:
                n, p = int(args.er[0]), float(args.er[1])
            except ValueError:
                raise ConfigError("--er needs an integer N and a float P") \
                    from None
            raw["graph"] = {"kind": "er", "n": n, "p": p}
        elif sources[0] == "file":
            raw["graph"] = {"kind": "file", "path": args.graph_file}
        else:
            raw["graph"] = {"kind": "bundled", "name": args.network}
    if args.latent_fraction is not None or args.latent_count is not None:
        raw["latent"] = {}
        if args.latent_fraction is not None:
            raw["latent"]["fraction"] = args.latent_fraction
        if args.latent_count is not None:
            raw["latent"]["count"] = args.latent_count
    tester = dict(raw.get("tester", {}))
    if args.tester:
        tester["kind"] = args.tester
    if args.alpha is not None:
        tester["alpha"] = args.alpha
    if args.samples is not None:
        tester["num_samples"] = args.samples
    if args.standardize is not None:
        tester["standardize"] = args.standardize
    if tester:
        tester.setdefault("kind", "fisher_z")
        raw["tester"] = tester
    searcher = dict(raw.get("searcher", {}))
    if args.searcher:
        searcher["kind"] = args.searcher
    for key, value in (("max_iter", args.max_iter),
                       ("max_swap", args.max_swap),
                       ("initializer", args.initializer),
                       ("cap", args.vi_cap),
                       ("episodes", args.episodes),
                       ("learning_rate", args.learning_rate)):
        if value is not None:
            searcher[key] = value
    if searcher:
        searcher.setdefault("kind", "hc")
        raw["searcher"] = searcher
    for key, value in (("replications", args.replications),
                       ("seed", args.seed), ("workers", args.workers),
                       ("max_sep_size", args.max_sep_size),
                       ("output", args.output)):
        if value is not None:
            raw[key] = value
    return ExperimentConfig.from_dict(raw)


def cmd_run(args):
    config = _config_from_args(args)
    if config.output:
        folder = os.path.dirname(config.output) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"output directory {folder!r} does not exist")
        if os.path.isdir(config.output):
            raise ConfigError(f"output {config.output!r} is a directory")
    report = run(config)
    if config.output:
        with open(config.output, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    print(report.summary_text())
    return 0 if report.aggregate["failures"] < len(report.rows) else 1


def cmd_selfcheck(args):
    rows = selfcheck(cap=args.cap, seed=args.seed)
    for row in rows:
        if row["ok"]:
            print(f"ok   {row['name']}")
        else:
            print(f"FAIL {row['name']}: {row['detail']}")
    return 0 if all(row["ok"] for row in rows) else 1


def cmd_gen(args):
    if args.n < 0:
        raise ConfigError("--n must be nonnegative")
    if not 0 <= args.p <= 1:
        raise ConfigError("--p must lie in [0, 1]")
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    if args.latent_count is not None and not 0 <= args.latent_count < args.n:
        raise ConfigError("--latent-count must lie in [0, n): at least one "
                          "vertex must stay observed")
    if args.samples is not None and args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    seeds = np.random.SeedSequence(args.seed).spawn(4)
    graph_seed, latent_seed, sem_seed, data_seed = seeds
    dag = erdos_renyi_dag(args.n, args.p, seed=graph_seed)
    wrote = []
    save_network(dag, f"{args.out}.edges")
    wrote.append(f"{args.out}.edges")
    observed = tuple(range(dag.n))
    if args.latent_count is not None:
        mag, observed = make_latent_instance(
            dag, 0.0, seed=latent_seed, num_latent=args.latent_count)
        save_network(mag, f"{args.out}_observed.edges")
        wrote.append(f"{args.out}_observed.edges")
        with open(f"{args.out}_observed.json", "w") as fh:
            json.dump({"observed": list(observed)}, fh)
            fh.write("\n")
        wrote.append(f"{args.out}_observed.json")
    if args.samples is not None:
        spec = random_sem(dag, seed=sem_seed)
        if args.standardize:
            spec = standardize_sem(spec)
        data = sample_sem(spec, args.samples, seed=data_seed)
        if len(observed) != dag.n:
            data = DataMatrix(data.values[:, observed])
        save_data(data, f"{args.out}.csv")
        wrote.append(f"{args.out}.csv")
    for path in wrote:
        print(path)
    return 0


def cmd_score(args):
    learned = load_network(args.learned)
    truth = load_network(args.truth)
    try:
        metrics = score(learned, truth)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(json.dumps(metrics.as_dict(), indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magorder",
        description="Order-based structure learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a replicated experiment")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("selfcheck",
                             help="run the oracle property suite")
    p_check.add_argument("--cap", type=int, default=5,
                         help="vertex cap for exhaustive checks")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_selfcheck)

    p_gen = sub.add_parser("gen", help="emit a synthetic instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--latent-count", type=int)
    p_gen.add_argument("--samples", type=int)
    p_gen.add_argument("--standardize", action="store_true",
                       help="rescale the SEM to unit population variances")
    p_gen.add_argument("--out", required=True,
                       help="output path prefix")
    p_gen.set_defaults(func=cmd_gen)

    p_score = sub.add_parser("score", help="compare two edge-list graphs")
    p_score.add_argument("learned")
    p_score.add_argument("truth")
    p_score.set_defaults(func=cmd_score)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EdgeListParseError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
