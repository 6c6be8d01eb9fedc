"""Experiment inputs and outputs.

Random DAG instances, linear-Gaussian sampling, latent-variable
projection of ground-truth graphs, skeleton comparison metrics, and the
edge-list file format used for the bundled benchmark networks.  All
generation is driven by explicit seeds so experimental axes can be
reproduced independently.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .ci import DataMatrix
from .errors import EdgeListParseError
from .graph import (MixedGraph, _topological, bits, latent_projection,
                    mask_of)

# Coefficient magnitudes and noise scales for randomly drawn linear SEMs.
COEFF_RANGE = (1.0, 1.5)
NOISE_RANGE = (0.7, 1.2)


# -- random instances ------------------------------------------------------

def erdos_renyi_dag(n, p, seed=None, *, return_order=False):
    """Random DAG: each vertex pair is joined with probability ``p`` and
    edges point along a uniformly random permutation.

    Reading the generating permutation backwards lists every child before
    its parents, so the reversed permutation is always a c-order of the
    result.  ``return_order=True`` returns ``(graph, reversed_perm)``.
    """
    if not 0 <= p <= 1:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    perm = [int(v) for v in rng.permutation(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((perm[i], perm[j]))
    g = MixedGraph(n, directed=edges)
    if return_order:
        return g, tuple(reversed(perm))
    return g


def make_latent_instance(dag, fraction_latent, seed=None, *, num_latent=None):
    """Hide a uniformly random vertex subset and project the rest.

    Returns ``(mag, observed)`` where ``observed[i]`` is the original
    index of the projection's vertex ``i``.  The latent count is
    ``round(fraction_latent * n)`` unless ``num_latent`` overrides it.
    """
    if not 0 <= fraction_latent < 1:
        raise ValueError("latent fraction must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    k = int(round(fraction_latent * dag.n)) if num_latent is None \
        else int(num_latent)
    if not 0 <= k < dag.n:
        raise ValueError("at least one vertex must stay observed")
    latent = {int(v) for v in rng.choice(dag.n, size=k, replace=False)}
    observed = tuple(v for v in range(dag.n) if v not in latent)
    return latent_projection(dag, mask_of(observed)), observed


# -- linear structural equation models -------------------------------------

class SemSpec:
    """Linear Gaussian structural equation model over a DAG.

    Each directed edge carries one coefficient and each vertex the
    standard deviation of its additive noise, so vertex v is generated as
    ``X_v = sum(coeff[u, v] * X_u for parents u) + Normal(0, scale_v)``.
    """

    def __init__(self, dag, coefficients, noise_scales):
        if dag.bidirected or not dag.is_dag():
            raise ValueError("a linear SEM requires a DAG")
        coefficients = {edge: float(c) for edge, c in coefficients.items()}
        if set(coefficients) != set(dag.directed):
            raise ValueError("need exactly one coefficient per edge")
        noise_scales = tuple(float(s) for s in noise_scales)
        if len(noise_scales) != dag.n:
            raise ValueError("need one noise scale per vertex")
        if any(s <= 0 for s in noise_scales):
            raise ValueError("noise scales must be positive")
        self.dag = dag
        self.coefficients = coefficients
        self.noise_scales = noise_scales


def random_sem(dag, seed=None):
    """SEM with coefficient magnitudes uniform on [1, 1.5] (random sign)
    and noise standard deviations uniform on [0.7, 1.2]."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for edge in sorted(dag.directed):
        sign = -1.0 if rng.random() < 0.5 else 1.0
        coeffs[edge] = sign * rng.uniform(*COEFF_RANGE)
    scales = rng.uniform(*NOISE_RANGE, size=dag.n)
    return SemSpec(dag, coeffs, scales)


def population_covariance(spec):
    """Exact covariance matrix of the SEM's joint distribution.

    With coefficient matrix B (``B[u, v]`` on edge u -> v) the model reads
    ``x = B.T x + eps``, so ``cov = A diag(scale^2) A.T`` for
    ``A = (I - B.T)^-1``.
    """
    n = spec.dag.n
    b = np.zeros((n, n))
    for (u, v), c in spec.coefficients.items():
        b[u, v] = c
    a = np.linalg.inv(np.eye(n) - b.T)
    return a @ np.diag(np.square(spec.noise_scales)) @ a.T


def standardize_sem(spec):
    """Reinterpret the coefficients as acting on standardized parents.

    Walks the DAG in topological order and rescales each structural
    equation so the vertex has unit population variance given its
    already-standardized parents: the coefficient row and the noise scale
    of v are both divided by the pre-scale standard deviation.  Unlike a
    plain change of units (which preserves every correlation), this yields
    a different joint distribution in which noise stays comparable to
    signal at every depth.  Without it, variance compounds along directed
    paths whenever coefficient magnitudes exceed one, deep vertices become
    near-copies of their parents, and partial correlations of true edges
    collapse below what finite-sample CI tests can detect.
    """
    dag = spec.dag
    n = dag.n
    coeffs = dict(spec.coefficients)
    scales = list(spec.noise_scales)
    cov = np.zeros((n, n))
    for v in _topological(dag):
        parents = list(bits(dag.parents_mask(v)))
        c = np.array([coeffs[(u, v)] for u in parents])
        pre = scales[v] ** 2
        if parents:
            pre += float(c @ cov[np.ix_(parents, parents)] @ c)
        d = float(np.sqrt(pre))
        for u in parents:
            coeffs[(u, v)] /= d
        scales[v] /= d
        row = (c / d) @ cov[parents, :] if parents else np.zeros(n)
        cov[v, :] = row
        cov[:, v] = row
        cov[v, v] = 1.0
    return SemSpec(dag, coeffs, scales)


def sample_sem(spec, num_samples, seed=None):
    """Simulate the SEM: draw all noise terms at once, then accumulate
    parent contributions in topological order."""
    if num_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    dag = spec.dag
    x = rng.standard_normal((num_samples, dag.n))
    x *= np.asarray(spec.noise_scales)
    for v in _topological(dag):
        for u in bits(dag.parents_mask(v)):
            x[:, v] += spec.coefficients[(u, v)] * x[:, u]
    return DataMatrix(x, names=dag.names)


# -- skeleton metrics -------------------------------------------------------

def _ratio(num, den, exact):
    """num / den; 0/0 is 1.0 when ``exact`` (the skeletons agree), else 0.0."""
    return num / den if den else float(exact)


@dataclass(frozen=True)
class Metrics:
    """Skeleton comparison counts with the derived summary scores.

    ``shd = fp + fn``.  Precision, recall and f1 read 0/0 as 1 when the
    skeletons agree (shd 0, e.g. two empty skeletons) and as 0 otherwise,
    so f1 stays within [0, 1] and is 1 exactly when shd is 0.
    """

    tp: int
    fp: int
    fn: int

    @property
    def shd(self):
        return self.fp + self.fn

    @property
    def precision(self):
        return _ratio(self.tp, self.tp + self.fp, self.shd == 0)

    @property
    def recall(self):
        return _ratio(self.tp, self.tp + self.fn, self.shd == 0)

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return _ratio(2 * p * r, p + r, self.shd == 0)

    def as_dict(self):
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "shd": self.shd, "precision": self.precision,
                "recall": self.recall, "f1": self.f1}


def _skeleton_of(obj):
    if hasattr(obj, "skeleton_edges"):
        edges = obj.skeleton_edges()
    elif hasattr(obj, "edges"):
        edges = obj.edges
    else:
        raise TypeError(f"cannot extract a skeleton from {type(obj).__name__}")
    return obj.n, frozenset((u, v) if u < v else (v, u) for u, v in edges)


def score(learned, truth):
    """Compare two skeletons edge-by-edge.

    Accepts anything exposing ``skeleton_edges()`` or an ``edges`` set of
    unordered pairs plus a vertex count ``n`` (graphs, partially oriented
    graphs, learned-skeleton results).
    """
    n_l, e_l = _skeleton_of(learned)
    n_t, e_t = _skeleton_of(truth)
    if n_l != n_t:
        raise ValueError(f"vertex counts differ: {n_l} vs {n_t}")
    return Metrics(tp=len(e_l & e_t), fp=len(e_l - e_t), fn=len(e_t - e_l))


# -- edge-list file format --------------------------------------------------

def _parse_network(text):
    n = None
    names = {}
    name_to_id = {}
    directed = []
    bidirected = []
    seen_pairs = {}

    def resolve(token, line_no):
        try:
            v = int(token)
        except ValueError:
            if token not in name_to_id:
                raise EdgeListParseError(
                    f"unknown vertex name {token!r}", line_no) from None
            return name_to_id[token]
        if not 0 <= v < n:
            raise EdgeListParseError(
                f"vertex {v} out of range for n={n}", line_no)
        return v

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "n" or len(tokens) != 2:
                raise EdgeListParseError(
                    "expected header 'n <count>'", line_no)
            try:
                n = int(tokens[1])
            except ValueError:
                raise EdgeListParseError(
                    f"bad vertex count {tokens[1]!r}", line_no) from None
            if n < 0:
                raise EdgeListParseError("vertex count is negative", line_no)
            continue
        if tokens[0] == "vertex":
            if len(tokens) != 3:
                raise EdgeListParseError(
                    "expected 'vertex <id> <name>'", line_no)
            try:
                v = int(tokens[1])
            except ValueError:
                raise EdgeListParseError(
                    f"bad vertex id {tokens[1]!r}", line_no) from None
            if not 0 <= v < n:
                raise EdgeListParseError(
                    f"vertex {v} out of range for n={n}", line_no)
            if v in names:
                raise EdgeListParseError(f"vertex {v} named twice", line_no)
            if tokens[2] in name_to_id:
                raise EdgeListParseError(
                    f"name {tokens[2]!r} declared twice", line_no)
            names[v] = tokens[2]
            name_to_id[tokens[2]] = v
            continue
        if len(tokens) != 3 or tokens[1] not in ("->", "<->"):
            raise EdgeListParseError(
                "expected '<a> -> <b>' or '<a> <-> <b>'", line_no)
        a = resolve(tokens[0], line_no)
        b = resolve(tokens[2], line_no)
        if a == b:
            raise EdgeListParseError(f"self loop at vertex {a}", line_no)
        pair = (a, b) if a < b else (b, a)
        if pair in seen_pairs:
            raise EdgeListParseError(
                f"duplicate edge on pair {pair} "
                f"(first seen on line {seen_pairs[pair]})", line_no)
        seen_pairs[pair] = line_no
        if tokens[1] == "->":
            directed.append((a, b))
        else:
            bidirected.append(pair)

    if n is None:
        raise EdgeListParseError("missing 'n <count>' header")
    if names and len(names) != n:
        missing = next(v for v in range(n) if v not in names)
        raise EdgeListParseError(
            f"partial vertex naming: vertex {missing} has no name")
    name_seq = tuple(names[v] for v in range(n)) if names else None
    return MixedGraph(n, directed, bidirected, name_seq)


def _check_counts(g, expected):
    if isinstance(expected, dict):
        expected = (expected["n"], expected["e"])
    exp_n, exp_e = expected
    if g.n != exp_n or g.edge_count() != exp_e:
        raise ValueError(
            f"graph has (n={g.n}, e={g.edge_count()}), "
            f"manifest expects (n={exp_n}, e={exp_e})")


def load_network(path, manifest=None):
    """Parse an edge-list file.

    Format: a ``n <count>`` header, optional ``vertex <id> <name>``
    declarations, then one edge per line as ``a -> b`` or ``a <-> b``
    where endpoints are zero-based indices or declared names.  ``#``
    starts a comment.  ``manifest`` optionally gives expected counts as
    ``(n, e)`` or ``{"n": ..., "e": ...}``; a mismatch raises ValueError.
    """
    g = _parse_network(Path(path).read_text())
    if manifest is not None:
        _check_counts(g, manifest)
    return g


def save_network(g, path):
    """Write a graph in the edge-list format accepted by load_network."""
    lines = [f"n {g.n}"]
    if g.names is not None:
        for v, name in enumerate(g.names):
            if len(name.split()) != 1 or name != name.strip():
                raise ValueError(f"name {name!r} does not survive the format")
            lines.append(f"vertex {v} {name}")
    label = g.name_of
    for u, v in sorted(g.directed):
        lines.append(f"{label(u)} -> {label(v)}")
    for u, v in sorted(g.bidirected):
        lines.append(f"{label(u)} <-> {label(v)}")
    Path(path).write_text("\n".join(lines) + "\n")


# -- bundled benchmark networks ---------------------------------------------

def bundled_networks():
    """Names of the packaged benchmark structures."""
    manifest = json.loads(
        resources.files(__package__).joinpath(
            "networks/manifest.json").read_text())
    return tuple(sorted(manifest))


def load_bundled(name):
    """Load a packaged benchmark network, cross-checked against the
    bundled manifest of expected vertex/edge counts."""
    base = resources.files(__package__).joinpath("networks")
    manifest = json.loads(base.joinpath("manifest.json").read_text())
    if name not in manifest:
        raise ValueError(
            f"unknown network {name!r}; bundled: {sorted(manifest)}")
    g = _parse_network(base.joinpath(f"{name}.edges").read_text())
    _check_counts(g, manifest[name])
    return g


# -- CSV data ----------------------------------------------------------------

def save_data(data, path):
    """CSV with a header row of column names (x0, x1, ... by default)."""
    names = data.names or tuple(f"x{i}" for i in range(data.num_vars))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(data.values.tolist())


def load_data(path):
    """Read a CSV written by save_data back into a DataMatrix."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty data file")
        rows = [[float(tok) for tok in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return DataMatrix(np.asarray(rows), names=header)
