"""Conditional-independence testers and Markov boundaries.

A tester answers queries "is x independent of y given the set z?" and
counts how many distinct queries it has evaluated, so search procedures
can report their test complexity.  Two implementations: a graph oracle
(membership of the true graph's separation relation) and a Fisher-z test
on a data matrix.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from statistics import NormalDist

import numpy as np

from .errors import CiNumericalError
from .graph import ancestors, bits, m_separated, reach_all


class CiTester(ABC):
    """Conditional-independence query interface.

    ``test(x, y, z)`` returns True for independence.  Queries are
    symmetric in (x, y).  ``query_count`` is the number of distinct
    queries evaluated so far (repeat queries are served from a cache and
    do not recount).
    """

    def __init__(self, n):
        self.n = n
        self.query_count = 0
        self._cache = {}

    def test(self, x, y, z=0):
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"endpoints ({x}, {y}) out of range")
        if x == y:
            raise ValueError("endpoints must differ")
        if z & ((1 << x) | (1 << y)):
            raise ValueError("conditioning set must exclude the endpoints")
        if z >> self.n:
            raise ValueError("conditioning set out of range")
        if x > y:
            x, y = y, x
        key = (x, y, z)
        got = self._cache.get(key)
        if got is None:
            got = self._evaluate(x, y, z)
            self._cache[key] = got
            self.query_count += 1
        return got

    def total_conditioning(self, vs):
        """Verdicts ``{(x, y): test(x, y, vs - {x, y})}`` for every pair
        x < y of ``vs``, in ascending pair order."""
        members = list(bits(vs))
        return {(x, y): self.test(x, y, vs & ~(1 << x) & ~(1 << y))
                for i, x in enumerate(members) for y in members[i + 1:]}

    @abstractmethod
    def _evaluate(self, x, y, z):
        ...


class OracleCiTester(CiTester):
    """Answers queries from m-separation in a known graph."""

    def __init__(self, graph):
        super().__init__(graph.n)
        self.graph = graph

    def _evaluate(self, x, y, z):
        return m_separated(self.graph, x, y, z)

    def total_conditioning(self, vs):
        """Same verdicts as the base loop, from one walk per vertex: y is
        m-connected to x given the rest of ``vs`` exactly when
        ``reach_all(g, x, An(vs), vs - {x})`` reaches it.  Only pairs
        missing from the cache are evaluated and counted."""
        if vs >> self.n:
            raise ValueError("vertex set out of range")
        g = self.graph
        collider_ok = ancestors(g, vs)
        members = list(bits(vs))
        out = {}
        for i, x in enumerate(members):
            reached = None
            for y in members[i + 1:]:
                key = (x, y, vs & ~(1 << x) & ~(1 << y))
                got = self._cache.get(key)
                if got is None:
                    if reached is None:
                        reached = reach_all(g, x, collider_ok, vs & ~(1 << x))
                    got = not (reached >> y) & 1
                    self._cache[key] = got
                    self.query_count += 1
                out[(x, y)] = got
        return out


class DataMatrix:
    """Sample matrix (rows are observations) with a cached correlation."""

    def __init__(self, values, names=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("data must be two-dimensional")
        self.values = values
        if names is not None:
            names = tuple(names)
            if len(names) != values.shape[1]:
                raise ValueError("names length must match column count")
        self.names = names
        self._corr = None

    @property
    def num_samples(self):
        return self.values.shape[0]

    @property
    def num_vars(self):
        return self.values.shape[1]

    @property
    def correlation(self):
        if self._corr is None:
            self._corr = np.corrcoef(self.values, rowvar=False)
        return self._corr


class FisherZCiTester(CiTester):
    """Partial-correlation test for jointly Gaussian data.

    The partial correlation of x and y given z comes from the inverse of
    the correlation submatrix on (x, y, *z); the z-statistic
    ``0.5 * log((1+r)/(1-r)) * sqrt(N - |z| - 3)`` is compared against the
    two-sided normal quantile at level ``alpha``.
    """

    def __init__(self, data, alpha=0.01):
        if not isinstance(data, DataMatrix):
            data = DataMatrix(data)
        super().__init__(data.num_vars)
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        self.data = data
        self.alpha = alpha
        # Wichura's AS241.  An alpha too small to leave 1 - alpha / 2 below
        # 1 gives an infinite threshold: every test is independent.
        p = 1 - alpha / 2
        self._threshold = math.inf if p == 1.0 else NormalDist().inv_cdf(p)

    def _evaluate(self, x, y, z):
        prec = self._precision([x, y, *bits(z)], (x, y, z))
        return self._independent(prec, 0, 1, z.bit_count(), (x, y, z))

    def total_conditioning(self, vs):
        """Same verdicts as the base loop, from one inverse of the
        correlation submatrix on ``vs``: the partial correlation of x and
        y given the rest of ``vs`` is read off that precision matrix.
        Only pairs missing from the cache are evaluated and counted."""
        if vs >> self.n:
            raise ValueError("vertex set out of range")
        members = list(bits(vs))
        num_cond = len(members) - 2
        out = {}
        prec = None
        for i, x in enumerate(members):
            for j in range(i + 1, len(members)):
                y = members[j]
                key = (x, y, vs & ~(1 << x) & ~(1 << y))
                got = self._cache.get(key)
                if got is None:
                    if prec is None:
                        prec = self._precision(members, key)
                    got = self._independent(prec, i, j, num_cond, key)
                    self._cache[key] = got
                    self.query_count += 1
                out[(x, y)] = got
        return out

    def _precision(self, idx, query):
        """Inverse of the correlation submatrix on ``idx``; ``query`` names
        the test it serves in errors."""
        num_cond = len(idx) - 2
        n_samples = self.data.num_samples
        if n_samples <= num_cond + 3:
            raise ValueError(
                f"need more than |z| + 3 = {num_cond + 3} samples, "
                f"have {n_samples}")
        sub = self.data.correlation.take(idx, 0).take(idx, 1)
        try:
            return np.linalg.inv(sub)
        except np.linalg.LinAlgError as exc:
            raise CiNumericalError(
                "singular correlation submatrix",
                query=_query(query)) from exc

    def _independent(self, prec, i, j, num_cond, query):
        """Fisher-z verdict for the partial correlation of rows i and j of
        ``prec`` given ``num_cond`` other variables."""
        denom = prec[i, i] * prec[j, j]
        if not np.isfinite(denom) or denom <= 0:
            raise CiNumericalError(
                "ill-conditioned correlation submatrix",
                query=_query(query))
        r = -prec[i, j] / np.sqrt(denom)
        r = min(max(r, -1 + 1e-12), 1 - 1e-12)
        stat = 0.5 * np.log((1 + r) / (1 - r)) * \
            np.sqrt(self.data.num_samples - num_cond - 3)
        return bool(abs(stat) <= self._threshold)


def _query(key):
    x, y, z = key
    return (x, y, set(bits(z)))


def markov_boundaries(tester, vs=None):
    """Markov boundary of every vertex in ``vs`` (a bitmask) by the
    total-conditioning rule: y belongs to Mb(x) exactly when x and y are
    dependent given all other variables of ``vs``.

    Returns a dict mapping each vertex of ``vs`` to a bitmask.  One query
    per unordered pair, asked through ``tester.total_conditioning``; the
    relation is symmetric by construction.  Under Fisher-Z all pairs come
    from one inverse of the correlation submatrix on ``vs``; under the
    oracle, from one ``reach_all`` walk per vertex (for the full vertex
    set this is the Markov blanket of an ADMG, Richardson 2003).
    """
    if vs is None:
        vs = (1 << tester.n) - 1
    mb = {v: 0 for v in bits(vs)}
    for (x, y), independent in tester.total_conditioning(vs).items():
        if not independent:
            mb[x] |= 1 << y
            mb[y] |= 1 << x
    return mb
