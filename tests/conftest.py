"""Shared fixtures and small brute-force oracles used across test modules."""

import numpy as np
import pytest

from magorder.ci import OracleCiTester
from magorder.discovery import NeighborFinder
from magorder.graph import (
    MixedGraph,
    ancestors,
    bits,
    is_ancestral,
    is_markov_equivalent,
    is_maximal,
    latent_projection,
    m_separated_by_paths,
    mask_of,
)

# Four-vertex worked example used throughout: vertices 0..3 stand for
# X1..X4.  g1 has X3 -> X2, X3 -> X1, X4 -> X2, X4 -> X1, X2 -> X1;
# g2 flips the X1/X2 edge.


@pytest.fixture
def g1():
    return MixedGraph(4, directed=[(2, 1), (2, 0), (3, 1), (3, 0), (1, 0)])


@pytest.fixture
def g2():
    return MixedGraph(4, directed=[(2, 1), (2, 0), (3, 1), (3, 0), (0, 1)])


@pytest.fixture
def chain3():
    # X1 -> X2 -> X3
    return MixedGraph(3, directed=[(0, 1), (1, 2)])


def oracle_finder(g):
    """A fresh neighbor finder over the m-separation oracle of ``g``."""
    return NeighborFinder(OracleCiTester(g))


def submasks(mask):
    """All subsets of a bitmask, including empty and full."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def random_subset(rng, n, p):
    """Bitmask keeping each of the n vertices with probability p."""
    return mask_of(v for v in range(n) if rng.random() < p)


def random_dag(rng, n, p):
    """Edges sampled pairwise, oriented along a random permutation."""
    perm = rng.permutation(n)
    pos = np.argsort(perm)
    directed = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                u, v = (i, j) if pos[i] < pos[j] else (j, i)
                directed.append((u, v))
    return MixedGraph(n, directed)


def random_mag(rng, n_obs, n_total, p):
    """Latent projection of a random DAG onto a random observed subset."""
    dag = random_dag(rng, n_total, p)
    observed = rng.choice(n_total, size=n_obs, replace=False)
    return latent_projection(dag, mask_of(int(v) for v in observed))


def random_ancestral(rng, n, p, p_bi):
    """Random mixed graph conditioned on being ancestral (not necessarily
    maximal)."""
    while True:
        dag = random_dag(rng, n, p)
        directed = set(dag.directed)
        bidirected = []
        anc = [ancestors(dag, 1 << v) for v in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) in directed or (j, i) in directed:
                    continue
                if rng.random() < p_bi:
                    if (anc[i] >> j) & 1 or (anc[j] >> i) & 1:
                        continue
                    bidirected.append((i, j))
        g = MixedGraph(n, directed, bidirected)
        if is_ancestral(g):
            return g


def brute_separable(g, x, y):
    """Some conditioning set separates x and y (path-enumeration oracle)."""
    free = g.full_mask & ~(1 << x) & ~(1 << y)
    return any(m_separated_by_paths(g, x, y, z) for z in submasks(free))


def vertex_list(mask):
    return list(bits(mask))


def mag_mec_members(g):
    """All Markov-equivalent maximal ancestral graphs sharing ``g``'s
    skeleton (equivalent graphs cannot differ in skeleton)."""
    edges = sorted(g.skeleton_edges())
    members = []
    for pick in range(3 ** len(edges)):
        directed, bidirected = [], []
        rest = pick
        for u, v in edges:
            rest, kind = divmod(rest, 3)
            if kind == 0:
                directed.append((u, v))
            elif kind == 1:
                directed.append((v, u))
            else:
                bidirected.append((u, v))
        cand = MixedGraph(g.n, directed, bidirected)
        if is_ancestral(cand) and is_maximal(cand) \
                and is_markov_equivalent(g, cand):
            members.append(cand)
    return members
