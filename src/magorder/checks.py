"""The package's checkable guarantees, one function per property.

Each check takes one instance and returns why the property fails on it,
or None when it holds.  Every check reaches its verdict by enumerating
orders, conditioning sets or equivalence-class members, so none runs only
through the code it checks.  ``selfcheck`` runs them over small seeded
oracle instances; the tests run them over their own.
"""

from __future__ import annotations

import itertools

import numpy as np

from .ci import OracleCiTester
from .data import (bundled_networks, erdos_renyi_dag, load_bundled,
                   make_latent_instance)
from .discovery import NeighborFinder, cost_vector, learn_skeleton
from .errors import ConfigError
from .graph import (bits, is_maximal, m_separated, markov_equivalent_dags,
                    mask_of)
from .orders import enumerate_c_orders, enumerate_r_orders
from .search import HcConfig, hill_climb, value_iteration

# (vertices, edges, max in-degree, max degree) of each bundled network.
FIXTURE_STATS = {"asia": (8, 8, 2, 4), "sachs": (11, 17, 3, 7),
                 "insurance": (27, 52, 3, 9), "alarm": (37, 46, 4, 6)}


def order_sets(dag):
    """Across the Markov equivalence class of ``dag``: one r-order set,
    each member's c-orders among its r-orders, and no c-order shared by
    two members."""
    mec = markov_equivalent_dags(dag)
    r_sets = [frozenset(enumerate_r_orders(m)) for m in mec]
    if len(set(r_sets)) != 1:
        return "r-order sets differ inside one equivalence class"
    c_sets = [frozenset(enumerate_c_orders(m)) for m in mec]
    if any(not c <= r for c, r in zip(c_sets, r_sets)):
        return "found a c-order that is not an r-order"
    if any(a & b for a, b in itertools.combinations(c_sets, 2)):
        return "c-orders shared between distinct members"
    return None


def learned_skeletons(g):
    """The skeleton edges learned along each elimination order of ``g``,
    keyed by order, from one memoised oracle finder."""
    finder = NeighborFinder(OracleCiTester(g))
    return {order: learn_skeleton(order, finder).edges
            for order in itertools.permutations(range(g.n))}


def min_cost_orders(g, skeletons):
    """The orders whose skeletons (from ``learned_skeletons``) have the
    fewest edges are exactly the r-orders of ``g``."""
    best = min(len(edges) for edges in skeletons.values())
    argmin = {order for order, edges in skeletons.items()
              if len(edges) == best}
    if argmin != set(enumerate_r_orders(g)):
        return f"cost minimisers differ from r-orders on {g!r}"
    return None


def skeleton_recovery(g, skeletons):
    """Each r-order learns exactly the skeleton of ``g``; every other
    order learns a strict supergraph of it."""
    true_edges = g.skeleton_edges()
    r_orders = set(enumerate_r_orders(g))
    for order, edges in skeletons.items():
        if order in r_orders:
            if edges != true_edges:
                return f"r-order missed the skeleton on {g!r}"
        elif not edges > true_edges:
            return f"non-r-order lacked extra edges on {g!r}"
    return None


def exact_search(g):
    """Value iteration's optimum is the least cost over all orders of
    ``g``, and the order it returns costs that much."""
    finder = NeighborFinder(OracleCiTester(g))
    best = min(sum(cost_vector(order, finder))
               for order in itertools.permutations(range(g.n)))
    res = value_iteration(finder)
    if res.total_cost != best:
        return f"dynamic program missed the optimum on {g!r}"
    if sum(cost_vector(res.order, finder)) != best:
        return f"dynamic program's order misses its optimum on {g!r}"
    return None


def hill_climb_monotone(res):
    """Each swap in a hill-climbing trace lowers the cost, and the trace
    ends at the cost of the returned skeleton."""
    costs = [cost for _, cost, _ in res.trace]
    if any(b >= a for a, b in zip(costs, costs[1:])):
        return "accepted swap did not decrease the cost"
    if costs[-1] != res.skeleton.cost():
        return "trace does not end at the skeleton's cost"
    return None


def projection(dag, mag, observed):
    """``mag``, projected from ``dag`` onto the vertices ``observed``, is
    maximal and has exactly the m-separations of ``dag`` among them."""
    if not is_maximal(mag):
        return "projection produced a non-maximal graph"
    for i, j in itertools.combinations(range(mag.n), 2):
        free = mag.full_mask & ~(1 << i) & ~(1 << j)
        for z in range(1 << mag.n):
            if z & ~free:
                continue
            lifted = mask_of(observed[k] for k in bits(z))
            if m_separated(mag, i, j, z) != m_separated(
                    dag, observed[i], observed[j], lifted):
                return "projection changed a separation"
    return None


def fixture(name):
    """The bundled catalogue is that of ``FIXTURE_STATS``, and the network
    ``name`` is a DAG with the statistics recorded there."""
    if bundled_networks() != tuple(sorted(FIXTURE_STATS)):
        return "bundled catalogue does not match expectations"
    g = load_bundled(name)
    got = (g.n, g.edge_count(), g.max_in_degree(), g.max_degree())
    if got != FIXTURE_STATS[name] or not g.is_dag():
        return f"{name}: expected {FIXTURE_STATS[name]}, got {got}"
    return None


# -- selfcheck ---------------------------------------------------------------

def _seed(rng):
    return int(rng.integers(1 << 30))


def _order_instances(cap, rng):
    for _ in range(10):
        yield erdos_renyi_dag(min(cap, 5), 0.5, seed=_seed(rng))


def _small_instances(cap, rng):
    """Three DAGs on ``cap`` vertices, each followed by a MAG projected
    from ``cap + 2`` vertices."""
    for _ in range(3):
        yield erdos_renyi_dag(cap, 0.4, seed=_seed(rng))
        big = erdos_renyi_dag(cap + 2, 0.4, seed=_seed(rng))
        yield make_latent_instance(big, 0.0, num_latent=2,
                                   seed=_seed(rng))[0]


def _projections(cap, rng):
    for _ in range(5):
        dag = erdos_renyi_dag(cap, 0.4, seed=_seed(rng))
        yield (dag, *make_latent_instance(dag, 0.0, num_latent=2,
                                          seed=_seed(rng)))


# (name, instances drawn from (cap, rng), check of one instance)
CHECKS = (
    ("order-predicates", _order_instances, order_sets),
    ("min-cost-orders-are-r-orders", _small_instances,
     lambda g: min_cost_orders(g, learned_skeletons(g)) or exact_search(g)),
    ("skeleton-exact-iff-r-order", _small_instances,
     lambda g: skeleton_recovery(g, learned_skeletons(g))),
    ("hill-climb-monotone", _small_instances,
     lambda g: hill_climb_monotone(hill_climb(
         NeighborFinder(OracleCiTester(g)), HcConfig(max_swap=g.n - 1)))),
    ("projection-preserves-separation", _projections,
     lambda instance: projection(*instance)),
    ("fixtures-intact", lambda cap, rng: FIXTURE_STATS, fixture),
)


def selfcheck(cap=5, seed=0):
    """Run every check over small seeded oracle instances.

    ``cap`` bounds the instance size (cap! orders per exhaustive scan);
    each row draws its instances from a fresh generator seeded by
    ``seed`` and stops at its first failure.  Returns a list of {name,
    ok, detail} rows.
    """
    if not 2 <= cap <= 8:
        raise ConfigError("selfcheck cap must lie in [2, 8]")
    if seed < 0:
        raise ConfigError("selfcheck seed must be nonnegative")
    rows = []
    for name, instances, check in CHECKS:
        rng = np.random.default_rng(seed)
        try:
            detail = next(filter(None, map(check, instances(cap, rng))), "")
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
        rows.append({"name": name, "ok": not detail, "detail": detail})
    return rows
