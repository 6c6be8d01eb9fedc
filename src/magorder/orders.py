"""Elimination orders: child-first orders and removable orders.

An order is a permutation of ``0..n-1`` read left to right as an
elimination sequence.  A *c-order* of a DAG eliminates every child before
any of its parents.  An *r-order* eliminates, at each step, a vertex that
is removable in the graph induced on the vertices still present, so every
separation statement among the survivors is preserved step by step.
C-orders of a DAG are always r-orders, and r-order sets agree across
Markov-equivalent graphs, which is what makes them learnable from data.
"""

from __future__ import annotations

from itertools import permutations

from .errors import CapacityError
from .graph import bits, induced_subgraph, is_ancestral, is_removable

ENUMERATION_CAP = 8


def _check_order(g, order):
    if sorted(order) != list(range(g.n)):
        raise ValueError(f"not a permutation of 0..{g.n - 1}: {order!r}")


def is_c_order(g, order):
    """Every directed edge has its child eliminated before its parent."""
    if g.bidirected:
        raise ValueError("c-orders are defined for DAGs")
    _check_order(g, order)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    return all(pos[child] < pos[parent] for parent, child in g.directed)


def is_r_order(g, order):
    """Each prefix vertex is removable in the suffix-induced subgraph."""
    _check_order(g, order)
    if not is_ancestral(g):
        raise ValueError("r-orders are defined for ancestral graphs")
    remaining = g.full_mask
    for v in order[:-1]:
        sub = induced_subgraph(g, remaining)
        local = sum(1 for u in bits(remaining) if u < v)
        if not is_removable(sub, local):
            return False
        remaining &= ~(1 << v)
    return True


def enumerate_c_orders(g, cap=ENUMERATION_CAP):
    """All c-orders, as a sorted list of tuples.  Factorial in n."""
    if g.n > cap:
        raise CapacityError(f"c-order enumeration capped at n={cap}")
    return [perm for perm in permutations(range(g.n))
            if is_c_order(g, perm)]


def enumerate_r_orders(g, cap=ENUMERATION_CAP):
    """All r-orders, as a sorted list of tuples.

    Walks the lattice of suffix vertex sets once, caching which vertices
    are removable in each induced subgraph, so the cost is bounded by the
    number of reachable vertex sets rather than n!.
    """
    if g.n > cap:
        raise CapacityError(f"r-order enumeration capped at n={cap}")
    if not is_ancestral(g):
        raise ValueError("r-orders are defined for ancestral graphs")
    if g.n == 0:
        return [()]
    removable_cache = {}

    def removable_in(mask):
        got = removable_cache.get(mask)
        if got is None:
            sub = induced_subgraph(g, mask)
            local_to_global = list(bits(mask))
            got = [local_to_global[v] for v in range(sub.n)
                   if is_removable(sub, v)]
            removable_cache[mask] = got
        return got

    out = []
    prefix = []

    def walk(mask):
        if mask.bit_count() == 1:
            out.append(tuple(prefix) + (mask.bit_length() - 1,))
            return
        for v in removable_in(mask):
            prefix.append(v)
            walk(mask & ~(1 << v))
            prefix.pop()

    walk(g.full_mask)
    out.sort()
    return out
