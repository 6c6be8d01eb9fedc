"""Skeleton discovery along an elimination order, and PAG orientation.

``NeighborFinder`` decides which of the remaining variables stay adjacent
to a target once every other remaining variable may be conditioned on.
Asking it along an order while shrinking the remaining set yields a
learned skeleton whose edge count is the order's cost; orders that only
eliminate removable vertices recover the true skeleton exactly, and every
order yields a supergraph of it under an oracle.

Orientation turns a learned skeleton plus its separating sets into a
partial ancestral graph: unshielded colliders first, then the standard
arrowhead/tail completion rules for settings without selection bias.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .ci import OracleCiTester, markov_boundaries
from .errors import OrientationConflict
from .graph import _reachable, ancestors, bits, mask_of, reach_all


@dataclass(frozen=True)
class NeighborResult:
    """Adjacent remaining vertices plus a separating set per rejected one."""
    neighbors: int
    sepsets: dict


class NeighborFinder:
    """Answers neighbor queries, memoised per vertex by remaining set.

    x and y stay adjacent within the remaining set when no subset of it
    separates them; ``_separating_set`` decides one pair.

    With an oracle tester the decision is exact: the pair is adjacent when
    an inducing path relative to the eliminated vertices exists, and
    otherwise ``An({x, y})`` within the remaining set separates it.  So
    both the verdict and the set depend on the remaining set only through
    ``key = remaining & An({x, y})`` (Richardson & Spirtes 2002), and the
    finder keeps the last (key, verdict) per pair in ``_last``: a walk
    runs only when the pair's key differs from the stored one, and the
    separating set is ``key`` without x and y.  The key keeps the
    endpoint bits, so an endpoint outside the remaining set is never
    answered from a case where it was inside.  The cache holds at most
    n(n - 1)/2 entries.  ``neighbor_mask`` first brackets the answer with
    two all-targets walks (``graph.reach_all``, blocking the remaining
    set R): passing colliders in An(x) reaches a subset of the neighbors,
    exact for every y in An(x) since then An({x, y}) = An(x), and passing
    colliders in An(R + {x}) reaches a superset.  Only the y between the
    two brackets and outside An(x) go through ``_separating_set``.

    With a data-driven tester, candidate separating sets are the subsets
    of the pool ``Mb(x) | Mb(y)`` inside the remaining set, tried in
    ascending size and lexicographic order, up to ``max_sep_size``
    elements.  Answers are kept per pair and pool.  A stored pool P that
    contains the asked pool also answers it when P's answer is None or
    lies inside the asked pool: the candidates of a sub-pool come in the
    same order as in P, and P's search already rejected every one of them
    up to that answer, so the search would return the same set and ask
    only tests the tester has cached.
    """

    def __init__(self, tester, max_sep_size=None):
        self.tester = tester
        self.max_sep_size = max_sep_size
        self.n = tester.n
        self._memo = [{} for _ in range(self.n)]
        self._anc = None
        if isinstance(tester, OracleCiTester):
            self._anc = [ancestors(tester.graph, 1 << v)
                         for v in range(self.n)]
        self._mb = None
        self._last = {}
        self._sep_memo = {}

    @property
    def boundaries(self):
        """Full-variable-set Markov boundaries (computed on first use)."""
        if self._mb is None:
            self._mb = markov_boundaries(self.tester)
        return self._mb

    def neighbor_mask(self, x, remaining):
        """Bitmask of remaining vertices adjacent to x; memoised."""
        memo = self._memo[x]
        got = memo.get(remaining)
        if got is None:
            got = 0
            undecided = remaining & ~(1 << x)
            if self._anc is not None:
                g = self.tester.graph
                anc_x = self._anc[x]
                got = reach_all(g, x, anc_x, remaining) & undecided
                undecided &= reach_all(
                    g, x, ancestors(g, remaining | 1 << x), remaining)
                undecided &= ~got & ~anc_x
            for y in bits(undecided):
                if self._separating_set(x, y, remaining) is None:
                    got |= 1 << y
            memo[remaining] = got
        return got

    def neighbors(self, x, remaining):
        """Full result with separating sets for the rejected vertices."""
        mask = self.neighbor_mask(x, remaining)
        sepsets = {y: self._separating_set(x, y, remaining)
                   for y in bits(remaining & ~mask & ~(1 << x))}
        return NeighborResult(mask, sepsets)

    def sweep(self):
        """Yield ``(s, masks)`` for every set s of two or more vertices.

        ``masks`` holds ``neighbor_mask(x, s)`` for each x in s, ascending.
        Each set comes after all of its subsets, each unordered pair is
        decided once per set, and nothing is stored in the memo.  Vertices
        that lie in the fewest relevance rows (``An(x)`` under an oracle,
        ``Mb(x)`` otherwise) change fastest, so consecutive sets mostly
        share each pair's key.  Sets are built from two half tables of
        2^(n/2) entries rather than one table of all 2^n.
        """
        rows = self._anc if self._anc is not None else self.boundaries
        order = sorted(range(self.n),
                       key=lambda v: sum(r >> v & 1 for r in rows))
        half = self.n // 2
        low, high = [0], [0]
        for i, v in enumerate(order):
            table = low if i < half else high
            table += [m | 1 << v for m in table]
        separating_set = self._separating_set
        for top in high:
            for m in low:
                s = top | m
                if s & (s - 1) == 0:
                    continue
                members = list(bits(s))
                masks = [0] * len(members)
                for i, x in enumerate(members):
                    for j in range(i + 1, len(members)):
                        y = members[j]
                        if separating_set(x, y, s) is None:
                            masks[i] |= 1 << y
                            masks[j] |= 1 << x
                yield s, masks

    def _separating_set(self, x, y, remaining):
        """A subset of ``remaining`` separating x and y, or None."""
        ends = (1 << x) | (1 << y)
        if self._anc is not None:
            anc = self._anc[x] | self._anc[y]
            key = remaining & anc
            last = self._last.get(ends)
            if last is None or last[0] != key:
                last = self._last[ends] = (key, _reachable(
                    self.tester.graph, x, y, anc, remaining))
            return None if last[1] else key & ~ends
        mb = self.boundaries
        pool = (mb[x] | mb[y]) & remaining & ~ends
        memo = self._sep_memo.setdefault(ends, {})
        if pool in memo:
            return memo[pool]
        for stored, z in memo.items():
            if stored & pool == pool and (z is None or z & ~pool == 0):
                memo[pool] = z
                return z
        memo[pool] = z = self._search(x, y, pool)
        return z

    def _search(self, x, y, pool):
        """First subset of ``pool`` separating x and y, or None."""
        members = list(bits(pool))
        limit = len(members)
        if self.max_sep_size is not None:
            limit = min(limit, self.max_sep_size)
        for size in range(limit + 1):
            for combo in itertools.combinations(members, size):
                z = mask_of(combo)
                if self.tester.test(x, y, z):
                    return z
        return None


@dataclass(frozen=True)
class SkeletonResult:
    """Undirected learned graph with bookkeeping from the elimination.

    ``edges`` holds (min, max) pairs; ``sepsets`` maps each examined
    non-adjacent pair to the conditioning set that separated it;
    ``counts[t]`` is the neighbor count paid at elimination step t.
    """
    edges: frozenset
    sepsets: dict
    counts: tuple

    @property
    def n(self):
        return len(self.counts)

    def cost(self):
        return sum(self.counts)


def learn_skeleton(order, finder):
    """Eliminate along ``order``, connecting each vertex to the neighbors
    ``finder`` reports.

    Under an oracle the result always contains the true skeleton, with
    equality exactly when ``order`` eliminates only removable vertices.
    """
    n = finder.n
    if sorted(order) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {order!r}")
    remaining = (1 << n) - 1
    edges = set()
    sepsets = {}
    counts = [0] * n
    for t in range(n - 1):
        x = order[t]
        res = finder.neighbors(x, remaining)
        counts[t] = res.neighbors.bit_count()
        for y in bits(res.neighbors):
            edges.add((x, y) if x < y else (y, x))
        for y, z in res.sepsets.items():
            sepsets[(x, y) if x < y else (y, x)] = z
        remaining &= ~(1 << x)
    return SkeletonResult(frozenset(edges), sepsets, tuple(counts))


def cost_vector(order, finder, first=0, last=None):
    """Per-position neighbor counts for positions ``first..last``.

    Runs the elimination with the same remaining-set semantics as
    ``learn_skeleton`` but only pays for (and reports) the requested
    positions; entries outside the range are zero, and the final position
    always costs nothing.
    """
    n = finder.n
    if sorted(order) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {order!r}")
    if last is None:
        last = n - 1
    if not 0 <= first <= last <= n - 1:
        raise ValueError(f"bad position range [{first}, {last}] for n={n}")
    remaining = (1 << n) - 1
    for t in range(first):
        remaining &= ~(1 << order[t])
    costs = [0] * n
    for t in range(first, min(last, n - 2) + 1):
        x = order[t]
        costs[t] = finder.neighbor_mask(x, remaining).bit_count()
        remaining &= ~(1 << x)
    return costs


# -- orientation ---------------------------------------------------------


class Mark(Enum):
    CIRCLE = "o"
    TAIL = "-"
    ARROW = ">"


class PagGraph:
    """Partial ancestral graph: skeleton plus an endpoint mark per edge end.

    ``mark(a, b)`` is the mark sitting at the ``b`` end of edge a--b.
    Applied rules are recorded in ``trace`` as (rule, a, b, mark placed
    at the b end).
    """

    def __init__(self, n, edges, names=None):
        self.n = n
        self.names = tuple(names) if names is not None else None
        self._marks = {}
        self._adj = [0] * n
        for u, v in edges:
            u, v = (u, v) if u < v else (v, u)
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u}, {v})")
            self._marks[(u, v)] = [Mark.CIRCLE, Mark.CIRCLE]
            self._adj[u] |= 1 << v
            self._adj[v] |= 1 << u
        self.trace = []

    def skeleton_edges(self):
        return frozenset(self._marks)

    def adjacent_mask(self, v):
        return self._adj[v]

    def has_edge(self, a, b):
        return bool((self._adj[a] >> b) & 1)

    def mark(self, a, b):
        """Mark at the b end of edge a--b."""
        u, v = (a, b) if a < b else (b, a)
        pair = self._marks[(u, v)]
        return pair[1] if b == v else pair[0]

    def set_mark(self, a, b, mark, rule="manual"):
        """Place ``mark`` at the b end of edge a--b.

        Returns True when the mark changed; raises OrientationConflict if
        a different definite mark is already there.
        """
        u, v = (a, b) if a < b else (b, a)
        pair = self._marks[(u, v)]
        slot = 1 if b == v else 0
        cur = pair[slot]
        if cur == mark:
            return False
        if cur != Mark.CIRCLE:
            raise OrientationConflict(
                f"rule {rule} wants {mark.name} at {b} on edge "
                f"({a}, {b}) but {cur.name} is already placed",
                trace=self.trace)
        pair[slot] = mark
        self.trace.append((rule, a, b, mark))
        return True

    def is_directed(self, a, b):
        """True for a fully oriented edge a -> b."""
        return self.has_edge(a, b) and self.mark(b, a) == Mark.TAIL \
            and self.mark(a, b) == Mark.ARROW

    def edge_text(self, u, v):
        left = {Mark.CIRCLE: "o", Mark.TAIL: "-", Mark.ARROW: "<"}
        right = {Mark.CIRCLE: "o", Mark.TAIL: "-", Mark.ARROW: ">"}
        u, v = (u, v) if u < v else (v, u)
        lm, rm = self._marks[(u, v)]
        return f"{self._name(u)} {left[lm]}-{right[rm]} {self._name(v)}"

    def _name(self, v):
        return self.names[v] if self.names is not None else str(v)

    def to_text(self):
        return "\n".join(self.edge_text(u, v)
                         for u, v in sorted(self._marks))

    def marks_table(self):
        """Edge marks as {(u, v): (mark at u, mark at v)} with u < v."""
        return {e: tuple(m) for e, m in self._marks.items()}

    def __eq__(self, other):
        if not isinstance(other, PagGraph):
            return NotImplemented
        return self.n == other.n and self.marks_table() == other.marks_table()


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def _sepset_for(sepsets, a, b):
    key = _pair(a, b)
    if key not in sepsets:
        raise ValueError(f"no separating set recorded for pair {key}")
    return sepsets[key]


def orient(skeleton, names=None):
    """Orient a learned skeleton into a partial ancestral graph.

    Unshielded triples whose middle vertex is absent from the recorded
    separating set become colliders; afterwards the arrowhead/tail
    completion rules (those not involving selection bias) run to a global
    fixpoint.  Inconsistent inputs raise ``OrientationConflict`` carrying
    the applied-rule trace.
    """
    pag = PagGraph(skeleton.n, skeleton.edges, names)
    _orient_colliders(pag, skeleton.sepsets)
    rules = (_rule_chain, _rule_away_from_collider, _rule_double_triangle,
             _rule_discriminating, _rule_directed_shortcut,
             _rule_uncovered_path, _rule_two_uncovered_paths)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            changed |= rule(pag, skeleton.sepsets)
    return pag


def _orient_colliders(pag, sepsets):
    for z in range(pag.n):
        around = list(bits(pag.adjacent_mask(z)))
        for i, a in enumerate(around):
            for b in around[i + 1:]:
                if pag.has_edge(a, b):
                    continue
                if not (_sepset_for(sepsets, a, b) >> z) & 1:
                    pag.set_mark(a, z, Mark.ARROW, "collider")
                    pag.set_mark(b, z, Mark.ARROW, "collider")


def _rule_chain(pag, sepsets):
    """a *-> b o--* c with a, c non-adjacent: orient b -> c."""
    changed = False
    for b in range(pag.n):
        around = list(bits(pag.adjacent_mask(b)))
        for c in around:
            if pag.mark(c, b) != Mark.CIRCLE:
                continue
            for a in around:
                if a == c or pag.has_edge(a, c):
                    continue
                if pag.mark(a, b) == Mark.ARROW:
                    changed |= pag.set_mark(c, b, Mark.TAIL, "chain")
                    changed |= pag.set_mark(b, c, Mark.ARROW, "chain")
                    break
    return changed


def _rule_away_from_collider(pag, sepsets):
    """a -> b *-> c or a *-> b -> c, with a *-o c: arrowhead at c."""
    changed = False
    for a in range(pag.n):
        for c in bits(pag.adjacent_mask(a)):
            if pag.mark(a, c) != Mark.CIRCLE:
                continue
            for b in bits(pag.adjacent_mask(a) & pag.adjacent_mask(c)):
                if (pag.is_directed(a, b) and pag.mark(b, c) == Mark.ARROW) \
                        or (pag.mark(a, b) == Mark.ARROW
                            and pag.is_directed(b, c)):
                    changed |= pag.set_mark(a, c, Mark.ARROW, "away-collider")
                    break
    return changed


def _rule_double_triangle(pag, sepsets):
    """a *-> b <-* c, a *-o d o-* c, a, c non-adjacent, d *-o b:
    arrowhead at b on the d--b edge."""
    changed = False
    for b in range(pag.n):
        into_b = [a for a in bits(pag.adjacent_mask(b))
                  if pag.mark(a, b) == Mark.ARROW]
        if len(into_b) < 2:
            continue
        for d in bits(pag.adjacent_mask(b)):
            if pag.mark(d, b) != Mark.CIRCLE:
                continue
            for i, a in enumerate(into_b):
                done = False
                for c in into_b[i + 1:]:
                    if pag.has_edge(a, c):
                        continue
                    if pag.has_edge(a, d) and pag.has_edge(c, d) \
                            and pag.mark(a, d) == Mark.CIRCLE \
                            and pag.mark(c, d) == Mark.CIRCLE:
                        changed |= pag.set_mark(d, b, Mark.ARROW,
                                                "double-triangle")
                        done = True
                        break
                if done:
                    break
    return changed


def _discriminating_source(pag, a, b, c):
    """Start vertex of a discriminating path ending <..., a, b, c>.

    Walks backward from ``a`` through vertices that are colliders on the
    path and parents of ``c``; a predecessor not adjacent to ``c``
    completes the path.
    """
    stack = [(a, (1 << a) | (1 << b) | (1 << c))]
    while stack:
        w, used = stack.pop()
        for v in bits(pag.adjacent_mask(w) & ~used):
            if pag.mark(v, w) != Mark.ARROW:
                continue
            if not pag.has_edge(v, c):
                return v
            if pag.is_directed(v, c) and pag.mark(w, v) == Mark.ARROW:
                stack.append((v, used | (1 << v)))
    return None


def _rule_discriminating(pag, sepsets):
    """Resolve b's mark at the end of a discriminating path for b."""
    changed = False
    for b in range(pag.n):
        for c in bits(pag.adjacent_mask(b)):
            if pag.mark(c, b) != Mark.CIRCLE:
                continue
            for a in bits(pag.adjacent_mask(b) & pag.adjacent_mask(c)):
                # a must be a collider on the path and a parent of c.
                if pag.mark(b, a) != Mark.ARROW \
                        or not pag.is_directed(a, c):
                    continue
                d = _discriminating_source(pag, a, b, c)
                if d is None:
                    continue
                if (_sepset_for(sepsets, d, c) >> b) & 1:
                    changed |= pag.set_mark(c, b, Mark.TAIL,
                                            "discriminating")
                    changed |= pag.set_mark(b, c, Mark.ARROW,
                                            "discriminating")
                else:
                    changed |= pag.set_mark(b, a, Mark.ARROW,
                                            "discriminating")
                    changed |= pag.set_mark(c, b, Mark.ARROW,
                                            "discriminating")
                    changed |= pag.set_mark(b, c, Mark.ARROW,
                                            "discriminating")
                break
    return changed


def _rule_directed_shortcut(pag, sepsets):
    """a o-> c with a -> b -> c (or a -o b -> c): the circle at a
    becomes a tail."""
    changed = False
    for a in range(pag.n):
        for c in bits(pag.adjacent_mask(a)):
            if pag.mark(c, a) != Mark.CIRCLE or pag.mark(a, c) != Mark.ARROW:
                continue
            for b in bits(pag.adjacent_mask(a) & pag.adjacent_mask(c)):
                first_leg = pag.is_directed(a, b) or (
                    pag.mark(b, a) == Mark.TAIL
                    and pag.mark(a, b) == Mark.CIRCLE)
                if first_leg and pag.is_directed(b, c):
                    changed |= pag.set_mark(c, a, Mark.TAIL, "shortcut")
                    break
    return changed


def _potentially_directed_step(pag, u, v):
    return pag.mark(v, u) != Mark.ARROW and pag.mark(u, v) != Mark.TAIL


def _uncovered_pd_path(pag, a, first, target):
    """Uncovered potentially-directed path a, first, ..., target."""
    if not _potentially_directed_step(pag, a, first):
        return False
    if first == target:
        return True
    stack = [(a, first, (1 << a) | (1 << first))]
    while stack:
        prev, cur, used = stack.pop()
        for w in bits(pag.adjacent_mask(cur) & ~used):
            if pag.has_edge(prev, w):
                continue
            if not _potentially_directed_step(pag, cur, w):
                continue
            if w == target:
                return True
            stack.append((cur, w, used | (1 << w)))
    return False


def _rule_uncovered_path(pag, sepsets):
    """a o-> c plus an uncovered potentially-directed path a..c whose
    second vertex is not adjacent to c: tail at a."""
    changed = False
    for a in range(pag.n):
        for c in bits(pag.adjacent_mask(a)):
            if pag.mark(c, a) != Mark.CIRCLE or pag.mark(a, c) != Mark.ARROW:
                continue
            for first in bits(pag.adjacent_mask(a)):
                if first == c or pag.has_edge(first, c):
                    continue
                if _uncovered_pd_path(pag, a, first, c):
                    changed |= pag.set_mark(c, a, Mark.TAIL, "uncovered-path")
                    break
    return changed


def _rule_two_uncovered_paths(pag, sepsets):
    """a o-> c with b -> c <- d reached by two uncovered potentially
    directed paths from a whose first vertices differ and are
    non-adjacent: tail at a."""
    changed = False
    for a in range(pag.n):
        for c in bits(pag.adjacent_mask(a)):
            if pag.mark(c, a) != Mark.CIRCLE or pag.mark(a, c) != Mark.ARROW:
                continue
            parents = [b for b in bits(pag.adjacent_mask(c))
                       if b != a and pag.is_directed(b, c)]
            if len(parents) < 2:
                continue
            firsts = {}
            for b in parents:
                firsts[b] = [f for f in bits(pag.adjacent_mask(a))
                             if _uncovered_pd_path(pag, a, f, b)]
            done = False
            for i, b in enumerate(parents):
                for d in parents[i + 1:]:
                    for e in firsts[b]:
                        for f in firsts[d]:
                            if e != f and not pag.has_edge(e, f):
                                changed |= pag.set_mark(
                                    c, a, Mark.TAIL, "two-paths")
                                done = True
                                break
                        if done:
                            break
                    if done:
                        break
                if done:
                    break
    return changed
