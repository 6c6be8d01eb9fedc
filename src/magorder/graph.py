"""Mixed graphs with directed and bidirected edges.

Vertices are dense integer indices ``0..n-1`` and vertex subsets are plain
Python ints used as bitmasks.  Subset-heavy callers (separation queries,
projections onto shrinking vertex sets, subset dynamic programming) stay
allocation-free that way, and a graph restricted to a subset never has to
be materialised just to answer a reachability question.

Graphs are immutable after construction; derived graphs (induced subgraph,
latent projection) are new values.

Separation semantics
--------------------
A path between x and y is blocked by a conditioning set Z when some
non-endpoint w on it is

* a collider on the path (both incident path edges carry an arrowhead at
  w) and w is not an ancestor of ``Z + {x, y}``, or
* a non-collider and w is in Z.

``m_separated`` answers via a reachability walk that grows two frontier
masks, the vertices entered through an arrowhead and through a tail;
``m_separated_by_paths`` enumerates all simple paths and is the reference
implementation the fast one is tested against.  Ancestor sets are taken
reflexively: every vertex is an ancestor of itself.
"""

from __future__ import annotations

from itertools import combinations

from .errors import CapacityError


def bits(mask):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices):
    """Bitmask with a bit set for every index in ``indices``."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


class MixedGraph:
    """Immutable graph with directed (a -> b) and bidirected (a <-> b) edges.

    Parameters
    ----------
    n : int
        Number of vertices.
    directed : iterable of (int, int)
        Ordered pairs (parent, child).
    bidirected : iterable of (int, int)
        Unordered pairs; stored with the smaller index first.
    names : sequence of str, optional
        Display names, one per vertex.
    """

    __slots__ = ("n", "directed", "bidirected", "names",
                 "_pa", "_ch", "_sib", "_adj")

    def __init__(self, n, directed=(), bidirected=(), names=None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        pa = [0] * n
        ch = [0] * n
        sib = [0] * n
        dir_edges = set()
        for u, v in directed:
            self._check_pair(u, v)
            if (u, v) in dir_edges:
                raise ValueError(f"duplicate directed edge {u} -> {v}")
            dir_edges.add((u, v))
            ch[u] |= 1 << v
            pa[v] |= 1 << u
        bi_edges = set()
        for u, v in bidirected:
            self._check_pair(u, v)
            u, v = (u, v) if u < v else (v, u)
            if (u, v) in bi_edges:
                raise ValueError(f"duplicate bidirected edge {u} <-> {v}")
            bi_edges.add((u, v))
            sib[u] |= 1 << v
            sib[v] |= 1 << u
        for u, v in bi_edges:
            if (u, v) in dir_edges or (v, u) in dir_edges:
                raise ValueError(
                    f"pair ({u}, {v}) appears as both directed and bidirected")
        if names is not None:
            names = tuple(names)
            if len(names) != n:
                raise ValueError("names length must match vertex count")
        self.directed = frozenset(dir_edges)
        self.bidirected = frozenset(bi_edges)
        self.names = names
        self._pa = tuple(pa)
        self._ch = tuple(ch)
        self._sib = tuple(sib)
        self._adj = tuple(pa[i] | ch[i] | sib[i] for i in range(n))

    def _check_pair(self, u, v):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise ValueError(f"self loop at vertex {u}")

    # -- basic accessors -------------------------------------------------

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def parents_mask(self, v):
        return self._pa[v]

    def children_mask(self, v):
        return self._ch[v]

    def siblings_mask(self, v):
        """Vertices joined to ``v`` by a bidirected edge."""
        return self._sib[v]

    def adjacent_mask(self, v):
        return self._adj[v]

    def has_skeleton_edge(self, u, v):
        return bool((self._adj[u] >> v) & 1)

    def skeleton_edges(self):
        """Unordered adjacency pairs, each as (min, max)."""
        out = set()
        for u, v in self.directed:
            out.add((u, v) if u < v else (v, u))
        out.update(self.bidirected)
        return frozenset(out)

    def edge_count(self):
        return len(self.directed) + len(self.bidirected)

    def is_dag(self):
        return not self.bidirected and len(_topological(self)) == self.n

    def max_degree(self):
        return max((self._adj[v].bit_count() for v in range(self.n)), default=0)

    def max_in_degree(self):
        return max((self._pa[v].bit_count() for v in range(self.n)), default=0)

    def name_of(self, v):
        return self.names[v] if self.names is not None else str(v)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return (self.n == other.n and self.directed == other.directed
                and self.bidirected == other.bidirected)

    def __hash__(self):
        return hash((self.n, self.directed, self.bidirected))

    def __repr__(self):
        return (f"MixedGraph(n={self.n}, directed={sorted(self.directed)}, "
                f"bidirected={sorted(self.bidirected)})")


def _topological(g):
    """Vertices in parents-first order by Kahn's algorithm; every vertex
    on or downstream of a directed cycle is left out."""
    indeg = [g._pa[v].bit_count() for v in range(g.n)]
    ready = [v for v in range(g.n) if indeg[v] == 0]
    out = []
    while ready:
        v = ready.pop()
        out.append(v)
        for w in bits(g._ch[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return out


def ancestors(g, xs):
    """Reflexive ancestor closure of the vertex set ``xs`` (a bitmask).

    A vertex u is included when u is in ``xs`` or some directed path
    u -> ... -> x exists for an x in ``xs``.  Bidirected edges never
    contribute to ancestry.
    """
    closed = xs
    frontier = xs
    while frontier:
        added = 0
        for v in bits(frontier):
            added |= g._pa[v]
        frontier = added & ~closed
        closed |= frontier
    return closed


def is_ancestral(g):
    """No directed cycle and no bidirected edge between a vertex and its
    (proper) ancestor."""
    if len(_topological(g)) != g.n:
        return False
    for u, v in g.bidirected:
        if (ancestors(g, 1 << v) >> u) & 1 or (ancestors(g, 1 << u) >> v) & 1:
            return False
    return True


def reach_all(g, x, collider_ok, noncollider_block, stop=0):
    """Every vertex reachable from x through passable interiors.

    An interior vertex w is passable as a collider when the ``collider_ok``
    mask contains it, and as a non-collider when ``noncollider_block`` does
    not.  Instantiated with ``collider_ok = ancestors(Z + {x,y})`` and
    ``noncollider_block = Z`` the result holds y exactly when x and y are
    m-connected given Z; with ``collider_ok = ancestors({x,y})`` and
    ``noncollider_block = ~latent`` it holds y exactly when an inducing
    path relative to the latent set exists.  Vertices adjacent to x are
    always reached.  The walk never depends on a target, so one call
    answers every y that shares its masks, and a larger ``collider_ok``
    reaches a superset.

    The closure is built one frontier at a time over two masks: vertices
    entered through an arrowhead (``head``) and through a tail (``tail``).
    Leaving w through a tail (to a child) makes w a non-collider; leaving
    through an arrowhead (to a parent or sibling) makes w a collider
    exactly when it was entered through an arrowhead.  The walk stops
    early once it has reached a vertex of ``stop``.
    """
    pa, ch, sib = g._pa, g._ch, g._sib
    seen_head = head = ch[x] | sib[x]
    seen_tail = tail = pa[x]
    while (head | tail) and not (seen_head | seen_tail) & stop:
        to_head = to_tail = 0
        for w in bits((head | tail) & ~noncollider_block):
            to_head |= ch[w]
        for w in bits((head & collider_ok) | (tail & ~noncollider_block)):
            to_tail |= pa[w]
            to_head |= sib[w]
        head = to_head & ~seen_head
        tail = to_tail & ~seen_tail
        seen_head |= head
        seen_tail |= tail
    return seen_head | seen_tail


def _reachable(g, x, y, collider_ok, noncollider_block):
    """Whether ``reach_all`` from x reaches y; the walk stops at y."""
    reached = reach_all(g, x, collider_ok, noncollider_block, 1 << y)
    return (reached >> y) & 1 == 1


def _check_sep_args(g, x, y, z):
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"endpoints ({x}, {y}) out of range")
    if x == y:
        raise ValueError("endpoints must differ")
    if z & ((1 << x) | (1 << y)):
        raise ValueError("conditioning set must exclude the endpoints")
    if z & ~g.full_mask:
        raise ValueError("conditioning set out of range")


def m_separated(g, x, y, z=0):
    """True when every path between x and y is blocked by the set ``z``."""
    _check_sep_args(g, x, y, z)
    collider_ok = ancestors(g, z | (1 << x) | (1 << y))
    return not _reachable(g, x, y, collider_ok, z)


def m_separated_by_paths(g, x, y, z=0):
    """Reference implementation enumerating every simple path.

    Exponential in the path count; intended for small graphs (n up to
    roughly 12) and for validating ``m_separated``.
    """
    _check_sep_args(g, x, y, z)
    collider_ok = ancestors(g, z | (1 << x) | (1 << y))

    HEAD, TAIL = True, False

    def moves(v):
        for c in bits(g._ch[v]):
            yield c, TAIL, HEAD   # mark at v, mark at the far end
        for p in bits(g._pa[v]):
            yield p, HEAD, TAIL
        for s in bits(g._sib[v]):
            yield s, HEAD, HEAD

    def dfs(v, mark_in, on_path):
        # v is the current interior candidate, entered with mark_in at v.
        for w, mark_here, mark_far in moves(v):
            if on_path & (1 << w):
                continue
            is_collider = mark_in is HEAD and mark_here is HEAD
            if is_collider:
                if not (collider_ok >> v) & 1:
                    continue
            elif (z >> v) & 1:
                continue
            if w == y:
                return True
            if dfs(w, mark_far, on_path | (1 << w)):
                return True
        return False

    for w, _, mark_far in moves(x):
        if w == y:
            return False
        if dfs(w, mark_far, (1 << x) | (1 << w)):
            return False
    return True


def induced_subgraph(g, keep):
    """Subgraph on the vertex bitmask ``keep``, reindexed ascending.

    The i-th vertex of the result is the i-th lowest set bit of ``keep``;
    names follow the vertices.
    """
    if keep & ~g.full_mask:
        raise ValueError("keep set out of range")
    old = list(bits(keep))
    new_index = {o: i for i, o in enumerate(old)}
    directed = [(new_index[u], new_index[v]) for u, v in g.directed
                if (keep >> u) & 1 and (keep >> v) & 1]
    bidirected = [(new_index[u], new_index[v]) for u, v in g.bidirected
                  if (keep >> u) & 1 and (keep >> v) & 1]
    names = tuple(g.names[o] for o in old) if g.names is not None else None
    return MixedGraph(len(old), directed, bidirected, names)


def inducing_path_exists(g, x, y, latent):
    """Inducing path between x and y relative to the ``latent`` mask.

    Every non-endpoint on such a path is latent or a collider, and every
    collider on it is an ancestor of an endpoint.  Existence is exactly
    adjacency of x and y in the projection that marginalises ``latent``.
    """
    _check_sep_args(g, x, y, 0)
    if latent & ((1 << x) | (1 << y)):
        raise ValueError("endpoints cannot be latent")
    return _reachable(g, x, y,
                      collider_ok=ancestors(g, (1 << x) | (1 << y)),
                      noncollider_block=g.full_mask & ~latent)


def latent_projection(g, observed):
    """Marginalise the vertices outside the ``observed`` bitmask.

    The result has an edge between observed x and y exactly when no subset
    of the observed vertices can separate them in ``g``, i.e. when an
    inducing path relative to the latent set exists.  The edge is directed
    x -> y when x is an ancestor of y in ``g``, y -> x in the mirror case,
    and bidirected otherwise.  Separation statements among observed
    vertices are preserved, and projecting a maximal ancestral graph gives
    a maximal ancestral graph.
    """
    if observed & ~g.full_mask:
        raise ValueError("observed set out of range")
    if not is_ancestral(g):
        raise ValueError("latent projection requires an ancestral graph")
    latent = g.full_mask & ~observed
    old = list(bits(observed))
    new_index = {o: i for i, o in enumerate(old)}
    anc = [ancestors(g, 1 << v) for v in range(g.n)]
    directed = []
    bidirected = []
    for i, xo in enumerate(old):
        for yo in old[i + 1:]:
            if not _reachable(g, xo, yo,
                              collider_ok=anc[xo] | anc[yo],
                              noncollider_block=g.full_mask & ~latent):
                continue
            if (anc[yo] >> xo) & 1:
                directed.append((new_index[xo], new_index[yo]))
            elif (anc[xo] >> yo) & 1:
                directed.append((new_index[yo], new_index[xo]))
            else:
                bidirected.append((new_index[xo], new_index[yo]))
    names = tuple(g.names[o] for o in old) if g.names is not None else None
    return MixedGraph(len(old), directed, bidirected, names)


def is_maximal(g):
    """Every non-adjacent pair is separable by some conditioning set.

    Equivalent to the absence of an inducing path (relative to the empty
    latent set) between non-adjacent vertices, so exactly when projecting
    nothing away adds no edge.  Raises ValueError unless ``g`` is
    ancestral.
    """
    return latent_projection(g, g.full_mask) == g


def is_removable(g, x):
    """Deleting ``x`` keeps every separation statement among the others.

    Decided by comparing the induced subgraph on the remaining vertices
    with the latent projection that marginalises ``x``: the two coincide
    exactly when ``x`` is removable.  ``is_removable_exhaustive`` checks
    the definition directly and is the oracle this is tested against.
    """
    if not (0 <= x < g.n):
        raise ValueError(f"vertex {x} out of range")
    if not is_ancestral(g):
        raise ValueError("removability is defined for ancestral graphs")
    rest = g.full_mask & ~(1 << x)
    return induced_subgraph(g, rest) == latent_projection(g, rest)


def is_removable_exhaustive(g, x, cap=8):
    """Definition-level removability check, exponential in n."""
    if not (0 <= x < g.n):
        raise ValueError(f"vertex {x} out of range")
    if g.n > cap:
        raise CapacityError(f"exhaustive removability capped at n={cap}")
    if not is_ancestral(g):
        raise ValueError("removability is defined for ancestral graphs")
    rest = g.full_mask & ~(1 << x)
    sub = induced_subgraph(g, rest)
    others = list(bits(rest))
    local = {o: i for i, o in enumerate(others)}
    for i, y in enumerate(others):
        for w in others[i + 1:]:
            free = rest & ~(1 << y) & ~(1 << w)
            free_bits = list(bits(free))
            for pick in range(1 << len(free_bits)):
                z = mask_of(free_bits[j] for j in bits(pick))
                z_local = mask_of(local[v] for v in bits(z))
                if m_separated(g, y, w, z) != m_separated(
                        sub, local[y], local[w], z_local):
                    return False
    return True


def is_markov_equivalent(g1, g2, cap=8):
    """Same separation statements on both graphs, by brute force."""
    if g1.n != g2.n:
        return False
    if g1.n > cap:
        raise CapacityError(f"equivalence check capped at n={cap}")
    n = g1.n
    for x in range(n):
        for y in range(x + 1, n):
            free = g1.full_mask & ~(1 << x) & ~(1 << y)
            free_bits = list(bits(free))
            for pick in range(1 << len(free_bits)):
                z = mask_of(free_bits[j] for j in bits(pick))
                if m_separated(g1, x, y, z) != m_separated(g2, x, y, z):
                    return False
    return True


def markov_equivalent_dags(g):
    """All DAGs Markov equivalent to the DAG ``g``: the acyclic
    orientations of its skeleton with the same unshielded colliders
    (Verma & Pearl 1990).  Brute force over 2^edges orientations."""
    def colliders(h):
        return {(a, v, b) for v in range(h.n)
                for a, b in combinations(bits(h.parents_mask(v)), 2)
                if not h.has_skeleton_edge(a, b)}

    edges = sorted(g.skeleton_edges())
    target = colliders(g)
    out = []
    for flips in range(1 << len(edges)):
        h = MixedGraph(g.n, [(v, u) if (flips >> i) & 1 else (u, v)
                             for i, (u, v) in enumerate(edges)])
        if h.is_dag() and colliders(h) == target:
            out.append(h)
    return out
