from itertools import combinations

import numpy as np
import pytest

from magorder.errors import CapacityError
from magorder.graph import (
    MixedGraph,
    _reachable,
    _topological,
    ancestors,
    bits,
    induced_subgraph,
    inducing_path_exists,
    is_ancestral,
    is_markov_equivalent,
    is_maximal,
    is_removable,
    is_removable_exhaustive,
    latent_projection,
    m_separated,
    m_separated_by_paths,
    mask_of,
    reach_all,
)

from conftest import (
    brute_separable,
    random_ancestral,
    random_dag,
    random_mag,
    random_subset,
    submasks,
)


def test_bits_mask_roundtrip():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(bits(0)) == []
    assert mask_of([]) == 0


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            MixedGraph(3, directed=[(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            MixedGraph(3, directed=[(0, 3)])

    def test_rejects_duplicate_directed(self):
        with pytest.raises(ValueError, match="duplicate"):
            MixedGraph(3, directed=[(0, 1), (0, 1)])

    def test_rejects_duplicate_bidirected_any_order(self):
        with pytest.raises(ValueError, match="duplicate"):
            MixedGraph(3, bidirected=[(0, 1), (1, 0)])

    def test_rejects_pair_in_both_edge_sets(self):
        with pytest.raises(ValueError, match="both"):
            MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 0)])

    def test_rejects_bad_names_length(self):
        with pytest.raises(ValueError, match="names"):
            MixedGraph(2, names=["a"])

    def test_accessor_masks(self, g1):
        assert g1.parents_mask(0) == mask_of([1, 2, 3])
        assert g1.children_mask(2) == mask_of([0, 1])
        assert g1.siblings_mask(0) == 0
        assert g1.adjacent_mask(1) == mask_of([0, 2, 3])
        assert g1.skeleton_edges() == frozenset(
            {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)})
        assert g1.edge_count() == 5
        assert g1.max_in_degree() == 3
        assert g1.max_degree() == 3

    def test_value_equality(self):
        a = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
        b = MixedGraph(3, directed=[(0, 1)], bidirected=[(2, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != MixedGraph(3, directed=[(0, 1)])


class TestAncestors:
    def test_sink_collects_everything(self, g1):
        assert ancestors(g1, 1 << 0) == g1.full_mask

    def test_reflexive_and_empty(self, g1):
        assert ancestors(g1, 1 << 3) == 1 << 3
        assert ancestors(g1, 0) == 0

    def test_chain(self, chain3):
        assert ancestors(chain3, 1 << 2) == mask_of([0, 1, 2])

    def test_bidirected_edges_do_not_count(self):
        g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
        assert ancestors(g, 1 << 2) == 1 << 2


def moral_separated(g, x, y, z):
    """d-separation in the DAG ``g`` by moralising An({x, y} + Z), deleting
    Z and testing connectivity (Lauritzen et al. 1990)."""
    keep = ancestors(g, z | (1 << x) | (1 << y))
    nbrs = {v: set() for v in bits(keep)}
    for v in bits(keep):
        parents = list(bits(g.parents_mask(v)))
        for u in parents:
            nbrs[u].add(v)
            nbrs[v].add(u)
        for a, b in combinations(parents, 2):
            nbrs[a].add(b)
            nbrs[b].add(a)
    seen, stack = {x}, [x]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen and not (z >> w) & 1:
                seen.add(w)
                stack.append(w)
    return y not in seen


class TestSeparation:
    def test_source_pair_marginally_separated(self, g1):
        assert m_separated(g1, 2, 3, 0) is True
        assert m_separated_by_paths(g1, 2, 3, 0) is True

    def test_conditioning_on_collider_connects(self, g1):
        assert m_separated(g1, 2, 3, 1 << 0) is False
        assert m_separated_by_paths(g1, 2, 3, 1 << 0) is False

    def test_chain_blocked_by_middle(self, chain3):
        assert not m_separated(chain3, 0, 2, 0)
        assert m_separated(chain3, 0, 2, 1 << 1)

    def test_adjacent_never_separated(self, chain3):
        assert not m_separated(chain3, 0, 1, 1 << 2)

    def test_bidirected_collider(self):
        # 0 <-> 1 <-> 2: middle vertex is a collider on the only path.
        g = MixedGraph(3, bidirected=[(0, 1), (1, 2)])
        assert m_separated(g, 0, 2, 0)
        assert not m_separated(g, 0, 2, 1 << 1)

    def test_collider_open_when_ancestor_of_endpoint(self):
        # 1 -> 0 with 2 -> 1 <-> 3: path 2 -> 1 <-> 3 has collider 1,
        # an ancestor of endpoint... of 0, not of {2, 3}: blocked.
        g = MixedGraph(4, directed=[(1, 0), (2, 1)], bidirected=[(1, 3)])
        assert m_separated(g, 2, 3, 0)
        # Conditioning on the descendant 0 opens it.
        assert not m_separated(g, 2, 3, 1 << 0)

    def test_argument_validation(self, chain3):
        with pytest.raises(ValueError):
            m_separated(chain3, 0, 0, 0)
        with pytest.raises(ValueError):
            m_separated(chain3, 0, 1, 1 << 0)
        with pytest.raises(ValueError):
            m_separated(chain3, 0, 1, 1 << 5)
        with pytest.raises(ValueError):
            m_separated(chain3, 0, 9, 0)

    def test_symmetry_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_mag(rng, 5, 7, 0.4)
            x, y = rng.choice(5, size=2, replace=False)
            x, y = int(x), int(y)
            free = g.full_mask & ~(1 << x) & ~(1 << y)
            for z in submasks(free):
                assert m_separated(g, x, y, z) == m_separated(g, y, x, z)

    def test_fast_matches_path_enumeration_dags(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            g = random_dag(rng, n, 0.45)
            self._assert_all_queries_agree(g)

    def test_fast_matches_path_enumeration_mags(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            g = random_mag(rng, int(rng.integers(3, 6)), 7, 0.4)
            self._assert_all_queries_agree(g)

    def test_fast_matches_path_enumeration_ancestral(self):
        # Also cover ancestral graphs that need not be maximal.
        rng = np.random.default_rng(17)
        for _ in range(15):
            g = random_ancestral(rng, 5, 0.3, 0.3)
            self._assert_all_queries_agree(g)

    def test_matches_moralisation_above_64_vertices(self):
        rng = np.random.default_rng(29)
        verdicts = []
        for _ in range(30):
            n = int(rng.integers(65, 91))
            g = random_dag(rng, n, 3 / n)
            for _ in range(100):
                x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
                keep = rng.random(n) < rng.uniform(0.0, 0.5)
                z = mask_of(v for v in range(n)
                            if keep[v] and v not in (x, y))
                got = m_separated(g, x, y, z)
                assert got == moral_separated(g, x, y, z), (g, x, y, z)
                verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)

    @staticmethod
    def _assert_all_queries_agree(g):
        for x in range(g.n):
            for y in range(x + 1, g.n):
                free = g.full_mask & ~(1 << x) & ~(1 << y)
                for z in submasks(free):
                    assert m_separated(g, x, y, z) == \
                        m_separated_by_paths(g, x, y, z), (g, x, y, z)


def mark_search(g, x, collider_ok, block):
    """Vertices reached from x by a search over (vertex, mark at it)
    states: the reference ``reach_all`` is tested against."""
    def moves(v):   # (next vertex, mark at v, mark at the next vertex)
        return ([(c, "tail", "head") for c in bits(g.children_mask(v))]
                + [(p, "head", "tail") for p in bits(g.parents_mask(v))]
                + [(s, "head", "head") for s in bits(g.siblings_mask(v))])

    stack = [(w, far) for w, _, far in moves(x)]
    seen = set(stack)
    while stack:
        v, mark_in = stack.pop()
        for w, here, far in moves(v):
            if mark_in == here == "head":
                passable = (collider_ok >> v) & 1
            else:
                passable = not (block >> v) & 1
            if passable and (w, far) not in seen:
                seen.add((w, far))
                stack.append((w, far))
    return mask_of(v for v, _ in seen)


class TestReachAll:
    def test_matches_per_target_walks(self):
        rng = np.random.default_rng(31)
        for trial, n in enumerate(range(5, 91, 4)):
            p = min(0.5, 3 / n)
            g = random_dag(rng, n, p) if trial % 3 else random_mag(
                rng, n, n + int(rng.integers(1, 5)), p)
            for _ in range(4):
                x = int(rng.integers(n))
                collider_ok, block = (random_subset(rng, n, rng.random())
                                      for _ in range(2))
                reached = reach_all(g, x, collider_ok, block)
                assert reached == mark_search(g, x, collider_ok, block)
                for y in range(n):
                    assert _reachable(g, x, y, collider_ok, block) == \
                        bool((reached >> y) & 1), (g, x, y)


class TestInducedSubgraph:
    def test_worked_example(self, g1):
        # Keep {X1, X2, X4}; new indices follow ascending old ones.
        sub = induced_subgraph(g1, mask_of([0, 1, 3]))
        assert sub.n == 3
        # X4 -> X2, X4 -> X1, X2 -> X1 under the reindexing 0->0, 1->1, 3->2.
        assert sub.directed == frozenset({(2, 1), (2, 0), (1, 0)})

    def test_names_follow(self):
        g = MixedGraph(3, directed=[(0, 2)], names=["a", "b", "c"])
        sub = induced_subgraph(g, mask_of([0, 2]))
        assert sub.names == ("a", "c")
        assert sub.directed == frozenset({(0, 1)})

    def test_full_keep_is_identity(self, g1):
        assert induced_subgraph(g1, g1.full_mask) == g1

    def test_out_of_range(self, chain3):
        with pytest.raises(ValueError):
            induced_subgraph(chain3, 1 << 4)


class TestAncestral:
    def test_dag(self, g1):
        assert is_ancestral(g1)
        assert g1.is_dag()

    def test_directed_cycle(self):
        g = MixedGraph(3, directed=[(0, 1), (1, 2), (2, 0)])
        assert not is_ancestral(g)

    def test_almost_directed_cycle(self):
        g = MixedGraph(3, directed=[(0, 1), (1, 2)], bidirected=[(0, 2)])
        assert not is_ancestral(g)

    def test_valid_mag(self):
        g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
        assert is_ancestral(g)
        assert not g.is_dag()


class TestTopological:
    def test_parents_first(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = random_dag(rng, int(rng.integers(1, 30)), 0.2)
            order = _topological(g)
            assert sorted(order) == list(range(g.n))
            pos = {v: i for i, v in enumerate(order)}
            assert all(pos[u] < pos[v] for u, v in g.directed)

    def test_cycle_leaves_vertices_out(self):
        # 0 -> 1 -> 2 -> 0 is a cycle and 4 lies below it; 3 and 5 do not.
        g = MixedGraph(6, directed=[(0, 1), (1, 2), (2, 0), (3, 0),
                                    (2, 4), (3, 5)])
        assert sorted(_topological(g)) == [3, 5]
        assert not g.is_dag()


class TestMaximal:
    def test_projection_always_maximal(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            g = random_mag(rng, int(rng.integers(3, 6)), 7, 0.4)
            assert is_maximal(g)

    def test_known_non_maximal(self):
        # 0 <-> 1 <-> 2 <-> 3 plus 1 -> 3 and 2 -> 0: both interior
        # vertices of the bidirected chain are colliders on it and
        # ancestors of an endpoint, so 0 and 3 cannot be separated even
        # though they are non-adjacent.
        g = MixedGraph(4, directed=[(1, 3), (2, 0)],
                       bidirected=[(0, 1), (1, 2), (2, 3)])
        assert is_ancestral(g)
        assert not is_maximal(g)
        assert not brute_separable(g, 0, 3)

    def test_matches_bruteforce_on_random_ancestral(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            g = random_ancestral(rng, 5, 0.25, 0.35)
            expected = all(
                brute_separable(g, x, y)
                for x in range(g.n) for y in range(x + 1, g.n)
                if not g.has_skeleton_edge(x, y))
            assert is_maximal(g) == expected

    def test_requires_ancestral(self):
        g = MixedGraph(2, directed=[(0, 1)], bidirected=[])
        cyc = MixedGraph(2, directed=[(0, 1), (1, 0)])
        assert is_maximal(g)
        with pytest.raises(ValueError):
            is_maximal(cyc)


class TestLatentProjection:
    def test_chain_marginalises_middle(self, chain3):
        proj = latent_projection(chain3, mask_of([0, 2]))
        assert proj.directed == frozenset({(0, 1)})
        assert proj.bidirected == frozenset()

    def test_childless_collider_drops_out(self):
        g = MixedGraph(3, directed=[(0, 1), (2, 1)])
        proj = latent_projection(g, mask_of([0, 2]))
        assert proj.edge_count() == 0

    def test_shared_latent_parent_gives_bidirected(self):
        g = MixedGraph(3, directed=[(2, 0), (2, 1)])
        proj = latent_projection(g, mask_of([0, 1]))
        assert proj.bidirected == frozenset({(0, 1)})

    def test_inducing_path_through_observed_collider(self):
        # 0 -> 2 <- 3 -> 1 with 2 -> 1, marginalising 3.  The path
        # 0 -> 2 <- 3 -> 1 is inducing: its observed interior 2 is a
        # collider and an ancestor of endpoint 1, its latent interior 3 a
        # non-collider.  Conditioning on 2 opens the collider, leaving it
        # out keeps 0 -> 2 -> 1 open, so 0 and 1 are inseparable and the
        # projection must join them.
        g = MixedGraph(4, directed=[(0, 2), (3, 2), (3, 1), (2, 1)])
        proj = latent_projection(g, mask_of([0, 1, 2]))
        assert proj.directed == frozenset({(0, 2), (2, 1), (0, 1)})
        assert proj.bidirected == frozenset()

    def test_full_projection_is_identity_for_mags(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = random_mag(rng, 4, 6, 0.4)
            assert latent_projection(g, g.full_mask) == g

    def test_rejects_cyclic_input(self):
        g = MixedGraph(3, directed=[(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="ancestral"):
            latent_projection(g, mask_of([0, 1]))

    def test_output_is_mag_and_preserves_separation_dag(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(4, 8))
            g = random_dag(rng, n, 0.4)
            k = int(rng.integers(2, n))
            obs = mask_of(int(v) for v in
                          rng.choice(n, size=k, replace=False))
            self._assert_projection_faithful(g, obs)

    def test_output_is_mag_and_preserves_separation_mag(self):
        # Projection of a projection: input is itself a MAG.
        rng = np.random.default_rng(37)
        for _ in range(15):
            g = random_mag(rng, 5, 8, 0.4)
            obs = mask_of(int(v) for v in
                          rng.choice(5, size=3, replace=False))
            self._assert_projection_faithful(g, obs)

    @staticmethod
    def _assert_projection_faithful(g, obs):
        proj = latent_projection(g, obs)
        assert is_ancestral(proj)
        assert is_maximal(proj)
        old = list(bits(obs))
        local = {o: i for i, o in enumerate(old)}
        for i, x in enumerate(old):
            for y in old[i + 1:]:
                free = obs & ~(1 << x) & ~(1 << y)
                for z in submasks(free):
                    zl = mask_of(local[v] for v in bits(z))
                    assert m_separated(g, x, y, z) == \
                        m_separated(proj, local[x], local[y], zl), \
                        (g, obs, x, y, z)

    def test_composition(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g = random_dag(rng, 7, 0.4)
            a = mask_of([0, 1, 2, 3, 4])
            b = mask_of([0, 1, 2])
            once = latent_projection(g, b)
            twice = latent_projection(latent_projection(g, a), b)
            assert once == twice


class TestInducingPath:
    def test_direct_edge(self, chain3):
        assert inducing_path_exists(chain3, 0, 1, 0)

    def test_latent_chain(self, chain3):
        assert inducing_path_exists(chain3, 0, 2, 1 << 1)
        assert not inducing_path_exists(chain3, 0, 2, 0)

    def test_endpoint_cannot_be_latent(self, chain3):
        with pytest.raises(ValueError):
            inducing_path_exists(chain3, 0, 2, 1 << 0)


class TestRemovable:
    def test_worked_example(self, g1):
        # Dropping X3 leaves the complete graph on {X1, X2, X4}.
        assert is_removable(g1, 2)
        assert is_removable_exhaustive(g1, 2)

    def test_chain_middle_not_removable(self, chain3):
        assert not is_removable(chain3, 1)
        assert is_removable(chain3, 0)
        assert is_removable(chain3, 2)

    def test_matches_exhaustive_on_dags(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            n = int(rng.integers(3, 6))
            g = random_dag(rng, n, 0.4)
            for x in range(n):
                assert is_removable(g, x) == is_removable_exhaustive(g, x)

    def test_matches_exhaustive_on_mags(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            g = random_mag(rng, int(rng.integers(3, 6)), 7, 0.4)
            for x in range(g.n):
                assert is_removable(g, x) == is_removable_exhaustive(g, x)

    def test_capacity_and_validation(self):
        big = MixedGraph(9)
        with pytest.raises(CapacityError):
            is_removable_exhaustive(big, 0)
        cyc = MixedGraph(3, directed=[(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError):
            is_removable(cyc, 0)
        with pytest.raises(ValueError):
            is_removable(big, 9)


class TestMarkovEquivalent:
    def test_chain_fork_equivalent(self):
        chain = MixedGraph(3, directed=[(0, 1), (1, 2)])
        back = MixedGraph(3, directed=[(2, 1), (1, 0)])
        fork = MixedGraph(3, directed=[(1, 0), (1, 2)])
        collider = MixedGraph(3, directed=[(0, 1), (2, 1)])
        assert is_markov_equivalent(chain, back)
        assert is_markov_equivalent(chain, fork)
        assert not is_markov_equivalent(chain, collider)

    def test_different_sizes(self):
        assert not is_markov_equivalent(MixedGraph(2), MixedGraph(3))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            is_markov_equivalent(MixedGraph(9), MixedGraph(9))

    def test_dag_vs_its_projection_restriction(self):
        # A MAG is equivalent to itself; a projected MAG differs from the
        # induced subgraph when the dropped vertex was not removable.
        chain = MixedGraph(3, directed=[(0, 1), (1, 2)])
        sub = induced_subgraph(chain, mask_of([0, 2]))
        proj = latent_projection(chain, mask_of([0, 2]))
        assert not is_markov_equivalent(sub, proj)
