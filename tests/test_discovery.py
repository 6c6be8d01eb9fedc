import numpy as np
import pytest

from magorder.ci import CiTester, DataMatrix, FisherZCiTester, OracleCiTester
from magorder.discovery import (
    Mark,
    NeighborFinder,
    PagGraph,
    SkeletonResult,
    cost_vector,
    learn_skeleton,
    orient,
)
from magorder.data import load_bundled, random_sem, sample_sem
from magorder.errors import OrientationConflict
from magorder.graph import (
    MixedGraph,
    bits,
    m_separated,
    mask_of,
)
from magorder.orders import enumerate_r_orders, is_r_order
from magorder.search import value_iteration

from conftest import (mag_mec_members, oracle_finder, random_dag, random_mag,
                      submasks)


def brute_neighbors(g, x, remaining):
    """Adjacency by exhaustive subset search within the remaining set."""
    out = 0
    for y in bits(remaining & ~(1 << x)):
        free = remaining & ~(1 << x) & ~(1 << y)
        if not any(m_separated(g, x, y, z) for z in submasks(free)):
            out |= 1 << y
    return out


def memo_size(finder):
    """Number of memoised (vertex, remaining set) answers."""
    return sum(len(per_vertex) for per_vertex in finder._memo)


def sem_samples(rng, g, n_samples):
    """Linear-Gaussian draws in an ancestral topological order."""
    order = []
    placed = 0
    while len(order) < g.n:
        for v in range(g.n):
            if not (placed >> v) & 1 and g.parents_mask(v) & ~placed == 0:
                order.append(v)
                placed |= 1 << v
    data = np.zeros((n_samples, g.n))
    for v in order:
        data[:, v] = rng.normal(size=n_samples)
        for u in bits(g.parents_mask(v)):
            data[:, v] += 1.2 * data[:, u]
    return data


class TestOracleNeighbors:
    def test_worked_example_full_set(self, g1):
        res = NeighborFinder(OracleCiTester(g1)).neighbors(0, g1.full_mask)
        assert res.neighbors == mask_of([1, 2, 3])
        assert res.sepsets == {}

    def test_worked_example_separable_pair(self, g1):
        # with X1 eliminated, X3 and X4 separate marginally
        res = NeighborFinder(OracleCiTester(g1)).neighbors(
            2, mask_of([1, 2, 3]))
        assert res.neighbors == mask_of([1])
        assert set(res.sepsets) == {3}
        assert m_separated(g1, 2, 3, res.sepsets[3])

    def test_agrees_with_subset_search_on_dags(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_dag(rng, 5, 0.5)
            finder = NeighborFinder(OracleCiTester(g))
            for x in range(g.n):
                for remaining in submasks(g.full_mask):
                    if not (remaining >> x) & 1:
                        continue
                    assert finder.neighbor_mask(x, remaining) == \
                        brute_neighbors(g, x, remaining)

    def test_agrees_with_subset_search_on_mags(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            g = random_mag(rng, 4, 6, 0.45)
            finder = NeighborFinder(OracleCiTester(g))
            for x in range(g.n):
                for remaining in submasks(g.full_mask):
                    if not (remaining >> x) & 1:
                        continue
                    assert finder.neighbor_mask(x, remaining) == \
                        brute_neighbors(g, x, remaining)

    def test_matches_definition_for_every_remaining_set(self):
        # y is adjacent exactly when no subset of R - {x, y} m-separates
        # x and y; every R, with x inside it or not.
        rng = np.random.default_rng(19)
        for trial in range(12):
            n = 6 + trial % 2
            g = random_dag(rng, n, 0.4) if trial % 4 < 2 else random_mag(
                rng, n, n + 2, 0.35)
            seps = {}
            for x in range(n):
                for y in range(x + 1, n):
                    free = g.full_mask & ~(1 << x) & ~(1 << y)
                    seps[x, y] = seps[y, x] = [
                        z for z in submasks(free) if m_separated(g, x, y, z)]
            finder = oracle_finder(g)
            for remaining in submasks(g.full_mask):
                for x in range(n):
                    expected = mask_of(
                        y for y in bits(remaining & ~(1 << x))
                        if not any(z & ~remaining == 0 for z in seps[x, y]))
                    assert finder.neighbor_mask(x, remaining) == expected, \
                        (g, x, remaining)

    def test_sepsets_separate(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_dag(rng, 6, 0.4)
            finder = NeighborFinder(OracleCiTester(g))
            for x in range(g.n):
                res = finder.neighbors(x, g.full_mask)
                for y, z in res.sepsets.items():
                    assert z & ((1 << x) | (1 << y)) == 0
                    assert z & ~g.full_mask == 0
                    assert m_separated(g, x, y, z)

    def test_neighbor_mask_is_memoised(self, g1):
        finder = NeighborFinder(OracleCiTester(g1))
        first = finder.neighbor_mask(0, g1.full_mask)
        assert finder.neighbor_mask(0, g1.full_mask) == first
        assert memo_size(finder) == 1

    def test_memo_keeps_vertices_apart_above_64(self):
        g = MixedGraph(66, directed=[(0, 1), (64, 65)])
        finder = NeighborFinder(OracleCiTester(g))
        full = g.full_mask
        assert finder.neighbor_mask(0, full) == 1 << 1
        assert finder.neighbor_mask(64, full & ~1) == 1 << 65


def oracle_instances(seed):
    """Random DAGs on 6 vertices and MAGs on 5 (of 7) for exactness tests."""
    rng = np.random.default_rng(seed)
    return ([random_dag(rng, 6, p) for p in (0.3, 0.5, 0.7)]
            + [random_mag(rng, 5, 7, p) for p in (0.35, 0.5, 0.65)])


def fisher_z_tester():
    """Fisher-Z tester on 500 samples of the bundled asia network."""
    dag = load_bundled("asia")
    return FisherZCiTester(sample_sem(random_sem(dag, seed=3), 500, seed=4),
                           alpha=0.05)


def reference_value_iteration(finder):
    """The subset DP with one ``neighbor_mask`` call per (vertex, set)."""
    size = 1 << finder.n
    values = np.zeros(size, dtype=np.int64)
    actions = np.full(size, -1, dtype=np.int64)
    for s in range(size):
        if s.bit_count() <= 1:
            continue
        best, best_a = None, -1
        for a in bits(s):
            cost = finder.neighbor_mask(a, s).bit_count() \
                + values[s & ~(1 << a)]
            if best is None or cost < best:
                best, best_a = cost, a
        values[s] = best
        actions[s] = best_a
    return values, actions


class TestPairCache:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_shuffled_queries_match_definition(self, seed):
        # One finder answers every (x, s) in a random order, so each
        # pair's cached answer was left by an unrelated earlier query.
        rng = np.random.default_rng(seed)
        for g in oracle_instances(seed):
            finder = oracle_finder(g)
            queries = [(x, s) for s in submasks(g.full_mask)
                       for x in bits(s)]
            for i in rng.permutation(len(queries)):
                x, s = queries[i]
                assert finder.neighbor_mask(x, s) == \
                    brute_neighbors(g, x, s), (x, s)
            assert len(finder._last) <= g.n * (g.n - 1) // 2

    def test_sepsets_follow_the_asked_set(self):
        rng = np.random.default_rng(23)
        for g in oracle_instances(23):
            finder = oracle_finder(g)
            for i in rng.permutation(1 << g.n):
                s = int(i)
                for x in bits(s):
                    for y, z in finder.neighbors(x, s).sepsets.items():
                        assert z & ~s == 0 and not (z >> x) & 1
                        assert m_separated(g, x, y, z)

    def test_endpoint_outside_remaining_matches_fresh_finder(self):
        for g in oracle_instances(24):
            shared = oracle_finder(g)
            for s in submasks(g.full_mask):
                for x in range(g.n):
                    # Ask with x inside first, then with x left out.
                    shared.neighbors(x, s | 1 << x)
                    outside = s & ~(1 << x)
                    assert shared.neighbors(x, outside) == \
                        oracle_finder(g).neighbors(x, outside), (x, s)


class TestSweep:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 7])
    def test_every_set_once_after_its_subsets(self, n):
        g = random_dag(np.random.default_rng(n), n, 0.5)
        seen = {}
        for s, masks in oracle_finder(g).sweep():
            assert s not in seen
            assert len(masks) == s.bit_count()
            for a in bits(s):
                sub = s & ~(1 << a)
                if sub.bit_count() >= 2:
                    assert sub in seen, (s, sub)
            seen[s] = masks
        assert sorted(seen) == [s for s in range(1 << n)
                                if s.bit_count() >= 2]

    def test_oracle_masks_match_fresh_neighbor_masks(self):
        for g in oracle_instances(25):
            tester = OracleCiTester(g)
            for s, masks in NeighborFinder(tester).sweep():
                assert masks == [NeighborFinder(tester).neighbor_mask(x, s)
                                 for x in bits(s)], s

    def test_fisher_z_masks_match_fresh_neighbor_masks(self):
        swept = fisher_z_tester()
        fresh = fisher_z_tester()
        for s, masks in NeighborFinder(swept, 2).sweep():
            assert masks == [NeighborFinder(fresh, 2).neighbor_mask(x, s)
                             for x in bits(s)], s
        assert swept.query_count == fresh.query_count

    def test_value_iteration_matches_reference_dp(self):
        finders = [(oracle_finder(g), oracle_finder(g))
                   for g in oracle_instances(26)]
        finders.append((NeighborFinder(fisher_z_tester()),
                        NeighborFinder(fisher_z_tester())))
        for finder, reference in finders:
            res = value_iteration(finder)
            values, actions = reference_value_iteration(reference)
            assert res.values.dtype == res.actions.dtype == np.int64
            assert np.array_equal(res.values, values)
            assert np.array_equal(res.actions, actions)
            assert res.total_cost == values[-1]

    def test_value_iteration_stores_no_neighbor_masks(self):
        for g in oracle_instances(27):
            finder = oracle_finder(g)
            value_iteration(finder)
            assert memo_size(finder) == 0
            assert 0 < len(finder._last) <= g.n * (g.n - 1) // 2
        finder = NeighborFinder(fisher_z_tester())
        value_iteration(finder)
        assert memo_size(finder) == 0


class TestCiNeighbors:
    def test_chain_data_recovers_skeleton(self, chain3):
        rng = np.random.default_rng(3)
        data = DataMatrix(sem_samples(rng, chain3, 2000))
        tester = FisherZCiTester(data, alpha=0.01)
        res = NeighborFinder(tester).neighbors(0, 0b111)
        assert res.neighbors == mask_of([1])
        assert res.sepsets[2] == mask_of([1])

    def test_max_sep_size_zero_keeps_marginal_dependence(self, chain3):
        rng = np.random.default_rng(3)
        data = DataMatrix(sem_samples(rng, chain3, 2000))
        tester = FisherZCiTester(data, alpha=0.01)
        res = NeighborFinder(tester, max_sep_size=0).neighbors(0, 0b111)
        # without conditioning the chain endpoints stay dependent
        assert (res.neighbors >> 2) & 1

    def test_search_path_agrees_with_oracle_path(self):
        # a separation oracle exposed as a generic tester exercises the
        # boundary-restricted subset search instead of the fast path
        class SlowOracle(CiTester):
            def __init__(self, graph):
                super().__init__(graph.n)
                self.graph = graph

            def _evaluate(self, x, y, z):
                return m_separated(self.graph, x, y, z)

        rng = np.random.default_rng(53)
        for _ in range(10):
            g = random_dag(rng, 5, 0.5)
            slow = NeighborFinder(SlowOracle(g))
            fast = NeighborFinder(OracleCiTester(g))
            for x in range(g.n):
                slow_res = slow.neighbors(x, g.full_mask)
                assert slow_res.neighbors == \
                    fast.neighbor_mask(x, g.full_mask)
                for y, z in slow_res.sepsets.items():
                    assert m_separated(g, x, y, z)

    @pytest.mark.parametrize("max_sep_size", [2, None])
    def test_shared_finder_matches_fresh_finders(self, max_sep_size):
        # A shared finder answers many pools from answers stored for
        # larger pools; a fresh finder per query always searches.  Both
        # must give the same neighbors, sepsets and distinct tests.
        dag = load_bundled("sachs")
        data = sample_sem(random_sem(dag, seed=11), 500, seed=12)
        shared_tester = FisherZCiTester(data, alpha=0.05)
        fresh_tester = FisherZCiTester(data, alpha=0.05)
        shared = NeighborFinder(shared_tester, max_sep_size)
        rng = np.random.default_rng(13)
        for _ in range(6):
            remaining = dag.full_mask
            for x in rng.permutation(dag.n):
                x = int(x)
                got = shared.neighbors(x, remaining)
                want = NeighborFinder(fresh_tester, max_sep_size).neighbors(
                    x, remaining)
                assert got == want, (x, remaining)
                remaining &= ~(1 << x)
        assert shared_tester.query_count == fresh_tester.query_count


class TestLearnSkeleton:
    def test_g1_c_order_recovers_skeleton(self, g1):
        res = learn_skeleton((0, 1, 2, 3), oracle_finder(g1))
        assert res.edges == g1.skeleton_edges()
        assert res.counts == (3, 2, 0, 0)
        assert res.cost() == 5

    def test_chain_bad_order_adds_edge(self, chain3):
        res = learn_skeleton((1, 0, 2), oracle_finder(chain3))
        assert res.edges == frozenset({(0, 1), (1, 2), (0, 2)})
        assert res.counts == (2, 1, 0)

    def test_chain_good_order_exact(self, chain3):
        res = learn_skeleton((0, 1, 2), oracle_finder(chain3))
        assert res.edges == chain3.skeleton_edges()
        assert res.counts == (1, 1, 0)

    def test_supergraph_always_exact_iff_r_order(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_dag(rng, 5, 0.5)
            tester = OracleCiTester(g)
            order = tuple(int(v) for v in rng.permutation(5))
            res = learn_skeleton(order, NeighborFinder(tester))
            assert res.edges >= g.skeleton_edges()
            assert (res.edges == g.skeleton_edges()) == is_r_order(g, order)

    def test_supergraph_on_mags(self):
        rng = np.random.default_rng(19)
        for _ in range(12):
            g = random_mag(rng, 4, 6, 0.5)
            order = tuple(int(v) for v in rng.permutation(4))
            res = learn_skeleton(order, oracle_finder(g))
            assert res.edges >= g.skeleton_edges()
            assert (res.edges == g.skeleton_edges()) == is_r_order(g, order)

    def test_every_non_edge_has_valid_sepset(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_dag(rng, 6, 0.4)
            order = tuple(int(v) for v in rng.permutation(6))
            res = learn_skeleton(order, oracle_finder(g))
            pairs = {(u, v) for u in range(6) for v in range(u + 1, 6)}
            assert set(res.sepsets) == pairs - res.edges
            for (u, v), z in res.sepsets.items():
                assert m_separated(g, u, v, z)

    def test_counts_sum_to_edge_count(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = random_mag(rng, 5, 7, 0.45)
            order = tuple(int(v) for v in rng.permutation(5))
            res = learn_skeleton(order, oracle_finder(g))
            assert sum(res.counts) == len(res.edges)

    def test_rejects_non_permutation(self, g1):
        with pytest.raises(ValueError):
            learn_skeleton((0, 1, 2), oracle_finder(g1))
        with pytest.raises(ValueError):
            learn_skeleton((0, 1, 2, 2), oracle_finder(g1))

    def test_shared_finder_reuses_memo(self, g1):
        finder = NeighborFinder(OracleCiTester(g1))
        learn_skeleton((0, 1, 2, 3), finder)
        size = memo_size(finder)
        learn_skeleton((0, 1, 2, 3), finder)
        assert memo_size(finder) == size


class TestCostVector:
    def test_chain_full_range(self, chain3):
        finder = oracle_finder(chain3)
        assert cost_vector((2, 1, 0), finder) == [1, 1, 0]
        assert cost_vector((0, 1, 2), finder) == [1, 1, 0]
        assert cost_vector((1, 0, 2), finder) == [2, 1, 0]

    def test_partial_range_skips_prefix_cost(self, chain3):
        finder = oracle_finder(chain3)
        assert cost_vector((1, 0, 2), finder, first=1, last=2) == [0, 1, 0]
        assert cost_vector((1, 0, 2), finder, first=2, last=2) == [0, 0, 0]

    def test_matches_learned_counts(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = random_dag(rng, 6, 0.5)
            tester = OracleCiTester(g)
            order = tuple(int(v) for v in rng.permutation(6))
            full = cost_vector(order, NeighborFinder(tester))
            assert tuple(full) == learn_skeleton(
                order, NeighborFinder(tester)).counts

    def test_range_validation(self, chain3):
        finder = oracle_finder(chain3)
        with pytest.raises(ValueError):
            cost_vector((0, 1, 2), finder, first=2, last=1)
        with pytest.raises(ValueError):
            cost_vector((0, 1, 2), finder, first=-1)
        with pytest.raises(ValueError):
            cost_vector((0, 1, 2), finder, first=0, last=3)


def member_mark(g, a, b):
    """Mark at the b end of edge a--b in a mixed graph."""
    key = (a, b) if a < b else (b, a)
    if key in g.bidirected:
        return Mark.ARROW
    if (a, b) in g.directed:
        return Mark.ARROW
    assert (b, a) in g.directed
    return Mark.TAIL


def mec_intersection_marks(g):
    """Per-end marks shared by every equivalent maximal ancestral graph."""
    members = mag_mec_members(g)
    table = {}
    for u, v in sorted(g.skeleton_edges()):
        at_u = {member_mark(m, v, u) for m in members}
        at_v = {member_mark(m, u, v) for m in members}
        table[(u, v)] = (at_u.pop() if len(at_u) == 1 else Mark.CIRCLE,
                         at_v.pop() if len(at_v) == 1 else Mark.CIRCLE)
    return table


def oracle_pag(g):
    order = enumerate_r_orders(g)[0]
    return orient(learn_skeleton(order, oracle_finder(g)))


class TestOrient:
    def test_unshielded_collider(self):
        g = MixedGraph(3, directed=[(0, 2), (1, 2)])
        pag = oracle_pag(g)
        assert pag.marks_table() == {
            (0, 2): (Mark.CIRCLE, Mark.ARROW),
            (1, 2): (Mark.CIRCLE, Mark.ARROW),
        }

    def test_chain_stays_uncommitted(self, chain3):
        pag = oracle_pag(chain3)
        assert pag.marks_table() == {
            (0, 1): (Mark.CIRCLE, Mark.CIRCLE),
            (1, 2): (Mark.CIRCLE, Mark.CIRCLE),
        }

    def test_collider_with_tail_completion(self):
        # 0 -> 2 <- 1, 2 -> 3: the chain rule forces 2 -> 3
        g = MixedGraph(4, directed=[(0, 2), (1, 2), (2, 3)])
        pag = oracle_pag(g)
        assert pag.marks_table() == {
            (0, 2): (Mark.CIRCLE, Mark.ARROW),
            (1, 2): (Mark.CIRCLE, Mark.ARROW),
            (2, 3): (Mark.TAIL, Mark.ARROW),
        }
        assert pag.is_directed(2, 3)
        rules = {r for r, *_ in pag.trace}
        assert rules == {"collider", "chain"}

    def test_matches_equivalence_class_on_dags(self):
        rng = np.random.default_rng(37)
        done = 0
        while done < 12:
            g = random_dag(rng, 5, 0.45)
            if len(g.skeleton_edges()) > 7:
                continue
            assert oracle_pag(g).marks_table() == mec_intersection_marks(g)
            done += 1

    def test_matches_equivalence_class_on_mags(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 10:
            g = random_mag(rng, 5, 7, 0.4)
            if len(g.skeleton_edges()) > 7:
                continue
            assert oracle_pag(g).marks_table() == mec_intersection_marks(g)
            done += 1

    def test_sound_against_true_graph(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            g = random_mag(rng, 5, 7, 0.5)
            pag = oracle_pag(g)
            assert pag.skeleton_edges() == g.skeleton_edges()
            for u, v in g.skeleton_edges():
                got_u, got_v = pag.marks_table()[(u, v)]
                if got_u != Mark.CIRCLE:
                    assert got_u == member_mark(g, v, u)
                if got_v != Mark.CIRCLE:
                    assert got_v == member_mark(g, u, v)

    def test_discriminating_path_rule_fires(self):
        # projecting out a confounder of the middle pair leaves a graph
        # whose final mark needs the discriminating-path rule
        g = MixedGraph(5, directed=[(0, 1), (1, 4), (2, 1), (2, 4), (3, 2)],
                       bidirected=[(0, 2)])
        pag = oracle_pag(g)
        assert pag.marks_table() == mec_intersection_marks(g)
        assert "discriminating" in {r for r, *_ in pag.trace}

    def test_missing_sepset_is_rejected(self):
        skel = SkeletonResult(frozenset({(0, 1), (1, 2)}), {}, (1, 1, 0))
        with pytest.raises(ValueError, match="separating set"):
            orient(skel)

    def test_conflicting_marks_raise_with_trace(self):
        pag = PagGraph(3, [(0, 1), (1, 2)])
        pag.set_mark(0, 1, Mark.ARROW, "collider")
        pag.set_mark(2, 1, Mark.TAIL, "chain")
        with pytest.raises(OrientationConflict) as err:
            pag.set_mark(2, 1, Mark.ARROW, "collider")
        assert err.value.trace == [("collider", 0, 1, Mark.ARROW),
                                   ("chain", 2, 1, Mark.TAIL)]

    def test_rendering_glyphs(self):
        pag = PagGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                       names=("A", "B", "C", "D"))
        pag.set_mark(0, 1, Mark.ARROW)
        pag.set_mark(1, 0, Mark.TAIL)       # A --> B reversed: B ... A
        pag.set_mark(1, 2, Mark.ARROW)
        pag.set_mark(2, 1, Mark.ARROW)
        pag.set_mark(2, 3, Mark.ARROW)
        lines = pag.to_text().splitlines()
        assert lines == ["A --> B", "A o-o D", "B <-> C", "C o-> D"]

    def test_ci_pipeline_end_to_end(self):
        # fork 0 <- 1 -> 2 from data: skeleton plus orientation
        g = MixedGraph(3, directed=[(1, 0), (1, 2)])
        rng = np.random.default_rng(47)
        data = DataMatrix(sem_samples(rng, g, 4000))
        tester = FisherZCiTester(data, alpha=0.01)
        res = learn_skeleton((0, 1, 2), NeighborFinder(tester))
        assert res.edges == frozenset({(0, 1), (1, 2)})
        pag = orient(res)
        assert pag.marks_table() == {
            (0, 1): (Mark.CIRCLE, Mark.CIRCLE),
            (1, 2): (Mark.CIRCLE, Mark.CIRCLE),
        }
