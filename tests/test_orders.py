from itertools import permutations

import numpy as np
import pytest

from magorder.checks import order_sets
from magorder.errors import CapacityError
from magorder.graph import MixedGraph, latent_projection, mask_of
from magorder.orders import (
    enumerate_c_orders,
    enumerate_r_orders,
    is_c_order,
    is_r_order,
)

from conftest import mag_mec_members, random_dag, random_mag


class TestWorkedExamples:
    def test_g1_c_orders(self, g1):
        assert enumerate_c_orders(g1) == [(0, 1, 2, 3), (0, 1, 3, 2)]

    def test_g2_c_orders(self, g2):
        assert enumerate_c_orders(g2) == [(1, 0, 2, 3), (1, 0, 3, 2)]

    def test_g1_g2_all_orders_are_r_orders(self, g1, g2):
        assert len(enumerate_r_orders(g1)) == 24
        assert len(enumerate_r_orders(g2)) == 24

    def test_c_order_sets_disjoint(self, g1, g2):
        assert not set(enumerate_c_orders(g1)) & set(enumerate_c_orders(g2))

    def test_chain_c_orders(self, chain3):
        assert enumerate_c_orders(chain3) == [(2, 1, 0)]

    def test_chain_r_orders(self, chain3):
        assert set(enumerate_r_orders(chain3)) == {
            (2, 1, 0), (0, 1, 2), (0, 2, 1), (2, 0, 1)}

    def test_chain_predicates(self, chain3):
        assert is_c_order(chain3, (2, 1, 0))
        assert not is_c_order(chain3, (0, 1, 2))
        assert is_r_order(chain3, (0, 1, 2))
        assert not is_r_order(chain3, (1, 0, 2))


class TestPredicates:
    def test_rejects_non_permutation(self, chain3):
        with pytest.raises(ValueError, match="permutation"):
            is_c_order(chain3, (0, 1))
        with pytest.raises(ValueError, match="permutation"):
            is_r_order(chain3, (0, 0, 2))

    def test_c_order_requires_dag(self):
        g = MixedGraph(2, bidirected=[(0, 1)])
        with pytest.raises(ValueError, match="DAG"):
            is_c_order(g, (0, 1))

    def test_r_order_requires_ancestral(self):
        g = MixedGraph(2, directed=[(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="ancestral"):
            is_r_order(g, (0, 1))

    def test_r_order_on_mags(self):
        # 0 <-> 1 -> 2: eliminating the middle vertex first loses the
        # marginal separation of 0 and 2 (the projection joins them),
        # while either end vertex is removable.
        g = MixedGraph(3, directed=[(1, 2)], bidirected=[(0, 1)])
        assert is_r_order(g, (0, 1, 2))
        assert is_r_order(g, (2, 1, 0))
        assert not is_r_order(g, (1, 0, 2))
        # In the purely bidirected chain the middle vertex is removable:
        # the ends are already marginally separated on both sides.
        chain = MixedGraph(3, bidirected=[(0, 1), (1, 2)])
        assert is_r_order(chain, (1, 0, 2))

    def test_enumeration_matches_predicate_filter(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            n = int(rng.integers(3, 6))
            g = random_dag(rng, n, 0.45)
            by_filter = [p for p in permutations(range(n)) if is_r_order(g, p)]
            assert enumerate_r_orders(g) == by_filter
            by_filter_c = [p for p in permutations(range(n))
                           if is_c_order(g, p)]
            assert enumerate_c_orders(g) == by_filter_c

    def test_enumeration_matches_predicate_filter_mags(self):
        rng = np.random.default_rng(59)
        for _ in range(6):
            g = random_mag(rng, 4, 6, 0.4)
            by_filter = [p for p in permutations(range(g.n))
                         if is_r_order(g, p)]
            assert enumerate_r_orders(g) == by_filter


class TestProperties:
    @pytest.mark.parametrize("seed, count", [(61, 10), (67, 8), (71, 8)])
    def test_order_sets_across_equivalent_dags(self, seed, count):
        # One r-order set per equivalence class, c-orders among the
        # r-orders, and no c-order shared by two members.
        rng = np.random.default_rng(seed)
        for _ in range(count):
            g = random_dag(rng, int(rng.integers(3, 6)), 0.5)
            assert order_sets(g) is None

    def test_r_order_sets_equal_across_equivalent_mags(self):
        rng = np.random.default_rng(73)
        found_multi = False
        for _ in range(6):
            g = random_mag(rng, 4, 6, 0.4)
            members = mag_mec_members(g)
            assert g in members
            if len(members) > 1:
                found_multi = True
            reference = enumerate_r_orders(g)
            for m in members:
                assert enumerate_r_orders(m) == reference
        assert found_multi

    def test_deleting_r_order_prefix_keeps_projection_trivial(self):
        # For an r-order, each step's induced subgraph equals the
        # projection, so learning on the suffix loses nothing.
        rng = np.random.default_rng(79)
        g = random_mag(rng, 5, 7, 0.4)
        order = enumerate_r_orders(g)[0]
        remaining = g.full_mask
        from magorder.graph import induced_subgraph
        for v in order[:-1]:
            rest = remaining & ~(1 << v)
            local_rest = mask_of(
                sum(1 for u in range(w) if (remaining >> u) & 1)
                for w in range(g.n) if (rest >> w) & 1)
            sub = induced_subgraph(g, remaining)
            assert induced_subgraph(sub, local_rest) == \
                latent_projection(sub, local_rest)
            remaining = rest


class TestCaps:
    def test_enumeration_caps(self):
        big = MixedGraph(9)
        with pytest.raises(CapacityError):
            enumerate_c_orders(big)
        with pytest.raises(CapacityError):
            enumerate_r_orders(big)
        assert enumerate_r_orders(big, cap=9)[0] == tuple(range(9))

    def test_tiny_graphs(self):
        assert enumerate_r_orders(MixedGraph(1)) == [(0,)]
        assert enumerate_c_orders(MixedGraph(1)) == [(0,)]
        assert enumerate_r_orders(MixedGraph(0)) == [()]
