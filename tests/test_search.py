import numpy as np
import pytest

from magorder.checks import hill_climb_monotone
from magorder.ci import OracleCiTester
from magorder.discovery import NeighborFinder, cost_vector
from magorder.errors import CapacityError
from magorder.graph import MixedGraph
from magorder.orders import is_r_order
from magorder.search import (
    HcConfig,
    PgConfig,
    ViConfig,
    SoftmaxPolicy,
    expected_cost,
    hill_climb,
    initialize_order,
    policy_gradient,
    score_gradient_samples,
    value_iteration,
)

from conftest import oracle_finder, random_dag, random_mag


def brute_min_cost(g):
    from itertools import permutations
    finder = oracle_finder(g)
    return min(sum(cost_vector(p, finder))
               for p in permutations(range(g.n)))


class TestInitializeOrder:
    def test_chain_mb_size_sort(self, chain3):
        got = initialize_order(oracle_finder(chain3), "mb_size_sort")
        assert got == (0, 2, 1)

    def test_g1_mb_sizes_all_tie(self, g1):
        got = initialize_order(oracle_finder(g1), "mb_size_sort")
        assert got == (0, 1, 2, 3)

    def test_random_is_seeded_permutation(self, g1):
        a = initialize_order(oracle_finder(g1), "random", seed=5)
        b = initialize_order(oracle_finder(g1), "random", seed=5)
        assert a == b
        assert sorted(a) == [0, 1, 2, 3]

    def test_single_vertex(self):
        g = MixedGraph(1)
        for mode in ("random", "mb_size_sort", "mb_recursive"):
            assert initialize_order(oracle_finder(g), mode, seed=0) == (0,)

    def test_mb_recursive_golden_cases(self, chain3, g1):
        assert initialize_order(oracle_finder(chain3),
                                "mb_recursive") == (0, 1, 2)
        assert initialize_order(oracle_finder(g1),
                                "mb_recursive") == (0, 1, 2, 3)

    def test_mb_recursive_is_valid_and_deterministic(self):
        # the boundary-containment signature is necessary but not
        # sufficient for removability, so no r-order guarantee here
        rng = np.random.default_rng(61)
        hits = 0
        for _ in range(15):
            g = random_dag(rng, 6, 0.45)
            tester = OracleCiTester(g)
            order = initialize_order(NeighborFinder(tester), "mb_recursive")
            assert sorted(order) == list(range(6))
            assert order == initialize_order(NeighborFinder(tester),
                                             "mb_recursive")
            hits += is_r_order(g, order)
        assert hits >= 8

    def test_unknown_mode_rejected(self, g1):
        with pytest.raises(ValueError):
            initialize_order(oracle_finder(g1), "sorted_by_vibes")


class TestHillClimb:
    def test_chain_worked_example(self, chain3):
        res = hill_climb(oracle_finder(chain3),
                         HcConfig(max_swap=2),
                         initial_order=(1, 0, 2))
        assert res.order == (0, 1, 2)
        assert res.trace == ((0, 3, None), (1, 2, (0, 1)))
        assert res.skeleton.edges == chain3.skeleton_edges()

    def test_r_order_start_accepts_nothing(self, chain3):
        res = hill_climb(oracle_finder(chain3), HcConfig(max_swap=2),
                         initial_order=(0, 1, 2))
        assert len(res.trace) == 1
        assert res.trace[0][1] == 2

    def test_g1_any_start_is_optimal(self, g1):
        for seed in range(10):
            cfg = HcConfig(max_swap=3, initializer="random")
            res = hill_climb(oracle_finder(g1), cfg, seed=seed)
            assert res.trace[-1][1] == 5
            assert len(res.trace) == 1

    def test_trace_costs_strictly_decrease(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            g = random_dag(rng, 7, 0.4)
            cfg = HcConfig(max_swap=4, initializer="random")
            res = hill_climb(oracle_finder(g), cfg,
                             seed=int(rng.integers(1 << 30)))
            assert hill_climb_monotone(res) is None

    def test_incremental_decision_matches_full_recompute(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            g = random_mag(rng, 6, 8, 0.4)
            finder = oracle_finder(g)
            order = [int(v) for v in rng.permutation(6)]
            base = cost_vector(order, finder)
            for a in range(5):
                for b in range(a + 1, 6):
                    cand = order.copy()
                    cand[a], cand[b] = cand[b], cand[a]
                    window = cost_vector(cand, finder, first=a, last=b)
                    full = cost_vector(cand, finder)
                    assert full[:a] == base[:a]
                    assert full[b + 1:] == base[b + 1:]
                    incremental = sum(window[a:b + 1]) < sum(base[a:b + 1])
                    assert incremental == (sum(full) < sum(base))

    def test_converges_to_optimum_on_sparse_oracles(self):
        # first-improvement search can stall in local minima; on sparse
        # instances it should still find the optimum almost always
        rng = np.random.default_rng(73)
        hits = 0
        for seed in range(20):
            g = random_dag(rng, 6, 6 ** -0.7)
            cfg = HcConfig(max_swap=5, initializer="mb_size_sort")
            res = hill_climb(oracle_finder(g), cfg)
            if res.trace[-1][1] == brute_min_cost(g):
                hits += 1
        assert hits >= 17

    def test_config_validation(self, chain3):
        with pytest.raises(ValueError):
            HcConfig(max_iter=0)
        with pytest.raises(ValueError):
            HcConfig(max_swap=0)
        with pytest.raises(ValueError):
            HcConfig(initializer="bogus")
        with pytest.raises(ValueError):
            hill_climb(oracle_finder(chain3), HcConfig(max_swap=2),
                       initial_order=(0, 1))

    def test_swap_window_beyond_n_matches_full_window(self):
        # the scan stops at the last position, so a window wider than the
        # order changes nothing
        rng = np.random.default_rng(67)
        swapped = 0
        for _ in range(5):
            g = random_dag(rng, 7, 0.4)
            seed = int(rng.integers(1 << 30))
            wide = hill_climb(oracle_finder(g), HcConfig(
                max_swap=g.n + 5, initializer="random"), seed=seed)
            full = hill_climb(oracle_finder(g), HcConfig(
                max_swap=g.n - 1, initializer="random"), seed=seed)
            assert wide == full
            swapped += len(full.trace) > 1
        assert swapped >= 3

    def test_max_iter_caps_accepted_swaps(self):
        rng = np.random.default_rng(79)
        g = random_dag(rng, 8, 0.6)
        cfg = HcConfig(max_iter=1, max_swap=7, initializer="random")
        res = hill_climb(oracle_finder(g), cfg, seed=3)
        assert len(res.trace) <= 2


class TestValueIteration:
    def test_chain(self, chain3):
        res = value_iteration(oracle_finder(chain3))
        assert res.total_cost == 2
        assert res.order[0] in (0, 2)
        assert sum(cost_vector(res.order, oracle_finder(chain3))) == 2

    def test_g1(self, g1):
        res = value_iteration(oracle_finder(g1))
        assert res.total_cost == 5

    def test_edgeless(self):
        res = value_iteration(oracle_finder(MixedGraph(4)))
        assert res.total_cost == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(83)
        for _ in range(8):
            g = random_dag(rng, 6, 0.5)
            res = value_iteration(oracle_finder(g))
            assert res.total_cost == brute_min_cost(g)

    def test_matches_brute_force_on_mags(self):
        rng = np.random.default_rng(89)
        for _ in range(6):
            g = random_mag(rng, 6, 8, 0.4)
            res = value_iteration(oracle_finder(g))
            assert res.total_cost == brute_min_cost(g)

    def test_output_is_r_order(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            g = random_mag(rng, 6, 9, 0.4)
            res = value_iteration(oracle_finder(g))
            assert is_r_order(g, res.order)

    def test_unrolled_order_cost_equals_table_root(self):
        rng = np.random.default_rng(101)
        g = random_dag(rng, 7, 0.4)
        tester = OracleCiTester(g)
        res = value_iteration(NeighborFinder(tester))
        assert sum(cost_vector(res.order, NeighborFinder(tester))) == \
            res.total_cost
        assert res.values[(1 << g.n) - 1] == res.total_cost

    def test_capacity_error(self):
        g = MixedGraph(5)
        with pytest.raises(CapacityError):
            value_iteration(oracle_finder(g), ViConfig(cap=4))

    def test_cap_bounded_before_any_table(self):
        # 2^25 states would need about 1 GB; only the settings are built.
        assert ViConfig(cap=24).cap == 24
        with pytest.raises(ValueError, match="24"):
            ViConfig(cap=25)


class TestPolicyGradient:
    def test_chain_reaches_optimum(self, chain3):
        hits = 0
        for seed in range(10):
            res = policy_gradient(oracle_finder(chain3),
                                  PgConfig(episodes=500, learning_rate=0.5),
                                  seed=seed)
            if res.best_cost == 2:
                hits += 1
        assert hits >= 9

    def test_constant_reward_on_g1(self, g1):
        res = policy_gradient(oracle_finder(g1), PgConfig(episodes=40),
                              seed=0)
        assert set(res.rewards) == {-5}
        assert res.best_cost == 5

    def test_zero_learning_rate_keeps_parameters(self, chain3):
        res = policy_gradient(oracle_finder(chain3),
                              PgConfig(episodes=60, learning_rate=0.0),
                              seed=1)
        assert not res.policy.theta.any()
        assert not res.policy.phi.any()

    def test_learning_shifts_probability_toward_cheap_orders(self):
        # collider chain: eliminating the middle first costs an extra edge
        g = MixedGraph(4, directed=[(0, 1), (2, 1), (2, 3)])
        tester = OracleCiTester(g)
        res = policy_gradient(NeighborFinder(tester),
                              PgConfig(episodes=800, learning_rate=0.4),
                              seed=2)
        finder = NeighborFinder(tester)
        assert expected_cost(res.policy, finder) < \
            expected_cost(SoftmaxPolicy(4), finder) + 1e-9

    def test_probabilities_cover_remaining_only(self):
        pol = SoftmaxPolicy(5)
        members, p = pol.probs(0b10110, 1)
        assert members == [1, 2, 4]
        assert p.shape == (3,)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_gradient_matches_finite_differences(self, chain3):
        tester = OracleCiTester(chain3)
        finder = NeighborFinder(tester)
        pol = SoftmaxPolicy(3)
        rng = np.random.default_rng(7)
        pol.set_flat(rng.normal(scale=0.3, size=pol.flat().size))
        samples = score_gradient_samples(pol, finder, 6000,
                                         np.random.default_rng(11))
        est = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
        base = pol.flat()
        h = 1e-4
        for i in range(base.size):
            hi = base.copy()
            hi[i] += h
            lo = base.copy()
            lo[i] -= h
            probe = SoftmaxPolicy(3)
            probe.set_flat(hi)
            j_hi = -expected_cost(probe, finder)
            probe.set_flat(lo)
            j_lo = -expected_cost(probe, finder)
            fd = (j_hi - j_lo) / (2 * h)
            assert abs(est[i] - fd) <= 2 * se[i] + 1e-9, f"coordinate {i}"

    def test_invalid_episode_count(self, chain3):
        with pytest.raises(ValueError):
            policy_gradient(oracle_finder(chain3), PgConfig(episodes=0))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            PgConfig(batch_size=0)
