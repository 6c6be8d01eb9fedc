"""Each check in ``magorder.checks`` holds on a small instance and
returns a reason on a planted counterexample, so the tests that rely on
the checks cannot pass vacuously."""

import dataclasses

from magorder import checks
from magorder.graph import MixedGraph
from magorder.search import HcConfig, hill_climb, value_iteration

from conftest import oracle_finder


def test_order_sets(chain3, monkeypatch):
    assert checks.order_sets(chain3) is None
    # The input cannot carry the fault, so plant it in the class members:
    # an edgeless DAG has other r-orders, and a repeated member repeats
    # its c-orders.
    monkeypatch.setattr(checks, "markov_equivalent_dags",
                        lambda g: [g, MixedGraph(3)])
    assert "differ" in checks.order_sets(chain3)
    monkeypatch.setattr(checks, "markov_equivalent_dags", lambda g: [g, g])
    assert "shared" in checks.order_sets(chain3)


def test_skeleton_maps(chain3):
    skeletons = checks.learned_skeletons(chain3)
    assert checks.min_cost_orders(chain3, skeletons) is None
    assert checks.skeleton_recovery(chain3, skeletons) is None
    r_order, other = (0, 1, 2), (1, 0, 2)
    dropped = {**skeletons, r_order: skeletons[r_order] - {(0, 1)}}
    assert "missed" in checks.skeleton_recovery(chain3, dropped)
    exact = {**skeletons, other: chain3.skeleton_edges()}
    assert "lacked" in checks.skeleton_recovery(chain3, exact)
    extra = {**skeletons, r_order: skeletons[r_order] | {(0, 2)}}
    assert "minimisers" in checks.min_cost_orders(chain3, extra)


def test_exact_search(chain3, monkeypatch):
    assert checks.exact_search(chain3) is None

    def planted(**changes):
        return lambda finder: dataclasses.replace(value_iteration(finder),
                                                  **changes)

    monkeypatch.setattr(checks, "value_iteration", planted(total_cost=3))
    assert "missed the optimum" in checks.exact_search(chain3)
    monkeypatch.setattr(checks, "value_iteration", planted(order=(1, 0, 2)))
    assert "order misses" in checks.exact_search(chain3)


def test_hill_climb_monotone(chain3):
    res = hill_climb(oracle_finder(chain3),
                     HcConfig(max_swap=2, initializer="random"), seed=0)
    assert checks.hill_climb_monotone(res) is None
    first = res.trace[0]
    equal_step = dataclasses.replace(
        res, trace=(first, (1, first[1], (0, 1))))
    assert "did not decrease" in checks.hill_climb_monotone(equal_step)
    wrong_end = dataclasses.replace(
        res, trace=((0, res.skeleton.cost() + 1, None),))
    assert "does not end" in checks.hill_climb_monotone(wrong_end)


def test_projection():
    # Hiding the common parent 0 of 1 and 2 leaves 1 <-> 2.
    dag = MixedGraph(3, directed=[(0, 1), (0, 2)])
    mag = MixedGraph(2, bidirected=[(0, 1)])
    assert checks.projection(dag, mag, (1, 2)) is None
    assert "changed a separation" in checks.projection(
        dag, MixedGraph(2), (1, 2))


def test_fixture(monkeypatch):
    assert checks.fixture("asia") is None
    monkeypatch.setitem(checks.FIXTURE_STATS, "asia", (8, 9, 2, 4))
    assert "expected" in checks.fixture("asia")
    monkeypatch.setitem(checks.FIXTURE_STATS, "water", (32, 66, 5, 8))
    assert "catalogue" in checks.fixture("asia")
