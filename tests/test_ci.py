import math

import numpy as np
import pytest

from magorder.ci import (
    CiTester,
    DataMatrix,
    FisherZCiTester,
    OracleCiTester,
    markov_boundaries,
)
from magorder.data import load_bundled, random_sem, sample_sem
from magorder.discovery import NeighborFinder, learn_skeleton
from magorder.errors import CiNumericalError
from magorder.graph import bits, mask_of

from conftest import random_dag, random_mag, random_subset


def sem_chain(n_samples, rng):
    # X1 -> X2 -> X3 with unit coefficients and standard normal noise.
    x1 = rng.normal(size=n_samples)
    x2 = x1 + rng.normal(size=n_samples)
    x3 = x2 + rng.normal(size=n_samples)
    return np.column_stack([x1, x2, x3])


class TestOracleTester:
    def test_matches_separation(self, g1):
        t = OracleCiTester(g1)
        assert t.test(2, 3) is True
        assert t.test(2, 3, 1 << 0) is False
        assert t.test(0, 1) is False

    def test_symmetry_and_count(self, g1):
        t = OracleCiTester(g1)
        assert t.query_count == 0
        a = t.test(2, 3, 1 << 1)
        assert t.query_count == 1
        b = t.test(3, 2, 1 << 1)
        assert a == b
        assert t.query_count == 1, "mirrored query must hit the cache"
        t.test(2, 3)
        assert t.query_count == 2

    def test_validation(self, g1):
        t = OracleCiTester(g1)
        with pytest.raises(ValueError):
            t.test(0, 0)
        with pytest.raises(ValueError):
            t.test(0, 1, 1 << 1)
        with pytest.raises(ValueError):
            t.test(0, 4)
        with pytest.raises(ValueError):
            t.test(0, 1, 1 << 7)


class TestDataMatrix:
    def test_shape_and_names(self):
        d = DataMatrix(np.zeros((5, 2)), names=["a", "b"])
        assert d.num_samples == 5
        assert d.num_vars == 2
        with pytest.raises(ValueError):
            DataMatrix(np.zeros(5))
        with pytest.raises(ValueError):
            DataMatrix(np.zeros((5, 2)), names=["a"])

    def test_correlation_cached(self):
        rng = np.random.default_rng(0)
        d = DataMatrix(rng.normal(size=(50, 3)))
        assert d.correlation is d.correlation


class TestFisherZ:
    def test_detects_dependence_and_independence(self):
        rng = np.random.default_rng(97)
        data = sem_chain(500, rng)
        t = FisherZCiTester(data, alpha=0.01)
        assert t.test(0, 1) is False
        assert t.test(0, 2) is False
        assert t.test(0, 2, 1 << 1) is True

    def test_chain_screening_rate(self):
        # (X1 _||_ X3 | X2) should be accepted in at least 90% of seeds.
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            t = FisherZCiTester(sem_chain(150, rng), alpha=0.01)
            hits += t.test(0, 2, 1 << 1)
        assert hits >= 90

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            FisherZCiTester(np.zeros((10, 2)) + np.arange(2), alpha=0)

    def test_sample_size_guard(self):
        rng = np.random.default_rng(3)
        t = FisherZCiTester(rng.normal(size=(5, 4)))
        with pytest.raises(ValueError, match="samples"):
            t.test(0, 1, mask_of([2, 3]))

    def test_singular_submatrix_raises(self):
        rng = np.random.default_rng(5)
        col = rng.normal(size=100)
        data = np.column_stack([col, rng.normal(size=100), col])
        t = FisherZCiTester(data)
        with pytest.raises(CiNumericalError):
            t.test(0, 1, 1 << 2)

    @pytest.mark.parametrize("alpha, quantile", [
        (0.01, 2.5758293035489),
        (0.025, 2.241402727604947),
        (0.05, 1.959963984540054),
    ])
    def test_threshold_is_two_sided_normal_quantile(self, alpha, quantile):
        data = np.random.default_rng(4).normal(size=(20, 2))
        t = FisherZCiTester(data, alpha=alpha)
        assert t._threshold == pytest.approx(quantile, rel=0, abs=1e-12)

    def test_alpha_below_float_resolution_accepts_every_test(self):
        # 1 - alpha / 2 rounds to 1.0: the threshold is infinite, so every
        # pair is independent and the skeleton has no edges.
        dag = load_bundled("asia")
        data = sample_sem(random_sem(dag, seed=1), 400, seed=2)
        t = FisherZCiTester(data, alpha=1e-300)
        assert t._threshold == math.inf
        assert learn_skeleton(range(dag.n), NeighborFinder(t)).edges == set()
        assert t.test(0, 1) is True

    def test_accepts_raw_arrays_and_data_matrix(self):
        rng = np.random.default_rng(7)
        arr = rng.normal(size=(80, 2))
        assert FisherZCiTester(arr).test(0, 1) == \
            FisherZCiTester(DataMatrix(arr)).test(0, 1)


class TestMarkovBoundaries:
    def test_worked_example(self, g1):
        mb = markov_boundaries(OracleCiTester(g1))
        assert mb[2] == mask_of([0, 1, 3])

    def test_matches_parents_children_spouses_on_dags(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            g = random_dag(rng, n, 0.4)
            mb = markov_boundaries(OracleCiTester(g))
            for x in range(n):
                expected = g.parents_mask(x) | g.children_mask(x)
                for c in range(n):
                    if (g.children_mask(x) >> c) & 1:
                        expected |= g.parents_mask(c)
                expected &= ~(1 << x)
                assert mb[x] == expected, (g, x)

    def test_restricted_vertex_set(self, chain3):
        # Within {X1, X3} the chain ends become dependent (X2 latent).
        mb = markov_boundaries(OracleCiTester(chain3), mask_of([0, 2]))
        assert mb == {0: 1 << 2, 2: 1 << 0}

    def test_one_inverse_matches_per_pair_tests(self):
        dag = load_bundled("sachs")
        data = sample_sem(random_sem(dag, seed=21), 500, seed=22)
        batched = FisherZCiTester(data, alpha=0.05)
        looped = FisherZCiTester(data, alpha=0.05)
        for t in (batched, looped):
            t.test(0, 1, mask_of(range(2, dag.n)))  # pre-cached pair
        rng = np.random.default_rng(23)
        vs = dag.full_mask
        while vs:
            mb = markov_boundaries(batched, vs)
            expected = {v: 0 for v in bits(vs)}
            members = list(bits(vs))
            for i, x in enumerate(members):
                for y in members[i + 1:]:
                    rest = vs & ~(1 << x) & ~(1 << y)
                    if not looped.test(x, y, rest):
                        expected[x] |= 1 << y
                        expected[y] |= 1 << x
            assert mb == expected
            assert batched.query_count == looped.query_count
            assert batched._cache == looped._cache
            vs &= ~(1 << int(rng.choice(members)))

    def test_oracle_walks_match_per_pair_tests(self):
        # One walk per vertex gives the base loop's verdicts, counts and
        # cache, from a partly warmed cache and above 64 vertices too.
        rng = np.random.default_rng(41)
        for trial, n in enumerate((4, 6, 9, 13, 20, 30, 45, 66, 70)):
            p = min(0.5, 3 / n)
            g = random_dag(rng, n, p) if trial % 2 else random_mag(
                rng, n, n + 3, p)
            walked, looped = OracleCiTester(g), OracleCiTester(g)
            vs = g.full_mask
            while vs.bit_count() > 1:
                members = list(bits(vs))
                for _ in range(len(members)):
                    x, y = (int(v) for v in rng.choice(members, 2, False))
                    rest = vs & ~(1 << x) & ~(1 << y)
                    z = rest if rng.random() < 0.5 else \
                        rest & random_subset(rng, n, 0.3)
                    assert walked.test(x, y, z) == looped.test(x, y, z)
                got = walked.total_conditioning(vs)
                want = CiTester.total_conditioning(looped, vs)
                assert list(got.items()) == list(want.items())
                assert walked.query_count == looped.query_count
                assert walked._cache == looped._cache
                vs &= random_subset(rng, n, 0.6)
        with pytest.raises(ValueError):
            walked.total_conditioning(1 << n)

    def test_one_inverse_errors_match_per_pair_tests(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="samples"):
            markov_boundaries(FisherZCiTester(rng.normal(size=(5, 4))))
        col = rng.normal(size=100)
        data = np.column_stack([col, rng.normal(size=(100, 2)), col])
        t = FisherZCiTester(data)
        with pytest.raises(CiNumericalError) as exc:
            markov_boundaries(t)
        assert exc.value.query == (0, 1, {2, 3})
        assert t.query_count == 0

    def test_on_fisher_data(self):
        rng = np.random.default_rng(103)
        t = FisherZCiTester(sem_chain(2000, rng), alpha=0.01)
        mb = markov_boundaries(t)
        assert mb[0] == 1 << 1
        assert mb[1] == mask_of([0, 2])
        assert mb[2] == 1 << 1
