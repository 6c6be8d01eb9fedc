"""Tests for instance generation, metrics, and graph/data file formats."""

import numpy as np
import pytest

from magorder.checks import FIXTURE_STATS, fixture, projection
from magorder.ci import DataMatrix, FisherZCiTester, OracleCiTester
from magorder.data import (
    Metrics,
    SemSpec,
    bundled_networks,
    erdos_renyi_dag,
    load_bundled,
    load_data,
    load_network,
    make_latent_instance,
    population_covariance,
    random_sem,
    sample_sem,
    save_data,
    save_network,
    score,
    standardize_sem,
)
from magorder.discovery import NeighborFinder, learn_skeleton, orient
from magorder.errors import EdgeListParseError
from magorder.graph import (
    MixedGraph,
    bits,
    is_ancestral,
    is_maximal,
)
from magorder.orders import is_c_order

from conftest import random_mag


class TestErdosRenyi:
    def test_extreme_probabilities(self):
        assert erdos_renyi_dag(5, 0.0, seed=1).edge_count() == 0
        g = erdos_renyi_dag(4, 1.0, seed=1)
        assert g.edge_count() == 6
        assert g.is_dag()

    def test_acyclic_and_reversed_perm_is_c_order(self):
        for seed in range(25):
            g, order = erdos_renyi_dag(8, 0.5, seed=seed, return_order=True)
            assert g.is_dag()
            assert is_c_order(g, order)

    def test_seed_determinism(self):
        a = erdos_renyi_dag(10, 0.3, seed=77)
        b = erdos_renyi_dag(10, 0.3, seed=77)
        assert a == b

    def test_mean_edge_count(self):
        # p * n(n-1)/2 with n=50, p=50^-0.7 gives about 79.2
        n, p = 50, 50 ** -0.7
        counts = [erdos_renyi_dag(n, p, seed=s).edge_count()
                  for s in range(200)]
        expected = p * n * (n - 1) / 2
        assert abs(np.mean(counts) - expected) < 0.05 * expected

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            erdos_renyi_dag(5, 1.5)


class TestSemSpec:
    def test_rejects_bidirected(self):
        g = MixedGraph(2, bidirected=[(0, 1)])
        with pytest.raises(ValueError):
            SemSpec(g, {}, (1.0, 1.0))

    def test_rejects_cycle(self):
        g = MixedGraph(2, directed=[(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            SemSpec(g, {(0, 1): 1.0, (1, 0): 1.0}, (1.0, 1.0))

    def test_rejects_wrong_coefficient_keys(self):
        g = MixedGraph(2, directed=[(0, 1)])
        with pytest.raises(ValueError):
            SemSpec(g, {}, (1.0, 1.0))
        with pytest.raises(ValueError):
            SemSpec(g, {(0, 1): 1.0, (1, 0): 2.0}, (1.0, 1.0))

    def test_rejects_bad_scales(self):
        g = MixedGraph(2, directed=[(0, 1)])
        with pytest.raises(ValueError):
            SemSpec(g, {(0, 1): 1.0}, (1.0,))
        with pytest.raises(ValueError):
            SemSpec(g, {(0, 1): 1.0}, (1.0, 0.0))

    def test_random_sem_parameter_ranges(self):
        g = erdos_renyi_dag(12, 0.5, seed=3)
        spec = random_sem(g, seed=0)
        mags = [abs(c) for c in spec.coefficients.values()]
        assert all(1.0 <= m <= 1.5 for m in mags)
        assert any(c < 0 for c in spec.coefficients.values())
        assert any(c > 0 for c in spec.coefficients.values())
        assert all(0.7 <= s <= 1.2 for s in spec.noise_scales)

    def test_random_sem_determinism(self):
        g = erdos_renyi_dag(6, 0.5, seed=9)
        a, b = random_sem(g, seed=4), random_sem(g, seed=4)
        assert a.coefficients == b.coefficients
        assert a.noise_scales == b.noise_scales


class TestSampleSem:
    def test_edgeless_columns_nearly_uncorrelated(self):
        spec = SemSpec(MixedGraph(4), {}, (1.0, 0.8, 1.2, 0.9))
        data = sample_sem(spec, 20000, seed=0)
        corr = data.correlation
        off = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 0.05

    def test_single_edge_covariance(self):
        # cov(X1, X2) = c * var(X1) for X1 -> X2; 3 standard errors at
        # N=10000 with c=1.3, scales (1.0, 0.8) is about 0.06
        g = MixedGraph(2, directed=[(0, 1)])
        spec = SemSpec(g, {(0, 1): 1.3}, (1.0, 0.8))
        data = sample_sem(spec, 10000, seed=5)
        cov = np.cov(data.values, rowvar=False)
        assert abs(cov[0, 1] - 1.3) < 0.06

    def test_chain_partial_correlation_vanishes(self):
        g = MixedGraph(3, directed=[(0, 1), (1, 2)])
        accepted = 0
        for seed in range(20):
            data = sample_sem(random_sem(g, seed=seed), 10000, seed=seed)
            tester = FisherZCiTester(data, alpha=0.01)
            assert not tester.test(0, 1)
            assert not tester.test(1, 2)
            if tester.test(0, 2, 1 << 1):
                accepted += 1
        assert accepted >= 18

    def test_column_means_near_zero(self):
        g = erdos_renyi_dag(8, 0.4, seed=2)
        data = sample_sem(random_sem(g, seed=2), 5000, seed=2)
        means = data.values.mean(axis=0)
        stds = data.values.std(axis=0)
        assert np.all(np.abs(means) <= 4 * stds / np.sqrt(5000))

    def test_determinism_and_names(self):
        g = MixedGraph(2, directed=[(0, 1)], names=("u", "w"))
        spec = SemSpec(g, {(0, 1): 1.0}, (1.0, 1.0))
        a = sample_sem(spec, 50, seed=8)
        b = sample_sem(spec, 50, seed=8)
        assert np.array_equal(a.values, b.values)
        assert a.names == ("u", "w")

    def test_sample_count_validated(self):
        spec = SemSpec(MixedGraph(1), {}, (1.0,))
        with pytest.raises(ValueError):
            sample_sem(spec, 0)


class TestStandardizeSem:
    def test_population_covariance_matches_empirical(self):
        g = erdos_renyi_dag(6, 0.5, seed=3)
        spec = random_sem(g, seed=3)
        cov = population_covariance(spec)
        emp = np.cov(sample_sem(spec, 200000, seed=4).values, rowvar=False)
        assert np.max(np.abs(emp - cov) / (1 + np.abs(cov))) < 0.02

    def test_unit_variances_by_independent_formula(self):
        # the transform builds its covariance incrementally; check the
        # diagonal against the matrix-inverse formula
        g = load_bundled("insurance")
        std = standardize_sem(random_sem(g, seed=1))
        assert np.allclose(np.diag(population_covariance(std)), 1.0)

    def test_sample_columns_have_unit_scale(self):
        g = erdos_renyi_dag(10, 0.4, seed=7)
        std = standardize_sem(random_sem(g, seed=7))
        x = sample_sem(std, 50000, seed=8).values
        assert np.all(np.abs(x.std(axis=0) - 1.0) < 0.03)

    def test_bounds_deep_chain_correlations(self):
        # a 1.5-coefficient chain drives raw neighbor correlations toward
        # 1; after the transform they stay at c / sqrt(c^2 + 1) at most
        n = 8
        g = MixedGraph(n, directed=[(i, i + 1) for i in range(n - 1)])
        spec = SemSpec(g, {e: 1.5 for e in g.directed}, (1.0,) * n)
        def corr(s):
            c = population_covariance(s)
            d = np.sqrt(np.diag(c))
            return c / np.outer(d, d)
        raw = corr(spec)
        std = corr(standardize_sem(spec))
        assert raw[n - 2, n - 1] > 0.99
        assert std[n - 2, n - 1] < 0.99
        assert np.max(np.abs(std - np.eye(n))) <= 1.5 / np.sqrt(1.5 ** 2 + 1) + 1e-9

    def test_structure_and_signs_preserved(self):
        g = erdos_renyi_dag(7, 0.5, seed=9)
        spec = random_sem(g, seed=9)
        std = standardize_sem(spec)
        assert std.dag is g
        assert set(std.coefficients) == set(spec.coefficients)
        for edge, c in spec.coefficients.items():
            assert np.sign(std.coefficients[edge]) == np.sign(c)
        assert all(s > 0 for s in std.noise_scales)

    def test_idempotent(self):
        g = erdos_renyi_dag(6, 0.6, seed=11)
        once = standardize_sem(random_sem(g, seed=11))
        twice = standardize_sem(once)
        for edge in once.coefficients:
            assert abs(once.coefficients[edge]
                       - twice.coefficients[edge]) < 1e-12
        assert np.allclose(once.noise_scales, twice.noise_scales)


class TestLatentInstance:
    def test_fraction_zero_is_identity(self):
        g = erdos_renyi_dag(6, 0.5, seed=1)
        mag, observed = make_latent_instance(g, 0.0, seed=0)
        assert mag == g
        assert observed == tuple(range(6))

    def test_hidden_confounder_becomes_bidirected(self):
        g = MixedGraph(3, directed=[(2, 0), (2, 1)])
        seen = 0
        for seed in range(30):
            mag, observed = make_latent_instance(g, 1 / 3, seed=seed)
            assert mag.n == 2
            if observed == (0, 1):
                seen += 1
                assert mag.bidirected == frozenset({(0, 1)})
                assert not mag.directed
        assert seen > 0

    def test_projection_preserves_separations(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            g = erdos_renyi_dag(7, 0.4, seed=int(rng.integers(1 << 30)))
            mag, observed = make_latent_instance(
                g, 0.0, seed=int(rng.integers(1 << 30)), num_latent=2)
            assert is_ancestral(mag)
            assert projection(g, mag, observed) is None

    def test_insurance_three_latents(self):
        g = load_bundled("insurance")
        mag, observed = make_latent_instance(g, 3 / 27, seed=11)
        assert mag.n == 24 and len(observed) == 24
        assert is_ancestral(mag) and is_maximal(mag)

    def test_seed_determinism(self):
        g = erdos_renyi_dag(9, 0.4, seed=6)
        a = make_latent_instance(g, 0.25, seed=3)
        b = make_latent_instance(g, 0.25, seed=3)
        assert a[0] == b[0] and a[1] == b[1]

    def test_validation(self):
        g = erdos_renyi_dag(4, 0.5, seed=0)
        with pytest.raises(ValueError):
            make_latent_instance(g, 1.0)
        with pytest.raises(ValueError):
            make_latent_instance(g, 0.0, num_latent=4)


class TestScore:
    def test_identical_graphs(self):
        g = MixedGraph(5, directed=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        m = score(g, g)
        assert (m.tp, m.fp, m.fn) == (5, 0, 0)
        assert m.shd == 0 and m.f1 == 1.0

    def test_one_extra_edge(self):
        truth = MixedGraph(3, directed=[(0, 1), (1, 2)])
        learned = MixedGraph(3, directed=[(0, 1), (1, 2), (0, 2)])
        m = score(learned, truth)
        assert (m.tp, m.fp, m.fn) == (2, 1, 0)
        assert m.shd == 1
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == 1.0
        assert m.f1 == pytest.approx(0.8)

    def test_edgeless_learned(self):
        truth = MixedGraph(5, directed=[(i, i + 1) for i in range(4)],
                           bidirected=[(0, 4)])
        m = score(MixedGraph(5), truth)
        assert m.shd == 5
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_empty_skeletons_agree(self):
        m = score(MixedGraph(3), MixedGraph(3))
        assert m.shd == 0
        assert m.precision == 1.0 and m.recall == 1.0 and m.f1 == 1.0

    def test_edges_learned_on_empty_truth(self):
        m = score(MixedGraph(3, directed=[(0, 1)]), MixedGraph(3))
        assert m.shd == 1
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_mag(rng, 5, 7, 0.4)
            b = random_mag(rng, 5, 7, 0.4)
            ab, ba = score(a, b), score(b, a)
            assert ab.fp == ba.fn and ab.fn == ba.fp and ab.tp == ba.tp

    def test_accepts_learned_structures(self):
        g = MixedGraph(4, directed=[(0, 2), (1, 2), (2, 3)])
        tester = OracleCiTester(g)
        skel = learn_skeleton((3, 2, 1, 0), NeighborFinder(tester))
        assert score(skel, g).shd == 0
        pag = orient(skel)
        assert score(pag, g).shd == 0

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError):
            score(MixedGraph(3), MixedGraph(4))

    def test_as_dict_round_trip(self):
        m = Metrics(tp=3, fp=1, fn=2)
        d = m.as_dict()
        assert d["shd"] == 3
        assert set(d) == {"tp", "fp", "fn", "shd",
                          "precision", "recall", "f1"}


class TestNetworkFiles:
    def test_round_trip_named(self, tmp_path):
        g = MixedGraph(4, directed=[(0, 1), (2, 1)], bidirected=[(1, 3)],
                       names=("a", "b", "c", "d"))
        path = tmp_path / "g.edges"
        save_network(g, path)
        back = load_network(path)
        assert back == g and back.names == g.names

    def test_round_trip_unnamed_random(self, tmp_path):
        rng = np.random.default_rng(12)
        for i in range(10):
            g = random_mag(rng, 6, 8, 0.4)
            path = tmp_path / f"g{i}.edges"
            save_network(g, path)
            assert load_network(path) == g

    def test_edgeless_with_header_only(self, tmp_path):
        path = tmp_path / "e.edges"
        path.write_text("n 3\n")
        g = load_network(path)
        assert g.n == 3 and g.edge_count() == 0

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.edges"
        path.write_text("# top\n\nn 2\n0 -> 1  # trailing\n\n")
        assert load_network(path).directed == frozenset({(0, 1)})

    def test_manifest_checked(self, tmp_path):
        path = tmp_path / "m.edges"
        path.write_text("n 2\n0 -> 1\n")
        assert load_network(path, manifest=(2, 1)).n == 2
        assert load_network(path, manifest={"n": 2, "e": 1}).n == 2
        with pytest.raises(ValueError, match="manifest"):
            load_network(path, manifest=(2, 2))

    @pytest.mark.parametrize("text,lineno", [
        ("0 -> 1\n", 1),                      # missing header
        ("n two\n", 1),                       # bad count
        ("n 2\n0 => 1\n", 2),                 # bad operator
        ("n 2\n0 -> 5\n", 2),                 # out of range
        ("n 2\n0 -> 0\n", 2),                 # self loop
        ("n 2\n0 -> 1\n0 -> 1\n", 3),         # duplicate edge
        ("n 2\n0 -> 1\n1 -> 0\n", 3),         # duplicate pair, flipped
        ("n 2\n0 -> 1\n0 <-> 1\n", 3),        # duplicate pair, other kind
        ("n 2\nvertex 0 a\nvertex 0 b\n", 3),  # vertex named twice
        ("n 2\nvertex 0 a\nvertex 1 a\n", 3),  # name reused
        ("n 2\na -> b\n", 2),                 # undeclared name
        ("n 2\nvertex 9 a\n", 2),             # vertex id out of range
    ])
    def test_parse_errors_carry_line_numbers(self, tmp_path, text, lineno):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(EdgeListParseError) as err:
            load_network(path)
        assert err.value.line_number == lineno

    def test_partial_naming_rejected(self, tmp_path):
        path = tmp_path / "p.edges"
        path.write_text("n 2\nvertex 0 a\na -> 1\n")
        with pytest.raises(EdgeListParseError, match="partial"):
            load_network(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("")
        with pytest.raises(EdgeListParseError, match="header"):
            load_network(path)

    def test_unsavable_name_rejected(self, tmp_path):
        g = MixedGraph(2, directed=[(0, 1)], names=("a", "b c"))
        with pytest.raises(ValueError):
            save_network(g, tmp_path / "x.edges")


class TestBundledNetworks:
    def test_catalog(self):
        assert bundled_networks() == tuple(sorted(FIXTURE_STATS)) == (
            "alarm", "asia", "insurance", "sachs")

    @pytest.mark.parametrize("name", FIXTURE_STATS, ids=lambda name: "-".join(
        map(str, (name, *FIXTURE_STATS[name]))))
    def test_structure_statistics(self, name):
        assert fixture(name) is None

    def test_asia_hub_adjacencies(self):
        g = load_bundled("asia")
        idx = {name: v for v, name in enumerate(g.names)}
        either = idx["either"]
        assert set(bits(g.adjacent_mask(either))) == {
            idx["tub"], idx["lung"], idx["xray"], idx["dysp"]}

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown network"):
            load_bundled("water")


class TestCsvData:
    def test_round_trip_with_names(self, tmp_path):
        data = DataMatrix(np.arange(6.0).reshape(3, 2) / 7, names=("p", "q"))
        path = tmp_path / "d.csv"
        save_data(data, path)
        back = load_data(path)
        assert back.names == ("p", "q")
        assert np.array_equal(back.values, data.values)

    def test_default_column_names(self, tmp_path):
        data = DataMatrix(np.ones((2, 3)))
        path = tmp_path / "d.csv"
        save_data(data, path)
        assert load_data(path).names == ("x0", "x1", "x2")

    def test_empty_and_headerless_files(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_data(path)
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_data(path)
