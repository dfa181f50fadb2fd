"""Dyadic decomposition, Besov norms, Bony calculus, and commutators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusns import spectral as sp
from torusns import littlewood_paley as lp

INF = math.inf


@pytest.fixture(scope="module")
def grid():
    return sp.TorusGrid(2, 32)


@pytest.fixture(scope="module")
def part(grid):
    return lp.build_partition(grid)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(99)


class TestPartition:
    def test_partition_of_unity(self, part):
        assert part.partition_residual() < 1e-12

    def test_shell_disjointness(self, part, grid):
        # phi(2^-q xi) * phi(2^-q' xi) = 0 pointwise for |q - q'| >= 2
        for q in range(0, part.q_max - 1):
            prod = part.block_filter(q) * part.block_filter(q + 2)
            assert np.max(np.abs(prod)) == 0.0

    def test_block_below_range_is_zero(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        assert sp.lebesgue_norm(lp.dyadic_block(part, -2, f), INF) == 0.0

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            sp.TorusGrid(2, 4)

    def test_blocks_of_cos4x(self, part, grid):
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(4 * x))
        active = [q for q in part.active_blocks
                  if sp.lebesgue_norm(lp.dyadic_block(part, q, f), INF) > 1e-13]
        assert active == [1, 2]  # shells containing |xi| = 4
        total = sp.ScalarField.zero(grid)
        for q in part.active_blocks:
            total = total + lp.dyadic_block(part, q, f)
        assert sp.lebesgue_norm(total - f, INF) < 1e-13

    def test_block_orthogonality_on_random_field(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        b = lp.dyadic_block(part, 1, lp.dyadic_block(part, 3, f))
        assert sp.lebesgue_norm(b, INF) == 0.0

    def test_low_pass_telescopes_to_identity(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        s = lp.low_pass(part, part.q_max + 1, f)
        assert sp.lebesgue_norm(s - f, INF) < 1e-13

    def test_reconstruction_ensemble(self, part, grid):
        for seed in range(20):
            f = sp.random_field(grid, np.random.default_rng(seed))
            total = sp.ScalarField.zero(grid)
            for q in part.active_blocks:
                total = total + lp.dyadic_block(part, q, f)
            assert sp.lebesgue_norm(total - f, INF) < 1e-13

    def test_almost_orthogonality(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        total = sum(sp.lebesgue_norm(lp.dyadic_block(part, q, f), 2) ** 2
                    for q in part.active_blocks)
        l2sq = sp.lebesgue_norm(f, 2) ** 2
        assert l2sq <= 3.0 * total and l2sq >= total / 3.0


class TestBesovNorm:
    def test_zero_field(self, part, grid):
        assert lp.besov_norm(part, sp.ScalarField.zero(grid), lp.BesovSpec(1.0, 2, 2)) == 0.0

    def test_single_block_field(self, part, grid, rng):
        # spectrum confined to one shell: norm = 2^{qs} ||u||_p up to neighbours
        raw = sp.random_field(grid, rng)
        f = lp.dyadic_block(part, 2, raw)
        spec = lp.BesovSpec(0.7, 2, INF)
        norm = lp.besov_norm(part, f, spec)
        # brute-force sum of the definition
        vals = [2.0 ** (q * spec.s) * sp.lebesgue_norm(lp.dyadic_block(part, q, f), 2)
                for q in part.active_blocks]
        assert abs(norm - max(vals)) < 1e-13
        assert norm <= 2.0 ** (3 * spec.s) * sp.lebesgue_norm(f, 2) * 3

    def test_mean_folded_into_lowest_block(self, part, grid):
        c = sp.ScalarField.constant(grid, 2.5)
        spec = lp.BesovSpec(1.0, INF, 1)
        # only the q = -1 block sees a constant; weight 2^{-s}
        assert abs(lp.besov_norm(part, c, spec) - 2.5 * 0.5) < 1e-13

    def test_monotonicity_in_s_and_r(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        n1 = lp.besov_norm(part, f, lp.BesovSpec(0.5, 2, 2))
        n2 = lp.besov_norm(part, f, lp.BesovSpec(1.0, 2, 1))
        assert n1 <= n2 + 1e-12
        n3 = lp.besov_norm(part, f, lp.BesovSpec(0.5, 2, INF))
        assert n3 <= n1 + 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_norm_axioms(self, part, grid, seed):
        r = np.random.default_rng(seed)
        f = sp.random_field(grid, r)
        g = sp.random_field(grid, r)
        spec = lp.BesovSpec(0.8, 2, 2)
        nf, ng = lp.besov_norm(part, f, spec), lp.besov_norm(part, g, spec)
        assert abs(lp.besov_norm(part, 2.0 * f, spec) - 2.0 * nf) < 1e-10 * max(1, nf)
        assert lp.besov_norm(part, f + g, spec) <= nf + ng + 1e-10

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            lp.BesovSpec(0.0, 0.5, 2)


class TestCheminLerner:
    def test_time_constant_field(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        times = [0.0, 0.5, 1.0, 1.5]
        snaps = [f] * 4
        spec = lp.CheminLernerSpec(2.0, lp.BesovSpec(0.5, 2, 2))
        val = lp.chemin_lerner_norm(part, times, snaps, spec)
        expected = 1.5 ** 0.5 * lp.besov_norm(part, f, spec.besov)
        assert abs(val - expected) < 1e-12

    def test_duplicated_snapshot_rho_one(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        spec = lp.CheminLernerSpec(1.0, lp.BesovSpec(0.3, 2, 1))
        val = lp.chemin_lerner_norm(part, [0.0, 1.0], [f, f], spec)
        assert abs(val - lp.besov_norm(part, f, spec.besov)) < 1e-12

    def test_minkowski_comparison(self, part, grid):
        times = np.linspace(0.0, 1.0, 6)
        snaps = [sp.random_field(grid, np.random.default_rng(i)) for i in range(6)]
        # r >= rho: tilde norm <= plain norm
        spec = lp.CheminLernerSpec(1.0, lp.BesovSpec(0.5, 2, 2))
        tilde = lp.chemin_lerner_norm(part, times, snaps, spec)
        plain = lp.besov_norm_timespace(part, times, snaps, 1.0, spec.besov)
        assert tilde <= plain + 1e-10
        # r <= rho: tilde norm >= plain norm
        spec2 = lp.CheminLernerSpec(4.0, lp.BesovSpec(0.5, 2, 1))
        tilde2 = lp.chemin_lerner_norm(part, times, snaps, spec2)
        plain2 = lp.besov_norm_timespace(part, times, snaps, 4.0, spec2.besov)
        assert tilde2 >= plain2 - 1e-10

    def test_too_few_snapshots(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        with pytest.raises(ValueError):
            lp.chemin_lerner_norm(part, [0.0], [f],
                                  lp.CheminLernerSpec(1.0, lp.BesovSpec(0.0, 2, 2)))

    def test_decreasing_times_rejected(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        with pytest.raises(ValueError):
            lp.chemin_lerner_norm(part, [0.0, 0.0], [f, f],
                                  lp.CheminLernerSpec(1.0, lp.BesovSpec(0.0, 2, 2)))


class TestBony:
    def test_constant_second_factor(self, part, grid, rng):
        u = sp.random_field(grid, rng)
        v = sp.ScalarField.constant(grid, 2.0)
        tuv, tvu, rem = lp.bony_decompose(part, u, v)
        assert sp.lebesgue_norm(tuv, INF) < 1e-14
        ref = sp.multiply(u, v)
        assert sp.lebesgue_norm(tvu + rem - ref, INF) < 1e-12

    def test_reconstruction_random_pairs(self, part, grid):
        for seed in range(10):
            r = np.random.default_rng(seed)
            u, v = sp.random_field(grid, r), sp.random_field(grid, r)
            tuv, tvu, rem = lp.bony_decompose(part, u, v)
            ref = sp.multiply(u, v)
            assert sp.lebesgue_norm(tuv + tvu + rem - ref, INF) < 1e-10

    def test_low_pass_equals_running_block_sum(self, part, grid, rng):
        cache = lp._BlockCache(part, sp.random_field(grid, rng))
        running = np.zeros(grid.shape)
        for q in range(part.q_max + 3):
            running = running + cache.block(q - 1)
            assert np.array_equal(cache.low_pass(q), running)

    def test_high_low_product_lands_in_paraproduct(self):
        grid = sp.TorusGrid(2, 128)
        part = lp.build_partition(grid)
        u = sp.ScalarField.from_function(grid, lambda x, y: np.cos(32 * x))
        v = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        tuv, tvu, rem = lp.bony_decompose(part, u, v)
        ref = sp.multiply(u, v)
        mass = sp.lebesgue_norm(ref, 2) ** 2
        assert sp.lebesgue_norm(tvu, 2) ** 2 >= 0.99 * mass


class TestMultiplierCommutator:
    def test_constant_a(self, grid, rng):
        theta = sp.MultiplierSymbol(lambda *k: np.exp(-sum(x ** 2 for x in k)), 0, "gauss")
        a = sp.ScalarField.constant(grid, 3.0)
        b = sp.random_field(grid, rng)
        comm = lp.multiplier_commutator(theta, 2.0, a, b)
        assert sp.lebesgue_norm(comm, INF) < 1e-12

    def test_zero_b(self, grid):
        theta = sp.MultiplierSymbol(lambda *k: np.exp(-sum(x ** 2 for x in k)), 0, "gauss")
        a = sp.ScalarField.from_function(grid, lambda x, y: np.sin(x))
        comm = lp.multiplier_commutator(theta, 2.0, a, sp.ScalarField.zero(grid))
        assert sp.lebesgue_norm(comm, INF) == 0.0

    def test_nonpositive_lambda_rejected(self, grid, rng):
        theta = sp.MultiplierSymbol(lambda *k: np.exp(-sum(x ** 2 for x in k)), 0)
        with pytest.raises(ValueError):
            lp.multiplier_commutator(theta, 0.0, sp.random_field(grid, rng),
                                     sp.random_field(grid, rng))

    def test_decay_law_band(self):
        g = sp.TorusGrid(2, 256)
        ratios = lp.lemma1_scaling_study(g, k_range=range(7), ensemble_size=6, seed=5)
        vals = list(ratios.values())
        assert max(vals) / min(vals) < 4.0


class TestTransportCommutator:
    def test_constant_velocity(self, part, grid, rng):
        u = sp.VectorField.from_components([sp.ScalarField.constant(grid, 1.0),
                                            sp.ScalarField.constant(grid, -0.5)])
        a = sp.random_field(grid, rng)
        for q in (0, 2):
            rq = lp.transport_commutator(part, u, a, q)
            assert sp.lebesgue_norm(rq, INF) < 1e-12

    def test_eight_way_split_sums_exactly(self, part, grid):
        for seed in range(4):
            r = np.random.default_rng(seed)
            u = sp.random_vector_field(grid, r)
            a = sp.random_field(grid, r)
            for q in part.active_blocks:
                rq = lp.transport_commutator(part, u, a, q)
                pieces = lp.eight_way_split(part, u, a, q)
                total = sp.ScalarField.zero(grid)
                for piece in pieces:
                    total = total + piece
                assert sp.lebesgue_norm(total - rq, INF) < 1e-10

    def test_out_of_range_q(self, part, grid, rng):
        u = sp.random_vector_field(grid, rng)
        a = sp.random_field(grid, rng)
        with pytest.raises(ValueError):
            lp.transport_commutator(part, u, a, part.q_max + 1)

    def test_empirical_constant_stable(self, part):
        small = lp.lemma2_constant_study(part, 10, seed=0)
        big = lp.lemma2_constant_study(part, 20, seed=0)
        assert math.isfinite(big.sup_ratio) and big.sup_ratio > 0
        assert small.stable_against(big)


class TestBernstein:
    def test_single_frequency_block(self):
        grid = sp.TorusGrid(2, 64)
        part = lp.build_partition(grid)
        q = 3
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(2.0 ** q * x))
        ratio, inv = lp.bernstein_check(part, f, q, 2)
        assert abs(ratio - 1.0) < 1e-12 and abs(inv - 1.0) < 1e-12

    def test_band_on_random_fields(self, part, grid):
        for seed in range(5):
            f = sp.random_field(grid, np.random.default_rng(seed))
            for q in range(0, part.q_max + 1):
                block = lp.dyadic_block(part, q, f - lp.low_pass(part, 0, f))
                if sp.lebesgue_norm(block, 2) < 1e-12:
                    continue
                for p2 in (2, INF):
                    ratio, inv = lp.bernstein_check(part, f, q, p2)
                    assert 0.25 <= ratio <= 4.0

    def test_zero_block_rejected(self, part, grid):
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        with pytest.raises(ValueError):
            lp.bernstein_check(part, f, part.q_max, 2)


class TestLogInterpolation:
    def test_single_block_field(self, part, grid, rng):
        f = lp.dyadic_block(part, 2, sp.random_field(grid, rng))
        lhs, rhs = lp.log_interpolation_check(part, f, 0.5, 2, 0.5)
        base = lp.besov_norm(part, f, lp.BesovSpec(0.5, 2, INF))
        assert lhs / base <= 3.0 + 1e-12  # at most 3 blocks active
        assert lhs <= 3.0 * rhs

    def test_flat_spectrum_growth(self, grid):
        part = lp.build_partition(grid)
        for k in (2, 4):
            # equal block masses across k octaves
            f = sp.ScalarField.zero(grid)
            raw = sp.random_field(grid, np.random.default_rng(k), flat_dyadic=True)
            for q in range(0, k):
                blk = lp.dyadic_block(part, q, raw)
                n = sp.lebesgue_norm(blk, 2)
                if n > 0:
                    f = f + blk * (1.0 / n)
            lhs, rhs = lp.log_interpolation_check(part, f, 0.0, 2, 0.5)
            assert lhs <= 4.0 * rhs

    def test_zero_field_rejected(self, part, grid):
        with pytest.raises(ValueError):
            lp.log_interpolation_check(part, sp.ScalarField.zero(grid), 0.0, 2, 0.5)


class TestProductLaws:
    def test_symmetric_law_single_mode(self, part, grid):
        u = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        spec = lp.BesovSpec(1.0, 2, 2)
        uv = sp.multiply(u, u)
        num = lp.besov_norm(part, uv, spec)
        den = 2 * sp.lebesgue_norm(u, INF) * lp.besov_norm(part, u, spec)
        assert math.isfinite(num / den)

    def test_constraint_violation_rejected(self, part):
        s1 = lp.BesovSpec(-1.0, 2, 2)
        s2 = lp.BesovSpec(0.5, 2, 2)
        with pytest.raises(ValueError, match="positive"):
            lp.product_law_estimator(part, 4, s1, s2, law="bilinear")

    def test_uniform_law_window_violation(self, part):
        bad = lp.BesovSpec(1.5, 2, 2)  # |s| = 1.5 >= N/p = 1
        with pytest.raises(ValueError, match="N/p"):
            lp.product_law_estimator(part, 4, bad, bad, law="uniform")

    def test_critical_law_window(self, part):
        ok1 = lp.BesovSpec(0.5, 2, 2)
        ok2 = lp.BesovSpec(-0.5, 2, 2)
        rep = lp.product_law_estimator(part, 10, ok1, ok2, law="critical", seed=0)
        rep2 = lp.product_law_estimator(part, 20, ok1, ok2, law="critical", seed=0)
        assert rep.sup_ratio > 0 and rep.stable_against(rep2)
        with pytest.raises(ValueError, match="s1 \\+ s2"):
            lp.product_law_estimator(part, 4, ok1, ok1, law="critical")
        with pytest.raises(ValueError, match="window"):
            lp.product_law_estimator(part, 4, lp.BesovSpec(1.5, 2, 2),
                                     lp.BesovSpec(-1.5, 2, 2), law="critical")

    def test_uniform_law_ensemble_stability(self, part):
        spec = lp.BesovSpec(0.5, 2, 2)
        rep1 = lp.product_law_estimator(part, 20, spec, spec, law="uniform", seed=0)
        rep2 = lp.product_law_estimator(part, 40, spec, spec, law="uniform", seed=0)
        assert rep1.sup_ratio > 0 and rep1.stable_against(rep2)

    def test_embedding_report(self, part):
        rep = lp.embedding_estimator(part, 25, 1.0, 2, 4, 2, seed=0)
        rep2 = lp.embedding_estimator(part, 50, 1.0, 2, 4, 2, seed=0)
        assert rep.sup_ratio > 0 and rep.stable_against(rep2)
        with pytest.raises(ValueError):
            lp.embedding_estimator(part, 4, 1.0, 4, 2, 2)

    def test_derivative_norm_equivalence(self, part):
        fwd, bwd = lp.derivative_norm_equivalence(part, 20, 1.0, 2, 2, seed=0)
        fwd2, bwd2 = lp.derivative_norm_equivalence(part, 40, 1.0, 2, 2, seed=0)
        assert fwd.sup_ratio > 0 and fwd.stable_against(fwd2)
        assert bwd.sup_ratio > 0 and bwd.stable_against(bwd2)

    def test_composition_report(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        out = lp.composition_report(part, np.sin, f, lp.BesovSpec(0.5, 2, 2))
        assert out["composed_besov"] > 0
        # sin(0) = 0 so the normalization leaves a genuine field
        assert math.isfinite(out["composed_besov"] / out["input_besov"])
