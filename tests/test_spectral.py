"""Spectral core: transforms, derivatives, projections, multipliers, norms."""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from torusns import spectral as sp


def brute_force_dft(values):
    """O(M^{2N}) direct evaluation of the normalized DFT (oracle)."""
    m = values.shape[0]
    dim = values.ndim
    freqs = np.fft.fftfreq(m, d=1.0 / m)
    idx = np.arange(m)
    out = np.zeros(values.shape, dtype=complex)
    for k_flat in np.ndindex(values.shape):
        k = np.array([freqs[i] for i in k_flat])
        phase = 1.0
        for axis in range(dim):
            phase = np.multiply.outer(phase, np.exp(-1j * k[axis] * 2 * np.pi * idx / m)) \
                if axis == 0 else phase
        # build the full phase grid explicitly
        grids = np.meshgrid(*([idx] * dim), indexing="ij")
        expo = sum(k[a] * grids[a] for a in range(dim))
        out[k_flat] = np.sum(values * np.exp(-2j * np.pi * expo / m)) / values.size
    return out


@pytest.fixture(scope="module")
def grid():
    return sp.TorusGrid(2, 32)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


class TestGrid:
    def test_frequency_set(self, grid):
        f = set(grid.axis_frequencies.tolist())
        assert f == set(range(-15, 17))  # {-M/2+1, ..., M/2}

    def test_sample_count(self, grid):
        assert grid.size == 32 ** 2

    @pytest.mark.parametrize("dim,m", [(1, 32), (4, 32), (2, 7), (2, 24), (2, 4)])
    def test_rejects_bad_parameters(self, dim, m):
        with pytest.raises(ValueError):
            sp.TorusGrid(dim, m)

    def test_masks_and_factors_are_shared_read_only(self, grid):
        """The dealias mask and derivative factors are built once per grid
        and handed out frozen, so no caller can corrupt the shared copy."""
        mask = grid.dealias_mask()
        assert mask is sp.TorusGrid(2, 32).dealias_mask() and not mask.flags.writeable
        assert mask.sum() == 21 * 11  # |k_i| <= floor(32/3) = 10 on the half spectrum
        factor = sp._derivative_symbol(grid)
        assert factor is sp._derivative_symbol(grid) and not factor.flags.writeable


    def test_equal_grids_share_their_arrays(self):
        a, b = sp.TorusGrid(3, 16), sp.TorusGrid(3, 16)
        assert a.k_squared is b.k_squared and not a.k_squared.flags.writeable
        assert all(x is y for x, y in zip(a.frequency_mesh, b.frequency_mesh))
        assert sp.TorusGrid(3, 32).k_squared is not a.k_squared

    def test_field_over_shared_samples_keeps_what_it_computes(self, grid):
        """A field over another field's samples (`_of_samples`, as
        `diagnostics._Snapshot` builds its state) shares the array, and the
        coefficients it transforms on first read stay with it."""
        f = sp.ScalarField.from_samples(grid, np.ones(grid.shape))
        v = sp.ScalarField._of_samples(grid, f.samples)
        assert v.samples is f.samples and v.coeffs[0, 0] == 1.0
        assert f._coeffs is None


class TestTransform:
    def test_single_mode_roundtrip(self, grid):
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        g = sp.to_samples(grid, sp.to_coeffs(grid, f.samples))
        assert np.max(np.abs(g - f.samples)) < 1e-13

    def test_zero_field(self, grid):
        z = sp.ScalarField.zero(grid)
        assert np.max(np.abs(sp.to_samples(grid, sp.to_coeffs(grid, z.samples)))) == 0.0

    def test_against_brute_force_dft(self):
        # small grid so the O(M^4) oracle stays cheap
        g = sp.TorusGrid(2, 8)
        rng = np.random.default_rng(7)
        f = sp.random_field(g, rng, max_wavenumber=3)
        oracle = brute_force_dft(f.samples)
        assert np.max(np.abs(oracle[..., :g.n // 2 + 1] - f.coeffs)) < 1e-12

    def test_hermitian_symmetry(self, grid, rng):
        # the stored half spectrum is the rfft of the real samples, so the
        # omitted half is their conjugate by construction
        f = sp.random_field(grid, rng)
        assert np.max(np.abs(f.coeffs - np.fft.rfftn(f.samples) / grid.size)) < 1e-14

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["0", "1", "2"])
    def test_engine_matches_numpy_fft(self, dim, lead):
        """to_coeffs/to_samples agree with numpy.fft with 0, 1 and 2 leading
        batch axes, to 1e-15 of the sup of the result."""
        g = sp.TorusGrid(dim, 32 if dim == 2 else 16)
        x = np.random.default_rng(5).standard_normal(lead + g.shape)
        coeffs = sp.to_coeffs(g, x)
        want = np.fft.rfftn(x, axes=g.axes, norm="forward")
        assert coeffs.shape == want.shape
        assert np.max(np.abs(coeffs - want)) <= 1e-15 * np.max(np.abs(want))
        samples = sp.to_samples(g, coeffs)
        want = np.fft.irfftn(coeffs, s=g.shape, axes=g.axes, norm="forward")
        assert samples.shape == x.shape
        assert np.max(np.abs(samples - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["0", "1", "2"])
    def test_engine_bit_equal_to_scipy(self, dim, lead):
        """The kernels are called as scipy.fft.rfftn/irfftn(norm="forward",
        workers=1) call them, and give their results bit for bit, with 0, 1
        and 2 leading batch axes."""
        g = sp.TorusGrid(dim, 32 if dim == 2 else 16)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(lead + g.shape)
        assert np.array_equal(sp.to_coeffs(g, x),
                              scipy.fft.rfftn(x, axes=g.axes, norm="forward", workers=1))
        # generic coefficients: Nyquist and k_N = 0 planes need not be Hermitian
        c = rng.standard_normal(lead + g.spectral_shape) \
            + 1j * rng.standard_normal(lead + g.spectral_shape)
        assert np.array_equal(sp.to_samples(g, c), scipy.fft.irfftn(
            c, s=g.shape, axes=g.axes, norm="forward", workers=1))

    @pytest.mark.parametrize("dim, lead, calls", [
        (2, (2,), 1), (2, (3,), 3), (2, (8,), 8), (2, (2, 2), 4), (3, (1,), 1),
        (3, (2,), 1), (3, (3,), 3), (3, (4,), 4), (3, (3, 3), 9)])
    def test_inverse_stack_split_by_size(self, fft_calls, dim, lead, calls):
        """A stack of more than two fields goes one field per inverse call;
        the samples are bit-identical to one batched call."""
        g = sp.TorusGrid(dim, 32 if dim == 2 else 16)
        coeffs = sp.to_coeffs(g, np.random.default_rng(2).standard_normal(lead + g.shape))
        want = scipy.fft.irfftn(coeffs, s=g.shape, axes=g.axes, norm="forward")
        fft_calls.clear()
        got = sp.to_samples(g, coeffs)
        assert fft_calls["irfftn"] == calls
        assert got.shape == lead + g.shape and np.array_equal(got, want)

    def test_grid_mismatch_rejected(self, grid):
        other = sp.TorusGrid(2, 16)
        with pytest.raises(sp.GridMismatchError):
            sp.ScalarField(grid, np.zeros(other.shape, dtype=complex))


def full_lattice(grid):
    """Full-lattice frequency meshes, Nyquist class as +M/2."""
    freqs = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    freqs[grid.n // 2] = grid.n // 2
    return np.meshgrid(*([freqs] * grid.dim), indexing="ij")


class TestCoefficientsOnDemand:
    @pytest.mark.parametrize("kind", ["scalar", "vector", "component"])
    def test_transformed_on_first_read_like_an_eager_transform(
            self, grid, rng, fft_calls, kind):
        """A field made from samples transforms nothing while it is read in
        physical space; its first coefficient read makes one forward
        transform whose result is bit-identical to transforming the samples
        at once (for a component: to that row of the vector's transform)."""
        lead = () if kind == "scalar" else (grid.dim,)
        values = rng.standard_normal(lead + grid.shape)
        kept, want = values.copy(), sp.to_coeffs(grid, values)
        if kind == "scalar":
            f = sp.ScalarField.from_samples(grid, values)
        else:
            f = sp.VectorField.from_samples(grid, values)
        if kind == "component":
            f, kept, want = f.component(1), kept[1], want[1]
        values[...] = 0.0  # the field transforms its own copy, later
        fft_calls.clear()
        assert np.array_equal(f.samples, kept)
        sp.lebesgue_norm(f, 2)
        sp.lebesgue_norm(f, math.inf)
        assert fft_calls["rfftn"] == 0 and fft_calls["irfftn"] == 0
        got = f.coeffs
        assert fft_calls["rfftn"] == 1
        assert got.tobytes() == want.tobytes()
        assert f.coeffs is got and fft_calls["rfftn"] == 1
        assert not got.flags.writeable


class TestHalfSpectrumOracle:
    """Half-spectrum operators against full-lattice numpy references on white
    noise, which carries Nyquist content on every axis."""

    @pytest.fixture(params=[2, 3])
    def case(self, request):
        grid = sp.TorusGrid(request.param, 16)
        rng = np.random.default_rng(11 + request.param)
        noise = rng.standard_normal((grid.dim + 1,) + grid.shape)
        return grid, noise[0], noise[1:], full_lattice(grid)

    @staticmethod
    def apply(symbol, samples):
        """The full complex pipeline: real part of ifftn(symbol * fftn)."""
        return np.real(np.fft.ifftn(symbol * np.fft.fftn(samples)))

    def test_riesz_composite(self, case):
        grid, x, _, k = case
        f = sp.ScalarField.from_samples(grid, x)
        k2 = sum(a * a for a in k)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(grid.dim):
                for j in range(grid.dim):
                    ref = self.apply(np.where(k2 > 0, k[i] * k[j] / k2, 0.0), x)
                    got = sp.riesz_composite(i, j, f).samples
                    assert np.max(np.abs(got - ref)) < 1e-13, (i, j)

    def test_leray_project(self, case):
        grid, _, u, k = case
        k2 = sum(a * a for a in k)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(k2 > 0, 1.0 / k2, 0.0)
        div = sum(k[b] * np.fft.fftn(u[b]) for b in range(grid.dim))
        q_ref = np.stack([np.real(np.fft.ifftn(k[a] * div * inv)) for a in range(grid.dim)])
        p, q = sp.leray_project(sp.VectorField.from_samples(grid, u))
        assert np.max(np.abs(q.samples - q_ref)) < 1e-13
        assert np.max(np.abs(p.samples - (u - q_ref))) < 1e-13

    def test_apply_multiplier(self, case):
        grid, x, _, k = case
        rule = lambda *k: np.exp(0.3j * k[0]) / (1.0 + k[-1] ** 2) + k[0] * k[-1] / 64.0
        f = sp.ScalarField.from_samples(grid, x)
        got = f.with_coeffs(f.coeffs * sp.hermitian_part(grid, rule)).samples
        assert np.max(np.abs(got - self.apply(rule(*k), x))) < 1e-13

    def test_laplacian(self, case):
        grid, x, _, k = case
        nyquist = np.logical_or.reduce([a == grid.n // 2 for a in k])
        ref = self.apply(np.where(nyquist, 0.0, -sum(a * a for a in k)), x)
        got = sp.laplacian(sp.ScalarField.from_samples(grid, x)).samples
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_fourier_eval_off_grid(self, case):
        grid, x, u, k = case
        pts = np.random.default_rng(3).uniform(0.0, 2 * np.pi, (7, grid.dim))
        phases = np.exp(1j * pts @ np.stack([a.ravel() for a in k]))  # (points, modes)
        ref = np.real(phases @ (np.fft.fftn(x) / grid.size).ravel())
        got = sp.fourier_eval(sp.ScalarField.from_samples(grid, x), pts)
        assert np.max(np.abs(got - ref)) < 1e-13
        ref_u = np.real(phases @ np.stack([(np.fft.fftn(c) / grid.size).ravel() for c in u]).T)
        got_u = sp.fourier_eval(sp.VectorField.from_samples(grid, u), pts)
        assert np.max(np.abs(got_u - ref_u)) < 1e-13

    def test_coefficient_l2_norm(self, case):
        grid, x, u, _ = case
        ref = math.sqrt(np.sum(np.abs(np.fft.fftn(x) / grid.size) ** 2) * grid.volume)
        assert abs(sp.coefficient_l2_norm(sp.ScalarField.from_samples(grid, x)) - ref) < 1e-13
        ref_u = math.sqrt(sum(np.sum(np.abs(np.fft.fftn(c) / grid.size) ** 2) for c in u)
                          * grid.volume)
        got_u = sp.coefficient_l2_norm(sp.VectorField.from_samples(grid, u))
        assert abs(got_u - ref_u) < 1e-13


class TestDerivatives:
    def test_d1_sin(self, grid):
        f = sp.ScalarField.from_function(grid, lambda x, y: np.sin(x))
        d = sp.partial(f, 0)
        x, _ = grid.coordinates()
        assert np.max(np.abs(d.samples - np.cos(x))) < 1e-13

    def test_divergence_of_stream_function_field(self, grid):
        x, y = grid.coordinates()
        psi = sp.ScalarField.from_samples(grid, np.sin(x) * np.sin(y))
        u = sp.VectorField.from_components([-sp.partial(psi, 1), sp.partial(psi, 0)])
        div = sp.divergence(u)
        assert sp.lebesgue_norm(div, np.inf) < 1e-13

    def test_laplacian_against_finite_differences(self):
        # second-order finite differences on a refined grid converge O(h^2)
        f_fn = lambda x, y: np.sin(2 * x) * np.cos(y) + 0.3 * np.cos(3 * y)
        errors = []
        for m in (32, 64, 128):
            g = sp.TorusGrid(2, m)
            f = sp.ScalarField.from_function(g, f_fn)
            lap = sp.laplacian(f).samples
            s = f.samples
            h = g.spacing
            fd = sum((np.roll(s, -1, axis=a) - 2 * s + np.roll(s, 1, axis=a)) / h ** 2
                     for a in range(2))
            errors.append(np.max(np.abs(lap - fd)))
        order = math.log2(errors[0] / errors[1])
        assert 1.7 < order < 2.3
        order = math.log2(errors[1] / errors[2])
        assert 1.7 < order < 2.3

    def test_curl_2d(self, grid):
        x, y = grid.coordinates()
        u = sp.VectorField.from_samples(grid, np.stack([np.sin(y), np.zeros_like(x)]))
        w = sp.curl(u)
        assert np.max(np.abs(w.samples + np.cos(y))) < 1e-13

    def test_curl_3d(self):
        g = sp.TorusGrid(3, 8)
        x, y, z = g.coordinates()
        u = sp.VectorField.from_samples(g, np.stack(
            [np.zeros_like(x), np.zeros_like(x), np.sin(x)]))
        w = sp.curl(u)
        # curl (0,0,sin x) = (0, -cos x, 0)... components: (d2 u3 - d3 u2, d3 u1 - d1 u3, ...)
        assert np.max(np.abs(w.samples[1] + np.cos(x))) < 1e-13
        assert np.max(np.abs(w.samples[0])) < 1e-13

    def test_nyquist_zeroed(self):
        g = sp.TorusGrid(2, 8)
        x, _ = g.coordinates()
        f = sp.ScalarField.from_samples(g, np.cos(4 * x))  # pure Nyquist cosine
        assert sp.lebesgue_norm(sp.partial(f, 0), np.inf) < 1e-13


class TestInverseLaplacian:
    def test_eigenfunction(self, grid):
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        g = sp.inv_laplacian_zero_mean(f)
        assert np.max(np.abs(g.samples + f.samples)) < 1e-13

    def test_constant_maps_to_zero(self, grid):
        c = sp.ScalarField.constant(grid, 3.7)
        assert sp.lebesgue_norm(sp.inv_laplacian_zero_mean(c), np.inf) == 0.0

    def test_two_sided_inverse(self, grid, rng):
        f = sp.random_field(grid, rng)
        g = sp.inv_laplacian_zero_mean(f)
        resid = sp.laplacian(g) - (f - sp.ScalarField.constant(grid, f.mean))
        assert sp.lebesgue_norm(resid, np.inf) < 1e-12
        assert abs(g.mean) < 1e-14


class TestRiesz:
    def test_diagonal_on_eigenmode(self, grid):
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        r = sp.riesz_composite(0, 0, f)
        assert np.max(np.abs(r.samples - f.samples)) < 1e-13

    def test_off_diagonal_kills_axis_mode(self, grid):
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        r = sp.riesz_composite(0, 1, f)
        assert sp.lebesgue_norm(r, np.inf) < 1e-13

    def test_trace_identity(self, grid, rng):
        f = sp.random_field(grid, rng)  # zero mean by construction
        total = sp.ScalarField.zero(grid)
        for i in range(2):
            total = total + sp.riesz_composite(i, i, f)
        assert sp.lebesgue_norm(total - f, np.inf) < 1e-12


class TestLeray:
    def test_gradient_field_has_zero_p_part(self, grid):
        phi = sp.ScalarField.from_function(grid, lambda x, y: np.sin(x + y))
        u = sp.gradient(phi)
        p, q = sp.leray_project(u)
        assert sp.lebesgue_norm(p, np.inf) < 1e-12

    def test_stream_function_field_is_fixed(self, grid):
        x, y = grid.coordinates()
        psi = sp.ScalarField.from_samples(grid, np.sin(x) * np.sin(y))
        u = sp.VectorField.from_components([-sp.partial(psi, 1), sp.partial(psi, 0)])
        p, q = sp.leray_project(u)
        assert sp.lebesgue_norm(p - u, np.inf) < 1e-12

    def test_projector_algebra(self, grid, rng):
        u = sp.random_vector_field(grid, rng)
        p, q = sp.leray_project(u)
        assert sp.lebesgue_norm(sp.divergence(p), np.inf) < 1e-12
        assert sp.lebesgue_norm(sp.curl(q), np.inf) < 1e-12
        assert sp.lebesgue_norm((p + q) - u, np.inf) < 1e-12
        pp, pq = sp.leray_project(p)
        assert sp.lebesgue_norm(pp - p, np.inf) < 1e-12
        assert sp.lebesgue_norm(pq, np.inf) < 1e-12
        qp, qq = sp.leray_project(q)
        assert sp.lebesgue_norm(qp, np.inf) < 1e-12
        assert sp.lebesgue_norm(qq - q, np.inf) < 1e-12


class TestMultipliers:
    """A symbol is its array on the stored modes: `hermitian_part` of a rule,
    applied by multiplying a field's coefficients."""

    @staticmethod
    def apply(rule, f):
        return f.with_coeffs(f.coeffs * sp.hermitian_part(f.grid, rule))

    def test_identity_symbol(self, grid, rng):
        f = sp.random_field(grid, rng)
        assert sp.lebesgue_norm(self.apply(lambda *k: np.ones_like(k[0]), f) - f, np.inf) == 0.0

    def test_minus_laplacian_symbol(self, grid):
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        out = self.apply(lambda *k: sum(x ** 2 for x in k), f)
        assert np.max(np.abs(out.samples - f.samples)) < 1e-13  # |xi|^2 = 1 on the mode

    def test_bessel_decay_across_modes(self, grid):
        for k in (1, 2, 4, 8):
            f = sp.ScalarField.from_function(grid, lambda x, y, k=k: np.cos(k * x))
            out = self.apply(lambda *k: (1.0 + sum(x ** 2 for x in k)) ** -0.5, f)
            ratio = sp.lebesgue_norm(out, 2) / sp.lebesgue_norm(f, 2)
            assert abs(ratio - (1 + k ** 2) ** -0.5) < 1e-12

    def test_non_finite_symbol_rejected(self, grid):
        with np.errstate(divide="ignore"):
            singular = 1.0 / grid.k_squared
        with pytest.raises(ValueError, match=r"non-finite at grid frequency \(0, 0\)"):
            sp.check_symbol(grid, singular)
        sp.check_symbol(grid, np.where(grid.k_squared > 0, singular, 0.0))


class TestNorms:
    def test_constant_lp(self, grid):
        one = sp.ScalarField.constant(grid, 1.0)
        for p in (1, 2, 4):
            assert abs(sp.lebesgue_norm(one, p) - (2 * np.pi) ** (2 / p)) < 1e-12

    def test_cos_linf(self, grid):
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        assert abs(sp.lebesgue_norm(f, np.inf) - 1.0) < 1e-14

    def test_cos_l2_against_analytic_integral(self, grid):
        # int cos^2 over (0,2pi)^2 = 2*pi^2, so the L2 norm is pi*sqrt(2)
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        assert abs(sp.lebesgue_norm(f, 2) - np.pi * math.sqrt(2.0)) < 1e-12

    def test_invalid_p(self, grid):
        f = sp.ScalarField.constant(grid, 1.0)
        with pytest.raises(ValueError):
            sp.lebesgue_norm(f, 0.5)

    def test_parseval(self, grid, rng):
        for _ in range(5):
            f = sp.random_field(grid, rng)
            assert abs(sp.lebesgue_norm(f, 2) - sp.coefficient_l2_norm(f)) < 1e-12

    @pytest.mark.parametrize("dim, m", [(2, 16), (3, 8)])
    def test_gradient_sum_matches_sample_space_with_nyquist_content(self, dim, m):
        """Times the volume, `gradient_sum` is int |grad f|^2 of the spectral
        derivatives (whose Nyquist planes are zero), summed over a stack."""
        grid = sp.TorusGrid(dim, m)
        u = sp.VectorField.from_samples(
            grid, np.random.default_rng(7).standard_normal((dim,) + grid.shape))
        nyquist = sp.parseval_sum(grid, np.where(grid.nyquist_mask, u.coeffs, 0.0))
        assert nyquist > 0.05 * sp.parseval_sum(grid, u.coeffs)
        ref = np.sum(sp.velocity_gradient(u) ** 2) * grid.cell_volume
        got = grid.volume * sp.gradient_sum(grid, u.coeffs)
        assert abs(got - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("dim, m", [(2, 16), (3, 8)])
    def test_coefficient_sup_bound_covers_the_sampled_sup(self, dim, m):
        """On white noise, whose Nyquist planes carry content, and on a spike
        at the origin, whose real coefficients the bound meets with equality,
        the bound is at least the max of the transformed samples, scalar or
        vector."""
        grid = sp.TorusGrid(dim, m)
        noise = np.random.default_rng(17).standard_normal((1 + dim,) + grid.shape)
        spike = np.zeros_like(noise)
        spike[(slice(None),) + (0,) * dim] = 1.0
        for samples in (noise, spike):
            for f in (sp.ScalarField.from_samples(grid, samples[0]),
                      sp.VectorField.from_samples(grid, samples[1:])):
                assert np.any(np.where(grid.nyquist_mask, f.coeffs, 0.0))
                sup = sp.lebesgue_norm(f.with_coeffs(f.coeffs), np.inf)
                assert sp.coefficient_sup_bound(f) >= sup
        assert sp.coefficient_sup_bound(f) <= sup * (1.0 + 1e-12)

    def test_coefficient_sup_bound_is_a_python_float(self, grid):
        """The bound is a Python float, not a numpy scalar, so a message that
        prints its repr prints a plain number."""
        f = sp.random_vector_field(grid, np.random.default_rng(2))
        assert type(sp.coefficient_sup_bound(f)) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_coefficient_sup_bound_of_a_non_finite_coefficient_is_nan(self, grid, bad):
        coeffs = sp.random_vector_field(grid, np.random.default_rng(4)).coeffs.copy()
        coeffs[1, 3, 2] = bad
        assert math.isnan(sp.coefficient_sup_bound(sp.VectorField(grid, coeffs)))

    def test_sobolev_norm_single_mode(self, grid):
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        # W^{1,2}: (||f||^2 + ||df||^2)^{1/2} = sqrt(2) ||f||_2
        expected = math.sqrt(2.0) * sp.lebesgue_norm(f, 2)
        assert abs(sp.sobolev_norm(f, 1, 2) - expected) < 1e-12


class TestTranslationInvariance:
    @settings(max_examples=8, deadline=None)
    @given(shift=st.tuples(st.integers(0, 31), st.integers(0, 31)), seed=st.integers(0, 99))
    def test_operators_commute_with_translation(self, shift, seed):
        grid = sp.TorusGrid(2, 32)
        f = sp.random_field(grid, np.random.default_rng(seed))
        ops = [lambda x: sp.partial(x, 0), sp.laplacian, sp.inv_laplacian_zero_mean,
               lambda x: sp.riesz_composite(0, 1, x)]
        for op in ops:
            shifted = sp.ScalarField.from_samples(grid, np.roll(f.samples, shift, axis=(0, 1)))
            a = op(shifted).samples
            b = np.roll(op(f).samples, shift, axis=(0, 1))
            assert np.max(np.abs(a - b)) < 1e-11


class TestProducts:
    def test_dealiased_product_band(self, grid, rng):
        a = sp.random_field(grid, rng)
        b = sp.random_field(grid, rng)
        prod = sp.multiply(a, b)
        assert prod.max_frequency() <= grid.n // 3

    def test_product_linear_in_each_factor(self, grid, rng):
        a, b, c = (sp.random_field(grid, rng) for _ in range(3))
        lhs = sp.multiply(a + b, c)
        rhs = sp.multiply(a, c) + sp.multiply(b, c)
        assert sp.lebesgue_norm(lhs - rhs, np.inf) < 1e-12


class TestFourierEval:
    def test_matches_grid_samples(self, grid, rng):
        f = sp.random_field(grid, rng, max_wavenumber=5)
        x, y = grid.coordinates()
        pts = np.stack([x.ravel()[:50], y.ravel()[:50]], axis=1)
        vals = sp.fourier_eval(f, pts)
        assert np.max(np.abs(vals - f.samples.ravel()[:50])) < 1e-12

    def test_single_mode_off_grid(self, grid):
        f = sp.ScalarField.from_function(grid, lambda x, y: np.sin(x))
        pts = np.array([[0.123, 4.5], [2.2, 0.01]])
        vals = sp.fourier_eval(f, pts)
        assert np.max(np.abs(vals - np.sin(pts[:, 0]))) < 1e-12
