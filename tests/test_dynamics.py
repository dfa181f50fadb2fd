"""Solver: RHS, stepping, conservation, scaling, flow map, linear split."""

import math
import os
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from torusns import spectral as sp
from torusns import dynamics as dyn

INF = math.inf
LAW = dyn.PowerLaw(1.0, 2.0)
_KNOTS = np.geomspace(1e-3, 8.0, 40)
# a tabulated law through linear samples interpolates exactly, so P(rho)
# stays band-limited and the scaled state remains representable
EVERY_LAW = (LAW, dyn.PowerLaw(1.0, 1.0), dyn.TabulatedLaw(_KNOTS, 0.5 * _KNOTS))
# |R(-Z_STAR)| = 1 for RK4's stability function R on the negative real axis
Z_STAR = 2.785293563405282
#: the time steps of an acoustic case: the order from the first two, the error at the last
DTS = (0.02, 0.01, 0.005)
#: tables of a concave, a power-1.4 and a square law
TABLES = {"concave": (np.array([0.5, 1.0, 1.5, 2.0]), np.array([0.0, 1.0, 1.5, 1.6])),
          "power1.4": (np.geomspace(0.01, 4.0, 30), np.geomspace(0.01, 4.0, 30) ** 1.4),
          "square": (np.linspace(0.1, 4.0, 40), np.linspace(0.1, 4.0, 40) ** 2)}


@pytest.fixture(scope="module")
def grid():
    return sp.TorusGrid(2, 32)


@pytest.fixture(scope="module")
def params():
    return dyn.FluidParams(0.1, 0.1, LAW)


@pytest.fixture(scope="module")
def manufactured():
    return dyn.ManufacturedSolution(LAW, mu=0.05, lam=0.05,
                                    amplitude=0.3, flux_constant=0.3)


class TestPressureLaws:
    def test_power_law_potential_closed_form(self):
        law = dyn.PowerLaw(2.0, 2.0)
        # gamma = 2: potential = a rho^2 / (gamma - 1) = a rho^2
        assert abs(law.potential(3.0) - 2.0 * 9.0) < 1e-12

    def test_gamma_one_takes_the_log_potential(self):
        iso = dyn.PowerLaw(1.0, 1.0)
        assert abs(iso.potential(2.0) - 2.0 * math.log(2.0)) < 1e-12
        assert iso.potential(0.0) == 0.0

    @pytest.mark.parametrize("law", [LAW, dyn.PowerLaw(1.0, 1.0),
                                     dyn.TabulatedLaw([0.5, 1.0, 2.0], [0.25, 1.0, 4.0])],
                             ids=["power", "isothermal", "tabulated"])
    def test_potential_of_a_nan_density_is_nan(self, law):
        """Every law's potential keeps a NaN density NaN, as a series'
        `potential` cell must: a NaN is not read as vacuum (0)."""
        assert np.isnan(law.potential(np.array([np.nan]))).all()

    def test_tabulated_law_matches_power_law(self):
        # log-spaced knots resolve the power behaviour near zero
        s = np.geomspace(1e-6, 4.0, 600)
        tab = dyn.TabulatedLaw(s, LAW(s))
        x = np.array([0.5, 1.0, 2.5])
        assert np.max(np.abs(tab(x) - LAW(x))) < 1e-5
        assert np.max(np.abs(tab.potential(x) - LAW.potential(x))) < 1e-6

    def test_invalid_laws_rejected(self):
        with pytest.raises(ValueError):
            dyn.PowerLaw(-1.0, 2.0)
        with pytest.raises(ValueError):
            dyn.PowerLaw(1.0, 0.5)
        with pytest.raises(ValueError):
            dyn.TabulatedLaw([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="non-negative"):
            dyn.TabulatedLaw([0.5, 1.0, 2.0], [-1.0, 0.2, 0.3])

    @pytest.mark.parametrize("law", EVERY_LAW, ids=lambda law: type(law).__name__)
    def test_zero_density_has_zero_potential_and_k(self, law):
        assert law.potential(0.0) == 0.0 and law.k(0.0) == 0.0

    def test_power_law_k_closed_form(self):
        # k(s) = a^2 s^{2 gamma} (2 gamma - 3/2) / (2 gamma - 1) = 16 * 2.5 / 3 at s = 2
        assert abs(LAW.k(2.0) - 16.0 * 2.5 / 3.0) < 1e-12

    @pytest.mark.parametrize("knots, pressures", list(TABLES.values()), ids=list(TABLES))
    def test_tabulated_integrals_are_the_quadrature_of_the_law(self, knots, pressures):
        """Pi_P and Pi_{P^2} = 2 (P^2 - k), exact per piece, agree with a
        1e-13 adaptive quadrature of the law (split at its knots) to 1e-12
        relative, below the first knot, inside the table and above the last."""
        law = dyn.TabulatedLaw(knots, pressures)
        d0, dn = knots[0], knots[-1]
        inside = d0 + (dn - d0) * np.array([0.1, 0.37, 0.5, 0.81, 0.99])
        s = np.concatenate([[0.2 * d0, 0.9 * d0], inside, [dn, 1.3 * dn, 4.0 * dn]])

        def pi(f, val):
            ends = [0.0, *[d for d in knots if d < val], val]
            return val * sum(quad(lambda z: f(z) / z ** 2, lo, hi, epsabs=0, epsrel=1e-13,
                                  limit=200)[0] for lo, hi in zip(ends[:-1], ends[1:]))

        want_p = [pi(lambda z: float(law(z)), v) for v in s]
        want_p2 = [pi(lambda z: float(law(z)) ** 2, v) for v in s]
        assert np.allclose(law.potential(s), want_p, rtol=1e-12, atol=0)
        assert np.allclose(2.0 * (law(s) ** 2 - law.k(s)), want_p2, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("knots, pressures", list(TABLES.values()), ids=list(TABLES))
    def test_tabulated_law_is_the_monotone_cubic_inside_its_table(self, knots, pressures):
        law = dyn.TabulatedLaw(knots, pressures)
        cubic = PchipInterpolator(knots, pressures)
        s = np.linspace(knots[0], knots[-1], 997)
        assert np.allclose(law(s), cubic(s), rtol=1e-12, atol=0)
        assert np.allclose(law.derivative(s), cubic.derivative()(s), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("knots, pressures", [
        ([0.887, 1.542, 1.557, 2.212, 2.526], [0.0, 0.0, 0.176, 0.176, 0.952]),
        ([0.2, 0.5, 0.7, 1.5, 3.0], [0.0, 0.0, 0.3, 0.31, 4.0])])
    def test_tabulated_law_is_exact_just_above_a_zero_knot(self, knots, pressures):
        """Just above a knot where P = 0 the law is evaluated in powers of
        s - that knot, so it does not cancel: on 200 points in (d, d + h/100]
        P >= 0, and P and P' are within 1e-12 relative of scipy's PCHIP.  In
        powers of s, P(1.54200003) was -1.16e-10 (PCHIP: 2.1e-12)."""
        law = dyn.TabulatedLaw(knots, pressures)
        cubic = PchipInterpolator(knots, pressures)
        d, h = knots[1], knots[2] - knots[1]
        s = d + np.linspace(0.0, 0.01 * h, 201)[1:]
        assert np.all(law(s) >= 0)
        assert np.allclose(law(s), cubic(s), rtol=1e-12, atol=0)
        assert np.allclose(law.derivative(s), cubic.derivative()(s), rtol=1e-12, atol=0)

    def test_tabulated_law_outside_its_table(self):
        """Below d0 the law is P(d0) (s/d0)^2, above dn its tangent line, so
        P stays non-negative and non-decreasing on all of (0, inf) and
        s Pi'(s) - Pi(s) = P(s) holds there too."""
        knots, pressures = TABLES["concave"]
        law = dyn.TabulatedLaw(knots, pressures)
        s = np.linspace(1e-3, 4.0 * knots[-1], 4001)
        assert np.all(law(s) >= 0) and np.all(np.diff(law(s)) >= 0)
        assert np.all(law.derivative(s) >= 0)
        low, high = np.array([0.1, 0.3]), np.array([2.5, 4.0, 8.0])
        square = dyn.TabulatedLaw(*TABLES["square"])  # P(d0) (s/d0)^2 = s^2 below d0 = 0.1
        assert np.allclose(square(low / 10), (low / 10) ** 2, rtol=1e-14, atol=0)
        tangent = law(knots[-1]) + law.derivative(knots[-1]) * (high - knots[-1])
        assert np.allclose(law(high), tangent, rtol=1e-14, atol=0)
        x = np.concatenate([low, [0.7, 1.9], high])
        h = 1e-6
        slope = (law.potential(x + h) - law.potential(x - h)) / (2 * h)
        assert np.allclose(x * slope - law.potential(x), law(x), rtol=0, atol=1e-8)

    def test_tabulated_tangent_takes_the_end_slope_itself(self):
        """PCHIP's end slope on this table is 0 (the one-sided estimate turns
        negative and is zeroed), so P is flat above it.  Read back from the
        last cubic instead, the slope was -1.1e-16 and P fell there."""
        law = dyn.TabulatedLaw([0.834, 1.59, 1.727, 2.544], [0.0, 0.178, 0.805, 1.002])
        assert law.derivative(5.0) == 0.0 and law(5.0) == law(2.544) == 1.002

    def test_tabulated_k_is_the_power_laws_on_its_table(self):
        """The k of d^2 on linspace(0.1, 4, 40) follows PowerLaw(1, 2)'s
        k = 5 s^4 / 6 up to the interpolant's own error: P is 1.4 % off s^2
        between the first knots (PCHIP's harmonic-mean slopes), so k is
        3.2 % off there and within 0.5 % from s = 0.25 up."""
        law = dyn.TabulatedLaw(*TABLES["square"])
        for lo, bound in ((0.05, 3.5e-2), (0.25, 5e-3)):
            s = np.linspace(lo, 4.0, 800)
            assert np.max(np.abs(law.k(s) / LAW.k(s) - 1.0)) < bound
        fine = np.geomspace(1e-6, 4.0, 500)
        x = np.array([0.5, 1.5, 2.0])
        assert np.max(np.abs(dyn.TabulatedLaw(fine, LAW(fine)).k(x) - LAW.k(x))) < 1e-4


class TestViscosityAdmissibility:
    def test_equal_coefficients(self):
        ok, p_star = dyn.admissible_viscosity(1.0, 1.0)
        assert ok
        assert abs(p_star - (4.0 + 2.0 * math.sqrt(2.0))) < 1e-12

    def test_boundary_of_the_window(self):
        # lam = 5 mu / 4 makes 5p^2 - 36p + 36 = 0, roots 1.2 and 6
        ok, p_star = dyn.admissible_viscosity(1.0, 1.25)
        assert p_star == pytest.approx(6.0, abs=1e-12)
        assert not ok

    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            dyn.admissible_viscosity(0.0, 1.0)

    def test_zero_lambda_unconstrained(self):
        ok, p_star = dyn.admissible_viscosity(1.0, 0.0)
        assert ok and math.isinf(p_star)


class TestParams:
    def test_physical_condition(self):
        with pytest.raises(ValueError):
            dyn.FluidParams(0.1, -0.2, LAW).validate(2)
        dyn.FluidParams(0.1, -0.05, LAW).validate(2)  # N lam + 2 mu > 0


class TestRhs:
    def test_constant_equilibrium_is_stationary(self, grid, params):
        state = dyn.equilibrium_state(grid, 1.0)
        drho, dmom = dyn.rhs_eval(state, params)
        assert sp.lebesgue_norm(drho, INF) == 0.0
        assert sp.lebesgue_norm(dmom, INF) == 0.0

    def test_gradient_velocity_against_finite_differences(self):
        # rho = 1, u = grad(phi): momentum RHS = nu grad div u - div(u x u)
        # validated against centred finite differences on a refined grid
        mu, lam = 0.3, 0.2
        params = dyn.FluidParams(mu, lam, LAW)
        errors = []
        for m in (64, 128):
            g = sp.TorusGrid(2, m)
            x, y = g.coordinates()
            phi = sp.ScalarField.from_samples(g, np.sin(x) * np.cos(y))
            u = sp.gradient(phi)
            state = dyn.FluidState(sp.ScalarField.constant(g, 1.0), u, 0.0)
            _, dmom = dyn.rhs_eval(state, params)
            h = g.spacing
            us = u.samples

            def ddx(f, a):
                return (np.roll(f, -1, axis=a) - np.roll(f, 1, axis=a)) / (2 * h)

            def lap_fd(f):
                return sum((np.roll(f, -1, axis=a) - 2 * f + np.roll(f, 1, axis=a))
                           / h ** 2 for a in range(2))

            div_fd = ddx(us[0], 0) + ddx(us[1], 1)
            ref = np.empty_like(us)
            for j in range(2):
                conv = ddx(us[0] * us[j], 0) + ddx(us[1] * us[j], 1)
                visc = mu * lap_fd(us[j]) + (mu + lam) * ddx(div_fd, j)
                ref[j] = -conv + visc  # P(1) constant: no pressure gradient
            errors.append(np.max(np.abs(dmom.samples - ref)))
        assert errors[0] / errors[1] > 3.0  # finite-difference oracle is O(h^2)

    @staticmethod
    def _reference_rhs(state, params):
        """(d_t rho, d_t m) coefficients with P(rho) transformed on its own,
        dealiased, and -dk P_c added to the momentum slope."""
        grid = state.grid
        keep = grid.dealias_mask()
        dk = np.stack([np.where(grid.nyquist_mask, 0.0, 1j * k)
                       for k in grid.frequency_mesh])
        y = dyn._conservative(state, keep)
        s = sp.to_samples(grid, y)
        rho_s, m_s = s[0], s[1:]
        u_s = m_s / rho_s
        u_c = sp.to_coeffs(grid, u_s)
        flux_c = sp.to_coeffs(grid, m_s[:, None] * u_s[None]) * keep
        p_c = sp.to_coeffs(grid, params.pressure(rho_s)) * keep
        lap = np.where(grid.nyquist_mask, 0.0, -grid.k_squared)
        div_u = np.sum(dk * u_c, axis=0)
        dm = (params.mu * lap * u_c + (params.mu + params.lam) * dk * div_u
              - np.sum(dk[:, None] * flux_c, axis=0) - dk * p_c)
        g = params.forcing_field(state.t, grid)
        if g is not None:
            dm += sp.to_coeffs(grid, rho_s * g.samples) * keep
        return -np.sum(dk * y[1:], axis=0), dm

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    def test_fused_pressure_flux_matches_reference(self, dim, forced):
        grid = sp.TorusGrid(dim, 32 if dim == 2 else 16)
        rng = np.random.default_rng(dim)
        rho = sp.ScalarField.from_samples(
            grid, 1.5 + 0.3 * sp.random_field(grid, rng).samples)
        state = dyn.FluidState(rho, sp.random_vector_field(grid, rng), 0.0)
        g = sp.random_vector_field(grid, rng)
        params = dyn.FluidParams(0.07, 0.04, dyn.PowerLaw(1.0, 1.4),
                                 (lambda t, grid: g) if forced else None)
        ref_rho, ref_m = self._reference_rhs(state, params)
        drho, dmom = dyn.rhs_eval(state, params)
        for got, ref in ((drho.samples, sp.to_samples(grid, ref_rho)),
                         (dmom.samples, sp.to_samples(grid, ref_m))):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the stage dissipation against the full dim x dim gradient array
        stepper = dyn._Stepper(grid, params, 0.0)
        _, aux = stepper.rhs(0.0, dyn._conservative(state, stepper.keep))
        u_c = aux["u_c"]
        ref = grid.volume * (
            params.mu * sp.parseval_sum(grid, stepper.dk[:, None] * u_c[None])
            + (params.mu + params.lam) * sp.parseval_sum(grid, aux["div_u"]))
        got = stepper.quadrature_values(aux)["dissipation"]
        assert abs(got - ref) <= 1e-13 * ref

    def test_stages_of_a_step_share_only_the_product_array(self):
        """The stages of a step fill one product array, so of the fields a
        stage hands out in aux only u_s, which views it, is overwritten by
        the next stage; the step reads it only before then.  Every other
        field stays that stage's own, except the forcing samples and the
        indices of their nonzero components, inputs cached per stage time."""
        grid = sp.TorusGrid(2, 16)
        g = sp.VectorField.from_samples(grid, np.full((2,) + grid.shape, 0.2))
        params = dyn.FluidParams(0.07, 0.04, dyn.PowerLaw(1.0, 1.4), lambda t, grid: g)
        stepper = dyn._Stepper(grid, params, 0.0)
        auxes, rhs = [], stepper.rhs

        def recorded(*args):
            dy, aux = rhs(*args)
            auxes.append(aux)
            return dy, aux

        stepper.rhs = recorded
        y = dyn._conservative(dyn.density_bump_state(grid, u_amplitude=0.2), stepper.keep)
        stepper.step(0.0, y, 0.01)
        assert len(auxes) == 4
        for n, a in enumerate(auxes):
            for b in auxes[n + 1:]:
                for key, x in a.items():
                    for other, z in b.items():
                        if not {"g_s", "forced"} & {key, other}:
                            shared = np.shares_memory(x, z)
                            assert shared == (key == other == "u_s"), (key, other)

    def test_a_stage_frees_its_fields_before_the_next_runs(self, grid, params):
        """A step takes each stage's integrands right away and keeps none of
        its fields: holding four stages' arrays to the end of the step made
        the allocator fault fresh pages in on every step."""
        stepper = dyn._Stepper(grid, params, 0.0)
        refs, rhs = [], stepper.rhs

        def recorded(*args):
            assert all(ref() is None for ref in refs)
            dy, aux = rhs(*args)
            refs.extend(weakref.ref(aux[key]) for key in ("u_s", "p_s", "u_c", "div_u"))
            return dy, aux

        stepper.rhs = recorded
        y = dyn._conservative(dyn.density_bump_state(grid, u_amplitude=0.2), stepper.keep)
        _, quads = stepper.step(0.0, y, 0.01)
        assert len(refs) == 16 and all(ref() is None for ref in refs)
        assert quads["dissipation"] > 0

    def test_stage_arrays_are_reused_by_the_next_step(self, grid, params):
        """Every stage of every step writes the stepper's one product array
        and its one slope array, so steps after the first allocate neither."""
        stepper = dyn._Stepper(grid, params, 0.0)
        seen, rhs = [], stepper.rhs

        def recorded(*args):
            dy, aux = rhs(*args)
            seen.append((dy.ctypes.data, aux["u_s"].ctypes.data))
            return dy, aux

        stepper.rhs = recorded
        y = dyn._conservative(dyn.density_bump_state(grid, u_amplitude=0.2), stepper.keep)
        y1, _ = stepper.step(0.0, y, 0.01)
        stepper.step(0.01, y1, 0.01)
        assert len(seen) == 8 and len(set(seen)) == 1

    def test_vacuum_rejected(self, grid, params):
        rho = sp.ScalarField.constant(grid, 0.0)
        state = dyn.FluidState(rho, sp.VectorField.zero(grid), 0.0)
        with pytest.raises(dyn.VacuumError):
            dyn.rhs_eval(state, params)


class TestStep:
    def test_equilibrium_fixed_point(self, grid, params):
        state = dyn.equilibrium_state(grid, 1.3)
        traj = dyn.run(state, params, dyn.SolverConfig(t_end=0.01, dt=0.01))
        assert traj.stop_reason == "completed" and traj.step_count == 1
        new = traj.states[-1]
        assert sp.lebesgue_norm(new.rho - state.rho, INF) < 1e-14
        assert sp.lebesgue_norm(new.u, INF) < 1e-14

    def test_cfl_violation_raises(self, grid, params):
        """A fixed dt over the CFL limit stops the run as `cfl` before its
        first step."""
        state = dyn.stream_vortex_state(grid, 1.0, 0.5)
        traj = dyn.run(state, params, dyn.SolverConfig(t_end=10.0, dt=10.0))
        assert traj.stop_reason == "cfl" and traj.step_count == 0
        assert len(traj.states) == 1 and traj.stop_time == 0.0

    def test_cfl_sound_speed_is_the_largest_over_the_samples(self):
        """A concave tabulated law has its largest P' below max rho; the
        acoustic bound must use that, not P'(max rho)."""
        grid = sp.TorusGrid(2, 16)
        x, y = grid.coordinates()
        rho = sp.ScalarField.from_samples(
            grid, 1.2 + 0.6 * np.exp(2.0 * (np.cos(x) + np.cos(y) - 2.0)))
        assert 1.2 <= np.min(rho.samples) and np.max(rho.samples) <= 1.8 + 1e-12
        law = dyn.TabulatedLaw([0.5, 1.0, 1.5, 2.0], [0.0, 1.0, 1.5, 1.6])
        state = dyn.FluidState(rho, sp.VectorField.zero(grid), 0.0)
        limit = dyn.cfl_limit(state, dyn.FluidParams(1e-6, 0.0, law))
        want = grid.spacing / math.sqrt(np.max(law.derivative(rho.samples)))
        assert limit == pytest.approx(want, rel=1e-12)
        assert law.derivative(np.max(rho.samples)) < 0.5 * np.max(law.derivative(rho.samples))

    @pytest.mark.parametrize("law", [dyn.PowerLaw(1.0, 1.4), dyn.PowerLaw(2.0, 1.0)],
                             ids=["power", "isothermal"])
    def test_cfl_unchanged_for_monotone_sound_speed(self, law):
        grid = sp.TorusGrid(2, 16)
        state = dyn.density_bump_state(grid, 1.0, 0.5)
        rho_max = np.max(state.rho.samples)
        want = grid.spacing / math.sqrt(float(law.derivative(rho_max)))
        assert dyn.cfl_limit(state, dyn.FluidParams(1e-6, 0.0, law)) == want

    def test_manufactured_temporal_order(self, manufactured):
        grid = sp.TorusGrid(2, 32)
        params = manufactured.params()
        errs = []
        for dt in (0.02, 0.01, 0.005):
            cfg = dyn.SolverConfig(t_end=0.2, dt=dt, snapshot_every=10 ** 9)
            traj = dyn.run(manufactured.state(grid, 0.0), params, cfg)
            exact = manufactured.state(grid, traj.states[-1].t)
            errs.append(sp.lebesgue_norm(traj.states[-1].u - exact.u, 2))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(3.7 < o < 4.3 for o in orders)

    @pytest.mark.parametrize("rho0, bounds", [(1.0, (3.2e-8, 2.0e-9)),
                                              (2.5, (4.6e-9, 2.9e-10))], ids=["rho1", "rho2.5"])
    @pytest.mark.parametrize("dim, m", [(2, 32), (3, 16)])
    def test_shear_wave_decays_as_the_exact_solution(self, dim, m, rho0, bounds):
        """rho = rho0 with u = (0, eps sin(k x1), 0...) solves the unforced
        equations exactly: the flow is divergence-free, u . grad u = 0 and
        the pressure is constant, so rho and u1 stay put and u2 decays as
        eps exp(-mu k^2 t / rho0) sin(k x1).  At t = 1 the error of u2,
        relative to eps, is under the bound measured at dt = 0.02 and 0.01
        (2.9e-8 and 1.8e-9 for rho0 = 1), an observed order of 4."""
        mu, k, eps = 0.5, 3, 0.1
        grid = sp.TorusGrid(dim, m)
        x1 = grid.coordinates()[0]
        u = np.zeros((dim,) + grid.shape)
        u[1] = eps * np.sin(k * x1)
        initial = dyn.FluidState(sp.ScalarField.constant(grid, rho0),
                                 sp.VectorField.from_samples(grid, u))
        params = dyn.FluidParams(mu, mu, dyn.PowerLaw(1.0, 2.0))
        errs = []
        for dt in (0.02, 0.01):
            traj = dyn.run(initial, params,
                           dyn.SolverConfig(t_end=1.0, dt=dt, snapshot_every=10 ** 9))
            end = traj.states[-1]
            assert traj.stop_reason == "completed" and end.t == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(end.rho.samples - rho0)) <= 1e-15
            assert np.max(np.abs(np.delete(end.u.samples, 1, axis=0))) <= 1e-15
            exact = eps * math.exp(-mu * k * k * end.t / rho0) * np.sin(k * x1)
            errs.append(np.max(np.abs(end.u.samples[1] - exact)) / eps)
        assert errs[0] < bounds[0] and errs[1] < bounds[1], errs
        assert abs(math.log2(errs[0] / errs[1]) - 4.0) < 0.1, errs

    @staticmethod
    def _acoustic_error(dim, m, law, dt, k=(3,), rho0=1.0, stepped=None):
        """max |(S(eps) - S(-eps))/(2 eps) - exact| at t = 0.2 for the
        longitudinal mode rho = rho0 + eps cos(k.x), u = 0 at t = 0 (k padded
        with zeros to dim), mu = lam = 0.05, with S the state that a run under
        `stepped` (`law` if None) reaches.  The odd part cancels the eps^2
        term of the nonlinearity.  At eps = 1e-5 the eps^3 term stays below
        the time error (which falls as dt^4 to 4e-11 for the tabulated law);
        at eps = 1e-4 and t = 1 it held the 3-D errors near 1e-8.
        Linearised, rho = rho0 + eps A cos(k.x) and u = eps B sin(k.x) k/|k|
        with A' = -rho0 |k| B and rho0 B' = P'(rho0) |k| A - nu |k|^2 B."""
        eps, mu, t_end = 1e-5, 0.05, 0.2
        grid = sp.TorusGrid(dim, m)
        k = np.array(k + (0,) * (dim - len(k)), dtype=float)
        norm = np.linalg.norm(k)
        phase = sum(k_i * x for k_i, x in zip(k, grid.coordinates()))
        params = dyn.FluidParams(mu, mu, stepped or law)
        ends = []
        for sign in (1.0, -1.0):
            start = dyn.FluidState(sp.ScalarField.from_samples(
                grid, rho0 + sign * eps * np.cos(phase)), sp.VectorField.zero(grid))
            traj = dyn.run(start, params,
                           dyn.SolverConfig(t_end=t_end, dt=dt, snapshot_every=10 ** 9))
            assert traj.stop_reason == "completed"
            ends.append(traj.states[-1])
        rates = np.array([[0.0, -rho0 * norm],
                          [float(law.derivative(rho0)) * norm / rho0, -params.nu * norm ** 2 / rho0]])
        w, v = np.linalg.eig(rates)
        a, b = (v @ (np.exp(w * ends[0].t) * np.linalg.solve(v, [1.0, 0.0]))).real
        exact_u = np.multiply.outer(k / norm, b * np.sin(phase))
        plus, minus = ends
        odd_rho = (plus.rho.samples - minus.rho.samples) / (2 * eps)
        odd_u = (plus.u.samples - minus.u.samples) / (2 * eps)
        return max(np.max(np.abs(odd_rho - a * np.cos(phase))), np.max(np.abs(odd_u - exact_u)))

    # the axis mode k = (3, 0, ...) is one-dimensional, so a 3-D run of it
    # repeats the 2-D one; the 3-D runs take the diagonal mode, which every
    # axis reads.  The fastest sound, c|k| = 11.6 on the power law's 3-D
    # diagonal at rho0 = 2.5, reads order 4.18 from dt 0.02 to 0.01 and 4.10
    # from 0.01 to 0.005, so it runs at dt 0.005 and 0.0025 alone
    @pytest.mark.parametrize("dim, law, k, rho0, dts", [
        (2, EVERY_LAW[0], (3,), 1.0, DTS), (2, EVERY_LAW[1], (3,), 1.0, DTS),
        (2, EVERY_LAW[2], (3,), 1.0, DTS), (2, EVERY_LAW[0], (3, 3), 1.0, DTS),
        (3, EVERY_LAW[0], (3, 3, 3), 1.0, DTS), (2, EVERY_LAW[0], (3,), 2.5, DTS),
        (3, EVERY_LAW[0], (3, 3, 3), 2.5, (0.005, 0.0025)),
        (2, EVERY_LAW[1], (3, 3), 2.5, DTS), (3, EVERY_LAW[1], (3, 3, 3), 2.5, DTS),
        (2, EVERY_LAW[2], (3, 3), 2.5, DTS), (3, EVERY_LAW[2], (3, 3, 3), 2.5, DTS)],
        ids=["2-power", "2-isothermal", "2-tabulated", "2-power-diagonal",
             "3-power-diagonal", "2-power-rho2.5", "3-power-diagonal-rho2.5",
             "2-isothermal-diagonal-rho2.5", "3-isothermal-diagonal-rho2.5",
             "2-tabulated-diagonal-rho2.5", "3-tabulated-diagonal-rho2.5"])
    def test_acoustic_wave_is_the_exact_linear_mode(self, dim, law, k, rho0, dts):
        """The linear acoustic mode under every law (a tabulated law enters
        only through P'(rho0)), along an axis and along the diagonal, at
        rho0 = 1 and 2.5: at the last dt within 0.012 (c|k|dt)^4 of it, c =
        sqrt(P'(rho0)) the sound speed, and an observed order of 4 from the
        first dt to the second.  RK4's own error goes as (c|k|dt)^4: 0.0033
        to 0.0106 of it was measured, and in every case of c|k| <= 6, which
        met 1e-8 at dt 0.005 (5.7e-9 measured), the bound is under 1e-8."""
        errs = [self._acoustic_error(dim, 32 if dim == 2 else 16, law, dt, k, rho0)
                for dt in dts]
        speed = math.sqrt(float(law.derivative(rho0))) * math.hypot(*k)
        assert errs[-1] < 0.012 * (speed * dts[-1]) ** 4, errs
        assert abs(math.log2(errs[0] / errs[1]) - 4.0) < 0.1, errs

    @pytest.mark.parametrize("k", [(3,), (3, 3)], ids=["axis", "diagonal"])
    def test_acoustic_wave_sees_a_two_percent_pressure(self, k):
        """A stepper that evaluates 1.02 P(rho) misses the mode by 1e-2 or more."""
        assert self._acoustic_error(2, 32, LAW, 0.005, k, stepped=LAW.rescaled(1.02)) > 1e-3

    @staticmethod
    def _top_mode_ratio(dim, m, f):
        """(the factor by which 40 steps at dt = f dt* scale the momentum
        coefficients of the top non-Nyquist diagonal mode, R(s dt)^40).  At
        rest at rho0 = 2.5 with mu = lam = 0.5 and PowerLaw(1, 2), the mode
        k_a = M/2 - 1 lies outside the 2/3 band, where the flux is masked,
        so it decays at exactly s = -(2 mu + lam)|k|^2 / rho0 and one step
        scales it by RK4's stability function R(z) = 1 + z + z^2/2 + z^3/6
        + z^4/24 of z = s dt.  dt* = Z_STAR / |s| is where |R(s dt)| = 1."""
        rho0, mu, top = 2.5, 0.5, m // 2 - 1
        grid = sp.TorusGrid(dim, m)
        params = dyn.FluidParams(mu, mu, LAW)
        stepper = dyn._Stepper(grid, params, 0.0)
        y = dyn._conservative(dyn.equilibrium_state(grid, rho0), stepper.keep)
        mode, eps = (slice(1, None),) + (top,) * dim, 1e-9 / math.sqrt(dim)
        y[mode] += eps
        rate = params.nu * dim * top ** 2 / rho0
        dt = f * Z_STAR / rate
        for n in range(40):
            y, _ = stepper.step(n * dt, y, dt)
        z = -rate * dt
        return y[mode] / eps, (1 + z + z * z / 2 + z ** 3 / 6 + z ** 4 / 24) ** 40

    @pytest.mark.parametrize("dim, m", [(2, 32), (3, 16)])
    def test_top_mode_meets_rk4s_stability_boundary(self, dim, m):
        """5 % below dt* the top mode decays by R^40 (2.1e-4), 5 % above it
        grows by R^40 (4.1e3), each matched to 1e-9 relative (5e-12
        measured).  `cfl_limit`'s viscous bound is 6.2x (2-D) and 8.1x (3-D)
        this dt*, so it does not keep the mode stable."""
        (decay, r_decay), (growth, r_growth) = (self._top_mode_ratio(dim, m, f)
                                                for f in (0.95, 1.05))
        for got, want in ((decay, r_decay), (growth, r_growth)):
            assert np.max(np.abs(got / want - 1.0)) < 1e-9, (got, want)
        assert np.all(np.abs(decay) < 1e-3) and np.all(np.abs(growth) > 1e3)

    def test_stability_boundary_pins_the_weights(self, monkeypatch):
        """Stage weights (1, 2, 1, 2) also sum to 6, so the step stays
        consistent, but their stability function is not RK4's: at 0.95 dt*
        the top mode grows until the density it drives reaches vacuum."""
        monkeypatch.setattr(dyn, "_RK4", ((0.0, 1), (0.5, 2), (0.5, 1), (1.0, 2)))
        with pytest.raises(dyn.VacuumError):
            self.test_top_mode_meets_rk4s_stability_boundary(2, 32)

    def test_mass_conservation(self, grid, params):
        state = dyn.density_bump_state(grid, 1.0, 0.3)
        cfg = dyn.SolverConfig(t_end=0.5, dt=0.005, snapshot_every=25)
        traj = dyn.run(state, params, cfg)
        m0 = traj.states[0].mass
        assert traj.stop_reason == "completed"
        assert max(abs(s.mass - m0) for s in traj.states) < 1e-12 * abs(m0)

    def test_momentum_balance_with_constant_forcing(self, grid):
        g_vec = np.array([0.25, -0.1])

        def forcing(t, grid):
            s = np.zeros((grid.dim,) + grid.shape)
            for i in range(grid.dim):
                s[i] = g_vec[i]
            return sp.VectorField.from_samples(grid, s)

        params = dyn.FluidParams(0.1, 0.1, LAW, forcing)
        state = dyn.density_bump_state(grid, 1.0, 0.2)
        cfg = dyn.SolverConfig(t_end=0.3, dt=0.003, snapshot_every=50)
        traj = dyn.run(state, params, cfg)
        mass = state.mass
        for s, t in zip(traj.states, traj.times):
            expected = state.momentum() + mass * g_vec * t
            assert np.max(np.abs(s.momentum() - expected)) < 1e-8


class TestRun:
    def test_constant_run_trajectory(self, grid, params):
        state = dyn.equilibrium_state(grid, 1.0)
        traj = dyn.run(state, params, dyn.SolverConfig(t_end=0.1, dt=0.01))
        assert traj.stop_reason == "completed"
        assert all(sp.lebesgue_norm(s.u, INF) < 1e-13 for s in traj.states)

    def test_vacuum_stop_records_reason_and_state(self, grid):
        weak = dyn.FluidParams(0.005, 0.0, dyn.PowerLaw(0.01, 2.0))
        state = dyn.density_bump_state(grid, 1.0, 0.0, u_amplitude=3.0)
        cfg = dyn.SolverConfig(t_end=5.0, cfl=0.4, vacuum_floor=5e-3,
                               snapshot_every=10)
        traj = dyn.run(state, weak, cfg)
        assert traj.stop_reason == "vacuum"
        assert traj.states[-1].min_density > cfg.vacuum_floor
        assert traj.stop_time < 5.0

    def test_nonfinite_pressure_stops_nonfinite(self, grid):
        class FailingLaw(dyn.PowerLaw):
            """Finite for its first 10 calls, NaN from then on."""
            calls = 0

            def __call__(self, s):
                self.calls += 1
                out = super().__call__(s)
                return out if self.calls <= 10 else np.full_like(out, np.nan)

        params = dyn.FluidParams(0.1, 0.1, FailingLaw(1.0, 2.0))
        state = dyn.density_bump_state(grid, 1.0, 0.2)
        traj = dyn.run(state, params, dyn.SolverConfig(t_end=1.0, dt=0.005))
        # one call per RK4 stage: the 11th is stage 3 of step 3
        assert traj.stop_reason == "nonfinite" and traj.step_count == 2
        assert traj.stop_time == 0.01 and len(traj.states) == 3
        assert all(s.is_finite() for s in traj.states)

    @pytest.mark.parametrize("cap, reason", [(10, "completed"), (9, "max_steps")])
    def test_step_cap(self, grid, params, monkeypatch, cap, reason):
        """The cap of MAX_STEPS steps is checked before a step: a run that
        reaches t_end on its last allowed step is `completed`, and one step
        fewer stops it as `max_steps` at the time of its last state."""
        monkeypatch.setattr(dyn, "MAX_STEPS", cap)
        traj = dyn.run(dyn.stream_vortex_state(grid), params,
                       dyn.SolverConfig(t_end=0.1, dt=0.01))
        assert traj.stop_reason == reason and traj.step_count == cap == len(traj) - 1
        assert traj.stop_time == traj.states[-1].t == pytest.approx(0.01 * cap, abs=1e-15)

    def test_adaptive_step_collapse_stops_cfl(self, grid, params, monkeypatch):
        """An adaptive step below 1e-12 t_end stops the run as `cfl` at the
        time of the last state reached."""
        limit, times = dyn.cfl_limit, []

        def collapsing(state, params):
            times.append(state.t)
            return limit(state, params) if len(times) <= 2 else 1e-14

        monkeypatch.setattr(dyn, "cfl_limit", collapsing)
        traj = dyn.run(dyn.stream_vortex_state(grid), params,
                       dyn.SolverConfig(t_end=1.0, cfl=0.5))
        assert traj.stop_reason == "cfl" and traj.step_count == 2 == len(traj) - 1
        assert 0 < traj.stop_time == traj.states[-1].t == times[-1]

    @pytest.mark.parametrize("stage", [True, False], ids=["in-a-stage", "after-a-step"])
    def test_vacuum_floor_between_a_stage_and_the_stepped_state(self, grid, monkeypatch,
                                                                stage):
        """A floor met by a stage's input stops the run as `vacuum` before the
        step (the 2-D drain u = 3 sin(x1) e1: its last stage input dips under
        the stepped state), and a floor met by the stepped state alone stops
        it after the step (the vortex, whose stepped state dips under every
        stage input), with the time of the state reached and nothing stored
        below the floor."""
        if stage:
            params = dyn.FluidParams(0.005, 0.0, dyn.PowerLaw(0.01, 2.0))
            state = dyn.density_bump_state(grid, 1.0, 0.0, u_amplitude=3.0)
        else:
            params, state = dyn.FluidParams(0.1, 0.1, LAW), dyn.stream_vortex_state(grid)
        inputs, rhs = [], dyn._Stepper.rhs

        def spied(stepper, t, y, samples=None):
            inputs.append(float(np.min(sp.to_samples(grid, y[0]))))
            return rhs(stepper, t, y, samples)

        monkeypatch.setattr(dyn._Stepper, "rhs", spied)
        stepped = dyn.run(state, params, dyn.SolverConfig(t_end=0.01, dt=0.01)).states[-1]
        assert len(inputs) == 4 and (min(inputs) < stepped.min_density) == stage
        floor = (min(inputs) + stepped.min_density) / 2
        traj = dyn.run(state, params, dyn.SolverConfig(t_end=1.0, dt=0.01, vacuum_floor=floor))
        assert traj.stop_reason == "vacuum" and len(traj) == 1
        assert (traj.step_count, traj.stop_time) == ((0, 0.0) if stage else (1, 0.01))

    def test_initial_state_at_the_floor_is_an_error(self, grid, params):
        with pytest.raises(ValueError, match="vacuum floor"):
            dyn.run(dyn.equilibrium_state(grid, 1.0), params,
                    dyn.SolverConfig(t_end=0.1, dt=0.01, vacuum_floor=1.0))

    @pytest.mark.parametrize("dim, forcing, forward_fields, inverse_calls", [
        (2, None, 20, 12), (3, (0.2, 0.2, 0.2), 48, 16), (3, (0.2, 0.0, 0.0), 40, 16)],
        ids=["2d-vortex", "3d-forced", "3d-forced-axis"])
    def test_transform_budget_per_step(self, params, fft_calls, dim, forcing,
                                       forward_fields, inverse_calls):
        """Per RK4 step: an inverse transform of the 1 + dim fields of y for
        each stage but the first, which reuses the samples of the previous
        state, and one for the new state, one call per field (1 + dim fields
        are more than two); a forward transform for each stage (u, the
        dim(dim+1)/2 flux pairs with the pressure on their diagonal, and the
        components of rho g whose g is not identically zero when forced) and
        none for the new state, whose velocity is transformed only when a
        snapshot reader asks for its coefficients."""
        grid = sp.TorusGrid(dim, 32 if dim == 2 else 16)
        if forcing is not None:
            g = sp.VectorField.from_samples(
                grid, np.asarray(forcing)[:, None, None, None] * np.ones(grid.shape))
            params = dyn.FluidParams(params.mu, params.lam, params.pressure,
                                     lambda t, grid: g)

        def counted_run(steps):
            state = dyn.stream_vortex_state(grid)
            fft_calls.clear()
            traj = dyn.run(state, params, dyn.SolverConfig(t_end=steps * 0.01, dt=0.01))
            assert traj.stop_reason == "completed" and traj.step_count == steps
            return Counter(fft_calls)

        n = 4
        short, long = counted_run(n), counted_run(2 * n)
        assert long["irfftn"] - short["irfftn"] == inverse_calls * n
        assert long["rfftn"] - short["rfftn"] == 4 * n
        assert long["irfftn_fields"] - short["irfftn_fields"] == 4 * (1 + dim) * n
        assert long["rfftn_fields"] - short["rfftn_fields"] == forward_fields * n

    def test_adaptive_dt(self, grid, params):
        state = dyn.stream_vortex_state(grid)
        traj = dyn.run(state, params, dyn.SolverConfig(t_end=0.05, cfl=0.5))
        assert traj.stop_reason == "completed"
        assert abs(traj.times[-1] - 0.05) < 1e-12


class TestScaling:
    def _bandlimited_state(self, grid, seed=5):
        rng = np.random.default_rng(seed)
        rho = sp.ScalarField.from_samples(
            grid, 1.5 + 0.2 * sp.random_field(grid, rng, max_wavenumber=3).samples)
        u = sp.random_vector_field(grid, rng, max_wavenumber=3)
        return dyn.FluidState(rho, u, 0.0)

    def test_identity_at_l_one(self, params):
        grid = sp.TorusGrid(2, 64)
        state = self._bandlimited_state(grid)
        scaled, sp2 = dyn.scaling_transform(state, params, 1)
        assert sp.lebesgue_norm(scaled.rho - state.rho, INF) == 0.0

    def test_rhs_equivariance(self):
        grid = sp.TorusGrid(2, 64)
        state = self._bandlimited_state(grid)
        for law in EVERY_LAW:
            params = dyn.FluidParams(0.05, 0.08, law)
            drho, dmom = dyn.rhs_eval(state, params)
            scaled_state, scaled_params = dyn.scaling_transform(state, params, 2)
            drho_s, dmom_s = dyn.rhs_eval(scaled_state, scaled_params)
            ref_mass = dyn.rescale_field(drho, 2) * 4.0
            ref_mom = dyn.rescale_field(dmom, 2) * 8.0
            rel_mass = (sp.lebesgue_norm(drho_s - ref_mass, INF)
                        / sp.lebesgue_norm(ref_mass, INF))
            rel_mom = (sp.lebesgue_norm(dmom_s - ref_mom, INF)
                       / sp.lebesgue_norm(ref_mom, INF))
            assert rel_mass < 1e-10 and rel_mom < 1e-10, law

    @pytest.mark.parametrize("law", EVERY_LAW, ids=lambda law: type(law).__name__)
    def test_rescaled_law_is_scaled(self, law):
        s = np.array([0.5, 1.0, 2.5])
        scaled = law.rescaled(4.0)
        assert np.allclose(scaled(s), 4.0 * law(s), rtol=1e-12, atol=0)
        assert np.allclose(scaled.derivative(s), 4.0 * law.derivative(s), rtol=1e-12, atol=0)
        assert np.allclose(scaled.potential(s), 4.0 * law.potential(s), rtol=1e-8, atol=0)

    def test_rescaled_tabulated_law_keeps_its_knots(self):
        law = dyn.TabulatedLaw([0.1, 1, 2, 4], [0.01, 1, 4, 16]).rescaled(4.0)
        assert np.isfinite(law.potential(np.array([0.05, 1.5, 3.0]))).all()

    def test_equilibrium_maps_to_equilibrium(self, grid, params):
        state = dyn.equilibrium_state(grid, 2.0)
        for l in (1, 2, 4):
            scaled, _ = dyn.scaling_transform(state, params, l)
            assert sp.lebesgue_norm(scaled.u, INF) == 0.0
            assert abs(scaled.rho.mean - 2.0) < 1e-14

    def test_unrepresentable_scale_rejected(self, grid, params):
        rng = np.random.default_rng(0)
        state = dyn.FluidState(
            sp.ScalarField.from_samples(
                grid, 1.5 + 0.1 * sp.random_field(grid, rng).samples),
            sp.VectorField.zero(grid), 0.0)
        with pytest.raises(ValueError, match="representable"):
            dyn.scaling_transform(state, params, 4)

    def test_non_power_of_two_rejected(self, grid, params):
        state = dyn.equilibrium_state(grid)
        with pytest.raises(ValueError):
            dyn.scaling_transform(state, params, 3)


class TestFlowMap:
    def _steady_trajectory(self, grid, u, t_end, n_snap):
        times = np.linspace(0.0, t_end, n_snap)
        states = [dyn.FluidState(sp.ScalarField.constant(grid, 1.0), u, t)
                  for t in times]
        cfg = dyn.SolverConfig(t_end=t_end, dt=times[1] - times[0])
        return dyn.Trajectory(list(states), "completed", t_end, cfg,
                              dyn.FluidParams(0.1, 0.1, LAW))

    def test_zero_velocity(self, grid):
        traj = self._steady_trajectory(grid, sp.VectorField.zero(grid), 1.0, 11)
        seeds = np.array([[1.0, 2.0], [4.0, 0.5]])
        paths = dyn.flow_map(traj, seeds)
        assert np.max(np.abs(paths.positions - seeds[None])) == 0.0

    def test_rigid_translation(self, grid):
        c = 0.7
        u_s = np.zeros((2,) + grid.shape)
        u_s[0] = c
        u = sp.VectorField.from_samples(grid, u_s)
        traj = self._steady_trajectory(grid, u, 2.0, 21)
        seeds = np.array([[0.5, 1.0]])
        paths = dyn.flow_map(traj, seeds)
        expect = seeds[None] + np.stack(
            [np.stack([c * traj.times, np.zeros_like(traj.times)], axis=1)], axis=1)
        assert np.max(np.abs(paths.positions - expect)) < 1e-10

    def test_vortex_convergence_order(self, grid):
        # steady vortex: O(dt^4) deviation of the returning particle
        state = dyn.stream_vortex_state(grid, 1.0, 1.0)
        seeds = np.array([[np.pi / 2 + 0.4, np.pi / 2]])
        errs = []
        for n in (33, 65, 129):
            traj = self._steady_trajectory(grid, state.u, 2.0, n)
            a = dyn.flow_map(traj, seeds).positions[-1]
            traj_fine = self._steady_trajectory(grid, state.u, 2.0, 1025)
            ref = dyn.flow_map(traj_fine, seeds).positions[-1]
            errs.append(np.max(np.abs(a - ref)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(3.4 < o < 4.6 for o in orders)


class TestLinearSplit:
    def test_vacuum_names_the_first_state_at_or_below_zero(self, grid, params):
        """A trajectory holding a density <= 0 is refused with the time and
        minimum of the first such state, not the run's stop time or the
        least minimum over all states."""
        def state(t, low):
            rho = np.ones(grid.shape)
            rho[0, 0] = low
            return dyn.FluidState(sp.ScalarField.from_samples(grid, rho),
                                  sp.VectorField.zero(grid), t)

        traj = dyn.Trajectory([state(0.0, 1.0), state(0.1, -0.2), state(0.2, -0.5)],
                              "completed", 0.3, dyn.SolverConfig(t_end=0.3, dt=0.1), params)
        with pytest.raises(dyn.VacuumError) as exc:
            dyn.linear_split(traj)
        assert (exc.value.time, exc.value.min_rho) == (0.1, -0.2)

    def test_constant_pressure_gives_zero_w2(self, grid):
        # rho constant: grad P = 0, so w2 = 0 and w1 = u
        params = dyn.FluidParams(0.1, 0.1, LAW)
        state = dyn.stream_vortex_state(grid, 1.0, 0.3)
        cfg = dyn.SolverConfig(t_end=0.05, dt=0.005, snapshot_every=2)
        traj = dyn.run(state, params, cfg)
        # density stays constant only if div u = 0 stays true; it does not
        # exactly, so use a very short window and a loose tolerance for w2
        split = dyn.linear_split(traj)
        w2_mag = max(sp.lebesgue_norm(w, INF) for w in split.w2)
        u_mag = sp.lebesgue_norm(state.u, INF)
        assert split.superposition_residual < 1e-12
        assert w2_mag < 0.05 * u_mag

    def test_superposition_on_forced_run(self, manufactured):
        grid = sp.TorusGrid(2, 32)
        cfg = dyn.SolverConfig(t_end=0.2, dt=0.01, snapshot_every=5)
        traj = dyn.run(manufactured.state(grid, 0.0), manufactured.params(), cfg)
        split = dyn.linear_split(traj)
        assert split.superposition_residual < 1e-11
        assert len(split.w1) == len(traj.states)

    def test_w1_energy_bounded_by_initial(self, manufactured):
        grid = sp.TorusGrid(2, 32)
        cfg = dyn.SolverConfig(t_end=0.3, dt=0.01, snapshot_every=5)
        traj = dyn.run(manufactured.state(grid, 0.0), manufactured.params(), cfg)
        split = dyn.linear_split(traj)
        s0 = traj.states[0]
        e0 = float(np.sum(s0.rho.samples * np.sum(s0.u.samples ** 2, axis=0))
                   ) * grid.cell_volume
        for s, w in zip(traj.states, split.w1):
            e = float(np.sum(s.rho.samples * np.sum(w.samples ** 2, axis=0))
                      ) * grid.cell_volume
            assert e <= 5.0 * e0  # empirically finite constant


@pytest.fixture(scope="module")
def grid3():
    return sp.TorusGrid(3, 16)


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory `a` views (`a` itself if it owns it)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _sample_stack(state: dyn.FluidState) -> np.ndarray:
    """The one array that the fields of `state` hold, after checking that it
    is an aligned (1 + dim, M, ..., M) float64 stack of samples with the
    density in row 0 and the velocity in rows 1.., and that neither field
    holds coefficients."""
    grid = state.grid
    stack = _owner(state.rho._samples)
    assert _owner(state.u._samples) is stack
    assert stack.dtype == np.float64 and stack.shape == (1 + grid.dim,) + grid.shape
    assert stack.flags.aligned and stack.ctypes.data % 8 == 0
    assert state.rho._samples.ctypes.data == stack[0].ctypes.data
    assert state.u._samples.ctypes.data == stack[1:].ctypes.data
    assert state.rho._coeffs is None and state.u._coeffs is None
    return stack


class TestThreeDimensions:
    """The solver path at N = 3 (small 16^3 grid)."""

    def test_taylor_green_run_and_conservation(self, grid3):
        params = dyn.FluidParams(0.05, 0.05, LAW)
        state = dyn.stream_vortex_state(grid3, 1.0, 0.4)
        traj = dyn.run(state, params,
                       dyn.SolverConfig(t_end=0.05, dt=0.005, snapshot_every=5))
        assert traj.stop_reason == "completed"
        m0 = traj.states[0].mass
        assert max(abs(s.mass - m0) for s in traj.states) < 1e-12 * abs(m0)

    def test_stored_state_is_one_sample_stack(self, grid3, monkeypatch):
        """Every stored state holds one fresh, aligned (1 + dim) M^N float64
        stack of samples, rho then u, and nothing else: it views neither the
        step's coefficients y nor their samples y_s, which are kept here to
        tell them apart."""
        seen = []

        def kept(f):
            return lambda *args: seen.append(f(*args)) or seen[-1]

        monkeypatch.setattr(dyn, "to_samples", kept(dyn.to_samples))
        monkeypatch.setattr(dyn._Stepper, "step", kept(dyn._Stepper.step))
        traj = dyn.run(dyn.density_bump_state(grid3, u_amplitude=0.2),
                       dyn.FluidParams(0.05, 0.05, LAW),
                       dyn.SolverConfig(t_end=0.02, dt=0.005, snapshot_every=2))
        # y_s of the start, and per step y, three stages' samples and y_s
        steps = [y for y, _ in (a for a in seen if isinstance(a, tuple))]
        arrays = steps + [a for a in seen if isinstance(a, np.ndarray)]
        assert len(traj) == 3 and len(steps) == 4 and len(arrays) == 1 + 4 * 5
        for s in traj.states:
            stack = _sample_stack(s)
            assert not any(np.shares_memory(stack, a) for a in arrays)

    def test_checkpoint_read_is_one_aligned_stack(self, grid3, tmp_path):
        """A checkpoint whose header is not a multiple of 8 bytes long is
        read into one aligned stack too, not viewed at its file offset."""
        state = dyn.density_bump_state(grid3, u_amplitude=0.2)
        path = str(tmp_path / "state.nsb")
        dyn.write_checkpoint(path, dyn.FluidState(state.rho, state.u, 0.01))
        assert len(open(path, "rb").readline()) % 8 != 0
        back = dyn.read_checkpoint(path)
        stack = _sample_stack(back)
        assert np.array_equal(stack[0], state.rho.samples)
        assert np.array_equal(stack[1:], state.u.samples)

    def test_manufactured_accuracy(self, grid3):
        ms = dyn.ManufacturedSolution(LAW, 0.05, 0.05,
                                      amplitude=0.3, flux_constant=0.3)
        traj = dyn.run(ms.state(grid3, 0.0), ms.params(),
                       dyn.SolverConfig(t_end=0.05, dt=0.005,
                                        snapshot_every=10 ** 9))
        exact = ms.state(grid3, traj.states[-1].t)
        assert sp.lebesgue_norm(traj.states[-1].u - exact.u, 2) < 1e-6

    def test_commutator_split_3d(self, grid3):
        from torusns import littlewood_paley as lp
        part = lp.build_partition(grid3)
        rng = np.random.default_rng(0)
        u = sp.random_vector_field(grid3, rng)
        a = sp.random_field(grid3, rng)
        rq = lp.transport_commutator(part, u, a, 1)
        total = sp.ScalarField.zero(grid3)
        for piece in lp.eight_way_split(part, u, a, 1):
            total = total + piece
        assert sp.lebesgue_norm(total - rq, np.inf) < 1e-10


class TestCheckpoint:
    def test_roundtrip(self, grid, params, tmp_path):
        state = dyn.stream_vortex_state(grid, 1.2, 0.4)
        state = dyn.FluidState(state.rho, state.u, 0.75)
        path = os.path.join(tmp_path, "state.nsb")
        dyn.write_checkpoint(path, state)
        back = dyn.read_checkpoint(path)
        assert back.t == 0.75
        assert np.array_equal(back.rho.samples, state.rho.samples)
        assert np.array_equal(back.u.samples, state.u.samples)

    def test_read_state_shares_the_run_grid_arrays(self, grid, tmp_path):
        """Every equal grid holds the same frozen frequency arrays, so a
        checkpoint read builds none of them."""
        path = os.path.join(tmp_path, "state.nsb")
        dyn.write_checkpoint(path, dyn.stream_vortex_state(grid))
        back = dyn.read_checkpoint(path).grid
        assert back == grid
        for name in ("axis_frequencies", "k_squared", "k_radius", "nyquist_mask",
                     "mode_weight"):
            assert getattr(back, name) is getattr(grid, name), name
        for name in ("frequency_mesh", "partner_mesh"):
            assert all(a is b for a, b in zip(getattr(back, name), getattr(grid, name)))

    def test_malformed_magic_names_offset(self, tmp_path):
        path = os.path.join(tmp_path, "bad.nsb")
        with open(path, "wb") as fh:
            fh.write(b"WRONG 2 32 3 0.0\n")
        with pytest.raises(dyn.CheckpointError, match="offset 0"):
            dyn.read_checkpoint(path)

    def test_malformed_grid_token_names_offset(self, tmp_path):
        path = os.path.join(tmp_path, "bad.nsb")
        with open(path, "wb") as fh:
            fh.write(b"NSLAB1 2 thirty 3 0.0\n")
        with pytest.raises(dyn.CheckpointError, match="offset 9"):
            dyn.read_checkpoint(path)

    @pytest.mark.parametrize("header", [b"NSLAB1 4 32 5 0.0", b"NSLAB1 2 24 3 0.0",
                                        b"NSLAB1 3 4 4 0.0", b"NSLAB1 1 32 2 0.0"])
    def test_bad_grid_header_is_a_checkpoint_error(self, header, tmp_path):
        path = os.path.join(tmp_path, "bad.nsb")
        with open(path, "wb") as fh:
            fh.write(header + b"\n" + bytes(64))
        with pytest.raises(dyn.CheckpointError, match="header at byte offset 0"):
            dyn.read_checkpoint(path)

    def test_header_checked_before_grid_is_built(self, tmp_path, monkeypatch):
        """A large M with a short payload fails before any M^dim allocation."""
        def no_grid(*args):
            raise AssertionError("grid built before the payload length was checked")
        monkeypatch.setattr(dyn, "TorusGrid", no_grid)
        path = os.path.join(tmp_path, "short.nsb")
        with open(path, "wb") as fh:
            fh.write(b"NSLAB1 3 65536 4 0.0\n" + bytes(8))
        with pytest.raises(dyn.CheckpointError, match="expected 9007199254740992"):
            dyn.read_checkpoint(path)

    @pytest.mark.parametrize("token", [b"nan", b"inf", b"-inf", b"1e999"])
    def test_non_finite_time_is_a_checkpoint_error(self, grid, token, tmp_path):
        path = os.path.join(tmp_path, "t.nsb")
        dyn.write_checkpoint(path, dyn.equilibrium_state(grid))
        data = open(path, "rb").read()
        header, body = data.split(b"\n", 1)
        with open(path, "wb") as fh:
            fh.write(header.rsplit(b" ", 1)[0] + b" " + token + b"\n" + body)
        with pytest.raises(dyn.CheckpointError, match="non-finite time"):
            dyn.read_checkpoint(path)

    @pytest.fixture(scope="class")
    def small_checkpoint(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("fuzz") / "state.nsb")
        state = dyn.stream_vortex_state(sp.TorusGrid(2, 8), 1.0, 0.3)
        dyn.write_checkpoint(path, dyn.FluidState(state.rho, state.u, 0.25))
        return path, open(path, "rb").read()

    @settings(max_examples=300, deadline=None)
    @given(time_token=st.one_of(st.none(), st.binary(max_size=8),
                                st.sampled_from([b"nan", b"inf", b"-Infinity", b"1e999"])),
           edits=st.lists(st.tuples(st.one_of(st.integers(0, 40), st.integers(0, 2000)),
                                    st.binary(min_size=1, max_size=8)), max_size=4),
           keep=st.one_of(st.none(), st.integers(0, 2000)))
    def test_mutated_bytes_give_finite_time_or_checkpoint_error(
            self, small_checkpoint, time_token, edits, keep):
        path, original = small_checkpoint
        data = bytearray(original)
        if time_token is not None:
            header, body = bytes(data).split(b"\n", 1)
            data = bytearray(header.rsplit(b" ", 1)[0] + b" " + time_token + b"\n" + body)
        for pos, chunk in edits:
            pos %= len(data)
            data[pos:pos + len(chunk)] = chunk
        mutated = os.path.join(os.path.dirname(path), "mutated.nsb")
        with open(mutated, "wb") as fh:
            fh.write(bytes(data[:keep]))
        try:
            state = dyn.read_checkpoint(mutated)
        except dyn.CheckpointError:
            return
        assert math.isfinite(state.t)

    def test_payload_shorter_than_its_checked_length(self, grid, tmp_path, monkeypatch):
        """A file that is shorter when read than when its length was checked
        (truncated in between) is an error, not a state of unread samples."""
        path = os.path.join(tmp_path, "state.nsb")
        dyn.write_checkpoint(path, dyn.equilibrium_state(grid))
        checked = os.path.getsize(path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-8])
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            fstat(fd)[:6] + (checked,) + fstat(fd)[7:]))
        with pytest.raises(dyn.CheckpointError, match="payload ended before 24576 bytes"):
            dyn.read_checkpoint(path)

    def test_truncated_payload_names_offset(self, grid, tmp_path):
        state = dyn.equilibrium_state(grid)
        path = os.path.join(tmp_path, "trunc.nsb")
        dyn.write_checkpoint(path, state)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-8])
        with pytest.raises(dyn.CheckpointError, match="byte offset"):
            dyn.read_checkpoint(path)
