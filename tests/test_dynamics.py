"""Solver: RHS, stepping, conservation, scaling, flow map, linear split."""

import math
import os

import numpy as np
import pytest

from torusns import spectral as sp
from torusns import dynamics as dyn

INF = math.inf
LAW = dyn.PowerLaw(1.0, 2.0)
_KNOTS = np.geomspace(1e-3, 8.0, 40)
# a tabulated law through linear samples interpolates exactly, so P(rho)
# stays band-limited and the scaled state remains representable
EVERY_LAW = (LAW, dyn.IsothermalLaw(1.0), dyn.TabulatedLaw(_KNOTS, 0.5 * _KNOTS))


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

    def test_gamma_one_requires_explicit_log_form(self):
        law = dyn.PowerLaw(1.0, 1.0)
        with pytest.raises(ValueError, match="IsothermalLaw"):
            law.potential(1.0)
        iso = dyn.IsothermalLaw(1.0)
        assert abs(iso.potential(2.0) - 2.0 * math.log(2.0)) < 1e-12
        assert iso.potential(0.0) == 0.0

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

    def test_strict_regime_flag(self):
        dyn.FluidParams(1.0, 1.0, LAW).validate(3, strict_regime=True)
        with pytest.raises(ValueError):
            dyn.FluidParams(1.0, 1.3, LAW).validate(3, strict_regime=True)


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

    def test_vacuum_rejected(self, grid, params):
        rho = sp.ScalarField.constant(grid, 0.0)
        state = dyn.FluidState(rho, sp.VectorField.zero(grid), 0.0)
        with pytest.raises(dyn.VacuumError):
            dyn.rhs_eval(state, params)


class TestStep:
    def test_equilibrium_fixed_point(self, grid, params):
        state = dyn.equilibrium_state(grid, 1.3)
        new = dyn.step(state, params, dyn.SolverConfig(t_end=1.0, dt=0.01))
        assert sp.lebesgue_norm(new.rho - state.rho, INF) < 1e-14
        assert sp.lebesgue_norm(new.u, INF) < 1e-14

    def test_cfl_violation_raises(self, grid, params):
        state = dyn.stream_vortex_state(grid, 1.0, 0.5)
        with pytest.raises(dyn.CflError):
            dyn.step(state, params, dyn.SolverConfig(t_end=1.0, dt=10.0))

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

    def test_monitor_trigger(self, grid, params):
        state = dyn.stream_vortex_state(grid)

        def monitor(s):
            return "halfway" if s.t > 0.05 else None

        traj = dyn.run(state, params, dyn.SolverConfig(t_end=1.0, dt=0.01),
                       monitors=[monitor])
        assert traj.stop_reason == "monitor:halfway"

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

    def test_gap_tolerance(self, grid):
        traj = self._steady_trajectory(grid, sp.VectorField.zero(grid), 1.0, 5)
        with pytest.raises(ValueError, match="gap"):
            dyn.flow_map(traj, np.array([[0.0, 0.0]]), max_gap=0.1)


class TestLinearSplit:
    def test_constant_pressure_gives_zero_w2(self, grid):
        # rho constant: grad P = 0, so w2 = 0 and w1 = u
        params = dyn.FluidParams(0.1, 0.1, LAW)
        state = dyn.stream_vortex_state(grid, 1.0, 0.3)
        cfg = dyn.SolverConfig(t_end=0.05, dt=0.005, snapshot_every=2)
        traj = dyn.run(state, params, cfg)
        # density stays constant only if div u = 0 stays true; it does not
        # exactly, so use a very short window and a loose tolerance for w2
        split = dyn.linear_split(traj, params)
        w2_mag = max(sp.lebesgue_norm(w, INF) for w in split.w2)
        u_mag = sp.lebesgue_norm(state.u, INF)
        assert split.superposition_residual < 1e-12
        assert w2_mag < 0.05 * u_mag

    def test_superposition_on_forced_run(self, manufactured):
        grid = sp.TorusGrid(2, 32)
        cfg = dyn.SolverConfig(t_end=0.2, dt=0.01, snapshot_every=5)
        traj = dyn.run(manufactured.state(grid, 0.0), manufactured.params(), cfg)
        split = dyn.linear_split(traj, manufactured.params())
        assert split.superposition_residual < 1e-11
        assert len(split.w1) == len(traj.states)

    def test_w1_energy_bounded_by_initial(self, manufactured):
        grid = sp.TorusGrid(2, 32)
        cfg = dyn.SolverConfig(t_end=0.3, dt=0.01, snapshot_every=5)
        traj = dyn.run(manufactured.state(grid, 0.0), manufactured.params(), cfg)
        split = dyn.linear_split(traj, manufactured.params())
        e0 = sp.l2_inner(
            sp.ScalarField.from_samples(
                grid, traj.states[0].rho.samples * np.sum(
                    traj.states[0].u.samples ** 2, axis=0)),
            sp.ScalarField.constant(grid, 1.0))
        for s, w in zip(traj.states, split.w1):
            e = float(np.sum(s.rho.samples * np.sum(w.samples ** 2, axis=0))
                      ) * grid.cell_volume
            assert e <= 5.0 * e0  # empirically finite constant


@pytest.fixture(scope="module")
def grid3():
    return sp.TorusGrid(3, 16)


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

    def test_truncated_payload_names_offset(self, grid, tmp_path):
        state = dyn.equilibrium_state(grid)
        path = os.path.join(tmp_path, "trunc.nsb")
        dyn.write_checkpoint(path, state)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-8])
        with pytest.raises(dyn.CheckpointError, match="byte offset"):
            dyn.read_checkpoint(path)
