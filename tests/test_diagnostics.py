"""Diagnostics: potentials, effective quantities, residual suites, ledgers,
and blow-up monitors."""

import functools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from torusns import spectral as sp
from torusns import dynamics as dyn
from torusns import diagnostics as diag
from torusns import littlewood_paley as lp

INF = math.inf
LAW = dyn.PowerLaw(1.0, 2.0)


@pytest.fixture(scope="module")
def grid():
    return sp.TorusGrid(2, 32)


@pytest.fixture(scope="module")
def part(grid):
    return lp.build_partition(grid)


@pytest.fixture(scope="module")
def params():
    return dyn.FluidParams(0.07, 0.04, LAW)


@pytest.fixture(scope="module")
def random_state(grid):
    rng = np.random.default_rng(11)
    rho = sp.ScalarField.from_samples(
        grid, 1.5 + 0.3 * sp.random_field(grid, rng).samples)
    return dyn.FluidState(rho, sp.random_vector_field(grid, rng), 0.0)


@pytest.fixture(scope="module")
def vortex_run():
    grid = sp.TorusGrid(2, 32)
    params = dyn.FluidParams(0.05, 0.05, LAW)
    state = dyn.stream_vortex_state(grid, 1.0, 0.5)
    cfg = dyn.SolverConfig(t_end=0.5, dt=0.005, snapshot_every=10)
    return dyn.run(state, params, cfg), params


@pytest.fixture(scope="module")
def manufactured_run():
    ms = dyn.ManufacturedSolution(LAW, mu=0.05, lam=0.05,
                                  amplitude=0.3, flux_constant=0.3)
    grid = sp.TorusGrid(2, 32)
    cfg = dyn.SolverConfig(t_end=0.2, dt=0.01, snapshot_every=1)
    return dyn.run(ms.state(grid, 0.0), ms.params(), cfg), ms.params(), ms


class TestPotentials:
    def test_gamma_two_closed_form(self, grid):
        rho = sp.ScalarField.constant(grid, 3.0)
        pot = diag.pressure_potential(dyn.PowerLaw(2.0, 2.0), rho)
        # Pi(rho) = a rho^2 / (gamma - 1) = 2 * 9
        assert abs(pot.samples[0, 0] - 18.0) < 1e-12

    def test_zero_density(self, grid):
        rho = sp.ScalarField.constant(grid, 0.0)
        assert sp.lebesgue_norm(diag.pressure_potential(LAW, rho), INF) == 0.0
        assert diag.k_function(LAW, 0.0) == 0.0

    def test_quadrature_matches_closed_form(self, random_state):
        """The Gauss-Legendre potential that `k_function` uses for tabulated
        laws, against the power law's closed form."""
        closed = diag.pressure_potential(LAW, random_state.rho).samples
        quad = diag._potential_quadrature(LAW, random_state.rho.samples)
        assert np.max(np.abs(quad - closed)) / np.max(np.abs(closed)) < 1e-10

    def test_k_function_closed_form(self):
        # k(s) = a^2 s^{2 gamma} (2 gamma - 3/2)/(2 gamma - 1)
        val = diag.k_function(LAW, 2.0)
        assert abs(val - 16.0 * 2.5 / 3.0) < 1e-12

    def test_k_function_quadrature_path(self):
        s = np.geomspace(1e-6, 4.0, 500)
        tab = dyn.TabulatedLaw(s, LAW(s))
        x = np.array([0.5, 1.5, 2.0])
        assert np.max(np.abs(diag.k_function(tab, x) - diag.k_function(LAW, x))) < 1e-4


class TestEffectiveQuantities:
    def test_g_reduces_to_divergence_for_constant_density(self, grid, params):
        state = dyn.stream_vortex_state(grid, 1.3, 0.4)
        g = diag.effective_pressure(state, params, diag.pressure_field(state, params))
        ref = sp.divergence(state.u) * params.nu
        assert sp.lebesgue_norm(g - ref, INF) < 1e-12

    def test_g_and_f_at_rest(self, grid, params):
        state = dyn.equilibrium_state(grid, 1.7)
        snap = diag._Snapshot(state, params)
        assert sp.lebesgue_norm(snap.effective, INF) == 0.0
        log_rho, flux = snap.log_parts
        f = log_rho * params.nu + flux
        assert abs(f.mean - params.nu * math.log(1.7)) < 1e-12
        assert sp.lebesgue_norm(f - sp.ScalarField.constant(grid, f.mean), INF) < 1e-12

    @pytest.mark.parametrize("reading", ["adopted", "rejected"])
    def test_f_requires_positive_density(self, grid, params, reading):
        states = [dyn.FluidState(sp.ScalarField.constant(grid, 0.0),
                                 sp.VectorField.zero(grid), t) for t in (0.0, 0.1, 0.2)]
        traj = dyn.Trajectory(states, "completed", 0.2,
                              dyn.SolverConfig(t_end=0.2, dt=0.1), params)
        with pytest.raises(dyn.VacuumError):
            diag.f_transport_residual(traj, reading)

    def test_v1_of_constant_density(self, grid, params):
        state = dyn.stream_vortex_state(grid, 1.0, 0.5)
        v1, v = diag.effective_velocity(state, params, diag.pressure_field(state, params))
        assert sp.lebesgue_norm(v, INF) < 1e-12
        assert sp.lebesgue_norm(v1 - state.u, INF) < 1e-12

    def test_v1_of_still_fluid_is_gradient(self, grid, params, random_state):
        state = dyn.FluidState(random_state.rho, sp.VectorField.zero(grid), 0.0)
        v1, v = diag.effective_velocity(state, params, diag.pressure_field(state, params))
        assert sp.lebesgue_norm(v1 + v * (1.0 / params.nu), INF) < 1e-13
        assert sp.lebesgue_norm(sp.curl(v1), INF) < 1e-11

    def test_exact_identities_on_random_states(self, grid, params):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rho = sp.ScalarField.from_samples(
                grid, 1.5 + 0.3 * sp.random_field(grid, rng).samples)
            state = dyn.FluidState(rho, sp.random_vector_field(grid, rng), 0.0)
            res = diag.v1_identities(state, params)
            assert all(v < 1e-11 for v in res.values())

    def test_bogovskii_right_inverse(self, grid):
        rng = np.random.default_rng(3)
        h = sp.random_field(grid, rng) + sp.ScalarField.constant(grid, 0.9)
        out = sp.divergence(diag.bogovskii(h))
        ref = h - sp.ScalarField.constant(grid, h.mean)
        assert sp.lebesgue_norm(out - ref, INF) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field, value", [
    ("rho", -0.1), ("rho", 0.0), ("rho", math.nan), ("rho", math.inf), ("rho", -math.inf),
    ("u", math.nan), ("u", math.inf), ("u", -math.inf)],
    ids=["rho-negative", "rho-zero", "rho-nan", "rho-inf", "rho-minus-inf", "u-nan", "u-inf",
         "u-minus-inf"])
@pytest.mark.parametrize("report", [
    diag.energy_ledger, diag.density_bound_ledger, diag.grad_omega_budget,
    diag.v1_energy_ledger, diag.f_transport_residual, diag.elliptic_identities,
    lambda traj: diag.integrability_gain(traj, 4),
    lambda traj: diag.transport_estimate_report(traj, lp.build_partition(traj.initial.grid),
                                                0.5, INF, INF),
    lambda traj: diag.compute_diagnostics(traj, diag.MonitorConfig(),
                                          lp.build_partition(traj.initial.grid)),
    lambda traj: diag.blowup_monitor(traj, diag.MonitorConfig()),
], ids=["energy", "density_bounds", "omega_budget", "v1_energy", "f_transport", "elliptic",
        "integrability", "transport", "compute_diagnostics", "blowup_monitor"])
def test_every_pass_refuses_a_stored_state(random_state, params, report, field, value):
    """A trajectory state with a NaN or inf sample stops every ledger and
    pass with `NonFiniteError` naming the field, and one whose density is at
    or below zero with `VacuumError` and its minimum, both at that state's
    own time, with no warning from a log or power of a negative density or
    a non-finite sample."""
    grid = random_state.grid
    rho, u = random_state.rho.samples.copy(), random_state.u.samples.copy()
    (rho if field == "rho" else u[1])[3, 4] = value
    bad = dyn.FluidState(sp.ScalarField.from_samples(grid, rho),
                         sp.VectorField.from_samples(grid, u), 0.2)
    states = [dyn.FluidState(random_state.rho, random_state.u, t) for t in (0.0, 0.1)]
    traj = dyn.Trajectory(states + [bad, dyn.FluidState(random_state.rho, random_state.u, 0.3)],
                          "completed", 0.3, dyn.SolverConfig(t_end=0.3, dt=0.1), params)
    with pytest.raises(dyn.SolverStop) as exc:
        report(traj)
    assert exc.value.time == 0.2
    if math.isfinite(value):
        assert type(exc.value) is dyn.VacuumError and exc.value.min_rho == value
    else:
        assert type(exc.value) is dyn.NonFiniteError and exc.value.reason == "nonfinite"
        assert str(exc.value).startswith("density" if field == "rho" else "velocity")


class TestCoifman:
    def test_zero_velocity(self, grid, params, random_state):
        state = dyn.FluidState(random_state.rho, sp.VectorField.zero(grid), 0.0)
        comm, norm = diag.coifman_commutator(state)
        assert sp.lebesgue_norm(comm, INF) == 0.0 and norm == 0.0

    def test_constant_velocity(self, grid, random_state):
        u = sp.VectorField.from_components(
            [sp.ScalarField.constant(grid, 0.8),
             sp.ScalarField.constant(grid, -0.3)])
        comm, _ = diag.coifman_commutator(dyn.FluidState(random_state.rho, u, 0.0))
        assert sp.lebesgue_norm(comm, INF) < 1e-12

    def test_continuity_constant_stable(self, grid):
        rep1 = diag.coifman_constant_study(grid, 10, seed=0)
        rep2 = diag.coifman_constant_study(grid, 20, seed=0)
        # the two sup ratios differ by less than half the larger one
        assert rep1.sup_ratio > 0
        assert abs(rep1.sup_ratio - rep2.sup_ratio) < 0.5 * max(rep1.sup_ratio, rep2.sup_ratio)

    def test_study_matches_hand_loop(self, grid):
        rep = diag.coifman_constant_study(grid, 3, seed=2)
        ref = []
        for i in range(3):
            rng = np.random.default_rng(2 + i)
            r = sp.random_field(grid, rng).samples
            rho = sp.pointwise(grid, 1.0 + 0.4 * r / max(1e-9, np.max(np.abs(r))),
                               dealiased=False)
            u = sp.random_vector_field(grid, rng)
            comm, norm = diag.coifman_commutator(dyn.FluidState(rho, u, 0.0))
            assert norm == sp.sobolev_norm(comm, 1, 1.0)
            den = sp.sobolev_norm(u, 1, 2.0) * sp.lebesgue_norm(sp.scale_vector(rho, u), 2.0)
            ref.append(norm / den if den > 0 else 0.0)
        assert rep.size == 3 and rep.ratios == ref and rep.sup_ratio == max(ref)

    def test_study_density_amplitude_is_exact(self, grid, monkeypatch):
        """The density perturbation is normalised by its own sup, so every
        member has max |rho - 1| = 0.4."""
        seen = []
        original = diag.coifman_commutator

        def spy(state, *args):
            seen.append(state)
            return original(state, *args)
        monkeypatch.setattr(diag, "coifman_commutator", spy)
        diag.coifman_constant_study(grid, 4, seed=3)
        assert len(seen) == 4
        for state in seen:
            assert abs(np.max(np.abs(state.rho.samples - 1.0)) - 0.4) < 1e-12


def _material_series(traj, read):
    """`_material_derivative` of the field read(snapshot) at every snapshot
    of the run, through one `feed` pass."""
    out = []

    class Probe:
        differentiates = True

        def add(self, window):
            out.append(diag._material_derivative(window, read))

    diag.feed([Probe()], traj.params, len(traj), traj.states.__getitem__)
    return out


def _series_reader(traj, fields):
    """A reader of the explicit field series `fields`, one per snapshot of
    the run (whose times are distinct)."""
    index = {t: n for n, t in enumerate(traj.times)}
    return lambda snap: fields[index[snap.t]]


class TestMaterialDerivative:
    def test_time_constant_field_at_rest(self, grid, params):
        state = dyn.equilibrium_state(grid, 1.0)
        cfg = dyn.SolverConfig(t_end=0.05, dt=0.01)
        traj = dyn.run(state, params, cfg)
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        series = _material_series(traj, _series_reader(traj, [f] * len(traj)))
        assert len(series) == len(traj)
        assert all(sp.lebesgue_norm(s, INF) < 1e-12 for s in series)

    def test_equilibrium_u_dot_zero(self, grid, params):
        traj = dyn.run(dyn.equilibrium_state(grid, 1.0), params,
                       dyn.SolverConfig(t_end=0.05, dt=0.01))
        for dot in _material_series(traj, lambda snap: snap.state.u):
            assert sp.lebesgue_norm(dot, INF) < 1e-12

    def test_advected_scalar_against_characteristics(self, grid):
        # rigid translation: a(t,x) = a0(x - c t) has zero material derivative
        c = 0.6
        times = np.linspace(0.0, 0.5, 11)
        u_s = np.zeros((2,) + grid.shape)
        u_s[0] = c
        u = sp.VectorField.from_samples(grid, u_s)
        states, fields = [], []
        x, y = grid.coordinates()
        for t in times:
            states.append(dyn.FluidState(sp.ScalarField.constant(grid, 1.0), u, t))
            fields.append(sp.ScalarField.from_samples(grid, np.sin(x - c * t)))
        traj = dyn.Trajectory(states, "completed", 0.5,
                              dyn.SolverConfig(t_end=0.5, dt=0.05),
                              dyn.FluidParams(0.1, 0.1, LAW))
        series = _material_series(traj, _series_reader(traj, fields))
        err = max(sp.lebesgue_norm(s, INF) for s in series[1:-1])
        assert err < 1e-3  # O(dt^2) with dt = 0.05

    def test_matches_per_product_reference(self, vortex_run):
        """u . grad f summed in physical space and dealiased once equals the
        sum of dealiased products, for a scalar and a vector series."""
        traj, _ = vortex_run
        grid = traj.initial.grid
        for series in ([sp.divergence(s.u) for s in traj.states],
                       [s.u for s in traj.states]):
            dt = np.gradient(np.stack([f.coeffs for f in series]), traj.times,
                             axis=0, edge_order=2)
            got_series = _material_series(traj, _series_reader(traj, series))
            assert len(got_series) == len(traj)
            for state, f, d, got in zip(traj.states, series, dt, got_series):
                comps = f.components if f.rank else [f]
                adv = [sum((sp.multiply(state.u.component(i), sp.partial(c, i))
                            for i in range(grid.dim)), sp.ScalarField.zero(grid))
                       for c in comps]
                ref = np.stack([a.coeffs for a in adv]).reshape(f.coeffs.shape) + d
                assert np.max(np.abs(got.coeffs - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_needs_three_snapshots(self, grid, params):
        state = dyn.equilibrium_state(grid)
        traj = dyn.Trajectory([state, state], "completed", 0.0,
                              dyn.SolverConfig(t_end=1.0, dt=1.0), params)
        with pytest.raises(ValueError):
            _material_series(traj, lambda snap: snap.state.u)

    def test_undeclared_differentiation_raises(self, vortex_run):
        """A pass whose accumulators declare no time derivative holds one
        snapshot, and a time derivative on it names the missing declaration."""
        traj, _ = vortex_run

        class Undeclared:
            def add(self, window):
                window.time_derivative(lambda snap: snap.state.u)

        with pytest.raises(RuntimeError, match="differentiates"):
            diag.feed([Undeclared()], traj.params, len(traj), traj.states.__getitem__)


class TestTransportResidualF:
    def test_adopted_reading_converges(self, manufactured_run):
        traj, params, ms = manufactured_run
        grid = traj.initial.grid
        residuals = {}
        for dt in (0.02, 0.01):
            cfg = dyn.SolverConfig(t_end=0.2, dt=dt, snapshot_every=1)
            t = dyn.run(ms.state(grid, 0.0), params, cfg)
            residuals[dt] = diag.f_transport_residual(t, "adopted").max()
        assert residuals[0.02] / residuals[0.01] > 3.0

    def test_rejected_reading_stalls(self, manufactured_run):
        traj, params, ms = manufactured_run
        grid = traj.initial.grid
        stalls = {}
        for dt in (0.02, 0.01):
            cfg = dyn.SolverConfig(t_end=0.2, dt=dt, snapshot_every=1)
            t = dyn.run(ms.state(grid, 0.0), params, cfg)
            stalls[dt] = diag.f_transport_residual(t, "rejected").max()
        assert stalls[0.02] / stalls[0.01] < 1.5  # no convergence


class TestEllipticIdentities:
    def test_equilibrium_residuals_vanish(self, grid, params):
        traj = dyn.run(dyn.equilibrium_state(grid, 1.0), params,
                       dyn.SolverConfig(t_end=0.05, dt=0.01))
        res = diag.elliptic_identities(traj)
        for series in res.values():
            assert series.max() < 1e-12

    def test_convergence_and_sign_audit(self, manufactured_run):
        _, params, ms = manufactured_run
        grid = sp.TorusGrid(2, 32)
        maxima = {}
        for dt in (0.02, 0.01):
            cfg = dyn.SolverConfig(t_end=0.2, dt=dt, snapshot_every=1)
            t = dyn.run(ms.state(grid, 0.0), params, cfg)
            res = diag.elliptic_identities(t)
            maxima[dt] = {k: v.max() for k, v in res.items()}
            bad = diag.elliptic_identities(t, forcing_sign=+1.0)
            maxima[dt]["bad"] = bad["effective_pressure_laplacian"].max()
        for key in ("momentum_p_part", "effective_pressure_gradient",
                    "effective_pressure_laplacian"):
            assert maxima[0.02][key] / maxima[0.01][key] > 3.0
        assert maxima[0.02]["bad"] / maxima[0.01]["bad"] < 1.5


#: the residual functions of the O(dt^2) identities, each series by name
RESIDUALS = {
    "f_adopted": lambda traj: {"f": diag.f_transport_residual(traj, "adopted")},
    "f_rejected": lambda traj: {"f": diag.f_transport_residual(traj, "rejected")},
    "elliptic": lambda traj: diag.elliptic_identities(traj),
    "elliptic_plus_g": lambda traj: diag.elliptic_identities(traj, forcing_sign=+1.0),
}

#: the functions of a run that go through the shared snapshot pass
PASSES = {**RESIDUALS, "diagnostics": lambda traj: diag.compute_diagnostics(
    traj, diag.MonitorConfig(), lp.build_partition(traj.initial.grid))}


class TestResidualPass:
    """The identity residuals (and `compute_diagnostics`) run on the shared
    snapshot pass: a window of three snapshots, whatever the run's length,
    or of one for `compute_diagnostics`, which differentiates nothing in
    time."""

    @staticmethod
    def _run(ms, dt, t_end):
        cfg = dyn.SolverConfig(t_end=t_end, dt=dt, snapshot_every=1)
        return dyn.run(ms.state(sp.TorusGrid(2, 32), 0.0), ms.params(), cfg)

    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_at_most_three_snapshots_alive(self, manufactured_run, monkeypatch, name):
        traj, _, _ = manufactured_run
        assert len(traj) >= 20
        live = weakref.WeakSet()
        most = []

        class Counted(diag._Snapshot):
            def __init__(self, *args):
                super().__init__(*args)
                live.add(self)
                most.append(len(live))

        monkeypatch.setattr(diag, "_Snapshot", Counted)
        PASSES[name](traj)
        assert len(most) == len(traj) and max(most) == (1 if name == "diagnostics" else 3)

    @pytest.mark.parametrize("name", sorted(RESIDUALS))
    @pytest.mark.parametrize("count", [1, 2])
    def test_needs_three_snapshots(self, manufactured_run, name, count):
        traj, params, _ = manufactured_run
        short = dyn.Trajectory(traj.states[:count], "completed", traj.times[count - 1],
                               traj.config, params)
        with pytest.raises(ValueError, match="at least 3 snapshots"):
            RESIDUALS[name](short)

    @pytest.mark.parametrize("name, budget", [("f_adopted", (113, 71)),
                                              ("elliptic", (85, 99))])
    def test_transform_budget(self, manufactured_run, fft_calls, name, budget):
        """Forward and inverse fields on 11 snapshots of 2-D 32^2: F reads the
        potential inv_lap div(rho u) that the snapshot's Coifman commutator
        holds, and each snapshot transforms its u once (125 and 67, 89 and
        107 when the residuals differenced whole-run field lists)."""
        _, _, ms = manufactured_run
        traj = self._run(ms, 0.01, 0.1)
        assert len(traj) == 11
        fft_calls.clear()
        RESIDUALS[name](traj)
        assert (fft_calls["rfftn_fields"], fft_calls["irfftn_fields"]) == budget

    @pytest.mark.parametrize("name", ["f_adopted", "elliptic"])
    def test_peak_memory_flat_in_the_snapshot_count(self, manufactured_run, name):
        _, _, ms = manufactured_run
        peaks = []
        for dt in (0.02, 0.005):
            traj = self._run(ms, dt, 0.2)
            RESIDUALS[name](traj)  # fills the per-grid caches
            tracemalloc.start()
            try:
                RESIDUALS[name](traj)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks


class TestEnergyLedger:
    def test_equilibrium_constant(self, grid, params):
        traj = dyn.run(dyn.equilibrium_state(grid, 1.0), params,
                       dyn.SolverConfig(t_end=0.05, dt=0.01))
        rep = diag.energy_ledger(traj)
        e = rep.column("energy")
        assert np.max(np.abs(e - e[0])) < 1e-12

    def test_decaying_run_balance(self, vortex_run):
        traj, params = vortex_run
        rep = diag.energy_ledger(traj)
        slack = rep.column("slack")
        assert slack.min() > -1e-8        # balance holds
        e = rep.column("energy")
        assert np.all(np.diff(e) <= 1e-12)  # strictly dissipating

    def test_manufactured_balance_with_forcing(self, manufactured_run):
        traj, params, _ = manufactured_run
        rep = diag.energy_ledger(traj)
        assert np.max(np.abs(rep.column("slack"))) < 1e-6


class TestCumulativeTrapezoid:
    """The ledgers' running time integral, which replaces
    scipy.integrate.cumulative_trapezoid(y, t, initial=0)."""

    @pytest.mark.parametrize("n", [2, 3, 17, 250])
    def test_bit_equal_to_scipy(self, n):
        rng = np.random.default_rng(n)
        t = np.cumsum(rng.uniform(1e-3, 0.2, n))
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
        got = diag._cumulative_trapezoid(y, t)
        assert got.tobytes() == cumulative_trapezoid(y, t, initial=0).tobytes()

    def test_one_sample(self):
        got = diag._cumulative_trapezoid([2.5], [0.3])
        assert got.dtype == float and got.tolist() == [0.0]

    @pytest.mark.parametrize("where", ["y", "t"])
    def test_nan_reaches_every_later_entry(self, where):
        for i in range(6):
            y, t = np.ones(6), np.linspace(0.0, 1.0, 6)
            (y if where == "y" else t)[i] = np.nan
            got = diag._cumulative_trapezoid(y, t)
            first = max(i, 1)
            assert np.all(np.isnan(got[first:])) and not np.any(np.isnan(got[:first]))

    def test_mismatched_times_rejected(self):
        with pytest.raises(ValueError):
            diag._cumulative_trapezoid(np.ones(5), np.linspace(0.0, 1.0, 2))
        with pytest.raises(ValueError):
            diag._cumulative_trapezoid([], [])


class TestAFunctional:
    def test_equilibrium_components(self, grid, params):
        traj = dyn.run(dyn.equilibrium_state(grid, 1.0), params,
                       dyn.SolverConfig(t_end=0.05, dt=0.01))
        out = diag._report(traj, diag._AFunctional)
        assert np.max(np.abs(out["acceleration"])) < 1e-12
        assert np.max(np.abs(out["gradient"])) < 1e-12

    def test_time_integrals_are_plain_trapezoid_sums(self):
        rng = np.random.default_rng(4)
        t = np.cumsum(rng.uniform(0.01, 0.1, 9))
        v = rng.standard_normal(9)
        ref = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (v[1:] + v[:-1]))])
        assert np.array_equal(cumulative_trapezoid(v, t, initial=0), ref)

    def test_integral_components_nondecreasing(self, vortex_run):
        traj, params = vortex_run
        out = diag._report(traj, diag._AFunctional)
        assert np.all(np.diff(out["acceleration"]) >= -1e-13)
        assert np.all(np.diff(out["pressure_interaction"]) >= -1e-13)

    def test_omega_budget_finite_and_refinement_stable(self):
        params = dyn.FluidParams(0.05, 0.05, LAW)
        consts = []
        for m in (32, 64):
            grid = sp.TorusGrid(2, m)
            traj = dyn.run(dyn.stream_vortex_state(grid, 1.0, 0.5), params,
                           dyn.SolverConfig(t_end=0.25, dt=0.005, snapshot_every=10))
            consts.append(diag.grad_omega_budget(traj).empirical_constant)
        assert all(math.isfinite(c) and c > 0 for c in consts)
        assert abs(consts[0] - consts[1]) / max(consts) < 0.5


class TestParsevalGradientEnergies:
    """The gradient energies are weighted coefficient sums; they must equal
    the grid quadrature of the spectral derivatives, Nyquist planes included
    in the input (where those derivatives are zero)."""

    @staticmethod
    def _noisy_run(dim, m):
        grid = sp.TorusGrid(dim, m)
        rng = np.random.default_rng(3)
        states = [dyn.FluidState(
            sp.ScalarField.from_samples(grid, 1.5 + 0.2 * rng.random(grid.shape)),
            sp.VectorField.from_samples(grid, rng.standard_normal((dim,) + grid.shape)),
            t) for t in (0.0, 0.1, 0.25, 0.3)]
        u = states[0].u
        nyquist = sp.parseval_sum(grid, np.where(grid.nyquist_mask, u.coeffs, 0.0))
        assert nyquist > 0.05 * sp.parseval_sum(grid, u.coeffs)
        return dyn.Trajectory(states, "completed", 0.3, dyn.SolverConfig(t_end=0.3, dt=0.05),
                              dyn.FluidParams(0.07, 0.04, LAW))

    @pytest.mark.parametrize("dim, m", [(2, 16), (3, 8)])
    def test_viscous_form(self, dim, m):
        traj = self._noisy_run(dim, m)
        params, grid = traj.params, traj.initial.grid
        u = traj.states[0].u
        grad = sp.velocity_gradient(u)
        ref = (params.mu * np.sum(grad ** 2) + (params.mu + params.lam)
               * np.sum(np.trace(grad, axis1=0, axis2=1) ** 2)) * grid.cell_volume
        got = diag._viscous_form(params, u)
        assert abs(got - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("dim, m", [(2, 16), (3, 8)])
    def test_grad_omega_term(self, dim, m):
        traj = self._noisy_run(dim, m)
        grid = traj.initial.grid
        rate = diag.f_weight(traj.times) * [
            np.sum(sp.velocity_gradient(sp.curl(s.u)) ** 2) * grid.cell_volume
            for s in traj.states]
        ref = cumulative_trapezoid(rate, traj.times, initial=0)
        got = diag.grad_omega_budget(traj).column("lhs")
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)


class TestIntegrabilityGain:
    def test_rest_state(self, grid, params):
        traj = dyn.run(dyn.equilibrium_state(grid, 1.0), params,
                       dyn.SolverConfig(t_end=0.05, dt=0.01))
        rep = diag.integrability_gain(traj, 4)
        assert np.max(np.abs(rep.column("moment"))) < 1e-14

    def test_p1_two_matches_energy_pieces(self, vortex_run):
        traj, params = vortex_run
        rep = diag.integrability_gain(traj, 2)
        energy = diag.energy_ledger(traj)
        kinetic = [0.5 * float(np.sum(s.rho.samples * np.sum(s.u.samples ** 2,
                                                             axis=0)))
                   * s.grid.cell_volume for s in traj.states]
        assert np.max(np.abs(rep.column("moment") - np.array(kinetic))) < 1e-12

    def test_eta_admissibility(self):
        # mu = lam = 1, p1 = 4: eta solves lam eta (p1-2)/4 = s mu + lam
        params = dyn.FluidParams(1.0, 1.0, LAW)
        grid = sp.TorusGrid(2, 16)
        traj = dyn.run(dyn.equilibrium_state(grid, 1.0), params,
                       dyn.SolverConfig(t_end=0.02, dt=0.01))
        rep = diag.integrability_gain(traj, 4)
        s = 1.0 / (2.0 * 2)
        eta = 4.0 * (s * 1.0 + 1.0) / (1.0 * (4 - 2))
        assert f"eta={eta:g}" in rep.notes

    def test_odd_p1_rejected(self, vortex_run):
        traj, params = vortex_run
        with pytest.raises(ValueError):
            diag.integrability_gain(traj, 3)


class TestDensityBounds:
    def test_equilibrium_trivially_satisfied(self, grid, params):
        traj = dyn.run(dyn.equilibrium_state(grid, 1.5), params,
                       dyn.SolverConfig(t_end=0.05, dt=0.01))
        rep = diag.density_bound_ledger(traj)
        assert rep.column("upper_gap").min() >= -1e-10
        assert rep.column("lower_gap").min() >= -1e-10

    def test_decaying_run_gap_stable_under_refinement(self):
        params = dyn.FluidParams(0.05, 0.05, LAW)
        gaps = []
        for m in (32, 64):
            grid = sp.TorusGrid(2, m)
            traj = dyn.run(dyn.density_bump_state(grid, 1.0, 0.3), params,
                           dyn.SolverConfig(t_end=0.25, dt=0.005, snapshot_every=10))
            rep = diag.density_bound_ledger(traj)
            gaps.append(rep.column("upper_gap").min())
        assert all(g > -1e-8 for g in gaps)


class TestBlowupMonitor:
    @pytest.mark.parametrize("p_gain", [0, 1, 3, 5])
    def test_monitor_config_rejects_a_gain_the_ledger_rejects(self, p_gain):
        """p_gain is the integrability ledger's p1, which must be even and
        >= 2: the config refuses what the ledger would."""
        with pytest.raises(ValueError, match="even"):
            diag.MonitorConfig(p_gain=p_gain)
        assert diag.MonitorConfig(p_gain=6).p_gain == 6

    def test_criterion_exponent_arithmetic(self):
        assert diag.criterion_exponent(3, 2.0, 0.5) == 9.0
        assert diag.criterion_exponent(2, 2.0, 0.5) == 7.0

    def test_bounded_run_flags_true(self, vortex_run):
        traj, params = vortex_run
        flags = diag.blowup_monitor(traj, diag.MonitorConfig())
        assert flags.density_bounded and flags.extendable
        assert flags.first_violation_time is None

    def test_vacuum_run_flags_false_with_time(self):
        grid = sp.TorusGrid(2, 32)
        weak = dyn.FluidParams(0.005, 0.0, dyn.PowerLaw(0.01, 2.0))
        state = dyn.density_bump_state(grid, 1.0, 0.0, u_amplitude=3.0)
        cfg = dyn.SolverConfig(t_end=5.0, cfl=0.4, vacuum_floor=5e-3,
                               snapshot_every=10)
        traj = dyn.run(state, weak, cfg)
        flags = diag.blowup_monitor(traj, diag.MonitorConfig())
        assert not flags.density_bounded and not flags.extendable
        assert flags.first_violation_time is not None
        assert flags.stop_reason == "vacuum"

    def test_flags_monotone_in_window(self):
        grid = sp.TorusGrid(2, 32)
        weak = dyn.FluidParams(0.005, 0.0, dyn.PowerLaw(0.01, 2.0))
        state = dyn.density_bump_state(grid, 1.0, 0.0, u_amplitude=3.0)
        cfg = dyn.SolverConfig(t_end=5.0, cfl=0.4, vacuum_floor=5e-3,
                               snapshot_every=5)
        traj = dyn.run(state, weak, cfg)
        mon = diag.MonitorConfig()
        stop = traj.stop_time
        early = diag.blowup_monitor(traj, mon, window_end=stop * 0.5)
        late = diag.blowup_monitor(traj, mon, window_end=stop * 2.0)
        full = diag.blowup_monitor(traj, mon)
        assert early.density_bounded          # violation not yet in window
        assert early.first_violation_time is None
        assert not late.density_bounded and not full.density_bounded
        # every stored snapshot has positive density, so the violation is the
        # vacuum stop itself, in both windows that reach it
        assert all(s.is_finite() and s.min_density > 0 for s in traj.states)
        assert late.first_violation_time == full.first_violation_time == stop


def test_tabulated_law_q_density_resolved_alike():
    """compute_diagnostics and blowup_monitor both need q_density for a
    tabulated law, and both use it when it is given."""
    # one small snapshot: the tabulated potential is a quadrature per sample
    s = np.linspace(0.1, 4.0, 40)
    params = dyn.FluidParams(0.05, 0.05, dyn.TabulatedLaw(s, LAW(s)))
    state = dyn.stream_vortex_state(sp.TorusGrid(2, 8), 1.0, 0.3)
    traj = dyn.Trajectory([state], "completed", 0.0,
                          dyn.SolverConfig(t_end=0.01, dt=0.01), params)
    part = lp.build_partition(state.grid)
    with pytest.raises(ValueError, match="explicit q_density"):
        diag.blowup_monitor(traj, diag.MonitorConfig())
    with pytest.raises(ValueError, match="explicit q_density"):
        diag.compute_diagnostics(traj, diag.MonitorConfig(), part)
    mon = diag.MonitorConfig(q_density=3.0)
    assert diag.blowup_monitor(traj, mon).criterion_exponent == 3.0
    [rec] = diag.compute_diagnostics(traj, mon, part)
    assert rec.values["rho_lq"] == sp.lebesgue_norm(state.rho, 3.0)


@pytest.mark.parametrize("spec", [lp.BesovSpec(0.5, INF, INF), lp.BesovSpec(0.5, 2, 2)],
                         ids=["sup", "finite"])
def test_vector_besov_keeps_a_nan_in_any_position(part, grid, spec):
    ok = sp.random_field(grid, np.random.default_rng(5))
    coeffs = ok.coeffs.copy()
    coeffs[1, 2] = math.nan
    bad = ok.with_coeffs(coeffs)
    assert math.isfinite(diag._vector_besov(part, [ok, ok], spec))
    for fields in ([bad, ok], [ok, bad]):
        assert math.isnan(diag._vector_besov(part, fields, spec))


def _count_law_calls(monkeypatch) -> dict[str, list[np.ndarray]]:
    """The densities that every power law is evaluated at, by method."""
    calls = {"__call__": [], "derivative": []}
    for name, seen in calls.items():
        def counted(law, s, _real=getattr(dyn.PowerLaw, name), _seen=seen):
            _seen.append(np.asarray(s))
            return _real(law, s)
        monkeypatch.setattr(dyn.PowerLaw, name, counted)
    return calls


def _once_each(seen, states) -> bool:
    """Whether `seen` holds one evaluation at each state's density, in order."""
    return (len(seen) == len(states)
            and all(np.array_equal(a, s.rho.samples) for a, s in zip(seen, states)))


def test_pressure_built_once_per_snapshot(vortex_run, part, monkeypatch):
    """compute_diagnostics evaluates the pressure law once per snapshot and
    shares the field between v1_identities (v1, G and grad P) and the
    effective-pressure column."""
    traj, params = vortex_run
    want = diag.compute_diagnostics(traj, diag.MonitorConfig(), part)
    calls = _count_law_calls(monkeypatch)
    got = diag.compute_diagnostics(traj, diag.MonitorConfig(), part)
    assert _once_each(calls["__call__"], traj.states)
    assert calls["derivative"] == []
    assert [r.row() for r in got] == [r.row() for r in want]


def test_release_keeps_only_what_a_neighbour_reads(grid, params, random_state):
    """After `release` a snapshot keeps, of its cached fields, only (v1, v)
    and the terms of F, which the time derivatives of its neighbours read,
    and a float."""
    snap = diag._Snapshot(random_state, params)
    cached = [name for name, value in vars(diag._Snapshot).items()
              if isinstance(value, functools.cached_property)]
    for name in cached:
        getattr(snap, name)
    snap.v1_residuals()
    snap.release()
    assert set(cached) & set(vars(snap)) == {"velocities", "rho_inf", "log_parts"}


def test_diagnostics_leave_stored_states_as_built():
    """The fields compute_diagnostics derives, the velocity coefficients
    included, stay with its per-snapshot object: afterwards a stored 3-D
    state holds only its density (coefficients and samples) and its
    velocity samples."""
    grid = sp.TorusGrid(3, 16)
    traj = dyn.run(dyn.density_bump_state(grid, u_amplitude=0.2),
                   dyn.FluidParams(0.05, 0.05, LAW),
                   dyn.SolverConfig(t_end=0.01, dt=0.005))
    diag.compute_diagnostics(traj, diag.MonitorConfig(), lp.build_partition(grid))
    for s in traj.states:
        arrays = [a for f in (s.rho, s.u) for a in (f._coeffs, f._samples)
                  if a is not None]
        owners = {}
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            owners[id(a)] = a.nbytes
        assert sum(owners.values()) <= (s.rho.coeffs.nbytes + s.rho.samples.nbytes
                                        + s.u.samples.nbytes)


def test_diagnostics_peak_memory_is_one_snapshot():
    """compute_diagnostics differentiates nothing in time, so its pass frees
    each snapshot's fields (the velocity coefficients, (v1, v), G) before it
    loads the next: the traced peak over 7 snapshots of a 3-D run is that of
    one snapshot (1.43 times it when the pass kept each snapshot for its
    neighbours)."""
    grid = sp.TorusGrid(3, 16)
    traj = dyn.run(dyn.density_bump_state(grid, u_amplitude=0.2),
                   dyn.FluidParams(0.05, 0.05, LAW),
                   dyn.SolverConfig(t_end=0.03, dt=0.005))
    part = lp.build_partition(grid)
    one = dyn.Trajectory(traj.states[:1], "completed", 0.0, traj.config, traj.params)
    peaks = []
    for run in (one, traj):
        diag.compute_diagnostics(run, diag.MonitorConfig(), part)  # fills the caches
        tracemalloc.start()
        try:
            diag.compute_diagnostics(run, diag.MonitorConfig(), part)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(traj) == 7
    assert peaks[1] <= 1.1 * peaks[0], peaks


class TestTransportEstimate:
    def test_rest_state_needs_no_constant(self, grid, params, part):
        traj = dyn.run(dyn.equilibrium_state(grid, 1.2), params,
                       dyn.SolverConfig(t_end=0.05, dt=0.01))
        rep = diag.transport_estimate_report(traj, part, 0.5, 2, 2)
        assert rep.empirical_constant == 0.0

    def test_advected_density_constant_finite(self, vortex_run, part):
        traj, params = vortex_run
        rep = diag.transport_estimate_report(traj, part, 0.5, 2, 2)
        assert math.isfinite(rep.empirical_constant)

    def test_exponent_window_validated(self, vortex_run, part):
        traj, params = vortex_run
        with pytest.raises(ValueError):
            diag.transport_estimate_report(traj, part, -3.0, 2, 2)


class TestV1EnergyLedger:
    def test_equilibrium_all_zero(self, grid, params):
        traj = dyn.run(dyn.equilibrium_state(grid, 1.0), params,
                       dyn.SolverConfig(t_end=0.05, dt=0.01))
        rep = diag.v1_energy_ledger(traj)
        assert np.max(np.abs(rep.column("weighted_acceleration"))) < 1e-12
        assert np.max(np.abs(rep.column("weighted_gradient"))) < 1e-12

    def test_pressure_built_once_per_snapshot(self, grid, params, monkeypatch):
        """P(rho) once per snapshot, and P'(rho) once per interior snapshot,
        where the d_t v formula is checked."""
        traj = dyn.run(dyn.stream_vortex_state(grid, 1.0, 0.5), params,
                       dyn.SolverConfig(t_end=0.06, dt=0.01))
        calls = _count_law_calls(monkeypatch)
        diag.v1_energy_ledger(traj)
        assert _once_each(calls["__call__"], traj.states)
        assert _once_each(calls["derivative"], traj.states[1:-1])

    def test_dtv_formula_second_order(self):
        grid = sp.TorusGrid(2, 32)
        params = dyn.FluidParams(0.05, 0.05, LAW)
        state = dyn.stream_vortex_state(grid, 1.0, 0.5)
        res = {}
        for dt in (0.02, 0.01):
            traj = dyn.run(state, params,
                           dyn.SolverConfig(t_end=0.2, dt=dt, snapshot_every=1))
            res[dt] = diag.v1_energy_ledger(traj).empirical_constant
        assert res[0.02] / res[0.01] > 3.0


class TestBesovRegularityMonitor:
    """The density's eps-Besov norm, the `rho_besov_eps` column of the series."""

    def test_single_mode_density_block_growth(self, grid, part):
        # rho = rho_bar + delta cos(2^q x): once the oscillation dominates the
        # mean block, the eps-norm grows like delta 2^{q eps} per octave;
        # cross-checked against the direct block values
        eps, delta = 0.5, 0.8
        fine = sp.TorusGrid(2, 64)
        fine_part = lp.build_partition(fine)
        vals = []
        for q in (2, 3, 4):
            rho = sp.ScalarField.from_function(
                fine, lambda x, y, q=q: 1.0 + delta * np.cos(2.0 ** q * x))
            norm = lp.besov_norm(fine_part, rho, lp.BesovSpec(eps, INF, INF))
            direct = max(2.0 ** (l * eps)
                         * sp.lebesgue_norm(lp.dyadic_block(fine_part, l, rho), INF)
                         for l in fine_part.active_blocks)
            assert abs(norm - direct) < 1e-12
            vals.append(norm)
        growth = [vals[i + 1] / vals[i] for i in range(2)]
        assert all(g > 1.2 for g in growth)  # 2^{eps} = 1.41 per octave


class TestRecords:
    def test_equilibrium_records_constant(self, grid, params, part):
        traj = dyn.run(dyn.equilibrium_state(grid, 1.0), params,
                       dyn.SolverConfig(t_end=0.05, dt=0.01))
        recs = diag.compute_diagnostics(traj, diag.MonitorConfig(), part)
        assert all(r.flags["finite"] and r.flags["positive"] for r in recs)
        e = [r.values["energy"] for r in recs]
        assert max(e) - min(e) < 1e-12

    def test_csv_stable_columns(self, vortex_run, part):
        traj, params = vortex_run
        recs = diag.compute_diagnostics(traj, diag.MonitorConfig(), part)
        csv = diag.records_to_csv(recs)
        header = csv.splitlines()[0].split(",")
        assert header == diag.RECORD_COLUMNS
        assert len(csv.splitlines()) == len(recs) + 1
