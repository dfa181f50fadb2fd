"""Acceptance gate: every criterion runs at its stated tolerance on
laptop-scale grids and prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import math

import numpy as np
import pytest

from torusns import spectral as sp
from torusns import littlewood_paley as lp
from torusns import dynamics as dyn
from torusns import diagnostics as diag

INF = math.inf
LAW = dyn.PowerLaw(1.0, 2.0)


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} [{name}]: FAIL")
                raise
            print(f"criterion {number:02d} [{name}]: PASS")
        return runner
    return wrap


@pytest.fixture(scope="module")
def grid32():
    return sp.TorusGrid(2, 32)


@pytest.fixture(scope="module")
def part32(grid32):
    return lp.build_partition(grid32)


@pytest.fixture(scope="module")
def manufactured():
    return dyn.ManufacturedSolution(LAW, mu=0.05, lam=0.05,
                                    amplitude=0.3, flux_constant=0.3)


def _mms_run(ms, grid, dt, t_end=0.2, every=1):
    cfg = dyn.SolverConfig(t_end=t_end, dt=dt, snapshot_every=every)
    return dyn.run(ms.state(grid, 0.0), ms.params(), cfg)


@criterion(1, "partition of unity and block orthogonality")
def test_partition_and_orthogonality(grid32, part32):
    assert part32.partition_residual() < 1e-13
    for seed in range(100):
        u = sp.random_field(grid32, np.random.default_rng(seed))
        total = sp.ScalarField.zero(grid32)
        for q in part32.active_blocks:
            total = total + lp.dyadic_block(part32, q, u)
        assert sp.lebesgue_norm(total - u, INF) < 1e-13
        for q, q2 in ((-1, 1), (0, 2), (1, 4), (2, 0)):
            if abs(q - q2) >= 2 and q2 <= part32.q_max:
                twice = lp.dyadic_block(part32, q, lp.dyadic_block(part32, q2, u))
                assert sp.lebesgue_norm(twice, INF) == 0.0


@criterion(2, "Bony reconstruction")
def test_bony_reconstruction(grid32, part32):
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        u = sp.random_field(grid32, rng)
        v = sp.random_field(grid32, rng)
        t_uv, t_vu, rem = lp.bony_decompose(part32, u, v)
        ref = sp.multiply(u, v)
        resid = sp.lebesgue_norm(t_uv + t_vu + rem - ref, INF)
        assert resid < 1e-10


@criterion(3, "transport commutator eight-way split")
def test_eight_way_split(grid32, part32):
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        u = sp.random_vector_field(grid32, rng)
        a = sp.random_field(grid32, rng)
        for q in part32.active_blocks:
            rq = lp.transport_commutator(part32, u, a, q)
            total = sp.ScalarField.zero(grid32)
            for piece in lp.eight_way_split(part32, u, a, q):
                total = total + piece
            assert sp.lebesgue_norm(total - rq, INF) < 1e-10


@criterion(4, "multiplier commutator decay law")
def test_lemma1_scaling_band():
    grid = sp.TorusGrid(2, 256)
    ratios = lp.lemma1_scaling_study(grid, k_range=range(7),
                                     ensemble_size=6, seed=5)
    values = list(ratios.values())
    assert max(values) / min(values) < 4.0


@criterion(5, "exact effective-velocity identities")
def test_v1_identities(grid32):
    params = dyn.FluidParams(0.07, 0.04, LAW)
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        rho = sp.ScalarField.from_samples(
            grid32, 1.5 + 0.3 * sp.random_field(grid32, rng).samples)
        state = dyn.FluidState(rho, sp.random_vector_field(grid32, rng), 0.0)
        res = diag.v1_identities(state, params)
        assert all(v < 1e-11 for v in res.values())


@criterion(6, "elliptic identities converge at O(dt^2), +g variant falsified")
def test_elliptic_identity_convergence(manufactured, grid32):
    maxima = {}
    for dt in (0.02, 0.01, 0.005, 0.0025):
        traj = _mms_run(manufactured, grid32, dt)
        good = diag.elliptic_identities(traj)
        bad = diag.elliptic_identities(traj, forcing_sign=+1.0)
        maxima[dt] = {k: v.max() for k, v in good.items()}
        maxima[dt]["bad"] = bad["effective_pressure_laplacian"].max()
    for key in ("momentum_p_part", "effective_pressure_gradient",
                "effective_pressure_laplacian"):
        for hi, lo in ((0.02, 0.01), (0.01, 0.005), (0.005, 0.0025)):
            ratio = maxima[hi][key] / maxima[lo][key]
            assert 3.0 < ratio < 5.7, (key, hi, ratio)
    for hi, lo in ((0.02, 0.01), (0.01, 0.005)):
        assert maxima[hi]["bad"] / maxima[lo]["bad"] < 1.5


@criterion(7, "manufactured-solution convergence: temporal order 4, spatial floor")
def test_manufactured_convergence(manufactured, grid32):
    errs = []
    for dt in (0.04, 0.02, 0.01, 0.005):
        traj = _mms_run(manufactured, grid32, dt, every=10 ** 9)
        exact = manufactured.state(grid32, traj.states[-1].t)
        errs.append(sp.lebesgue_norm(traj.states[-1].u - exact.u, 2))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert all(3.7 < o < 4.3 for o in orders), orders
    # spatial floor: resolved modes leave only round-off once dt is small
    fine = sp.TorusGrid(2, 64)
    traj = _mms_run(manufactured, fine, 0.002, t_end=0.1, every=10 ** 9)
    exact = manufactured.state(fine, traj.states[-1].t)
    assert sp.lebesgue_norm(traj.states[-1].u - exact.u, 2) < 1e-11


@criterion(8, "conservation: mass to round-off, momentum balance vs forcing")
def test_conservation(grid32):
    g_vec = np.array([0.25, -0.1])

    def forcing(t, grid):
        s = np.zeros((grid.dim,) + grid.shape)
        for i in range(grid.dim):
            s[i] = g_vec[i]
        return sp.VectorField.from_samples(grid, s)

    params = dyn.FluidParams(0.1, 0.1, LAW, forcing)
    state = dyn.density_bump_state(grid32, 1.0, 0.2)
    cfg = dyn.SolverConfig(t_end=500 * 0.003, dt=0.003, snapshot_every=50)
    traj = dyn.run(state, params, cfg)
    assert traj.stop_reason == "completed" and traj.step_count == 500
    m0 = traj.states[0].mass
    assert max(abs(s.mass - m0) for s in traj.states) < 1e-12 * abs(m0)
    mass = state.mass
    mom0 = state.momentum()
    for s, t in zip(traj.states, traj.times):
        balance = s.momentum() - (mom0 + mass * g_vec * t)
        assert np.max(np.abs(balance)) < 1e-8


@criterion(9, "energy inequality on a decaying vortex")
def test_energy_inequality(grid32):
    params = dyn.FluidParams(0.05, 0.05, LAW)
    state = dyn.stream_vortex_state(grid32, 1.0, 0.5)
    cfg = dyn.SolverConfig(t_end=0.5, dt=0.005, snapshot_every=10)
    traj = dyn.run(state, params, cfg)
    rep = diag.energy_ledger(traj)
    slack = rep.column("slack")
    # slack = E(0) - E(t) - dissipation with g = 0: E(t) + D - E(0) <= 1e-8
    assert np.min(slack) > -1e-8
    energy = rep.column("energy")
    assert np.all(np.diff(energy) <= 1e-12)


@criterion(10, "parabolic scaling equivariance")
def test_scaling_equivariance():
    grid = sp.TorusGrid(2, 64)
    rng = np.random.default_rng(5)
    rho = sp.ScalarField.from_samples(
        grid, 1.5 + 0.2 * sp.random_field(grid, rng, max_wavenumber=3).samples)
    u = sp.random_vector_field(grid, rng, max_wavenumber=3)
    state = dyn.FluidState(rho, u, 0.0)
    params = dyn.FluidParams(0.05, 0.08, LAW)
    drho, dmom = dyn.rhs_eval(state, params)
    scaled_state, scaled_params = dyn.scaling_transform(state, params, 2)
    drho_s, dmom_s = dyn.rhs_eval(scaled_state, scaled_params)
    ref_mom = dyn.rescale_field(dmom, 2) * 8.0      # l^3
    ref_mass = dyn.rescale_field(drho, 2) * 4.0     # l^2
    rel_mom = (sp.lebesgue_norm(dmom_s - ref_mom, INF)
               / sp.lebesgue_norm(ref_mom, INF))
    rel_mass = (sp.lebesgue_norm(drho_s - ref_mass, INF)
                / sp.lebesgue_norm(ref_mass, INF))
    assert rel_mom < 1e-10 and rel_mass < 1e-10


@criterion(11, "log-density transport residual: adopted reading converges")
def test_f_transport_convergence(manufactured, grid32):
    good, bad = {}, {}
    for dt in (0.02, 0.01, 0.005):
        traj = _mms_run(manufactured, grid32, dt)
        good[dt] = diag.f_transport_residual(traj, "adopted").max()
        bad[dt] = diag.f_transport_residual(traj, "rejected").max()
    for hi, lo in ((0.02, 0.01), (0.01, 0.005)):
        assert 3.0 < good[hi] / good[lo] < 5.7
        assert bad[hi] / bad[lo] < 1.5


@criterion(12, "linear splitting: superposition and energy ledgers")
def test_linear_split(manufactured, grid32):
    cfg = dyn.SolverConfig(t_end=0.3, dt=0.01, snapshot_every=5)
    traj = dyn.run(manufactured.state(grid32, 0.0), manufactured.params(), cfg)
    split = dyn.linear_split(traj)
    assert split.superposition_residual < 1e-11
    vol = grid32.cell_volume
    rho0, u0 = traj.states[0].rho.samples, traj.states[0].u.samples
    e0 = float(np.sum(rho0 * np.sum(u0 ** 2, axis=0))) * vol
    grad_int = {1: 0.0, 2: 0.0}
    prev_t = None
    sup_energy = {1: 0.0, 2: 0.0}
    for n, (s, t) in enumerate(zip(traj.states, traj.times)):
        for idx, series in ((1, split.w1), (2, split.w2)):
            w = series[n]
            energy = float(np.sum(s.rho.samples * np.sum(w.samples ** 2,
                                                         axis=0))) * vol
            sup_energy[idx] = max(sup_energy[idx], energy)
            gw = sp.velocity_gradient(w)
            rate = float(np.sum(gw ** 2)) * vol
            if prev_t is not None:
                grad_int[idx] += 0.5 * (t - prev_t) * rate
        prev_t = t
    c_w1 = (sup_energy[1] + grad_int[1]) / e0
    sup_p = max(sp.lebesgue_norm(diag.pressure_field(s, manufactured.params()),
                                 INF) for s in traj.states)
    c_w2 = (sup_energy[2] + grad_int[2]) / (traj.times[-1] * sup_p ** 2)
    assert math.isfinite(c_w1) and c_w1 > 0
    assert math.isfinite(c_w2)


@criterion(13, "viscosity admissibility window")
def test_viscosity_admissibility():
    ok, p_star = dyn.admissible_viscosity(1.0, 1.0)
    assert ok and abs(p_star - (4.0 + 2.0 * math.sqrt(2.0))) < 1e-12
    ok, p_star = dyn.admissible_viscosity(1.0, 1.25)
    assert not ok and abs(p_star - 6.0) < 1e-12


@criterion(14, "blow-up monitors: exponents, monotone flags, stop reasons")
def test_blowup_monitors():
    assert diag.criterion_exponent(3, 2.0, 0.5) == 9.0
    grid = sp.TorusGrid(2, 32)
    # bounded run: flags hold on the whole window
    params = dyn.FluidParams(0.05, 0.05, LAW)
    good = dyn.run(dyn.stream_vortex_state(grid, 1.0, 0.5), params,
                   dyn.SolverConfig(t_end=0.3, dt=0.005, snapshot_every=10))
    flags = diag.blowup_monitor(good, diag.MonitorConfig())
    assert flags.density_bounded and flags.extendable
    # constructed near-vacuum run: stop reason propagates, flags monotone
    weak = dyn.FluidParams(0.005, 0.0, dyn.PowerLaw(0.01, 2.0))
    stressed = dyn.run(
        dyn.density_bump_state(grid, 1.0, 0.0, u_amplitude=3.0), weak,
        dyn.SolverConfig(t_end=5.0, cfl=0.4, vacuum_floor=5e-3,
                         snapshot_every=5))
    assert stressed.stop_reason == "vacuum"
    mon = diag.MonitorConfig()
    full = diag.blowup_monitor(stressed, mon)
    assert not full.extendable and full.first_violation_time is not None
    early = diag.blowup_monitor(stressed, mon,
                                window_end=stressed.stop_time * 0.5)
    late = diag.blowup_monitor(stressed, mon,
                               window_end=stressed.stop_time * 2.0)
    assert early.density_bounded            # violation not yet inside window
    assert not late.density_bounded         # stays violated once reached
    assert late.first_violation_time == full.first_violation_time


# ---------------------------------------------------------------------------
# criterion 15: empirical-constant stability for every inequality ledger
# ---------------------------------------------------------------------------

def _random_run(m, seed, steps=20):
    grid = sp.TorusGrid(2, m)
    rng = np.random.default_rng(seed)
    rho = sp.ScalarField.from_samples(
        grid, 1.2 + 0.25 * sp.random_field(grid, rng, max_wavenumber=4).samples)
    u = sp.random_vector_field(grid, rng, max_wavenumber=4) * 0.5
    params = dyn.FluidParams(0.1, 0.05, LAW)
    cfg = dyn.SolverConfig(t_end=steps * 0.005, dt=0.005, snapshot_every=5)
    return dyn.run(dyn.FluidState(rho, u, 0.0), params, cfg)


def _stable(a: float, b: float, tol: float = 0.5) -> bool:
    if a == b == 0.0:
        return True
    return abs(a - b) / max(abs(a), abs(b)) < tol


def _trajectory_sup(m, n, extractor) -> float:
    sup = 0.0
    for seed in range(n):
        sup = max(sup, extractor(_random_run(m, 4000 + seed)))
    return sup


@criterion(15, "empirical-constant stability under doubling and refinement")
def test_empirical_constant_stability():
    checks = []

    # transport of Besov regularity (Gronwall ratio)
    def transport_sup(traj):
        part = lp.build_partition(traj.initial.grid)
        rep = diag.transport_estimate_report(traj, part, 0.5, 2, 2)
        lhs, env = rep.column("lhs"), rep.column("envelope_no_exp")
        return float(np.max(lhs / np.maximum(env, 1e-300)))

    base = _trajectory_sup(32, 2, transport_sup)
    checks.append(("transport(2.30)", base,
                   _trajectory_sup(32, 4, transport_sup),
                   _trajectory_sup(64, 2, transport_sup)))

    # Coifman commutator continuity
    g32, g64 = sp.TorusGrid(2, 32), sp.TorusGrid(2, 64)
    checks.append(("coifman(3.43)",
                   diag.coifman_constant_study(g32, 12, seed=0).sup_ratio,
                   diag.coifman_constant_study(g32, 24, seed=0).sup_ratio,
                   diag.coifman_constant_study(g64, 12, seed=0).sup_ratio))

    # log-density bound assembly (upper-bound saturation ratio)
    def density_sup(traj):
        rep = diag.density_bound_ledger(traj)
        lhs, rhs = rep.column("upper_lhs"), rep.column("upper_rhs")
        return float(np.max(np.abs(lhs) / np.maximum(np.abs(rhs), 1e-300)))

    checks.append(("density(3.44)", _trajectory_sup(32, 2, density_sup),
                   _trajectory_sup(32, 4, density_sup),
                   _trajectory_sup(64, 2, density_sup)))

    # integrability gain
    def gain_sup(traj):
        return diag.integrability_gain(traj, 4).empirical_constant

    checks.append(("integrability(4.45)", _trajectory_sup(32, 2, gain_sup),
                   _trajectory_sup(32, 4, gain_sup),
                   _trajectory_sup(64, 2, gain_sup)))

    # vorticity gradient budget
    def omega_sup(traj):
        return diag.grad_omega_budget(traj).empirical_constant

    checks.append(("omega(4.65)", _trajectory_sup(32, 2, omega_sup),
                   _trajectory_sup(32, 4, omega_sup),
                   _trajectory_sup(64, 2, omega_sup)))

    # logarithmic interpolation (5.93)-type ratio over random densities
    def log_ratio_sup(m, n):
        grid = sp.TorusGrid(2, m)
        part = lp.build_partition(grid)
        sup = 0.0
        for seed in range(n):
            rng = np.random.default_rng(6000 + seed)
            rho = sp.ScalarField.from_samples(
                grid, 1.2 + 0.4 * sp.random_field(grid, rng).samples)
            b01 = lp.besov_norm(part, rho, lp.BesovSpec(0.0, INF, 1))
            base = lp.besov_norm(part, rho, lp.BesovSpec(0.0, INF, INF))
            beps = lp.besov_norm(part, rho, lp.BesovSpec(0.5, INF, INF))
            rhs = base * (1 + math.log(beps)) * math.log(math.e + 1.0 / base)
            sup = max(sup, b01 / rhs)
        return sup

    checks.append(("log-interp(5.93)", log_ratio_sup(32, 12),
                   log_ratio_sup(32, 24), log_ratio_sup(64, 12)))

    # Besov embedding constants
    p32 = lp.build_partition(g32)
    p64 = lp.build_partition(g64)
    checks.append(("embedding(Prop 2.2)",
                   lp.embedding_estimator(p32, 12, 1.0, 2, 4, 2, seed=0).sup_ratio,
                   lp.embedding_estimator(p32, 24, 1.0, 2, 4, 2, seed=0).sup_ratio,
                   lp.embedding_estimator(p64, 12, 1.0, 2, 4, 2, seed=0).sup_ratio))

    for name, base, doubled, refined in checks:
        assert math.isfinite(base) and base > 0, name
        assert _stable(base, doubled), (name, base, doubled)
        assert _stable(base, refined), (name, base, refined)
