"""Lattice symmetries of the 2-D and 3-D torus as known answers.

The solver, the diagnostics, the ledgers and the Littlewood-Paley kernels
commute with every map of the grid onto itself: in 2-D the axis swap, the
reflection x1 -> -x1 and a shift by whole grid cells (the dyadic partition
is radial, so the kernels must commute too); in 3-D the generators of the
cube's 48 maps (the swap x0 <-> x1, the cycle x0 -> x1 -> x2 and the
reflection x1 -> -x1) and a shift.  A map acts on a state by moving the
samples and turning the velocity with the axes, and on a forcing the same
way.  Each check compares the answer for the mapped input with the mapped
answer, within a round-off bound; each bound is stated with what the 2-D
32^2 run below measured (a random state with wavenumbers up to 6, rho in
[0.67, 1.34], |u| <= 0.29, mu = lam = 0.05, PowerLaw(1, 2), dt = 0.004 to
t = 0.06), and the 3-D runs hold the same bounds (measured values there).
The module takes about 1 s.
"""

import math

import numpy as np
import pytest

from torusns import diagnostics as diag
from torusns import dynamics as dyn
from torusns import littlewood_paley as lp
from torusns import spectral as sp

INF = math.inf
M = 32
GRID = sp.TorusGrid(2, M)
PARAMS = dyn.FluidParams(0.05, 0.05, dyn.PowerLaw(1.0, 2.0))
CONFIG = dyn.SolverConfig(t_end=0.06, dt=0.004, snapshot_every=3)

#: a stored state of a mapped run against the mapped state, in max abs
#: (measured 1.1e-15; the anisotropic-mask stepper below: 1.0e-3)
STATE_BOUND = 1e-14
#: a series column, relative (measured 1.0e-15), and the three residual
#: columns, which are round-off themselves (at most 6.2e-15), absolute
#: (measured 1.0e-15)
SERIES_REL, RESIDUAL_ABS = 1e-13, 1e-14
#: a ledger's empirical constant or a monitor's norm, relative (measured
#: 1.2e-15), or absolute for the energy and v1 ledgers, whose constants are
#: balance residuals (2.0e-6 and 7.3e-4; measured 1.4e-14 and 4.0e-15)
LEDGER_REL, LEDGER_ABS = 1e-12, 1e-13
#: a Littlewood-Paley piece, relative to its sup norm (measured 1.2e-15)
KERNEL_REL = 1e-13

_FLIP = (-np.arange(M)) % M


def _swap(rho, u):
    return rho.T, np.stack([u[1].T, u[0].T])


def _reflect(rho, u):
    return rho[_FLIP], np.stack([-u[0][_FLIP], u[1][_FLIP]])


def _shift(rho, u):
    return np.roll(rho, (5, 3), axis=(0, 1)), np.roll(u, (5, 3), axis=(1, 2))


MAPS = {"swap": _swap, "reflect": _reflect, "shift": _shift}


def _move(g, f):
    """Field f mapped by g: a scalar moves its samples, a vector turns too."""
    grid = f.grid
    if f.rank == 0:
        rho, _ = g(f.samples, np.zeros((grid.dim,) + grid.shape))
        return sp.ScalarField.from_samples(grid, np.ascontiguousarray(rho))
    _, u = g(np.zeros(grid.shape), f.samples)
    return sp.VectorField.from_samples(grid, np.ascontiguousarray(u))


def _mapped(g, state: dyn.FluidState) -> dyn.FluidState:
    return dyn.FluidState(_move(g, state.rho), _move(g, state.u), state.t)


def _initial() -> dyn.FluidState:
    rng = np.random.default_rng(20)
    rho = 1.0 + 0.12 * sp.random_field(GRID, rng, max_wavenumber=6).samples
    u = 0.08 * sp.random_vector_field(GRID, rng, max_wavenumber=6).samples
    return dyn.FluidState(sp.ScalarField.from_samples(GRID, rho),
                          sp.VectorField.from_samples(GRID, u), 0.0)


def _state_gap(a: dyn.FluidState, b: dyn.FluidState) -> float:
    return max(float(np.max(np.abs(a.rho.samples - b.rho.samples))),
               float(np.max(np.abs(a.u.samples - b.u.samples))))


def _swap_gap() -> float:
    """The axis swap's gap between the final states of the two runs."""
    start = _initial()
    return _state_gap(dyn.run(_mapped(_swap, start), PARAMS, CONFIG).states[-1],
                      _mapped(_swap, dyn.run(start, PARAMS, CONFIG).states[-1]))


@pytest.fixture(scope="module")
def runs():
    """The run of the initial state, then one run of each mapped initial state."""
    start = _initial()
    return dyn.run(start, PARAMS, CONFIG), {
        name: dyn.run(_mapped(g, start), PARAMS, CONFIG) for name, g in MAPS.items()}


def _reports(traj: dyn.Trajectory) -> dict[str, float]:
    """Every ledger's empirical constant and the monitor's norms."""
    part = lp.build_partition(traj.initial.grid)
    out = {"energy": diag.energy_ledger(traj),
           "density_bounds": diag.density_bound_ledger(traj),
           "omega_budget": diag.grad_omega_budget(traj),
           "v1_energy": diag.v1_energy_ledger(traj),
           "integrability": diag.integrability_gain(traj, 4),
           "transport_sup": diag.transport_estimate_report(traj, part, 0.5, INF, INF),
           "transport_l2": diag.transport_estimate_report(traj, part, 0.5, 2, 2)}
    out = {name: rep.empirical_constant for name, rep in out.items()}
    flags = diag.blowup_monitor(traj, diag.MonitorConfig())
    out.update(rho_sup=flags.rho_sup, pressure_time_norm=flags.pressure_time_norm,
               lipschitz_integral=flags.lipschitz_integral, **flags.companion_norms)
    return out


def _broken_maps(base: dyn.Trajectory, mapped: dict, maps: dict) -> dict[str, float]:
    """The maps whose run has a stored state farther than STATE_BOUND from
    the mapped state of the base run, with that largest gap."""
    gaps = {name: max(_state_gap(s, _mapped(maps[name], b))
                      for s, b in zip(traj.states, base.states, strict=True))
            for name, traj in mapped.items()}
    return {name: gap for name, gap in gaps.items() if not gap < STATE_BOUND}


def _variant_outputs(base: dyn.Trajectory, mapped: dict) -> list[tuple]:
    """(map, column or report, got, want) of every `compute_diagnostics`
    cell, ledger constant and monitor norm of a mapped run that differs
    from the base run's beyond its bound."""
    part = lp.build_partition(base.initial.grid)
    residuals = set(diag.RESIDUAL_COLUMNS.values())
    want_rows = [r.row() for r in diag.compute_diagnostics(base, diag.MonitorConfig(), part)]
    want = _reports(base)
    faults = []
    for name, traj in mapped.items():
        rows = [r.row() for r in diag.compute_diagnostics(traj, diag.MonitorConfig(), part)]
        for row, want_row in zip(rows, want_rows, strict=True):
            for col, got, exp in zip(diag.RECORD_COLUMNS, row, want_row):
                bound = RESIDUAL_ABS if col in residuals else SERIES_REL * abs(exp)
                faults += [(name, col, got, exp)] if not abs(got - exp) <= bound else []
        faults += [(name, key, value, want[key]) for key, value in _reports(traj).items()
                   if not math.isclose(value, want[key], rel_tol=LEDGER_REL,
                                       abs_tol=LEDGER_ABS)]
    return faults


def test_run_commutes_with_every_map(runs):
    """Every stored state of a mapped run is the mapped state of the run."""
    base, mapped = runs
    assert all(len(traj) == len(base) == 6 for traj in mapped.values())
    assert _broken_maps(base, mapped, MAPS) == {}


def test_diagnostics_and_ledgers_are_invariant(runs):
    """Every `compute_diagnostics` column, every ledger's constant and the
    monitor's norms of a mapped run are those of the run."""
    assert _variant_outputs(*runs) == []


def test_littlewood_paley_kernels_commute_with_every_map():
    """bony_decompose, transport_commutator and eight_way_split of mapped
    fields are the mapped pieces."""
    part = lp.build_partition(GRID)
    rng = np.random.default_rng(7)
    a, b = (sp.random_field(GRID, rng) for _ in range(2))
    u = sp.random_vector_field(GRID, rng)
    for name, g in MAPS.items():
        ga, gb, gu = _move(g, a), _move(g, b), _move(g, u)
        pieces = [(lp.bony_decompose(part, ga, gb), lp.bony_decompose(part, a, b)),
                  ([lp.transport_commutator(part, gu, ga, 2)],
                   [lp.transport_commutator(part, u, a, 2)]),
                  (lp.eight_way_split(part, gu, ga, 2), lp.eight_way_split(part, u, a, 2))]
        for got, want in pieces:
            for piece, exp in zip(got, want, strict=True):
                scale = float(np.max(np.abs(exp.samples)))
                gap = float(np.max(np.abs(piece.samples - _move(g, exp).samples)))
                assert gap <= KERNEL_REL * scale, (name, gap, scale)


def test_anisotropic_flux_mask_breaks_the_swap(monkeypatch):
    """A stepper that applies the flux divergence's 2/3 mask along x1 alone
    fails the axis swap of the final state, which the energy balance does
    not see: its energy ledger constant reads 8.0e-7, against 2.0e-6 for
    the honest stepper."""
    honest = _swap_gap()
    real_init = dyn._Stepper.__init__

    def along_x1(self, grid, *args):
        real_init(self, grid, *args)
        cutoff = math.floor(grid.n * sp.DEALIAS_FRACTION / 2.0)
        self.dk_keep = self.dk * (np.abs(grid.frequency_mesh[0]) <= cutoff)
    monkeypatch.setattr(dyn._Stepper, "__init__", along_x1)
    assert honest < STATE_BOUND < _swap_gap(), honest


# ---------------------------------------------------------------------------
# 3-D: the cube's generators and a shift, two laws, a forcing along an axis
# ---------------------------------------------------------------------------

M3 = 16
GRID3 = sp.TorusGrid(3, M3)
CONFIG3 = dyn.SolverConfig(t_end=0.024, dt=0.004, snapshot_every=2)
LAWS = {"power": dyn.PowerLaw(1.0, 1.4), "isothermal": dyn.PowerLaw(1.0, 1.0)}
_FLIP3 = (-np.arange(M3)) % M3


def _lattice(axes: tuple[int, int, int], flip: int | None = None):
    """The map x'_k = x_{axes[k]}, followed by x'_flip -> -x'_flip when
    `flip` is given, on (rho, u) samples."""
    def g(rho, u):
        rho, u = np.transpose(rho, axes), np.stack([np.transpose(u[a], axes) for a in axes])
        if flip is not None:
            rho, u = np.take(rho, _FLIP3, axis=flip), np.take(u, _FLIP3, axis=flip + 1)
            u[flip] *= -1
        return rho, u
    return g


def _shift3(rho, u):
    return np.roll(rho, (5, 3, 2), axis=(0, 1, 2)), np.roll(u, (5, 3, 2), axis=(1, 2, 3))


MAPS3 = {"swap": _lattice((1, 0, 2)), "cycle": _lattice((2, 0, 1)),
         "reflect": _lattice((0, 1, 2), flip=1), "shift": _shift3}


def _axis_forcing(g) -> dyn.ForcingFn:
    """The constant forcing 0.2 e_0, carried by the map g (None: not moved)."""
    samples = np.zeros((3,) + GRID3.shape)
    samples[0] = 0.2
    field = sp.VectorField.from_samples(GRID3, samples)
    field = field if g is None else _move(g, field)
    return lambda t, grid: field


def _runs3(law) -> tuple[dyn.Trajectory, dict[str, dyn.Trajectory]]:
    """The forced run of a 3-D 16^3 random state (wavenumbers up to 4, rho
    in [0.66, 1.37], |u| <= 0.34) under `law`, then one run of each mapped
    state under the mapped forcing."""
    rng = np.random.default_rng(30)
    rho = 1.0 + 0.12 * sp.random_field(GRID3, rng, max_wavenumber=4).samples
    u = 0.08 * sp.random_vector_field(GRID3, rng, max_wavenumber=4).samples
    start = dyn.FluidState(sp.ScalarField.from_samples(GRID3, rho),
                           sp.VectorField.from_samples(GRID3, u), 0.0)

    def run(g):
        params = dyn.FluidParams(0.05, 0.05, law, _axis_forcing(g))
        return dyn.run(start if g is None else _mapped(g, start), params, CONFIG3)
    return run(None), {name: run(g) for name, g in MAPS3.items()}


@pytest.fixture(scope="module", params=list(LAWS))
def runs3(request):
    return _runs3(LAWS[request.param])


def test_3d_run_commutes_with_every_map(runs3):
    """Every stored state of a mapped 3-D run is the mapped state of the run
    (measured 1.3e-15 under both laws)."""
    base, mapped = runs3
    assert all(len(traj) == len(base) == 4 for traj in mapped.values())
    assert _broken_maps(base, mapped, MAPS3) == {}


def test_3d_diagnostics_and_ledgers_are_invariant(runs3):
    """Every `compute_diagnostics` column, every ledger's constant and the
    monitor's norms of a mapped 3-D run are those of the run: measured
    5.7e-16 relative under PowerLaw(1, 1.4) and 2.0e-14 under the
    isothermal law, whose potential a rho log rho sums terms of both signs;
    the residual columns within 7.4e-16; the ledger constants and monitor
    norms within 8.2e-16 relative, the v1 balance residual within 6e-15."""
    assert _variant_outputs(*runs3) == []


def test_wrong_feed_breaks_the_lattice_maps(monkeypatch):
    """A stepper that subtracts d_0(m_0 u_1) from momentum component 0,
    where d_1(m_0 u_1) belongs, breaks each map of the 3-D run that moves
    the x0 or x1 axis, named with its gap (measured 3.2e-3, 3.2e-3 and
    4.7e-3 for the swap, the cycle and the reflection), and not the shift,
    which any translation-invariant stepper commutes with."""
    real_init = dyn._Stepper.__init__

    def wrong_feed(self, grid, *args):
        real_init(self, grid, *args)
        fed = (1, 0, self.pairs.index((0, 1)))   # d_1 of the (0, 1) flux into component 0
        self.pair_terms = [(0,) + fed[1:] if term == fed else term for term in self.pair_terms]
    monkeypatch.setattr(dyn._Stepper, "__init__", wrong_feed)
    assert list(_broken_maps(*_runs3(LAWS["power"]), MAPS3)) == ["swap", "cycle", "reflect"]
