"""Lattice symmetries of the 2-D torus as known answers.

The solver, the diagnostics, the ledgers and the Littlewood-Paley kernels
commute with every map of the grid onto itself: the axis swap, the
reflection x1 -> -x1 and a shift by whole grid cells (the dyadic partition
is radial, so the kernels must commute too).  A map acts on a state by
moving the samples and turning the velocity with the axes.  Each check
compares the answer for the mapped input with the mapped answer, within a
round-off bound; each bound is stated with what the 2-D 32^2 run below
measured (a random state with wavenumbers up to 6, rho in [0.67, 1.34],
|u| <= 0.29, mu = lam = 0.05, PowerLaw(1, 2), dt = 0.004 to t = 0.06).
The module takes about 0.3 s.
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
    if f.rank == 0:
        rho, _ = g(f.samples, np.zeros((2, M, M)))
        return sp.ScalarField.from_samples(GRID, np.ascontiguousarray(rho))
    _, u = g(np.zeros((M, M)), f.samples)
    return sp.VectorField.from_samples(GRID, np.ascontiguousarray(u))


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
    part = lp.build_partition(GRID)
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


def test_run_commutes_with_every_map(runs):
    """Every stored state of a mapped run is the mapped state of the run."""
    base, mapped = runs
    gaps = {name: max(_state_gap(s, _mapped(MAPS[name], b))
                      for s, b in zip(traj.states, base.states))
            for name, traj in mapped.items()}
    assert all(len(traj) == len(base) == 6 for traj in mapped.values())
    assert max(gaps.values()) < STATE_BOUND, gaps


def test_diagnostics_and_ledgers_are_invariant(runs):
    """Every `compute_diagnostics` column, every ledger's constant and the
    monitor's norms of a mapped run are those of the run."""
    base, mapped = runs
    part = lp.build_partition(GRID)
    residuals = set(diag.RESIDUAL_COLUMNS.values())
    want_rows = [r.row() for r in diag.compute_diagnostics(base, diag.MonitorConfig(), part)]
    want = _reports(base)
    for name, traj in mapped.items():
        rows = [r.row() for r in diag.compute_diagnostics(traj, diag.MonitorConfig(), part)]
        for row, want_row in zip(rows, want_rows, strict=True):
            for col, got, exp in zip(diag.RECORD_COLUMNS, row, want_row):
                bound = RESIDUAL_ABS if col in residuals else SERIES_REL * abs(exp)
                assert abs(got - exp) <= bound, (name, col, got, exp)
        got = _reports(traj)
        assert {key: value for key, value in got.items()
                if not math.isclose(value, want[key], rel_tol=LEDGER_REL,
                                    abs_tol=LEDGER_ABS)} == {}, name


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
