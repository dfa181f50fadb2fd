"""Derived quantities, identity residuals, energy functionals, inequality
ledgers, and blow-up monitors for solver trajectories.

Three accuracy classes, tested accordingly:
  * exact identities (operator algebra): residuals at round-off on any state;
  * discretization-limited identities: O(dt^2) from centred time differencing
    of snapshots, convergent under refinement;
  * inequality ledgers: empirical constants reported, never asserted against
    a hard-coded value (only finiteness and stability).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .spectral import (
    Field,
    ScalarField,
    TorusGrid,
    VectorField,
    coefficient_sup_bound,
    curl,
    divergence,
    gradient,
    gradient_sum,
    inv_laplacian_zero_mean,
    laplacian,
    leray_project,
    lebesgue_norm,
    multiply,
    partial,
    pointwise,
    random_field,
    random_vector_field,
    scale_vector,
    sobolev_norm,
    to_coeffs,
    velocity_gradient,
    _dealiased_values,
    _riesz_symbol,
)
from .littlewood_paley import (BesovSpec, DyadicPartition, EnsembleReport,
                               besov_from_block_norms, besov_norm, block_norms,
                               _ensemble, _ratio_report, _sup_besov)
from .dynamics import (NORMAL_STOPS, FluidParams, FluidState, NonFiniteError, Trajectory,
                       VacuumError, _viscous_dissipation)


def f_weight(t):
    """The parabolic weight f(t) = min(t, 1)."""
    return np.minimum(np.asarray(t, dtype=float), 1.0)


def _cumulative_trapezoid(y, t) -> np.ndarray:
    """Running trapezoid integral of the samples y at the times t, starting
    from 0: the operations of `scipy.integrate.cumulative_trapezoid(y, t,
    initial=0)` in the same order, so the ledgers match it bit for bit
    without importing `scipy.integrate`.  A NaN reaches every later entry."""
    y, t = np.asarray(y), np.asarray(t)
    if y.ndim != 1 or y.shape != t.shape or not y.size:
        raise ValueError(f"need matching 1-D samples and times, got shapes "
                         f"{y.shape} and {t.shape}")
    return np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)))


@dataclass
class MonitorConfig:
    epsilon: float = 0.5        # slack epsilon in criterion exponents
    p_gain: int = 4             # integrability-gain exponent p1
    q_density: float | None = None  # Lebesgue exponent; None = (N+1+eps)*gamma

    def __post_init__(self):
        if errors := self.errors(self.epsilon, self.p_gain, self.q_density):
            raise ValueError("; ".join(errors))

    @staticmethod
    def errors(epsilon: float, p_gain: int, q_density: float | None) -> list[str]:
        """The monitor's rules, which `parse_config` collects for monitor.*."""
        rules = [(epsilon > 0, f"epsilon must be positive, got {epsilon}"),
                 (p_gain >= 2 and p_gain % 2 == 0, f"p_gain must be even and >= 2, got {p_gain}"),
                 (q_density is None or q_density >= 1, f"q_density must be >= 1, got {q_density}")]
        return [message for holds, message in rules if not holds]


def criterion_exponent(dim: int, gamma: float, epsilon: float) -> float:
    """The extension-criterion Lebesgue exponent (N + 1 + eps) * gamma."""
    return (dim + 1 + epsilon) * gamma


def _criterion_exponents(params: FluidParams, monitor: MonitorConfig,
                         dim: int) -> tuple[float, float]:
    """(gamma, q) of the density criterion.  A tabulated law has no gamma,
    so it needs an explicit q_density (and its time norm uses gamma = 1)."""
    gamma = getattr(params.pressure, "gamma", None)
    if gamma is None:
        if monitor.q_density is None:
            raise ValueError("tabulated law needs an explicit q_density")
        gamma = 1.0
    return gamma, monitor.q_density or criterion_exponent(dim, gamma, monitor.epsilon)


@dataclass
class LedgerReport:
    """Named LHS/RHS pairs of one tracked inequality with the ratio history."""
    name: str
    columns: list[str]
    rows: list[tuple]
    empirical_constant: float
    notes: str = ""

    def to_csv(self) -> str:
        return _csv(self.columns, self.rows)

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])


def _csv(columns: Sequence[str], rows) -> str:
    """A header line of `columns`, then one line per row of float reprs."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _ratio_ledger(name: str, columns: dict[str, np.ndarray], lhs, rhs,
                  notes: str = "") -> LedgerReport:
    """The given columns followed by lhs, rhs and lhs/rhs (0 where rhs <= 0);
    the constant is the largest ratio, NaN as soon as one ratio is."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    ratio = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=~(rhs <= 0))
    columns = {**columns, "lhs": lhs, "rhs": rhs, "ratio": ratio}
    return LedgerReport(name, list(columns), list(zip(*columns.values())),
                        float(np.max(ratio, initial=0.0)), notes)


# ---------------------------------------------------------------------------
# shared integrands
# ---------------------------------------------------------------------------

def _rho_weighted_sq(rho: ScalarField, x: VectorField) -> float:
    """int rho |X|^2 dx."""
    return float(np.sum(rho.samples * np.sum(x.samples ** 2, axis=0))) \
        * rho.grid.cell_volume


def _viscous_form(params: FluidParams, x: VectorField) -> float:
    """int mu |grad X|^2 + (mu + lam) (div X)^2 dx (`_viscous_dissipation`)."""
    return _viscous_dissipation(x.grid, params, x.coeffs, divergence(x).coeffs)


def _grad_sq(f: Field, grad: np.ndarray | None = None) -> np.ndarray:
    """Pointwise |grad f|^2, summed over the derivative and component axes;
    `grad` stands in for velocity_gradient(f) where the caller has it."""
    g = velocity_gradient(f) if grad is None else grad
    return np.sum(g ** 2, axis=tuple(range(1 + f.rank)))


def _moment(state: FluidState, p1: float) -> float:
    """(1/p1) int rho |u|^p1 dx."""
    mag2 = np.sum(state.u.samples ** 2, axis=0)
    return float(np.sum(state.rho.samples * mag2 ** (p1 / 2))) \
        * state.grid.cell_volume / p1


def _advect(u: VectorField, f: Field) -> Field:
    """u . grad f for a scalar or vector f, dealiased like `multiply`."""
    adv = sum(ui * gi for ui, gi in zip(u.samples, velocity_gradient(f)))
    return _dealiased_values(type(f), f.grid, adv)


def _inv_lap_div(x: VectorField) -> ScalarField:
    """inv_lap div X, the zero-mean potential of the gradient part of X."""
    return inv_laplacian_zero_mean(divergence(x))


def _forcing_density(state: FluidState, params: FluidParams) -> VectorField:
    """rho g at the state's time (zero without forcing)."""
    g = params.forcing_field(state.t, state.grid)
    return VectorField.zero(state.grid) if g is None else scale_vector(state.rho, g)


def _potential_quadrature(weight: Callable[[np.ndarray], np.ndarray],
                          s: np.ndarray) -> np.ndarray:
    """Pi_f(s) = s int_0^s f(z)/z^2 dz = int_0^1 f(s t)/t^2 dt (z = s t) by
    128-node Gauss-Legendre quadrature, exact for polynomial weights up to
    high degree; 0 where s <= 0."""
    x, w = np.polynomial.legendre.leggauss(128)
    t, wt = 0.5 * (x + 1.0), 0.5 * w   # nodes on (0, 1)
    s = np.maximum(s, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = weight(s[..., None] * t) / t ** 2
    return np.where(s > 0, (vals * wt).sum(axis=-1), 0.0)


# ---------------------------------------------------------------------------
# pressure potentials
# ---------------------------------------------------------------------------

def pressure_potential(law, rho: ScalarField) -> ScalarField:
    """Potential Pi(rho) with s Pi'(s) - Pi(s) = P(s) (closed form for power
    laws with gamma > 1; quadrature for tabulated laws)."""
    vals = law.potential(np.maximum(rho.samples, 0.0))
    return pointwise(rho.grid, vals, dealiased=False)


def k_function(law, s):
    """k(s) = P(s)^2 - Pi_{P^2}(s)/2; for P = a s^gamma this is
    a^2 s^{2 gamma} (2 gamma - 3/2) / (2 gamma - 1)."""
    gamma = getattr(law, "gamma", None)
    s = np.asarray(s, dtype=float)
    if gamma is not None:
        a = law.a
        return a * a * s ** (2 * gamma) * (2 * gamma - 1.5) / (2 * gamma - 1.0)
    return law(s) ** 2 - 0.5 * _potential_quadrature(lambda z: law(z) ** 2, s)


# ---------------------------------------------------------------------------
# effective pressure / effective velocity / log-density machinery
# ---------------------------------------------------------------------------

def pressure_field(state: FluidState, params: FluidParams) -> ScalarField:
    return pointwise(state.grid, params.pressure(state.rho.samples))


def effective_pressure(state: FluidState, params: FluidParams,
                       pressure: ScalarField) -> ScalarField:
    """G = (2 mu + lam) div u - P(rho) + mean P(rho), with `pressure` the
    P(rho) of `pressure_field(state, params)`."""
    g = divergence(state.u) * params.nu - pressure
    return g + ScalarField.constant(state.grid, pressure.mean)


@functools.lru_cache(maxsize=32)  # one entry per grid in use
def _flux_symbols(grid: TorusGrid) -> np.ndarray:
    """The Riesz symbols k_i k_j / |k|^2 of d_i d_j inv_lap for the index
    pairs i <= j in row-major order, on the 2/3-dealiased band and zero off
    it, stacked on a leading axis."""
    return np.stack([_riesz_symbol(grid, i, j) for i in range(grid.dim)
                     for j in range(i, grid.dim)]) * grid.dealias_mask()


def _coifman_parts(state: FluidState) -> tuple[ScalarField, ScalarField]:
    """(the commutator of `coifman_commutator`, inv_lap div(rho u)).

    With b = rho u, the second term sum_{i,j} d_i d_j inv_lap (u_j b_i) has a
    symmetric symbol, so it is the sum over the pairs i <= j of that symbol
    times the pair sums u_i b_j + u_j b_i (u_i b_i on the diagonal):
    dim (dim + 1) / 2 forward-transformed fields multiplied by one cached
    symbol stack, the 2/3 mask folded into it."""
    grid = state.grid
    b = scale_vector(state.rho, state.u)
    phi = _inv_lap_div(b)
    u, bs = state.u.samples, b.samples
    pairs = np.stack([u[i] * bs[i] if i == j else u[i] * bs[j] + u[j] * bs[i]
                      for i in range(grid.dim) for j in range(i, grid.dim)])
    term2 = np.sum(to_coeffs(grid, pairs) * _flux_symbols(grid), axis=0)
    return _advect(state.u, phi) - ScalarField(grid, term2, copy=False), phi


def coifman_commutator(state: FluidState) -> tuple[ScalarField, float]:
    """The double-summed commutator [u_j, R_i R_j](rho u_i) =
    u . grad inv_lap div(rho u) - sum_j d_j inv_lap div(u_j rho u), and its
    W^{1,1} norm (1/r3 = 1/r1 + 1/r2 with r1 = r2 = 2, so r3 = 1)."""
    comm, _ = _coifman_parts(state)
    return comm, sobolev_norm(comm, 1, 1.0)


def effective_velocity(state: FluidState, params: FluidParams,
                       pressure: ScalarField) -> tuple[VectorField, VectorField]:
    """(v1, v) with v = grad inv_lap (P(rho) - mean P) and v1 = u - v/nu;
    `pressure` as in `effective_pressure`."""
    v = bogovskii(pressure)
    return state.u - v * (1.0 / params.nu), v


def v1_identities(state: FluidState, params: FluidParams,
                  snapshot: _Snapshot | None = None) -> dict[str, float]:
    """Sup-norm residuals of the exact effective-velocity identities:
    div v1 = G/nu, curl v1 = curl u, lap u = lap v1 + grad P / nu, each the
    `spectral.coefficient_sup_bound` that `series.csv` stores (no transform;
    at least the sampled sup, round-off slack included).  `snapshot`, when
    given, must be `_Snapshot(state, params)`: its bounds are read, not rebuilt."""
    snap = _Snapshot(state, params) if snapshot is None else snapshot
    return snap.v1_bounds


def bogovskii(h: ScalarField) -> VectorField:
    """Right inverse of the divergence on the torus:
    Lambda^{-1} h = grad inv_lap (h - mean h), so div Lambda^{-1} h = h - mean h."""
    return gradient(inv_laplacian_zero_mean(h))


# ---------------------------------------------------------------------------
# time differencing
# ---------------------------------------------------------------------------

def _difference(times: Sequence[float], values: Sequence, pos: int):
    """d/dt at times[pos] of `values` sampled at three consecutive `times`:
    the centred second-order difference at pos 1 and the one-sided ones at
    the ends (np.gradient's non-uniform formulas with edge_order=2)."""
    if len(values) < 3:
        raise ValueError("need at least 3 snapshots for centred differencing")
    dx1, dx2 = np.diff(np.asarray(times, dtype=float))
    if pos == 0:
        a = -(2. * dx1 + dx2) / (dx1 * (dx1 + dx2))
        b = (dx1 + dx2) / (dx1 * dx2)
        c = -dx1 / (dx2 * (dx1 + dx2))
    elif pos == 1:
        a = -dx2 / (dx1 * (dx1 + dx2))
        b = (dx2 - dx1) / (dx1 * dx2)
        c = dx1 / (dx2 * (dx1 + dx2))
    else:
        a = dx2 / (dx1 * (dx1 + dx2))
        b = -(dx2 + dx1) / (dx1 * dx2)
        c = (2. * dx2 + dx1) / (dx2 * (dx1 + dx2))
    out = a * values[0]
    out += b * values[1]
    out += c * values[2]
    return out


class _Window:
    """Up to three consecutive items of a time series and the position of
    the current one among them: (previous, current, next) inside the series,
    its first three at its first item and its last three at its last, which
    the one-sided differences at the ends read; or the current item alone,
    for a pass that differentiates nothing in time."""

    def __init__(self, span: int):
        self.items: list = []
        self.span = span
        self.pos = 0
        self.index = 0   # of the current item in the series

    @property
    def current(self):
        return self.items[self.pos]

    def time_derivative(self, read: Callable[["_Snapshot"], Field]) -> Field:
        """d/dt at the current snapshot of the field read(snapshot)."""
        if self.span == 1:
            raise RuntimeError("time derivative on a pass whose accumulators "
                               "declare none (`differentiates`)")
        fields = [read(s) for s in self.items]
        return fields[0].with_coeffs(_difference([s.t for s in self.items],
                                                 [f.coeffs for f in fields], self.pos))


def _windows(count: int, load: Callable[[int], object], span: int):
    """Yield one `_Window` of up to `span` (3 or 1) items per item n = 0 ..
    count-1 in order, loading each item once with load(n).  The same window
    object is updated in place, and an item leaves it before the next one is
    loaded, so at most `span` loaded items are alive at any time."""
    window = _Window(span)
    first = 0
    for n in range(count):
        start = min(max(n - span // 2, 0), max(count - span, 0))
        del window.items[:start - first]
        first = start
        while len(window.items) < min(span, count - start):
            window.items.append(load(start + len(window.items)))
        window.pos, window.index = n - start, n
        yield window


# ---------------------------------------------------------------------------
# snapshot passes: one state's shared fields, and the ledgers fed by them
# ---------------------------------------------------------------------------

class _Snapshot:
    """One state and the fields derived from it that more than one ledger
    reads, each computed on first use.  Every accumulator of a pass reads the
    same object while the state is in the window, so such a field is
    transformed once per state.

    `state` is the snapshot's own copy of the stored state, built from the
    stored samples alone, as `dynamics.read_checkpoint` builds a state, so a
    pass over a run in memory and one over its checkpoints read the same
    fields, bit for bit.  What its fields compute on first read (their
    coefficients) is kept here, not on the stored state, so it is freed with
    the snapshot and a trajectory's states stay as small as they were built.
    Every pass refuses a state here alone, so every accumulator reads finite
    samples and a positive density: a NaN or inf sample raises
    `NonFiniteError`, and a density at or below zero `VacuumError`."""

    def __init__(self, state: FluidState, params: FluidParams):
        grid = state.grid
        self.state = FluidState(ScalarField._of_samples(grid, state.rho.view().samples),
                                VectorField._of_samples(grid, state.u.view().samples), state.t)
        for name, f in (("density", self.state.rho), ("velocity", self.state.u)):
            if not np.all(np.isfinite(f.samples)):
                raise NonFiniteError(state.t, name)
        if self.state.min_density <= 0:
            raise VacuumError(state.t, self.state.min_density)
        self.params = params
        self.t = state.t

    @functools.cached_property
    def p_values(self) -> np.ndarray:
        """P(rho) at the grid points."""
        return self.params.pressure(self.state.rho.samples)

    @functools.cached_property
    def dp_values(self) -> np.ndarray:
        """P'(rho) at the grid points."""
        return self.params.pressure.derivative(self.state.rho.samples)

    @functools.cached_property
    def pressure(self) -> ScalarField:
        """P(rho) as `pressure_field` builds it."""
        return pointwise(self.state.grid, self.p_values)

    @functools.cached_property
    def velocities(self) -> tuple[VectorField, VectorField]:
        """(v1, v) of `effective_velocity`."""
        return effective_velocity(self.state, self.params, self.pressure)

    @functools.cached_property
    def effective(self) -> ScalarField:
        """G of `effective_pressure`."""
        return effective_pressure(self.state, self.params, self.pressure)

    @functools.cached_property
    def vorticity(self) -> Field:
        """curl u."""
        return curl(self.state.u)

    @functools.cached_property
    def div_v1(self) -> ScalarField:
        """div v1."""
        return divergence(self.velocities[0])

    @functools.cached_property
    def grad_u(self) -> np.ndarray:
        """Samples of grad u, as `velocity_gradient` gives them."""
        return velocity_gradient(self.state.u)

    @functools.cached_property
    def grad_sq(self) -> np.ndarray:
        """Pointwise |grad u|^2."""
        return _grad_sq(self.state.u, self.grad_u)

    @functools.cached_property
    def coifman(self) -> tuple[ScalarField, ScalarField]:
        return _coifman_parts(self.state)

    @functools.cached_property
    def log_parts(self) -> tuple[ScalarField, ScalarField]:
        """(log rho, inv_lap div(rho u)), the two terms of F; the second is
        the potential that `coifman` holds."""
        log_rho = pointwise(self.state.grid, np.log(self.state.rho.samples), dealiased=False)
        return log_rho, self.coifman[1]

    @functools.cached_property
    def rho_inf(self) -> float:
        return lebesgue_norm(self.state.rho, math.inf)

    def v1_residuals(self) -> dict[str, Field]:
        """The residual fields of the identities of `v1_identities`, by name,
        built from the cached (v1, v), G, P and curl u."""
        v1, _ = self.velocities
        inv_nu = 1.0 / self.params.nu
        return {
            "div_v1": self.div_v1 - self.effective * inv_nu,
            "curl_v1": curl(v1) - self.vorticity,
            "lap_u_decomposition": (laplacian(self.state.u) - laplacian(v1)
                                    - gradient(self.pressure) * inv_nu),
        }

    @functools.cached_property
    def v1_bounds(self) -> dict[str, float]:
        """The `coefficient_sup_bound` of each field of `v1_residuals`."""
        return {name: coefficient_sup_bound(res) for name, res in self.v1_residuals().items()}

    def release(self) -> None:
        """Drop the fields that only this snapshot's own window position
        reads: a neighbour's time derivative reads u, (v1, v) and the terms
        of F alone."""
        for name in ("p_values", "dp_values", "pressure", "effective", "vorticity", "div_v1",
                     "grad_u", "grad_sq", "coifman", "v1_bounds"):
            self.__dict__.pop(name, None)


class Accumulator:
    """A ledger fed one snapshot window at a time, in time order, by `feed`;
    `finish` returns its report.

    It is built from a run's record, whose `params`, `quadratures`,
    `stop_reason` and `stop_time` it keeps (never its states, which a pass
    may stream from disk), and from the ledger's own arguments, kept as
    `config`.  It keeps scalars per snapshot in `rows`, not fields, so its
    memory does not grow with a snapshot's size.  `differentiates` is true
    for a ledger that reads the neighbours of the current snapshot (a time
    derivative).
    """

    differentiates = False

    def __init__(self, run: Trajectory, *config):
        self.params, self.quadratures = run.params, run.quadratures
        self.stop_reason, self.stop_time = run.stop_reason, run.stop_time
        self.config = config
        self.times: list[float] = []
        self.rows: list = []

    def add(self, window: _Window) -> None:
        self.times.append(window.current.t)

    def finish(self):
        raise NotImplementedError


def feed(accumulators: Sequence, params: FluidParams, count: int,
         load: Callable[[int], FluidState]) -> None:
    """One pass over the `count` states that load(n) returns in time order:
    every accumulator gets every window, so all of them share each state's
    `_Snapshot`.  At most three states are held at once, and one when no
    accumulator differentiates in time (an accumulator without a
    `differentiates` attribute does not), so a snapshot's fields are freed
    as soon as every accumulator has read it.  A non-finite sample or a
    density <= 0 stops the pass (`_Snapshot`)."""
    span = 3 if any(getattr(acc, "differentiates", False) for acc in accumulators) else 1
    for window in _windows(count, lambda n: _Snapshot(load(n), params), span):
        for acc in accumulators:
            acc.add(window)
        window.current.release()


def _report(source, ledger: type, *config):
    """The finished `ledger` accumulator built with `config`: fed every state
    of `source` when it is a Trajectory, or `source` itself when it is such
    an accumulator that a shared pass has fed (how `app.verify` reads its
    checkpoints), whose config must then be `config`."""
    if isinstance(source, ledger):
        if source.config != config:
            raise ValueError(f"{ledger.__name__} was built with {source.config}, "
                             f"not {config}")
        return source.finish()
    acc = ledger(source, *config)
    feed([acc], source.params, len(source), source.states.__getitem__)
    return acc.finish()


def _material_derivative(window: _Window, read: Callable[[_Snapshot], Field]) -> Field:
    """d/dt = d_t + u . grad at the current snapshot of the scalar or vector
    field read(snapshot), its time part from `_Window.time_derivative`."""
    return window.time_derivative(read) + _advect(window.current.state.u, read(window.current))


# ---------------------------------------------------------------------------
# identity residual suites
# ---------------------------------------------------------------------------

class _InteriorResiduals(Accumulator):
    """Sup norms of the residual fields that `residuals(window)` builds at
    each interior snapshot, where the centred difference applies; fewer than
    three snapshots raise."""

    differentiates = True

    def add(self, window: _Window) -> None:
        super().add(window)
        if window.pos == 1:
            self.rows.append(tuple(lebesgue_norm(res, math.inf)
                                   for res in self.residuals(window)))

    def columns(self) -> np.ndarray:
        """One residual series per row."""
        if len(self.times) < 3:
            raise ValueError("need at least 3 snapshots for centred differencing")
        return np.array(self.rows).T


class _FTransport(_InteriorResiduals):
    """Accumulator of `f_transport_residual`, its config the reading."""

    def f_field(self, snap: _Snapshot) -> ScalarField:
        """F of the snapshot under the reading."""
        log_rho, flux = snap.log_parts
        nu = self.params.nu
        return log_rho * nu + flux if self.config == ("adopted",) else (log_rho + flux) * nu

    def residuals(self, window: _Window):
        snap = window.current
        p = snap.pressure
        yield (_material_derivative(window, self.f_field) + p
               - ScalarField.constant(snap.state.grid, p.mean) - snap.coifman[0]
               - _inv_lap_div(_forcing_density(snap.state, self.params)))

    def finish(self) -> np.ndarray:
        return self.columns()[0]


def f_transport_residual(trajectory: Trajectory,
                         reading: str = "adopted") -> np.ndarray:
    """Sup-norm residual series of the transport identity for F:

        d_t F + u . grad F + (P - mean P) - [u_j, R_i R_j](rho u_i)
            - inv_lap div(rho g) = 0

    at the interior snapshots, d_t F by centred differencing.  reading =
    "adopted" uses F = nu log rho + inv_lap div(rho u), under which the
    identity follows from the mass and momentum equations; reading =
    "rejected" puts nu on both terms, and its residual does not vanish with dt.
    """
    return _report(trajectory, _FTransport, reading)


class _EllipticIdentities(_InteriorResiduals):
    """Accumulator of `elliptic_identities`, its config the forcing sign."""

    def residuals(self, window: _Window):
        snap, params = window.current, self.params
        state = snap.state
        rho_dot = scale_vector(state.rho, _material_derivative(window, lambda s: s.state.u))
        rho_g = _forcing_density(state, params)
        p_u, _ = leray_project(state.u)
        p_dot, q_dot = leray_project(rho_dot)
        p_g, q_g = leray_project(rho_g)
        yield laplacian(p_u) * params.mu - p_dot + p_g
        yield gradient(snap.effective) - q_dot + q_g
        yield laplacian(snap.effective) - divergence(rho_dot + rho_g * self.config[0])

    def finish(self) -> dict[str, np.ndarray]:
        return dict(zip(("momentum_p_part", "effective_pressure_gradient",
                         "effective_pressure_laplacian"), self.columns()))


def elliptic_identities(trajectory: Trajectory,
                        forcing_sign: float = -1.0) -> dict[str, np.ndarray]:
    """Residual series (interior snapshots) of the elliptic identities

        mu lap(Pu) = P(rho udot) - P(rho g)
        grad G     = Q(rho udot) - Q(rho g)
        lap G      = div(rho (udot - g))

    with udot = d_t u + u . grad u, d_t u by centred differencing.
    forcing_sign=+1 evaluates the falsified +g variant of the lap G
    identity, which must not converge.
    """
    return _report(trajectory, _EllipticIdentities, forcing_sign)


# ---------------------------------------------------------------------------
# energy ledgers
# ---------------------------------------------------------------------------

def _energy_parts(state: FluidState, params: FluidParams) -> tuple[float, float]:
    """(int rho |u|^2 / 2 dx, int Pi(rho) dx), both sample sums (grid
    quadrature), at no transform."""
    potential = pressure_potential(params.pressure, state.rho).samples
    return (0.5 * _rho_weighted_sq(state.rho, state.u),
            float(np.sum(potential)) * state.grid.cell_volume)


def total_energy(state: FluidState, params: FluidParams) -> float:
    """E = int (rho |u|^2 / 2 + Pi(rho)) dx, the sum of `_energy_parts`."""
    return sum(_energy_parts(state, params))


def dissipation_rate(state: FluidState, params: FluidParams) -> float:
    """int mu |grad u|^2 + (mu + lam)(div u)^2 dx."""
    return _viscous_form(params, state.u)


class EnergyLedger(Accumulator):
    """Accumulator of `energy_ledger`."""

    def add(self, window: _Window) -> None:
        super().add(window)
        self.rows.append(total_energy(window.current.state, self.params))

    def finish(self) -> LedgerReport:
        n = len(self.times)
        energy = np.array(self.rows)
        diss = np.asarray(self.quadratures.get("dissipation") or np.zeros(n))
        work = np.asarray(self.quadratures.get("forcing_work") or np.zeros(n))
        slack = energy[0] + work - energy - diss
        return LedgerReport(
            "energy_balance",
            ["time", "energy", "dissipation", "forcing_work", "slack"],
            list(zip(self.times, energy, diss, work, slack)),
            empirical_constant=-float(np.min(slack, initial=0.0)),
            notes="slack = E(0) + work - E(t) - dissipation; stays >= -tolerance")


def energy_ledger(trajectory: Trajectory | EnergyLedger) -> LedgerReport:
    """Energy balance E(t) + dissipation <= E(0) + forcing work.

    The dissipation and work integrals come from the solver's stage-level
    quadratures (RK4-accurate); the slack column should be zero up to time
    discretization and dealiasing, and non-negative up to that tolerance.
    Like every ledger below, it also reports an accumulator that a shared
    pass has fed in place of the trajectory (see `_report`).
    """
    return _report(trajectory, EnergyLedger)


class _AFunctional(Accumulator):
    """The weighted energy functional

        A(t) = int_0^t int f(s) rho |d_s u|^2 + f(t)/2 int (mu |grad u|^2
               + (lam+mu)(div u)^2) + nu^{-2} int_0^t int f P^2 (rho P' - P)
               + nu^{-1} f(t) int k(rho)

    and its four components as time series, the right side of
    `grad_omega_budget`."""

    differentiates = True

    def add(self, window: _Window) -> None:
        super().add(window)
        snap = window.current
        state = snap.state
        rho, p = state.rho.samples, snap.p_values
        du = window.time_derivative(lambda s: s.state.u)
        self.rows.append((_rho_weighted_sq(state.rho, du),
                          float(np.sum(p ** 2 * (rho * snap.dp_values - p)))
                          * state.grid.cell_volume,
                          dissipation_rate(state, self.params),
                          float(np.sum(k_function(self.params.pressure, rho)))
                          * state.grid.cell_volume))

    def finish(self) -> dict[str, np.ndarray]:
        times = np.array(self.times)
        nu = self.params.nu
        kin_rate, press_rate, grad_rate, k_rate = f_weight(times) * np.array(self.rows).T
        accel = _cumulative_trapezoid(kin_rate, times)
        press = _cumulative_trapezoid(press_rate, times) / nu ** 2
        grad_term = 0.5 * grad_rate
        k_term = k_rate / nu
        return {"time": times, "A": accel + grad_term + press + k_term,
                "acceleration": accel, "gradient": grad_term,
                "pressure_interaction": press, "k_weight": k_term}


class GradOmegaBudget(Accumulator):
    """Accumulator of `grad_omega_budget`."""

    differentiates = True   # through its A functional

    def __init__(self, run: Trajectory):
        super().__init__(run)
        self.a = _AFunctional(run)

    def add(self, window: _Window) -> None:
        super().add(window)
        snap = window.current
        grid = snap.state.grid
        self.rows.append((grid.volume * gradient_sum(grid, snap.vorticity.coeffs),
                          snap.rho_inf))
        self.a.add(window)

    def finish(self) -> LedgerReport:
        times = np.array(self.times)
        curl_rate, rho_inf = np.array(self.rows).T
        lhs = _cumulative_trapezoid(f_weight(times) * curl_rate, times)
        rhs = float(np.max(rho_inf)) * self.a.finish()["A"]
        return _ratio_ledger("vorticity_gradient_budget", {"time": times}, lhs, rhs)


def grad_omega_budget(trajectory: Trajectory | GradOmegaBudget) -> LedgerReport:
    """int_0^t int f(s) |grad omega|^2 against ||rho||_inf A(t)."""
    return _report(trajectory, GradOmegaBudget)


class IntegrabilityGain(Accumulator):
    """Accumulator of `integrability_gain`."""

    def __init__(self, run: Trajectory, p1: int):
        super().__init__(run, p1)
        if p1 < 2 or p1 % 2 != 0:
            raise ValueError(f"p1 must be even and >= 2, got {p1}")
        self.p1 = p1

    def add(self, window: _Window) -> None:
        super().add(window)
        snap = window.current
        state, p1 = snap.state, self.p1
        self.dim = state.grid.dim
        vol = state.grid.cell_volume
        u_s = state.u.samples
        mag2 = np.sum(u_s ** 2, axis=0)
        d1_rate = float(np.sum(mag2 ** ((p1 - 2) / 2) * snap.grad_sq)) * vol
        d2_rate = 0.0
        if p1 >= 4:
            # |grad |u|^2|^2 with d_i |u|^2 = 2 sum_j u_j d_i u_j
            grad_mag2 = np.sum((2 * np.sum(u_s * snap.grad_u, axis=1)) ** 2, axis=0)
            d2_rate = float(np.sum(mag2 ** ((p1 - 4) / 2) * grad_mag2)) * vol
        space_p = 3.0 * p1 / (p1 + 1.0)
        self.rows.append((_moment(state, p1), d1_rate, d2_rate,
                          lebesgue_norm(snap.pressure, space_p)))

    def finish(self) -> LedgerReport:
        params, p1 = self.params, self.p1
        s_param = 1.0 / (2.0 * self.dim)
        if p1 > 2 and params.lam > 0:
            eta = 4.0 * (s_param * params.mu + params.lam) / (params.lam * (p1 - 2))
            b_coeff = (p1 - 2) / 4.0 * (params.mu - params.lam ** 2 * (p1 - 2)
                                        / (s_param * params.mu + params.lam))
        else:
            eta = math.inf
            b_coeff = params.mu * (p1 - 2) / 4.0
        a_coeff = params.mu * (1.0 - s_param * self.dim)
        times = np.array(self.times)
        moment, d1_rate, d2_rate, p_norm = np.array(self.rows).T
        d1 = _cumulative_trapezoid(d1_rate, times)
        d2 = _cumulative_trapezoid(d2_rate, times)
        p_time = _cumulative_trapezoid(p_norm ** p1, times) ** (1.0 / p1)
        return _ratio_ledger(
            f"integrability_gain_p{p1}",
            {"time": times, "moment": moment, "grad_integral": d1, "grad_mag_integral": d2},
            moment + a_coeff * d1 + max(b_coeff, 0.0) * d2, p_time ** 2 + moment[0],
            notes=f"eta={eta:g}, A_s={a_coeff:g}, B_s={b_coeff:g}, s={s_param:g}")


def integrability_gain(trajectory: Trajectory | IntegrabilityGain, p1: int) -> LedgerReport:
    """Weighted-velocity moment ledger: tracks (1/p1) int rho |u|^{p1} and the
    two dissipation-like integrals against the pressure norm on the right.

    The Young exponent eta solves lam eta (p1-2)/4 = s mu + lam with
    s = 1/(2N); p1 must be even and >= 2 (grid powers of |u| stay smooth).
    The pressure is measured in L^{3 p1/(p1+1)} in space: the 3-D exponent,
    and the 2-D one 2 q p1/((q-2) p1 + 4) with the reporting choice q = 6 for
    the time Lebesgue exponent (the paper leaves q free), which equals it.
    """
    return _report(trajectory, IntegrabilityGain, p1)


# ---------------------------------------------------------------------------
# density bounds
# ---------------------------------------------------------------------------

class DensityBoundLedger(Accumulator):
    """Accumulator of `density_bound_ledger`."""

    def add(self, window: _Window) -> None:
        snap = window.current
        s = snap.state
        if not self.times:
            self.rho0_max = float(np.max(s.rho.samples))
            self.rho0_min = float(np.min(s.rho.samples))
        super().add(window)
        p = snap.pressure
        comm, phi = snap.coifman
        log_rho = np.log(s.rho.samples)
        self.rows.append((p.mean, lebesgue_norm(p, math.inf), lebesgue_norm(comm, math.inf),
                          lebesgue_norm(phi, math.inf), np.max(log_rho), np.min(log_rho)))

    def finish(self) -> LedgerReport:
        nu = self.params.nu
        times = np.array(self.times)
        mean_p, sup_p, comm_sup, pot_term, log_max, log_min = np.array(self.rows).T
        int_mean_p = _cumulative_trapezoid(mean_p, times)
        int_sup_p = _cumulative_trapezoid(sup_p, times)
        int_comm = _cumulative_trapezoid(comm_sup, times)
        lhs_hi = nu * log_max
        rhs_hi = nu * math.log(self.rho0_max) + pot_term[0] + pot_term \
            + int_mean_p + int_comm
        lhs_lo = nu * log_min
        rhs_lo = (nu * math.log(self.rho0_min) - pot_term[0]
                  - np.maximum.accumulate(pot_term) - int_sup_p + int_mean_p - int_comm)
        ratio = np.maximum(np.divide(lhs_hi, rhs_hi, out=np.zeros_like(lhs_hi),
                                     where=rhs_hi != 0), 0.0)
        return LedgerReport(
            "log_density_bounds",
            ["time", "upper_lhs", "upper_rhs", "upper_gap",
             "lower_lhs", "lower_rhs", "lower_gap"],
            list(zip(times, lhs_hi, rhs_hi, rhs_hi - lhs_hi, lhs_lo, rhs_lo,
                     lhs_lo - rhs_lo)),
            float(np.max(ratio, initial=0.0)),
            notes="gaps must stay nonnegative up to discretization; forcing terms "
                  "are not included (the bound is derived for g = 0)")


def density_bound_ledger(trajectory: Trajectory | DensityBoundLedger) -> LedgerReport:
    """Assembled two-sided log-density bounds along a trajectory.

    Upper: nu log rho(t,x) <= nu log ||rho0||_inf + ||inv_lap div m0||_inf
           + ||inv_lap div(rho u)(t)||_inf + int_0^t mean P + int_0^t ||comm||_inf.
    Lower: nu log rho(t,x) >= nu log min rho0 - ||inv_lap div m0||_inf
           - sup_{s<=t} ||inv_lap div(rho u)||_inf - int ||P||_inf + int mean P
           - int ||comm||_inf.
    Both follow from the characteristic representation of F by dropping
    sign-definite terms, so the empirical constants sit near one.
    """
    return _report(trajectory, DensityBoundLedger)


# ---------------------------------------------------------------------------
# blow-up monitors
# ---------------------------------------------------------------------------

@dataclass
class MonitorFlags:
    density_bounded: bool
    first_violation_time: float | None
    rho_sup: float
    criterion_exponent: float
    pressure_time_norm: float
    companion_norms: dict[str, float]
    lipschitz_integral: float
    stop_reason: str

    def criterion_norms(self) -> dict[str, float]:
        """Every norm of criteria (b) and (c) of `blowup_monitor`, by name."""
        return {"pressure_time_norm": self.pressure_time_norm, **self.companion_norms,
                "lipschitz_integral": self.lipschitz_integral}

    @property
    def criterion_norms_finite(self) -> bool:
        return all(math.isfinite(v) for v in self.criterion_norms().values())

    @property
    def extendable(self) -> bool:
        return self.density_bounded and self.criterion_norms_finite


def _in_window(t: float, window_end: float | None) -> bool:
    return window_end is None or t <= window_end * (1 + 1e-12)


class BlowupMonitor(Accumulator):
    """Accumulator of `blowup_monitor` on [0, window_end] (all snapshots for
    None).  Its density criterion needs no norm, since the pass refuses a
    non-finite or non-positive density: no abnormal stop inside the window."""

    def __init__(self, run: Trajectory, monitor: MonitorConfig,
                 window_end: float | None = None):
        super().__init__(run, monitor, window_end)
        self.monitor, self.window_end = monitor, window_end
        self.seen = 0

    def add(self, window: _Window) -> None:
        self.seen += 1
        snap = window.current
        if not _in_window(snap.t, self.window_end):
            return
        super().add(window)
        state = snap.state
        if len(self.times) == 1:
            dim = state.grid.dim
            self.gamma, self.q_crit = _criterion_exponents(self.params, self.monitor, dim)
            eps = self.monitor.epsilon
            self.comp_exps = ({"L9eps": 9.0 + eps, "L3g32": 3.0 * self.gamma + 1.5}
                              if dim == 3 else {"L2g1": 2.0 * self.gamma + 1.0})
        self.rows.append(tuple(lebesgue_norm(state.rho, q) for q in self.comp_exps.values())
                         + (lebesgue_norm(state.rho, self.q_crit),
                            math.sqrt(np.max(snap.grad_sq)), snap.rho_inf))

    def finish(self) -> MonitorFlags:
        if not self.seen:
            raise ValueError("empty trajectory")
        if not self.times:
            raise ValueError("window excludes every snapshot")
        density_ok = (self.stop_reason in NORMAL_STOPS
                      or not _in_window(self.stop_time, self.window_end))
        times = np.array(self.times)
        cols = np.array(self.rows).T
        comp = {name: float(np.max(col)) for name, col in zip(self.comp_exps, cols)}
        rho_qc, grad_sup, rho_inf = cols[len(comp):]
        gamma = self.gamma
        if len(times) > 1:
            pressure_time_norm = float(np.trapezoid(rho_qc ** (gamma + 1.0), times)
                                       ** (1.0 / (gamma + 1.0)))
            lipschitz = float(np.trapezoid(grad_sup, times))
        else:
            pressure_time_norm, lipschitz = 0.0, 0.0
        return MonitorFlags(
            density_bounded=density_ok,
            first_violation_time=None if density_ok else self.stop_time,
            rho_sup=float(np.max(rho_inf)),
            criterion_exponent=self.q_crit,
            pressure_time_norm=pressure_time_norm,
            companion_norms=comp,
            lipschitz_integral=lipschitz,
            stop_reason=self.stop_reason)


def blowup_monitor(trajectory: Trajectory | BlowupMonitor, monitor: MonitorConfig,
                   window_end: float | None = None) -> MonitorFlags:
    """Evaluate the continuation criteria on [0, T]:

      (a) sup_t ||rho||_inf finite with positive minimum (density criterion):
          the pass refuses a state that breaks it, so it fails only by an
          abnormal stop inside the window, at the stop time;
      (b) the pressure-integrability norms: ||rho||_{L^{gamma+1}_T(L^{q_c})}
          with q_c = (N+1+eps) gamma, plus the companion sup-in-time norms
          (L^{9+eps} and L^{3 gamma + 3/2} in 3-D, L^{2 gamma + 1} in 2-D);
      (c) the accumulating int ||grad u||_inf dt.

    Flags are monotone under window extension: once violated, the first
    violation time is fixed.
    """
    return _report(trajectory, BlowupMonitor, monitor, window_end)


# ---------------------------------------------------------------------------
# Besov transport estimate
# ---------------------------------------------------------------------------

def _vector_besov(partition: DyadicPartition, fields: Sequence[ScalarField],
                  spec: BesovSpec) -> float:
    return float(np.max([besov_norm(partition, f, spec) for f in fields]))


def _grad_block_fields(u: VectorField) -> list[ScalarField]:
    grid = u.grid
    return [partial(u.component(j), i) for i in range(grid.dim)
            for j in range(grid.dim)]


class TransportEstimate(Accumulator):
    """Accumulator of `transport_estimate_report`."""

    def __init__(self, run: Trajectory, partition: DyadicPartition, sigma: float,
                 p: float, r: float):
        super().__init__(run, partition, sigma, p, r)
        dim = partition.grid.dim
        p_prime = p / (p - 1.0) if p > 1 else math.inf
        if sigma <= -dim * min(1.0 / p, 1.0 / p_prime):
            raise ValueError(
                f"regularity index sigma={sigma} violates the admissible window")
        self.partition, self.sigma, self.p, self.r = partition, sigma, p, r
        self.alpha = max(0, math.ceil(sigma))
        self.spec = BesovSpec(sigma, p, r)
        self.env_spec = BesovSpec(dim / p, p, math.inf)
        # max-type norms throughout: every term is a max over blocks, settled
        # through the l^1 block bounds of _sup_besov; for r = inf the time and
        # block maxima of the left side commute
        self.sup_norms = p == r == math.inf
        self.block_sup = None

    def add(self, window: _Window) -> None:
        super().add(window)
        snap = window.current
        state, partition, sigma = snap.state, self.partition, self.sigma
        div_v1 = snap.div_v1
        div_inf = lebesgue_norm(div_v1, math.inf)
        rho_inf = snap.rho_inf
        if self.sup_norms:
            lhs = _sup_besov(partition, state.rho, sigma,
                             self.rows[-1][0] if self.rows else 0.0)
            grad_env = float(np.max(np.abs(snap.grad_u)))
            for f in _grad_block_fields(state.u):
                grad_env = _sup_besov(partition, f, 0.0, grad_env)
            div_env = _sup_besov(partition, div_v1, 0.0, div_inf)
            div_src = _sup_besov(partition, div_v1, sigma)
        else:
            bn = block_norms(partition, state.rho, self.p)
            self.block_sup = bn if self.block_sup is None else np.maximum(self.block_sup, bn)
            lhs = besov_from_block_norms(self.block_sup, self.spec)
            div_norms = block_norms(partition, div_v1, self.p)
            grad_u_fields = _grad_block_fields(state.u)
            grad_env = float(np.max(
                [_vector_besov(partition, grad_u_fields, self.env_spec)]
                + [lebesgue_norm(f, math.inf) for f in grad_u_fields]))
            div_env = float(np.max([besov_from_block_norms(div_norms, self.env_spec),
                                    div_inf]))
            div_src = besov_from_block_norms(div_norms, self.spec)
        # a float64 power, so a huge density overflows to inf, not OverflowError
        self.rows.append((lhs, grad_env + div_env + np.power(rho_inf, self.alpha + 1) + 1.0,
                          rho_inf * div_src))

    def finish(self) -> LedgerReport:
        times = np.array(self.times)
        lhs, v_rate, src_rate = np.array(self.rows).T
        v_int = _cumulative_trapezoid(v_rate, times)
        envelope = lhs[0] + _cumulative_trapezoid(src_rate, times)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a NaN on either side fails both tests and propagates
            need = np.where((lhs <= envelope) | (v_int <= 0), 0.0,
                            np.log(lhs / envelope) / v_int)
        return LedgerReport(
            "besov_transport_estimate",
            ["time", "lhs", "envelope_no_exp", "V", "required_C"],
            list(zip(times, lhs, envelope, v_int, need)),
            float(np.max(need, initial=0.0)),
            notes=f"sigma={self.sigma}, p={self.p}, r={self.r}")


def transport_estimate_report(trajectory: Trajectory | TransportEstimate,
                              partition: DyadicPartition, sigma: float, p: float,
                              r: float) -> LedgerReport:
    """Empirical Gronwall constant of the Besov transport estimate

        ||rho||_{L~inf_t(B^sigma_{p,r})} <= e^{C V(t)} (||rho0||_{B^sigma_{p,r}}
            + int_0^t ||rho||_inf ||div v1||_{B^sigma_{p,r}})

    with V(t) accumulating the grad u / div v1 / density norms.  The minimal
    C making the bound hold at each snapshot is reported.
    """
    return _report(trajectory, TransportEstimate, partition, sigma, p, r)


# ---------------------------------------------------------------------------
# effective-velocity energy ledger
# ---------------------------------------------------------------------------

def dtv_formula(state: FluidState, p: ScalarField, dp: np.ndarray) -> VectorField:
    """Time derivative of the pressure potential field v from the mass
    equation alone:

        d_t v = Lambda^{-1}( -div(P u) + (P - rho P') div u
                             - mean(P div u) + mean(rho P' div u) )

    with Lambda^{-1} the Bogovskii inverse grad inv_lap (. - mean), `p` the
    P(rho) of `pressure_field` and `dp` the samples of P'(rho)."""
    grid = state.grid
    div_u = divergence(state.u)
    pu = scale_vector(p, state.u)
    rho_dp = multiply(state.rho, pointwise(grid, dp))
    h = (divergence(pu) * -1.0) + multiply(p - rho_dp, div_u)
    # the mean mode survives dealiasing: each mean is that of the samples
    mean_terms = (-float(np.mean(p.samples * div_u.samples))
                  + float(np.mean(rho_dp.samples * div_u.samples)))
    h = h + ScalarField.constant(grid, mean_terms)
    return bogovskii(h)


class V1EnergyLedger(Accumulator):
    """Accumulator of `v1_energy_ledger`."""

    differentiates = True

    def add(self, window: _Window) -> None:
        snap = window.current
        super().add(window)
        params = self.params
        v1, _ = snap.velocities
        dt_v1 = window.time_derivative(lambda s: s.velocities[0])
        dtv_resid = math.nan   # at the ends of the run
        if window.pos == 1:
            dt_v = window.time_derivative(lambda s: s.velocities[1])
            dtv_resid = lebesgue_norm(
                dtv_formula(snap.state, snap.pressure, snap.dp_values) - dt_v, math.inf)
        self.rows.append((_rho_weighted_sq(snap.state.rho, dt_v1),
                          _viscous_form(params, v1), dtv_resid))

    def finish(self) -> LedgerReport:
        times = np.array(self.times)
        k1_rate, visc, dtv_resid = np.array(self.rows).T
        fw = f_weight(times)
        k1 = _cumulative_trapezoid(fw * k1_rate, times)
        k2 = 0.5 * fw * visc
        return LedgerReport(
            "effective_velocity_energy",
            ["time", "weighted_acceleration", "weighted_gradient", "dtv_residual"],
            list(zip(times, k1, k2, dtv_resid)),
            float(np.max(dtv_resid[1:-1], initial=0.0)),
            notes="dtv_residual is O(dt^2); NaN at the window ends")


def v1_energy_ledger(trajectory: Trajectory | V1EnergyLedger) -> LedgerReport:
    """Weighted energy of the effective velocity v1 (heat-type budget):
    K1(t) = int_0^t int f rho |d_s v1|^2 and
    K2(t) = f(t)/2 int (mu |grad v1|^2 + (lam+mu)(div v1)^2),
    plus the residual of the d_t v formula against centred differencing."""
    return _report(trajectory, V1EnergyLedger)


# ---------------------------------------------------------------------------
# ensemble studies owned by the diagnostics layer
# ---------------------------------------------------------------------------

def coifman_constant_study(grid: TorusGrid, ensemble_size: int, seed: int = 0
                           ) -> EnsembleReport:
    """sup ||[u_j, R_i R_j](rho u)||_{W^{1,r3}} / (||u||_{W^{1,r1}}
    ||rho u||_{L^{r2}}) over random states, with r1 = r2 = 2 and r3 = 1."""
    def sample(rng):
        r = random_field(grid, rng).samples
        rho = pointwise(grid, 1.0 + 0.4 * r / max(1e-9, np.max(np.abs(r))),
                        dealiased=False)
        u = random_vector_field(grid, rng)
        _, norm = coifman_commutator(FluidState(rho, u, 0.0))
        return norm, sobolev_norm(u, 1, 2.0) * lebesgue_norm(scale_vector(rho, u), 2.0)

    return _ratio_report("coifman_commutator_continuity",
                         _ensemble(ensemble_size, sample, seed))


# ---------------------------------------------------------------------------
# per-snapshot records
# ---------------------------------------------------------------------------

#: the series column of each residual of `v1_identities`
RESIDUAL_COLUMNS = {"div_v1": "div_v1_residual", "curl_v1": "curl_v1_residual",
                    "lap_u_decomposition": "lap_decomposition_residual"}

#: stable CSV column order for diagnostic series
RECORD_COLUMNS = [
    "time", "mass", "min_rho", "rho_linf", "rho_lq",
    "grad_u_l2", "grad_u_linf", "kinetic", "potential", "energy",
    "dissipation_cum", "forcing_work_cum", "p1_moment",
    "div_v1_residual", "curl_v1_residual", "lap_decomposition_residual",
    "effective_pressure_l2", "rho_besov_eps", "finite", "positive",
]


@dataclass
class DiagnosticRecord:
    """One time sample of the monitored quantities; `values` keys follow
    RECORD_COLUMNS."""
    time: float
    values: dict[str, float]
    flags: dict[str, bool] = dc_field(default_factory=dict)

    def row(self) -> list[float]:
        flags = {k: 1.0 if self.flags.get(k, False) else 0.0 for k in ("finite", "positive")}
        cells = {**self.values, **flags, "time": self.time}
        return [cells.get(col, math.nan) for col in RECORD_COLUMNS]


class _Diagnostics(Accumulator):
    """Accumulator of `compute_diagnostics`: one DiagnosticRecord per snapshot."""

    def __init__(self, run: Trajectory, monitor: MonitorConfig, partition: DyadicPartition):
        super().__init__(run, monitor, partition)
        _, self.q_dens = _criterion_exponents(self.params, monitor, partition.grid.dim)
        self.eps_spec = BesovSpec(monitor.epsilon, math.inf, math.inf)

    def _cumulative(self, name: str, n: int) -> float:
        """Entry n of a run quadrature: 0 without it, NaN past its end."""
        series = self.quadratures.get(name)
        if series is None:
            return 0.0
        return series[n] if n < len(series) else math.nan

    def add(self, window: _Window) -> None:
        n, snap = window.index, window.current
        state, params, (monitor, partition) = snap.state, self.params, self.config
        gu_mag = np.sqrt(snap.grad_sq)
        kin, pot = _energy_parts(state, params)
        values = {
            "mass": state.mass,
            "min_rho": state.min_density,
            "rho_linf": snap.rho_inf,
            "rho_lq": lebesgue_norm(state.rho, self.q_dens),
            "grad_u_l2": float(math.sqrt(np.sum(gu_mag ** 2) * state.grid.cell_volume)),
            "grad_u_linf": float(np.max(gu_mag)),
            "kinetic": kin,
            "potential": pot,
            "energy": kin + pot,
            "dissipation_cum": self._cumulative("dissipation", n),
            "forcing_work_cum": self._cumulative("forcing_work", n),
            "p1_moment": _moment(state, monitor.p_gain),
        }
        values.update({RESIDUAL_COLUMNS[name]: val
                       for name, val in v1_identities(state, params, snap).items()})
        values["effective_pressure_l2"] = lebesgue_norm(snap.effective, 2)
        values["rho_besov_eps"] = besov_norm(partition, state.rho, self.eps_spec)
        self.rows.append(DiagnosticRecord(
            state.t, values, {"finite": state.is_finite(), "positive": state.min_density > 0}))

    def finish(self) -> list[DiagnosticRecord]:
        return self.rows


def compute_diagnostics(trajectory: Trajectory, monitor: MonitorConfig,
                        partition: DyadicPartition) -> list[DiagnosticRecord]:
    """Per-snapshot bundle of norms, functionals, exact-identity residuals,
    and sanity flags, on the shared snapshot pass."""
    return _report(trajectory, _Diagnostics, monitor, partition)


def records_to_csv(records: Sequence[DiagnosticRecord]) -> str:
    return _csv(RECORD_COLUMNS, (rec.row() for rec in records))
