"""Pseudospectral time integration of the compressible barotropic system on
the torus:

    d_t rho + div(rho u) = 0
    d_t(rho u) + div(rho u x u) - mu lap(u) - (mu+lam) grad(div u)
        + grad(P(rho)) = rho g

integrated in conservative variables (rho, m = rho u) by explicit RK4 with
2/3-rule dealiasing of every physical-space product.  Also: the viscosity
admissibility window, the parabolic scaling transform, the characteristic
flow map, and the w1/w2 splitting of the momentum operator.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .spectral import (
    Field,
    ScalarField,
    TorusGrid,
    VectorField,
    fourier_eval,
    gradient_sum,
    grid_errors,
    parseval_sum,
    to_coeffs,
    to_samples,
    _check_same_grid,
    _derivative_symbol,
    _divergence,
    _laplacian_symbol,
)

ForcingFn = Callable[[float, TorusGrid], VectorField]


class SolverStop(RuntimeError):
    """A stop found while integrating, with its reason and time; `run` records it."""

    def __init__(self, reason: str, message: str, time: float):
        super().__init__(message)
        self.reason = reason
        self.time = time


class VacuumError(SolverStop):
    def __init__(self, time: float, min_rho: float):
        super().__init__("vacuum", f"density reached {min_rho:g} at t={time:g}", time)
        self.min_rho = min_rho


class NonFiniteError(SolverStop):
    def __init__(self, time: float, field: str):
        super().__init__("nonfinite", f"{field} has a non-finite sample at t={time:g}", time)


#: stop reasons of a run that ended without a fault; every other reason
#: (vacuum, cfl, nonfinite) is abnormal
NORMAL_STOPS = frozenset({"completed", "max_steps"})
#: every stop reason that `run` records
STOP_REASONS = NORMAL_STOPS | {"vacuum", "cfl", "nonfinite"}
#: the steps `run` takes at most; one more ends the run as `max_steps`
MAX_STEPS = 10_000_000


# ---------------------------------------------------------------------------
# pressure laws
# ---------------------------------------------------------------------------

def _polyval(c, z: np.ndarray) -> np.ndarray:
    """sum_j c_j z^j by Horner's rule, the rows of `c` broadcast against z."""
    out = c[-1]
    for row in c[-2::-1]:
        out = out * z + row
    return out


def _antiderivative(c, z: np.ndarray) -> np.ndarray:
    """G(z) = -c_0/z + c_1 ln z + sum_{j>=2} c_j z^(j-1)/(j-1), whose G' is
    f(z)/z^2 for f(z) = sum_j c_j z^j (the rows of `c` broadcast against z)."""
    rest = [c[j] / (j - 1) for j in range(2, len(c))]
    return z * _polyval(rest, z) - c[0] / z + c[1] * np.log(z)


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The knot slopes of the monotone cubic through (x, y), y non-decreasing,
    as scipy's PchipInterpolator takes them: inside, the weighted harmonic
    mean of the two secants, 0 where either is; at each end, the one-sided
    three-point estimate, 0 where it is not positive (Moler, ch. 3.6)."""
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        return np.r_[m, m]
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    ends = [((2 * h[i] + h[j]) * m[i] - h[i] * m[j]) / (h[i] + h[j])
            for i, j in ((0, 1), (-1, -2))]
    return np.r_[max(ends[0], 0.0), np.where((m[1:] == 0) | (m[:-1] == 0), 0.0, inner),
                 max(ends[1], 0.0)]


class PowerLaw:
    """Barotropic pressure P(s) = a s^gamma with a > 0, gamma >= 1; gamma = 1
    is the isothermal law."""

    def __init__(self, a: float, gamma: float):
        if errors := self.errors(a, gamma):
            raise ValueError("; ".join(errors))
        self.a = float(a)
        self.gamma = float(gamma)

    @staticmethod
    def errors(a: float, gamma: float) -> list[str]:
        """The law's rules, which `parse_config` collects for fluid.*."""
        rules = [(a > 0, f"a must be positive, got {a}"),
                 (gamma >= 1, f"gamma must be >= 1, got {gamma}")]
        return [message for holds, message in rules if not holds]

    def __call__(self, s):
        return self.a * np.asarray(s, dtype=float) ** self.gamma

    def derivative(self, s):
        return self.a * self.gamma * np.asarray(s, dtype=float) ** (self.gamma - 1.0)

    def potential(self, s):
        """Pressure potential with s Pi'(s) - Pi(s) = P(s): a s^gamma / (gamma-1),
        and for gamma = 1 the logarithmic form a s log s (0 at s <= 0)."""
        s = np.asarray(s, dtype=float)
        if self.gamma == 1.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = self.a * s * np.log(np.maximum(s, 1e-300))
            return np.where(s <= 0, 0.0, out)
        return self.a * s ** self.gamma / (self.gamma - 1.0)

    def k(self, s):
        """k(s) = P(s)^2 - Pi_{P^2}(s)/2 = a^2 s^{2 gamma} (2 gamma - 3/2) / (2 gamma - 1)."""
        s = np.asarray(s, dtype=float)
        a, gamma = self.a, self.gamma
        return a * a * s ** (2 * gamma) * (2 * gamma - 1.5) / (2 * gamma - 1.0)

    def rescaled(self, factor: float) -> "PowerLaw":
        return PowerLaw(self.a * factor, self.gamma)

    def __repr__(self):
        return f"PowerLaw(a={self.a}, gamma={self.gamma})"


class TabulatedLaw:
    """Pressure law through samples (d_0, P_0) ... (d_n, P_n), d increasing
    and P >= 0 non-decreasing, defined on all of (0, inf): P_0 (s/d_0)^2
    below d_0, the monotone cubic interpolant (PCHIP; Fritsch & Carlson,
    SIAM J. Numer. Anal. 17, 1980) on [d_0, d_n], its tangent line above
    d_n; so P >= 0 and P' >= 0 everywhere.  Each piece is a cubic at most.
    P and P' evaluate it in powers of s - its origin (0 below d_0, the
    piece's left knot above), as scipy's PPoly does, so a piece that starts
    at P = 0 does not cancel there; the potential and k integrate it from
    its power coefficients in s, exactly per piece (`_pi`)."""

    def __init__(self, densities: Sequence[float], pressures: Sequence[float]):
        d = np.asarray(densities, dtype=float)
        p = np.asarray(pressures, dtype=float)
        if d.ndim != 1 or d.size < 2 or np.any(np.diff(d) <= 0):
            raise ValueError("densities must be strictly increasing")
        if p.shape != d.shape or p[0] < 0 or np.any(np.diff(p) < 0):
            raise ValueError("pressures must be non-negative and non-decreasing")
        # the pieces on the table as scipy's CubicHermiteSpline builds them
        slopes, h = _pchip_slopes(d, p), np.diff(d)
        secant = np.diff(p) / h
        t = (slopes[:-1] + slopes[1:] - 2 * secant) / h
        x = np.r_[0.0, d]
        local = np.column_stack([[0.0, 0.0, p[0] / d[0] ** 2, 0.0],
                                 [p[:-1], slopes[:-1], (secant - slopes[:-1]) / h - t, t / h],
                                 [p[-1], slopes[-1], 0.0, 0.0]])
        c = np.array([sum(math.comb(m, j) * (-x) ** (m - j) * local[m] for m in range(j, 4))
                      for j in range(4)])
        self._knots = (d, p)
        self._local = (x, local)
        self._coeffs = (c, sum(np.pad(c[j] * c, ((j, 3 - j), (0, 0))) for j in range(4)))
        # int_0^{lo_i} f/z^2 dz - G_i(lo_i) for f = P, P^2, summed piece by piece: piece
        # i > 0 starts at lo_i = d_{i-1} and the tail at 0, where G_0 = 0 (c_0 = c_1 = 0)
        lows = [np.r_[0.0, _antiderivative(f[:, 1:], d)] for f in self._coeffs]
        self._offsets = [np.r_[0.0, np.cumsum(_antiderivative(f[:, :-1], d) - low[:-1])] - low
                         for f, low in zip(self._coeffs, lows)]

    def _piece(self, s) -> tuple[np.ndarray, np.ndarray]:
        """(s as floats, the piece of each: 0 below d_0, n + 1 from d_n up and for NaN)."""
        s = np.asarray(s, dtype=float)
        return s, np.searchsorted(self._knots[0], s, side="right")

    def _at(self, s: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(the coefficients of piece i in powers of s - its origin, s - that origin)."""
        x, local = self._local
        return local[:, i], s - x[i]

    def _pi(self, power: int, s: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Pi_f(s) = s int_0^s f(z)/z^2 dz for f = P^power; 0 at s <= 0."""
        g = _antiderivative(self._coeffs[power - 1][:, i], np.where(s <= 0, 1.0, s))
        return np.where(s <= 0, 0.0, s * (self._offsets[power - 1][i] + g))

    def __call__(self, s):
        return _polyval(*self._at(*self._piece(s)))

    def derivative(self, s):
        c, z = self._at(*self._piece(s))
        return _polyval([c[1], 2.0 * c[2], 3.0 * c[3]], z)

    def potential(self, s):
        """Pi_P, with s Pi'(s) - Pi(s) = P(s)."""
        return self._pi(1, *self._piece(s))

    def k(self, s):
        """k(s) = P(s)^2 - Pi_{P^2}(s)/2."""
        s, i = self._piece(s)
        return _polyval(*self._at(s, i)) ** 2 - 0.5 * self._pi(2, s, i)

    def rescaled(self, factor: float) -> "TabulatedLaw":
        densities, pressures = self._knots
        return TabulatedLaw(densities, factor * pressures)


# ---------------------------------------------------------------------------
# parameters, state, configuration
# ---------------------------------------------------------------------------

@dataclass
class FluidParams:
    mu: float
    lam: float
    pressure: PowerLaw | TabulatedLaw
    forcing: ForcingFn | None = None

    @property
    def nu(self) -> float:
        """The effective-pressure viscosity 2*mu + lam."""
        return 2.0 * self.mu + self.lam

    def validate(self, dim: int) -> None:
        if errors := self.errors(self.mu, self.lam, dim):
            raise ValueError("; ".join(errors))

    @staticmethod
    def errors(mu: float, lam: float, dim: int) -> list[str]:
        """The viscosities' rules in dimension `dim`, which `parse_config` collects."""
        rules = [(mu > 0, f"mu must be positive, got {mu}"),
                 (dim * lam + 2.0 * mu > 0, f"physical condition N*lam + 2*mu > 0 "
                                            f"violated (N={dim}, lam={lam}, mu={mu})")]
        return [message for holds, message in rules if not holds]

    def forcing_field(self, t: float, grid: TorusGrid) -> VectorField | None:
        return None if self.forcing is None else self.forcing(t, grid)


def admissible_viscosity(mu: float, lam: float) -> tuple[bool, float]:
    """Supremum p_star of exponents p with mu/lam > (p-2)^2 / (4(p-1)),
    and whether the strict window p_star > 6 holds.

    For lam <= 0 the constraint is vacuous for every p > 1, so p_star = inf.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if lam <= 0:
        return True, math.inf
    # lam p^2 - 4(lam+mu) p + 4(lam+mu) < 0; p_star is the larger root
    s = lam + mu
    p_star = (2.0 * s + 2.0 * math.sqrt(mu * s)) / lam
    return p_star > 6.0, p_star


class FluidState:
    """(rho, u, t) snapshot; densities must stay positive along trajectories."""

    def __init__(self, rho: ScalarField, u: VectorField, t: float = 0.0):
        _check_same_grid(rho, u)
        self.rho = rho
        self.u = u
        self.t = float(t)
        self.grid = rho.grid

    @property
    def min_density(self) -> float:
        return float(np.min(self.rho.samples))

    @property
    def mass(self) -> float:
        return self.rho.mean * self.grid.volume

    def momentum(self) -> np.ndarray:
        """Total momentum vector int rho u dx."""
        m = self.rho.samples[None, ...] * self.u.samples
        return np.sum(m.reshape(self.grid.dim, -1), axis=1) * self.grid.cell_volume

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.rho.samples))
                    and np.all(np.isfinite(self.u.samples)))

    def __repr__(self):
        return (f"FluidState(t={self.t:.6g}, mass={self.mass:.6g}, "
                f"min_rho={self.min_density:.6g})")


@dataclass
class SolverConfig:
    t_end: float
    dt: float | None = None
    cfl: float | None = None
    snapshot_every: int = 1
    vacuum_floor: float = 0.0

    def validate(self) -> None:
        if errors := self.errors():
            raise ValueError("; ".join(errors))

    def errors(self) -> list[str]:
        """The solver's rules, which `parse_config` collects for time.*."""
        dt, cfl, every, floor = self.dt, self.cfl, self.snapshot_every, self.vacuum_floor
        rules = [(self.t_end > 0, f"t_end must be positive, got {self.t_end}"),
                 (dt is not None or cfl is not None, "either dt or cfl must be given"),
                 (dt is None or dt > 0, f"dt must be positive, got {dt}"),
                 (cfl is None or 0.0 < cfl <= 1.0, f"cfl must lie in (0, 1], got {cfl}"),
                 (every >= 1, f"snapshot_every must be >= 1, got {every}"),
                 (floor >= 0, f"vacuum_floor must be >= 0, got {floor}")]
        return [message for holds, message in rules if not holds]


@dataclass
class Trajectory:
    """Snapshots of a run plus the RK4-accurate quadrature accumulators."""
    states: list[FluidState]
    stop_reason: str
    stop_time: float
    config: SolverConfig
    params: FluidParams
    quadratures: dict[str, list[float]] = dc_field(default_factory=dict)
    step_count: int = 0

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def initial(self) -> FluidState:
        return self.states[0]

    def __len__(self):
        return len(self.states)


def cfl_limit(state: FluidState, params: FluidParams) -> float:
    """min(h/|u|_inf, h^2 min(rho)/(2mu+lam), h/sqrt(max P'(rho))), the
    sound speed taken at every sample: P' need not grow with rho (a concave
    tabulated law), and for a power law, where it does, the maximum is
    P'(max rho)."""
    grid = state.grid
    h = grid.spacing
    bounds = []
    umax = float(np.max(np.abs(state.u.samples)))
    bounds.append(h / umax if umax > 0 else math.inf)
    min_rho = state.min_density
    if params.nu > 0 and min_rho > 0:
        bounds.append(h * h * min_rho / params.nu)
    pmax = float(np.max(params.pressure.derivative(state.rho.samples)))
    bounds.append(h / math.sqrt(pmax) if pmax > 0 else math.inf)
    return min(bounds)


# ---------------------------------------------------------------------------
# right-hand side and stepping
# ---------------------------------------------------------------------------

# Classical RK4 as its Butcher table, one (c, w) per stage: the stage runs at
# t + c dt from y + c dt k, k the previous stage's slope, and weighs w dt/6.
_RK4 = ((0.0, 1), (0.5, 2), (0.5, 2), (1.0, 1))


def _rk4(rhs, t: float, ys: tuple, dt: float) -> tuple:
    """One classical RK4 step over a tuple of arrays, the package's only
    one; rhs(stage, t, ys) returns the slopes of stage 0, 1, 2 or 3, each
    used up before the next stage runs, so rhs may reuse its arrays."""
    ks = total = ()
    for stage, (c, w) in enumerate(_RK4):
        ks = rhs(stage, t + c * dt, tuple(y + c * dt * k for y, k in zip(ys, ks)) if ks else ys)
        total = tuple(s + w * k for s, k in zip(total, ks)) if total else tuple(w * k for k in ks)
    return tuple(y + dt / 6 * s for y, s in zip(ys, total))


class _Stepper:
    """Conservative-variable RK4 kernel on the stacked coefficient array
    y = (rho, m_1, ..., m_dim).  Each stage does one batched inverse
    transform of the 1 + dim fields of y, except that a step's first stage
    takes the samples of y from the caller when it already has them, and one
    batched forward transform of dim + dim(dim+1)/2 fields, plus one per
    component of g that is not identically zero when forced: u, the momentum
    flux m_i u_j + P(rho) delta_ij for i <= j (the pressure sits on the flux
    diagonal) and those components of rho g.  A zero component of g adds
    nothing to the slope, so its product is not formed or transformed.

    A stage fills one product array with these fields in place, and
    accumulates its slope straight into the array it returns.  The 2/3 mask
    rides in the derivative factors of the flux divergence, and each flux
    pair feeds both momentum components it belongs to, so no pass copies or
    masks the product coefficients.  The derivative, Laplacian and divergence
    are `spectral`'s arrays and kernel.

    Every stage writes the stepper's one product array (one per count of
    forced components, which a constant forcing keeps fixed) and its one
    slope array, for as long as it lives (one run, split or `rhs_eval`):
    both are read before the next stage runs.
    Allocated afresh per stage, these arrays went back to the kernel and
    were faulted in again whenever the rest of the heap left no hole for
    them, which made a step's cost depend on what unrelated code held (35k
    rather than 3.5-8k minor faults per sim2d-vortex cycle,
    `tools/heap_churn.py`)."""

    def __init__(self, grid: TorusGrid, params: FluidParams, vacuum_floor: float):
        self.grid = grid
        self.params = params
        self.vacuum_floor = vacuum_floor
        self.keep = grid.dealias_mask()
        self.dk = _derivative_symbol(grid)
        # d_i of a product, which keeps only the dealiased band
        self.dk_keep = self.dk * self.keep
        mu, lam = params.mu, params.lam
        self.mu_lap = mu * _laplacian_symbol(grid)
        self.mu_lam_dk = (mu + lam) * self.dk
        # m_i u_j is symmetric in (i, j): only the dim(dim+1)/2 pairs i <= j
        # are formed.  A flux term (i, j, p) subtracts d_i of row p from
        # momentum component j; pair p = (i, j) feeds j, then i, so walking
        # the pairs in order each component still takes i = 0, 1, ... in turn
        dim = grid.dim
        self.pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
        self.diagonal = [dim + self.pairs.index((i, i)) for i in range(dim)]
        self.pair_terms = []
        for p, (i, j) in enumerate(self.pairs):
            self.pair_terms += [(i, j, p)] if i == j else [(i, j, p), (j, i, p)]
        # the passenger flux m_i w_j is not symmetric: all dim^2 rows, row-major
        self.full_terms = [(i, j, i * dim + j) for i in range(dim) for j in range(dim)]
        self._forcing_cache: tuple[float, tuple[np.ndarray, np.ndarray]] | None = None
        self._arrays: dict[object, np.ndarray] = {}

    def _array(self, key, shape: tuple, dtype=np.float64) -> np.ndarray:
        """The uninitialised array kept under `key` for every step to reuse."""
        if key not in self._arrays:
            self._arrays[key] = np.empty(shape, dtype=dtype)
        return self._arrays[key]

    def forcing_samples(self, t: float) -> tuple[np.ndarray, np.ndarray] | None:
        """The samples of g at time t and the indices of its components that
        are not identically zero (NaN counts as nonzero), found once per
        cached time; None when unforced."""
        if self.params.forcing is None:
            return None
        if self._forcing_cache is not None and self._forcing_cache[0] == t:
            return self._forcing_cache[1]
        g = self.params.forcing(t, self.grid).samples
        forced = np.flatnonzero(g.reshape(len(g), -1).any(axis=1))
        self._forcing_cache = (t, (g, forced))
        return g, forced

    def momentum(self, v_c: np.ndarray, div_v: np.ndarray, flux_c: np.ndarray,
                 terms, out: np.ndarray) -> np.ndarray:
        """mu lap v + (mu+lam) grad div v - div(F) into out, where flux_c[p]
        holds F_ij for each (i, j, p) of terms; F counts in the dealiased
        band only."""
        np.multiply(self.mu_lap, v_c, out=out)
        out += self.mu_lam_dk * div_v
        for i, j, p in terms:
            out[j] -= self.dk_keep[i] * flux_c[p]
        return out

    # -----------------------------------------------------------------------
    def rhs(self, t: float, y: np.ndarray, samples: np.ndarray | None = None):
        """Returns (dy, aux) of an RK4 stage, where aux carries the stage
        fields; ``samples``, when given, must be the inverse transform of y.
        dy and the product array that aux views are the ones every stage
        shares, valid until the next stage runs (see the class docstring)."""
        grid, dim = self.grid, self.grid.dim
        s = to_samples(grid, y) if samples is None else samples
        rho_s, m_s = s[0], s[1:]
        min_rho = float(np.min(rho_s))
        if min_rho <= self.vacuum_floor:
            raise VacuumError(t, min_rho)
        forcing = self.forcing_samples(t)
        g_s, forced = (None, ()) if forcing is None else forcing
        n_flux = dim + len(self.pairs)
        n_prod = n_flux + len(forced)
        prod = self._array(("prod", n_prod), (n_prod,) + grid.shape)
        u_s = np.divide(m_s, rho_s, out=prod[:dim])
        for p, (i, j) in enumerate(self.pairs, start=dim):
            np.multiply(m_s[i], u_s[j], out=prod[p])
        p_s = self.params.pressure(rho_s)
        for p in self.diagonal:
            prod[p] += p_s
        for p, i in enumerate(forced, start=n_flux):
            np.multiply(rho_s, g_s[i], out=prod[p])
        c = to_coeffs(grid, prod)
        u_c = c[:dim]
        div_u = _divergence(grid, u_c, np.empty(grid.spectral_shape, dtype=c.dtype))
        dy = self._array("dy", y.shape, y.dtype)
        np.negative(_divergence(grid, y[1:], dy[0]), out=dy[0])
        self.momentum(u_c, div_u, c[dim:n_flux], self.pair_terms, dy[1:])
        force_c = c[n_flux:]  # the forced components of rho g, in `forced` order
        force_c *= self.keep
        for i, row in zip(forced, force_c):
            dy[1 + i] += row
        aux = {"rho_s": rho_s, "m_s": m_s, "u_s": u_s, "p_s": p_s, "u_c": u_c,
               "div_u": div_u, "g_s": g_s, "forced": forced, "force_c": force_c}
        return dy, aux

    def passenger_rhs(self, aux, w_c: np.ndarray, with_sources: bool) -> np.ndarray:
        """Slope of rho w for L w = 0, or L w = -grad P + rho g with sources,
        along the stage state in aux (the momentum operator with w in place
        of u)."""
        grid, dim = self.grid, self.grid.dim
        prod = np.empty((dim + dim * dim,) + grid.shape)
        w_s = np.divide(to_samples(grid, w_c), aux["rho_s"], out=prod[:dim])
        np.multiply(aux["m_s"][:, None], w_s[None],
                    out=prod[dim:].reshape((dim, dim) + grid.shape))
        if with_sources:
            for i in range(dim):
                prod[dim + i * (dim + 1)] += aux["p_s"]
        c = to_coeffs(grid, prod)
        out = np.empty_like(w_c)
        self.momentum(c[:dim], _divergence(grid, c[:dim], np.empty_like(out[0])),
                      c[dim:], self.full_terms, out)
        if with_sources:
            for i, row in zip(aux["forced"], aux["force_c"]):
                out[i] += row
        return out

    def quadrature_values(self, aux) -> dict[str, float]:
        """Instantaneous integrands accumulated at RK4 accuracy:
        viscous dissipation int mu |grad u|^2 + (mu+lam)(div u)^2 and the
        forcing power int rho g . u."""
        grid = self.grid
        dissipation = _viscous_dissipation(grid, self.params, aux["u_c"], aux["div_u"])
        if aux["g_s"] is None:
            work = 0.0
        else:
            work = float(np.sum(aux["rho_s"] * np.sum(aux["g_s"] * aux["u_s"], axis=0))
                         ) * grid.cell_volume
        return {"dissipation": dissipation, "forcing_work": work}

    def step(self, t: float, y: np.ndarray, dt: float, samples: np.ndarray | None = None):
        """One RK4 step; returns (y, quadrature increments).  ``samples``,
        when given, are those of y and serve the first stage.  Each stage's
        integrands are taken as soon as it has run, and its fields other than
        the stepper's product and slope arrays are freed before the next
        stage allocates the same sizes again."""
        quads = {}

        def rhs(stage, s, ys):
            dy, aux = self.rhs(s, ys[0], samples if stage == 0 else None)
            for name, val in self.quadrature_values(aux).items():
                quads[name] = quads.get(name, 0.0) + dt / 6 * _RK4[stage][1] * val
            return (dy,)

        (y,) = _rk4(rhs, t, (y,), dt)
        if not np.all(np.isfinite(y)):
            raise NonFiniteError(t + dt, "the stepped state")
        return y, quads


def _viscous_dissipation(grid: TorusGrid, params: FluidParams, u_c: np.ndarray,
                         div_c: np.ndarray) -> float:
    """int mu |grad u|^2 + (mu + lam) (div u)^2 dx from the coefficients of u
    and div u (Parseval, the spectral derivatives' Nyquist planes zero)."""
    return grid.volume * (params.mu * gradient_sum(grid, u_c)
                          + (params.mu + params.lam) * parseval_sum(grid, div_c))


def _conservative(state: FluidState, keep: np.ndarray) -> np.ndarray:
    """Stacked coefficients (rho, m) of a state, the momentum dealiased."""
    m_c = to_coeffs(state.grid, state.rho.samples * state.u.samples) * keep
    return np.concatenate([state.rho.coeffs[None], m_c])


def _state_over(grid: TorusGrid, stack: np.ndarray, t: float) -> FluidState:
    """The state whose density is row 0 and whose velocity is rows 1.. of
    `stack`, one (1 + dim, *grid.shape) float64 array of samples: a stored
    snapshot's one array, laid out as a checkpoint's payload.  The fields
    view the rows and compute their coefficients on first read."""
    return FluidState(ScalarField._of_samples(grid, stack[0]),
                      VectorField._of_samples(grid, stack[1:]), t)


def rhs_eval(state: FluidState, params: FluidParams) -> tuple[ScalarField, VectorField]:
    """Instantaneous (d_t rho, d_t m) for a state, nonlinear terms dealiased."""
    if state.min_density <= 0:
        raise VacuumError(state.t, state.min_density)
    stepper = _Stepper(state.grid, params, vacuum_floor=0.0)
    dy, _ = stepper.rhs(state.t, _conservative(state, stepper.keep))
    return ScalarField(state.grid, dy[0]), VectorField(state.grid, dy[1:])


def _time_step(limit: float, config: SolverConfig, t: float) -> float:
    """The step of `config` at time t under `cfl_limit`'s `limit`: a fixed dt
    of at most cfl * limit (cfl 1 if unset), or cfl * limit of at least
    1e-12 t_end; SolverStop("cfl") where the step breaks its rule."""
    if config.dt is None:
        dt, broken = config.cfl * limit, config.cfl * limit < 1e-12 * config.t_end
    else:
        dt, broken = config.dt, config.dt > (config.cfl or 1.0) * limit * (1.0 + 1e-12)
    if broken:
        raise SolverStop("cfl", f"step {dt:g} breaks the CFL rule at t={t:g} (limit {limit:g})", t)
    return dt


def run(initial: FluidState, params: FluidParams, config: SolverConfig) -> Trajectory:
    """Integrate to t_end or to the first `SolverStop`, raised where it is
    found and caught here alone: its reason is recorded with the time of the
    last state reached (`completed` at t_end, on the last allowed step too)."""
    config.validate()
    params.validate(initial.grid.dim)
    if initial.min_density <= config.vacuum_floor:
        raise ValueError("initial state already violates the vacuum floor")
    grid = initial.grid
    stepper = _Stepper(grid, params, config.vacuum_floor)

    def sampled(y_s: np.ndarray, t: float) -> FluidState:
        """The state of samples y_s = (rho, m) over a fresh stack (rho, m / rho),
        which a trajectory keeps as it is: it views neither y nor y_s."""
        stack = y_s / y_s[0]  # rows 1.. are u = m / rho; row 0 then takes rho
        stack[0] = y_s[0]
        return _state_over(grid, stack, t)

    y = _conservative(initial, stepper.keep)
    # the samples of each new y serve its state and the next step's first stage
    y_s = to_samples(grid, y)
    state = sampled(y_s, initial.t)
    states = [state]
    quads = {"dissipation": [0.0], "forcing_work": [0.0]}
    totals = {"dissipation": 0.0, "forcing_work": 0.0}
    stop_reason, t = "completed", initial.t
    t_final = initial.t + config.t_end
    steps = 0
    try:
        while t < t_final - 1e-13:
            if steps >= MAX_STEPS:
                raise SolverStop("max_steps", f"{steps} steps taken by t={t:g}", t)
            dt = min(_time_step(cfl_limit(state, params), config, t), t_final - t)
            y, inc = stepper.step(t, y, dt, y_s)
            t += dt
            steps += 1
            for k, v in inc.items():
                totals[k] += v
            y_s = to_samples(grid, y)
            state = sampled(y_s, t)
            if state.min_density <= config.vacuum_floor:
                raise VacuumError(t, state.min_density)
            if steps % config.snapshot_every == 0 or t >= t_final - 1e-13:
                states.append(state)
                for k in totals:
                    quads[k].append(totals[k])
    except SolverStop as stop:
        stop_reason = stop.reason
    return Trajectory(states, stop_reason, t, config, params, quads, steps)


# ---------------------------------------------------------------------------
# scaling transform
# ---------------------------------------------------------------------------

def rescale_field(f: Field, l: int) -> Field:
    """Exact grid reindexing x -> l x (mod 2 pi); requires the spectrum to fit
    inside the band |k| < M/(2l) so no mode aliases."""
    grid = f.grid
    if l == 1:
        return f
    kmax = f.max_frequency()
    if l * kmax >= grid.n // 2:
        raise ValueError(
            f"field with modes up to {kmax} is not representable after scaling by {l}")
    idx = (l * np.arange(grid.n)) % grid.n
    return f.from_samples(grid, f.samples[(Ellipsis,) + np.ix_(*([idx] * grid.dim))])


def scaling_transform(state: FluidState, params: FluidParams, l: int
                      ) -> tuple[FluidState, FluidParams]:
    """Parabolic rescaling rho_l(t,x) = rho(l^2 t, l x), u_l = l u(l^2 t, l x),
    with the pressure coefficient scaled by l^2 and the forcing by l^3."""
    if l < 1 or (l & (l - 1)) != 0:
        raise ValueError(f"l must be a positive power of two, got {l}")
    rho_l = rescale_field(state.rho, l)
    u_l = rescale_field(state.u, l) * float(l)
    scaled_state = FluidState(rho_l, u_l, state.t / l ** 2)
    pressure_l = params.pressure.rescaled(float(l * l))
    forcing_l = None
    if params.forcing is not None:
        base = params.forcing

        def forcing_l(t, grid, _base=base, _l=l):
            return rescale_field(_base(_l * _l * t, grid), _l) * float(_l ** 3)

    scaled = FluidParams(params.mu, params.lam, pressure_l, forcing_l)
    return scaled_state, scaled


# ---------------------------------------------------------------------------
# characteristic flow map
# ---------------------------------------------------------------------------

@dataclass
class ParticlePaths:
    times: np.ndarray          # (T,)
    positions: np.ndarray      # (T, n_particles, dim), unwrapped

    def wrapped(self) -> np.ndarray:
        return np.mod(self.positions, 2.0 * math.pi)


def _lagrange_weights(nodes: np.ndarray, t: float) -> np.ndarray:
    w = np.ones(nodes.size)
    for i in range(nodes.size):
        for j in range(nodes.size):
            if i != j:
                w[i] *= (t - nodes[j]) / (nodes[i] - nodes[j])
    return w


def flow_map(trajectory: Trajectory, seeds: np.ndarray) -> ParticlePaths:
    """Particle paths Psi(t, 0, x) advected by the trajectory's velocity.

    RK4 in time over each snapshot interval; mid-interval velocities come
    from 4-point Lagrange interpolation of the snapshot series, and off-grid
    evaluation is direct Fourier summation.  Paths are returned unwrapped.
    """
    times = trajectory.times
    if len(times) < 2:
        raise ValueError("trajectory must contain at least two snapshots")
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    velocities = [s.u for s in trajectory.states]
    n_t = len(times)
    out = np.empty((n_t, seeds.shape[0], seeds.shape[1]))
    out[0] = seeds
    x = seeds.copy()
    for i in range(n_t - 1):
        h = times[i + 1] - times[i]
        t_mid = times[i] + h / 2
        lo = max(0, min(i - 1, n_t - 4))
        stencil = slice(lo, min(lo + 4, n_t))
        nodes = times[stencil]
        weights = _lagrange_weights(nodes, t_mid)
        mid_coeffs = sum(w * v.coeffs for w, v in
                         zip(weights, velocities[stencil]))
        u_mid = VectorField(trajectory.states[0].grid, mid_coeffs)
        stage_u = (velocities[i], u_mid, u_mid, velocities[i + 1])
        (x,) = _rk4(lambda stage, t, ys: (fourier_eval(stage_u[stage], ys[0]),),
                    times[i], (x,), h)
        out[i + 1] = x
    return ParticlePaths(times, out)


# ---------------------------------------------------------------------------
# linear splitting w1 / w2 of the momentum operator
# ---------------------------------------------------------------------------

@dataclass
class SplitResult:
    times: np.ndarray
    w1: list[VectorField]
    w2: list[VectorField]
    superposition_residual: float   # sup_t |w1 + w2 - u|_inf


def linear_split(trajectory: Trajectory) -> SplitResult:
    """Integrate L w1 = 0 (w1(0) = u0) and L w2 = -grad P(rho) + rho g
    (w2(0) = 0) along the frozen (rho, u) trajectory, where

        L w = d_t(rho w) + div(rho u x w) - mu lap(w) - (mu+lam) grad(div w)

    matches the momentum operator, so w1 + w2 = u by uniqueness.  The split
    is co-integrated with a re-run of the trajectory so all stage
    coefficients line up; the forcing rides with w2.
    """
    for state in trajectory.states:
        if state.min_density <= 0:
            raise VacuumError(state.t, state.min_density)
    grid = trajectory.initial.grid
    dim = grid.dim
    stepper = _Stepper(grid, trajectory.params, trajectory.config.vacuum_floor)
    y = _conservative(trajectory.initial, stepper.keep)
    w1 = y[1:].copy()                      # rho0 w1(0) = rho0 u0 = m0
    w2 = np.zeros_like(w1)

    def rhs(stage, t, ys):
        dy, aux = stepper.rhs(t, ys[0])
        return (dy, stepper.passenger_rhs(aux, ys[1], False),
                stepper.passenger_rhs(aux, ys[2], True))

    times = trajectory.times
    w1_series, w2_series = [], []
    residual = 0.0

    def record(y, w1, w2):
        nonlocal residual
        s = to_samples(grid, np.concatenate([y, w1, w2]))
        u_s, w1_s, w2_s = (s[1 + n * dim:1 + (n + 1) * dim] / s[0] for n in range(3))
        w1_series.append(VectorField.from_samples(grid, w1_s))
        w2_series.append(VectorField.from_samples(grid, w2_s))
        residual = max(residual, float(np.max(np.abs(w1_s + w2_s - u_s))))

    record(y, w1, w2)
    n_sub = trajectory.config.snapshot_every
    for i, big_dt in enumerate(np.diff(times)):
        dt = big_dt / n_sub
        for sub in range(n_sub):
            y, w1, w2 = _rk4(rhs, times[i] + dt * sub, (y, w1, w2), dt)
        record(y, w1, w2)
    return SplitResult(times, w1_series, w2_series, residual)


# ---------------------------------------------------------------------------
# initial-data presets and the manufactured solution
# ---------------------------------------------------------------------------

def equilibrium_state(grid: TorusGrid, rho: float = 1.0) -> FluidState:
    return FluidState(ScalarField.constant(grid, rho), VectorField.zero(grid), 0.0)


def density_bump_state(grid: TorusGrid, base: float = 1.0, amplitude: float = 0.3,
                       width: float = 2.0, u_amplitude: float = 0.0) -> FluidState:
    """Smooth density bump; with u_amplitude != 0 an expansion velocity
    u = u_amp sin(x1) e1 drains the cell near x1 = 0 (vacuum stress case)."""
    coords = grid.coordinates()
    shape = np.exp(width * (sum(np.cos(x) for x in coords) - grid.dim))
    rho = ScalarField.from_samples(grid, base + amplitude * shape)
    if float(np.min(rho.samples)) <= 0:
        raise ValueError("density bump parameters produce non-positive density")
    u_s = np.zeros((grid.dim,) + grid.shape)
    if u_amplitude:
        u_s[0] = u_amplitude * np.sin(coords[0])
    return FluidState(rho, VectorField.from_samples(grid, u_s), 0.0)


def stream_vortex_state(grid: TorusGrid, rho: float = 1.0,
                        circulation: float = 0.5) -> FluidState:
    """Divergence-free vortex: stream function sin(x1) sin(x2) in 2-D, the
    Taylor-Green pattern in 3-D."""
    coords = grid.coordinates()
    if grid.dim == 2:
        x, y = coords
        u_s = np.stack([-circulation * np.sin(x) * np.cos(y),
                        circulation * np.cos(x) * np.sin(y)])
    else:
        x, y, z = coords
        u_s = np.stack([circulation * np.sin(x) * np.cos(y) * np.cos(z),
                        -circulation * np.cos(x) * np.sin(y) * np.cos(z),
                        np.zeros_like(x)])
    return FluidState(ScalarField.constant(grid, rho),
                      VectorField.from_samples(grid, u_s), 0.0)


class ManufacturedSolution:
    """Travelling-wave exact solution used for convergence studies.

    rho(t, x) = rho_bar + A sin(x1 - t) satisfies the mass equation exactly
    with u1 = 1 + K / rho (so rho u1 = rho + K); a transverse shear
    u2 = B cos(x1 - t) leaves the mass equation untouched but makes the
    velocity non-gradient.  The momentum equation picks up a compensating
    forcing with closed-form profile.
    """

    def __init__(self, pressure: PowerLaw, mu: float, lam: float,
                 mean_density: float = 2.0, amplitude: float = 0.5,
                 flux_constant: float = 0.5, transverse_amplitude: float = 0.3):
        if amplitude >= mean_density:
            raise ValueError("amplitude must stay below the mean density")
        self.pressure = pressure
        self.mu = mu
        self.lam = lam
        self.rho_bar = mean_density
        self.amp = amplitude
        self.k_flux = flux_constant
        self.shear = transverse_amplitude

    def _profiles(self, theta):
        r = self.rho_bar + self.amp * np.sin(theta)
        rp = self.amp * np.cos(theta)
        rpp = -self.amp * np.sin(theta)
        return r, rp, rpp

    def density(self, grid: TorusGrid, t: float) -> ScalarField:
        theta = grid.coordinates()[0] - t
        return ScalarField.from_samples(grid, self._profiles(theta)[0])

    def velocity(self, grid: TorusGrid, t: float) -> VectorField:
        theta = grid.coordinates()[0] - t
        r = self._profiles(theta)[0]
        u_s = np.zeros((grid.dim,) + grid.shape)
        u_s[0] = 1.0 + self.k_flux / r
        u_s[1] = self.shear * np.cos(theta)
        return VectorField.from_samples(grid, u_s)

    def state(self, grid: TorusGrid, t: float) -> FluidState:
        return FluidState(self.density(grid, t), self.velocity(grid, t), t)

    def forcing(self, t: float, grid: TorusGrid) -> VectorField:
        theta = grid.coordinates()[0] - t
        r, rp, rpp = self._profiles(theta)
        nu = 2.0 * self.mu + self.lam
        k = self.k_flux
        upp = k * (2.0 * rp ** 2 / r ** 3 - rpp / r ** 2)
        g1 = (-k * k * rp / r ** 2 - nu * upp + self.pressure.derivative(r) * rp) / r
        # transverse balance: rho g2 = K W' - mu W'' for W = B cos(theta)
        wp = -self.shear * np.sin(theta)
        wpp = -self.shear * np.cos(theta)
        g_s = np.zeros((grid.dim,) + grid.shape)
        g_s[0] = g1
        g_s[1] = (k * wp - self.mu * wpp) / r
        return VectorField.from_samples(grid, g_s)

    def params(self) -> FluidParams:
        return FluidParams(self.mu, self.lam, self.pressure, self.forcing)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "NSLAB1"


class CheckpointError(ValueError):
    pass


class ChecksumError(ValueError):
    """A file's bytes do not hash to the sha256 that a manifest lists."""


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def check_sha256(path: str, sha256: str | None, *chunks) -> None:
    """Raise ChecksumError unless the bytes `chunks` of `path` hash to `sha256`, if given."""
    if sha256 is not None and _sha256(chunks) != sha256:
        raise ChecksumError(f"checksum mismatch for {os.path.basename(path)}")


def write_checkpoint(path: str, state: FluidState) -> str:
    """Header line `NSLAB1 <N> <M> <n_fields> <t>` then little-endian float64
    samples, row-major per field, rho first then the velocity components
    (the stack that `_state_over` reads); the sha256 of the bytes written."""
    grid = state.grid
    header = f"{CHECKPOINT_MAGIC} {grid.dim} {grid.n} {1 + grid.dim} {state.t:.17g}\n"
    chunks = [header.encode("ascii")] + [np.ascontiguousarray(f.samples, dtype="<f8")
                                         for f in (state.rho, state.u)]
    with open(path, "wb") as fh:
        fh.writelines(chunks)
    return _sha256(chunks)


def _checkpoint_header(path: str, raw: bytes, size: int) -> tuple[int, int, float]:
    """(dim, M, t) of the checkpoint at `path` whose first line, read up to
    its newline, is `raw` and whose payload after that line is `size` bytes
    long.  Raises CheckpointError naming the byte offset of the first fault."""
    nl = raw.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path}: no header line found (offset 0)")
    tokens = raw[:nl].decode("ascii", errors="replace").split(" ")
    offsets = np.cumsum([0] + [len(t) + 1 for t in tokens])[:-1]
    if tokens[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {tokens[0]!r} at byte offset 0")
    if len(tokens) != 5:
        raise CheckpointError(f"{path}: header needs 5 tokens, got {len(tokens)} (offset 0)")

    def parse(idx, conv, what):
        try:
            return conv(tokens[idx])
        except ValueError:
            raise CheckpointError(
                f"{path}: malformed {what} {tokens[idx]!r} at byte offset "
                f"{offsets[idx]}") from None

    dim, m, n_fields, t = (parse(idx, conv, what) for idx, conv, what in (
        (1, int, "dimension"), (2, int, "grid size"), (3, int, "field count"), (4, float, "time")))
    if not math.isfinite(t):
        raise CheckpointError(f"{path}: non-finite time {tokens[4]!r} at byte offset {offsets[4]}")
    if n_fields != 1 + dim:
        raise CheckpointError(f"{path}: field count {n_fields} != 1 + dim at byte offset "
                              f"{offsets[3]}")
    # validate the header against the payload before the grid allocates
    # M^dim-sized arrays, so a corrupt header cannot exhaust memory
    if errors := grid_errors(dim, m):
        raise CheckpointError(f"{path}: {'; '.join(errors)} (header at byte offset 0)")
    expected = n_fields * m ** dim * 8
    if size != expected:
        raise CheckpointError(
            f"{path}: payload of {size} bytes at byte offset {nl + 1}, expected {expected}")
    return dim, m, t


def read_checkpoint(path: str, sha256: str | None = None) -> FluidState:
    """The state a checkpoint holds, its file read once, the payload into one
    fresh buffer that becomes the state's aligned stack (`_state_over`).
    Given a manifest's `sha256`, the bytes must hash to it (ChecksumError)
    before the header is parsed and checked against the payload's length."""
    with open(path, "rb") as fh:
        raw = fh.readline()
        payload = bytearray(os.fstat(fh.fileno()).st_size - len(raw))
        if fh.readinto(payload) != len(payload):
            raise CheckpointError(f"{path}: payload ended before {len(payload)} bytes")
    check_sha256(path, sha256, raw, payload)
    dim, m, t = _checkpoint_header(path, raw, len(payload))
    grid = TorusGrid(dim, m)
    return _state_over(grid, np.ndarray((1 + dim,) + grid.shape, "<f8", buffer=payload), t)
