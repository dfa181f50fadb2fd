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

import math
import os
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _sci_integrate

from .spectral import (
    Field,
    ScalarField,
    TorusGrid,
    VectorField,
    fourier_eval,
    parseval_sum,
    to_coeffs,
    to_samples,
    _check_same_grid,
)

ForcingFn = Callable[[float, TorusGrid], VectorField]


class SolverStop(RuntimeError):
    """Integration cannot continue; carries the machine-readable reason."""

    def __init__(self, reason: str, message: str, time: float):
        super().__init__(message)
        self.reason = reason
        self.time = time


class VacuumError(SolverStop):
    def __init__(self, time: float, min_rho: float):
        super().__init__("vacuum", f"density reached {min_rho:g} at t={time:g}", time)
        self.min_rho = min_rho


class CflError(SolverStop):
    def __init__(self, time: float, dt: float, limit: float):
        super().__init__("cfl", f"dt={dt:g} exceeds CFL limit {limit:g} at t={time:g}", time)


# ---------------------------------------------------------------------------
# pressure laws
# ---------------------------------------------------------------------------

class PowerLaw:
    """Barotropic pressure P(s) = a s^gamma with a > 0, gamma >= 1."""

    def __init__(self, a: float, gamma: float):
        if a <= 0:
            raise ValueError(f"pressure coefficient a must be positive, got {a}")
        if gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {gamma}")
        self.a = float(a)
        self.gamma = float(gamma)

    def __call__(self, s):
        return self.a * np.asarray(s, dtype=float) ** self.gamma

    def derivative(self, s):
        return self.a * self.gamma * np.asarray(s, dtype=float) ** (self.gamma - 1.0)

    def potential(self, s):
        """Pressure potential s * int_0^s P(z)/z^2 dz = a s^gamma / (gamma-1)."""
        if self.gamma == 1.0:
            raise ValueError(
                "gamma = 1 has no power-law potential; use IsothermalLaw explicitly")
        return self.a * np.asarray(s, dtype=float) ** self.gamma / (self.gamma - 1.0)

    def rescaled(self, factor: float) -> "PowerLaw":
        return PowerLaw(self.a * factor, self.gamma)

    def __repr__(self):
        return f"PowerLaw(a={self.a}, gamma={self.gamma})"


class IsothermalLaw:
    """P(s) = a s; the potential takes the logarithmic form a s log s."""

    def __init__(self, a: float):
        if a <= 0:
            raise ValueError(f"pressure coefficient a must be positive, got {a}")
        self.a = float(a)
        self.gamma = 1.0

    def __call__(self, s):
        return self.a * np.asarray(s, dtype=float)

    def derivative(self, s):
        return self.a * np.ones_like(np.asarray(s, dtype=float))

    def potential(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.a * s * np.log(np.maximum(s, 1e-300))
        return np.where(s > 0, out, 0.0)

    def rescaled(self, factor: float) -> "IsothermalLaw":
        return IsothermalLaw(self.a * factor)


class TabulatedLaw:
    """Increasing pressure law given by (density, pressure) samples; evaluated
    by monotone interpolation, potential by adaptive quadrature."""

    def __init__(self, densities: Sequence[float], pressures: Sequence[float]):
        d = np.asarray(densities, dtype=float)
        p = np.asarray(pressures, dtype=float)
        if d.ndim != 1 or d.size < 2 or np.any(np.diff(d) <= 0):
            raise ValueError("densities must be strictly increasing")
        if np.any(np.diff(p) < 0):
            raise ValueError("pressure law must be non-decreasing")
        from scipy.interpolate import PchipInterpolator
        self._knots = (d, p)
        self._interp = PchipInterpolator(d, p, extrapolate=True)
        self._deriv = self._interp.derivative()
        self._d0 = float(d[0])
        self.gamma = None

    def __call__(self, s):
        return np.maximum(self._interp(np.asarray(s, dtype=float)), 0.0)

    def derivative(self, s):
        return self._deriv(np.asarray(s, dtype=float))

    def potential(self, s):
        """s int_0^s P(z)/z^2 dz; adaptive quadrature above the first knot,
        the [0, d0] tail modelled as quadratic growth (exact for gamma = 2,
        negligible when the tabulation starts near zero)."""
        def one(val):
            if val <= 0:
                return 0.0
            lo = min(self._d0, val)
            out = 0.0
            if val > lo:
                integrand = lambda z: float(self(z)) / z ** 2
                out, _ = _sci_integrate.quad(integrand, lo, val, limit=200)
            if lo > 0:
                out += float(self(lo)) / lo
            return val * out
        return np.vectorize(one)(np.asarray(s, dtype=float))

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
    pressure: PowerLaw | IsothermalLaw | TabulatedLaw
    forcing: ForcingFn | None = None

    @property
    def nu(self) -> float:
        """The effective-pressure viscosity 2*mu + lam."""
        return 2.0 * self.mu + self.lam

    def validate(self, dim: int, *, strict_regime: bool = False) -> None:
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if dim * self.lam + 2.0 * self.mu <= 0:
            raise ValueError(
                f"physical condition N*lam + 2*mu > 0 violated "
                f"(N={dim}, lam={self.lam}, mu={self.mu})")
        if strict_regime and not (0.0 < self.lam < 1.25 * self.mu):
            raise ValueError(
                f"strict regime needs 0 < lam < (5/4) mu, got lam={self.lam}, mu={self.mu}")

    def forcing_field(self, t: float, grid: TorusGrid) -> VectorField | None:
        if self.forcing is None:
            return None
        return self.forcing(t, grid)


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
    max_steps: int = 10_000_000
    dealias_fraction: float = 2.0 / 3.0

    def validate(self) -> None:
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.dt is None and self.cfl is None:
            raise ValueError("either dt or cfl must be given")
        if self.dt is not None and self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.cfl is not None and not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


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
    """min(h/|u|_inf, h^2 min(rho)/(2mu+lam), h/sqrt(P'(max rho)))."""
    grid = state.grid
    h = grid.spacing
    bounds = []
    umax = float(np.max(np.abs(state.u.samples)))
    bounds.append(h / umax if umax > 0 else math.inf)
    min_rho = state.min_density
    if params.nu > 0 and min_rho > 0:
        bounds.append(h * h * min_rho / params.nu)
    pmax = float(np.max(params.pressure.derivative(np.max(state.rho.samples))))
    bounds.append(h / math.sqrt(pmax) if pmax > 0 else math.inf)
    return min(bounds)


# ---------------------------------------------------------------------------
# right-hand side and stepping
# ---------------------------------------------------------------------------

def _rk4(rhs, t: float, ys: tuple, dt: float):
    """One classical RK4 step over a tuple of arrays.  rhs(t, ys) returns
    (slopes, aux); the result is (new ys, the auxes of the four stages)."""
    k1, a1 = rhs(t, ys)
    k2, a2 = rhs(t + dt / 2, tuple(y + dt / 2 * k for y, k in zip(ys, k1)))
    k3, a3 = rhs(t + dt / 2, tuple(y + dt / 2 * k for y, k in zip(ys, k2)))
    k4, a4 = rhs(t + dt, tuple(y + dt * k for y, k in zip(ys, k3)))
    new = tuple(y + dt / 6 * (s1 + 2 * s2 + 2 * s3 + s4)
                for y, s1, s2, s3, s4 in zip(ys, k1, k2, k3, k4))
    return new, (a1, a2, a3, a4)


class _Stepper:
    """Conservative-variable RK4 kernel on the stacked coefficient array
    y = (rho, m_1, ..., m_dim); each stage does one batched inverse and one
    batched forward transform."""

    def __init__(self, grid: TorusGrid, params: FluidParams, config: SolverConfig):
        self.grid = grid
        self.params = params
        self.config = config
        self.keep = grid.dealias_mask(config.dealias_fraction)
        self.dk = np.stack([np.where(grid.nyquist_mask, 0.0, 1j * k)
                            for k in grid.frequency_mesh])
        self.lap = np.where(grid.nyquist_mask, 0.0, -grid.k_squared)
        # m_i u_j is symmetric in (i, j): only the dim(dim+1)/2 pairs i <= j are formed
        dim = grid.dim
        self.pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
        self.pair_index = np.array([[self.pairs.index((min(i, j), max(i, j)))
                                     for j in range(dim)] for i in range(dim)])
        self._forcing_cache: tuple[float, np.ndarray] | None = None

    def forcing_samples(self, t: float) -> np.ndarray | None:
        if self.params.forcing is None:
            return None
        if self._forcing_cache is not None and self._forcing_cache[0] == t:
            return self._forcing_cache[1]
        g = self.params.forcing(t, self.grid).samples
        self._forcing_cache = (t, g)
        return g

    def momentum(self, v_c: np.ndarray, flux_c: np.ndarray) -> np.ndarray:
        """mu lap v + (mu+lam) grad div v - div(flux), flux_c[i, j] = F_ij."""
        mu, lam = self.params.mu, self.params.lam
        div_v = np.sum(self.dk * v_c, axis=0)
        acc = mu * self.lap * v_c + (mu + lam) * self.dk * div_v
        for i in range(self.grid.dim):
            acc -= self.dk[i] * flux_c[i]
        return acc

    # -----------------------------------------------------------------------
    def rhs(self, t: float, y: np.ndarray):
        """Returns (dy, aux) where aux carries the stage fields."""
        grid, dim = self.grid, self.grid.dim
        s = to_samples(grid, y)
        rho_s, m_s = s[0], s[1:]
        min_rho = float(np.min(rho_s))
        if min_rho <= self.config.vacuum_floor:
            raise VacuumError(t, min_rho)
        u_s = m_s / rho_s
        g_s = self.forcing_samples(t)
        products = [u_s, self.params.pressure(rho_s)[None],
                    np.stack([m_s[i] * u_s[j] for i, j in self.pairs])]
        if g_s is not None:
            products.append(rho_s * g_s)
        c = to_coeffs(grid, np.concatenate(products))
        c[dim:] *= self.keep
        u_c, p_c = c[:dim], c[dim]
        n_flux = dim + 1 + len(self.pairs)
        sources = -self.dk * p_c
        if g_s is not None:
            sources += c[n_flux:]
        dy = np.empty_like(y)
        dy[0] = -np.sum(self.dk * y[1:], axis=0)
        dy[1:] = self.momentum(u_c, c[dim + 1:n_flux][self.pair_index]) + sources
        aux = {"rho_s": rho_s, "m_s": m_s, "u_s": u_s, "u_c": u_c, "g_s": g_s,
               "sources": sources}
        return dy, aux

    def passenger_rhs(self, aux, w_c: np.ndarray, with_sources: bool) -> np.ndarray:
        """Slope of rho w for L w = 0, or L w = -grad P + rho g with sources,
        along the stage state in aux (the momentum operator with w in place
        of u)."""
        grid, dim = self.grid, self.grid.dim
        w_s = to_samples(grid, w_c) / aux["rho_s"]
        flux = (aux["m_s"][:, None] * w_s[None]).reshape((dim * dim,) + grid.shape)
        c = to_coeffs(grid, np.concatenate([w_s, flux]))
        c[dim:] *= self.keep
        out = self.momentum(c[:dim], c[dim:].reshape((dim, dim) + grid.spectral_shape))
        return out + aux["sources"] if with_sources else out

    def quadrature_values(self, aux) -> dict[str, float]:
        """Instantaneous integrands accumulated at RK4 accuracy:
        viscous dissipation int mu |grad u|^2 + (mu+lam)(div u)^2 and the
        forcing power int rho g . u."""
        grid, mu, lam = self.grid, self.params.mu, self.params.lam
        u_c = aux["u_c"]
        grad_sq = parseval_sum(grid, self.dk[:, None] * u_c[None])
        div_sq = parseval_sum(grid, np.sum(self.dk * u_c, axis=0))
        dissipation = grid.volume * (mu * grad_sq + (mu + lam) * div_sq)
        if aux["g_s"] is None:
            work = 0.0
        else:
            work = float(np.sum(aux["rho_s"] * np.sum(aux["g_s"] * aux["u_s"], axis=0))
                         ) * grid.cell_volume
        return {"dissipation": dissipation, "forcing_work": work}

    def step(self, t: float, y: np.ndarray, dt: float):
        """One RK4 step; returns (y, quadrature increments)."""
        def rhs(s, ys):
            dy, aux = self.rhs(s, ys[0])
            return (dy,), aux

        (y,), stages = _rk4(rhs, t, (y,), dt)
        quads = {}
        for stage, w in zip(stages, (1.0, 2.0, 2.0, 1.0)):
            for name, val in self.quadrature_values(stage).items():
                quads[name] = quads.get(name, 0.0) + dt / 6 * w * val
        return y, quads


def _conservative(state: FluidState, keep: np.ndarray) -> np.ndarray:
    """Stacked coefficients (rho, m) of a state, the momentum dealiased."""
    m_c = to_coeffs(state.grid, state.rho.samples * state.u.samples) * keep
    return np.concatenate([state.rho.coeffs[None], m_c])


def _state_from_conservative(grid: TorusGrid, y: np.ndarray, t: float) -> FluidState:
    s = to_samples(grid, y)
    rho = ScalarField(grid, y[0], copy=False, samples=s[0])
    return FluidState(rho, VectorField.from_samples(grid, s[1:] / s[0]), t)


def rhs_eval(state: FluidState, params: FluidParams,
             config: SolverConfig | None = None) -> tuple[ScalarField, VectorField]:
    """Instantaneous (d_t rho, d_t m) for a state, nonlinear terms dealiased."""
    if state.min_density <= 0:
        raise VacuumError(state.t, state.min_density)
    config = config or SolverConfig(t_end=1.0, dt=1.0)
    stepper = _Stepper(state.grid, params, config)
    dy, _ = stepper.rhs(state.t, _conservative(state, stepper.keep))
    return ScalarField(state.grid, dy[0]), VectorField(state.grid, dy[1:])


def step(state: FluidState, params: FluidParams, config: SolverConfig) -> FluidState:
    """Advance one RK4 step of size config.dt (must satisfy the CFL bound)."""
    config.validate()
    params.validate(state.grid.dim)
    if config.dt is None:
        raise ValueError("step() needs an explicit dt")
    limit = (config.cfl if config.cfl is not None else 1.0) * cfl_limit(state, params)
    if config.dt > limit * (1.0 + 1e-12):
        raise CflError(state.t, config.dt, limit)
    stepper = _Stepper(state.grid, params, config)
    y, _ = stepper.step(state.t, _conservative(state, stepper.keep), config.dt)
    new = _state_from_conservative(state.grid, y, state.t + config.dt)
    if new.min_density <= config.vacuum_floor:
        raise VacuumError(new.t, new.min_density)
    if not new.is_finite():
        raise SolverStop("nonfinite", f"non-finite state at t={new.t:g}", new.t)
    return new


def run(initial: FluidState, params: FluidParams, config: SolverConfig,
        hooks: Sequence[Callable[[FluidState], None]] = (),
        monitors: Sequence[Callable[[FluidState], str | None]] = ()) -> Trajectory:
    """Integrate to t_end or to a stopping event (vacuum, CFL collapse,
    non-finite values, monitor trigger); the reason is recorded, not raised."""
    config.validate()
    params.validate(initial.grid.dim)
    if initial.min_density <= config.vacuum_floor:
        raise ValueError("initial state already violates the vacuum floor")
    grid = initial.grid
    stepper = _Stepper(grid, params, config)
    y = _conservative(initial, stepper.keep)

    state = _state_from_conservative(grid, y, initial.t)
    states = [state]
    quads = {"dissipation": [0.0], "forcing_work": [0.0]}
    totals = {"dissipation": 0.0, "forcing_work": 0.0}
    stop_reason, t = "completed", initial.t
    t_final = initial.t + config.t_end
    steps = 0

    def snapshot(state):
        states.append(state)
        for k in totals:
            quads[k].append(totals[k])
        for hook in hooks:
            hook(state)

    while t < t_final - 1e-13:
        limit = cfl_limit(state, params)
        if config.dt is not None:
            dt = config.dt
            scale = config.cfl if config.cfl is not None else 1.0
            if dt > scale * limit * (1.0 + 1e-12):
                stop_reason = "cfl"
                break
        else:
            dt = config.cfl * limit
            if dt < 1e-12 * config.t_end:
                stop_reason = "cfl"
                break
        dt = min(dt, t_final - t)
        try:
            y, inc = stepper.step(t, y, dt)
        except SolverStop as stop:
            stop_reason = stop.reason
            break
        if not np.all(np.isfinite(y)):
            stop_reason = "nonfinite"
            break
        t += dt
        steps += 1
        for k, v in inc.items():
            totals[k] += v
        state = _state_from_conservative(grid, y, t)
        if state.min_density <= config.vacuum_floor:
            stop_reason = "vacuum"
            break
        triggered = None
        for monitor in monitors:
            triggered = monitor(state)
            if triggered:
                break
        if steps % config.snapshot_every == 0 or t >= t_final - 1e-13 or triggered:
            snapshot(state)
        if triggered:
            stop_reason = f"monitor:{triggered}"
            break
        if steps >= config.max_steps:
            stop_reason = "max_steps"
            break
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


def flow_map(trajectory: Trajectory, seeds: np.ndarray,
             max_gap: float | None = None) -> ParticlePaths:
    """Particle paths Psi(t, 0, x) advected by the trajectory's velocity.

    RK4 in time over each snapshot interval; mid-interval velocities come
    from 4-point Lagrange interpolation of the snapshot series, and off-grid
    evaluation is direct Fourier summation.  Paths are returned unwrapped.
    """
    times = trajectory.times
    if len(times) < 2:
        raise ValueError("trajectory must contain at least two snapshots")
    gaps = np.diff(times)
    if max_gap is not None and np.any(gaps > max_gap * (1 + 1e-12)):
        raise ValueError(f"trajectory gap {gaps.max():g} exceeds tolerance {max_gap:g}")
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
        u0, u1 = velocities[i], velocities[i + 1]
        k1 = fourier_eval(u0, x)
        k2 = fourier_eval(u_mid, x + h / 2 * k1)
        k3 = fourier_eval(u_mid, x + h / 2 * k2)
        k4 = fourier_eval(u1, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
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


def linear_split(trajectory: Trajectory, params: FluidParams) -> SplitResult:
    """Integrate L w1 = 0 (w1(0) = u0) and L w2 = -grad P(rho) + rho g
    (w2(0) = 0) along the frozen (rho, u) trajectory, where

        L w = d_t(rho w) + div(rho u x w) - mu lap(w) - (mu+lam) grad(div w)

    matches the momentum operator, so w1 + w2 = u by uniqueness.  The split
    is co-integrated with a re-run of the trajectory so all stage
    coefficients line up; the forcing rides with w2.
    """
    if any(s.min_density <= 0 for s in trajectory.states):
        raise VacuumError(trajectory.stop_time, min(s.min_density
                                                    for s in trajectory.states))
    grid = trajectory.initial.grid
    dim = grid.dim
    stepper = _Stepper(grid, params, trajectory.config)
    y = _conservative(trajectory.initial, stepper.keep)
    w1 = y[1:].copy()                      # rho0 w1(0) = rho0 u0 = m0
    w2 = np.zeros_like(w1)

    def rhs(t, ys):
        dy, aux = stepper.rhs(t, ys[0])
        return (dy, stepper.passenger_rhs(aux, ys[1], False),
                stepper.passenger_rhs(aux, ys[2], True)), aux

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
            (y, w1, w2), _ = _rk4(rhs, times[i] + dt * sub, (y, w1, w2), dt)
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


def write_checkpoint(path: str, state: FluidState) -> None:
    """Header line `NSLAB1 <N> <M> <n_fields> <t>` then little-endian float64
    samples, row-major per field, rho first then the velocity components."""
    grid = state.grid
    header = f"{CHECKPOINT_MAGIC} {grid.dim} {grid.n} {1 + grid.dim} {state.t:.17g}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(state.rho.samples, dtype="<f8").tobytes())
        for i in range(grid.dim):
            fh.write(np.ascontiguousarray(state.u.samples[i], dtype="<f8").tobytes())


def read_checkpoint(path: str) -> FluidState:
    raw = open(path, "rb").read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path}: no header line found (offset 0)")
    header = raw[:nl].decode("ascii", errors="replace")
    tokens = header.split(" ")
    offsets = np.cumsum([0] + [len(t) + 1 for t in tokens])[:-1]
    if tokens[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path}: bad magic {tokens[0]!r} at byte offset 0")
    if len(tokens) != 5:
        raise CheckpointError(
            f"{path}: header needs 5 tokens, got {len(tokens)} (offset 0)")

    def parse(idx, conv, what):
        try:
            return conv(tokens[idx])
        except ValueError:
            raise CheckpointError(
                f"{path}: malformed {what} {tokens[idx]!r} at byte offset "
                f"{offsets[idx]}") from None

    dim = parse(1, int, "dimension")
    m = parse(2, int, "grid size")
    n_fields = parse(3, int, "field count")
    t = parse(4, float, "time")
    if n_fields != 1 + dim:
        raise CheckpointError(
            f"{path}: field count {n_fields} != 1 + dim at byte offset {offsets[3]}")
    grid = TorusGrid(dim, m)
    body = raw[nl + 1:]
    expected = n_fields * grid.size * 8
    if len(body) != expected:
        raise CheckpointError(
            f"{path}: payload of {len(body)} bytes at byte offset {nl + 1}, "
            f"expected {expected}")
    data = np.frombuffer(body, dtype="<f8").reshape((n_fields,) + grid.shape)
    rho = ScalarField.from_samples(grid, data[0])
    u = VectorField.from_samples(grid, np.array(data[1:]))
    return FluidState(rho, u, t)
