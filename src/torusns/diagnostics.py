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

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .spectral import (
    ScalarField,
    TorusGrid,
    VectorField,
    curl,
    dealias,
    divergence,
    gradient,
    integral,
    inv_laplacian_zero_mean,
    laplacian,
    leray_project,
    lebesgue_norm,
    multiply,
    partial,
    pointwise,
    random_field,
    random_vector_field,
    riesz_composite,
    scale_vector,
    sobolev_norm,
    velocity_gradient,
)
from .littlewood_paley import BesovSpec, DyadicPartition, besov_norm
from .dynamics import FluidParams, FluidState, Trajectory, VacuumError


def f_weight(t):
    """The parabolic weight f(t) = min(t, 1)."""
    return np.minimum(np.asarray(t, dtype=float), 1.0)


@dataclass
class MonitorConfig:
    epsilon: float = 0.5        # slack epsilon in criterion exponents
    p_gain: int = 4             # integrability-gain exponent p1
    q_density: float | None = None  # Lebesgue exponent; None = (N+1+eps)*gamma

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.p_gain < 2:
            raise ValueError("p_gain must be >= 2")
        if self.q_density is not None and self.q_density < 1:
            raise ValueError("q_density must be >= 1")


def criterion_exponent(dim: int, gamma: float, epsilon: float) -> float:
    """The extension-criterion Lebesgue exponent (N + 1 + eps) * gamma."""
    return (dim + 1 + epsilon) * gamma


@dataclass
class LedgerReport:
    """Named LHS/RHS pairs of one tracked inequality with the ratio history."""
    name: str
    columns: list[str]
    rows: list[tuple]
    empirical_constant: float
    notes: str = ""

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])


# ---------------------------------------------------------------------------
# pressure potentials
# ---------------------------------------------------------------------------

def pressure_potential(law, rho: ScalarField) -> ScalarField:
    """Potential Pi(rho) with s Pi'(s) - Pi(s) = P(s) (closed form for power
    laws with gamma > 1; quadrature for tabulated laws)."""
    vals = law.potential(np.maximum(rho.samples, 0.0))
    return pointwise(rho.grid, vals, dealiased=False)


def weighted_potential(weight: Callable[[np.ndarray], np.ndarray],
                       rho: ScalarField, nodes: int = 128) -> ScalarField:
    """Pi_f(s) = s int_0^s f(z)/z^2 dz by Gauss-Legendre quadrature, exact
    for polynomial weights up to high degree."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (x + 1.0)         # nodes on (0, 1)
    wt = 0.5 * w
    s = np.maximum(rho.samples, 0.0)
    flat = s.reshape(-1)
    # substitution z = s t: Pi_f(s) = int_0^1 f(s t) / t^2 dt
    z = flat[:, None] * t[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = weight(z) / t[None, :] ** 2
    out = (vals * wt[None, :]).sum(axis=1)
    out = np.where(flat > 0, out, 0.0)
    return pointwise(rho.grid, out.reshape(s.shape), dealiased=False)


def k_function(law, s):
    """k(s) = P(s)^2 - Pi_{P^2}(s)/2; for P = a s^gamma this is
    a^2 s^{2 gamma} (2 gamma - 3/2) / (2 gamma - 1)."""
    gamma = getattr(law, "gamma", None)
    s = np.asarray(s, dtype=float)
    if gamma is not None:
        a = law.a
        return a * a * s ** (2 * gamma) * (2 * gamma - 1.5) / (2 * gamma - 1.0)
    # quadrature fallback: Pi_{P^2}(s) = s int_0^s P(z)^2 / z^2 dz
    x, w = np.polynomial.legendre.leggauss(128)
    t, wt = 0.5 * (x + 1.0), 0.5 * w
    z = s[..., None] * t
    vals = (law(z) ** 2 / t ** 2 * wt).sum(axis=-1)
    return law(s) ** 2 - 0.5 * np.where(s > 0, vals, 0.0)


# ---------------------------------------------------------------------------
# effective pressure / effective velocity / log-density machinery
# ---------------------------------------------------------------------------

def pressure_field(state: FluidState, params: FluidParams) -> ScalarField:
    return pointwise(state.grid, params.pressure(state.rho.samples))


def effective_pressure(state: FluidState, params: FluidParams) -> ScalarField:
    """G = (2 mu + lam) div u - P(rho) + mean P(rho)."""
    p = pressure_field(state, params)
    g = divergence(state.u) * params.nu - p
    return g + ScalarField.constant(state.grid, p.mean)


def log_state(state: FluidState, params: FluidParams) -> ScalarField:
    """F = (2 mu + lam) log rho + inv_laplacian(div(rho u)).

    The viscosity factor multiplies only the log term: that is the reading
    under which the transport identity for F follows from the momentum and
    mass equations, which the residual test pins down.
    """
    if state.min_density <= 0:
        raise VacuumError(state.t, state.min_density)
    log_rho = pointwise(state.grid, np.log(state.rho.samples), dealiased=False)
    m = scale_vector(state.rho, state.u)
    return log_rho * params.nu + inv_laplacian_zero_mean(divergence(m))


def log_state_rejected_reading(state: FluidState, params: FluidParams) -> ScalarField:
    """The alternative reading with the factor on both terms; kept only so the
    residual test can demonstrate that it fails to converge."""
    log_rho = pointwise(state.grid, np.log(state.rho.samples), dealiased=False)
    m = scale_vector(state.rho, state.u)
    return (log_rho + inv_laplacian_zero_mean(divergence(m))) * params.nu


def coifman_commutator(state: FluidState, r1: float = 2.0, r2: float = 2.0
                       ) -> tuple[ScalarField, float]:
    """The double-summed commutator [u_j, R_i R_j](rho u_i) =
    u . grad inv_lap div(rho u) - sum_j d_j inv_lap div(u_j rho u), and its
    W^{1,r3} norm with 1/r3 = 1/r1 + 1/r2."""
    r3 = 1.0 / (1.0 / r1 + 1.0 / r2)
    if r3 < 1.0:
        raise ValueError(f"exponent relation gives r3={r3:g} < 1")
    grid = state.grid
    b = scale_vector(state.rho, state.u)  # rho u
    phi = inv_laplacian_zero_mean(divergence(b))
    term1 = ScalarField.zero(grid)
    term2 = ScalarField.zero(grid)
    for j in range(grid.dim):
        uj = state.u.component(j)
        term1 = term1 + multiply(uj, partial(phi, j))
        term2 = term2 + partial(inv_laplacian_zero_mean(divergence(
            scale_vector(uj, b))), j)
    comm = term1 - term2
    return comm, sobolev_norm(comm, 1, r3)


def effective_velocity(state: FluidState, params: FluidParams
                       ) -> tuple[VectorField, VectorField]:
    """(v1, v) with v = grad inv_lap (P(rho) - mean P) and v1 = u - v/nu."""
    p = pressure_field(state, params)
    v = gradient(inv_laplacian_zero_mean(p))
    v1 = state.u - v * (1.0 / params.nu)
    return v1, v


def v1_identities(state: FluidState, params: FluidParams) -> dict[str, float]:
    """Sup-norm residuals of the exact effective-velocity identities:
    div v1 = G/nu, curl v1 = curl u, lap u = lap v1 + grad P / nu."""
    v1, _ = effective_velocity(state, params)
    g = effective_pressure(state, params)
    p = pressure_field(state, params)
    div_res = divergence(v1) - g * (1.0 / params.nu)
    curl_res = curl(v1) - curl(state.u)
    lap_res = laplacian(state.u) - laplacian(v1) - gradient(p) * (1.0 / params.nu)
    return {
        "div_v1": lebesgue_norm(div_res, math.inf),
        "curl_v1": lebesgue_norm(curl_res, math.inf),
        "lap_u_decomposition": lebesgue_norm(lap_res, math.inf),
    }


def bogovskii(h: ScalarField) -> VectorField:
    """Right inverse of the divergence on the torus:
    Lambda^{-1} h = grad inv_lap (h - mean h), so div Lambda^{-1} h = h - mean h."""
    return gradient(inv_laplacian_zero_mean(h))


# ---------------------------------------------------------------------------
# time differencing helpers
# ---------------------------------------------------------------------------

def _time_derivative(times: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Second-order centred (one-sided at the ends) time derivative along
    axis 0 of a stack of coefficient or sample arrays."""
    return np.gradient(stack, times, axis=0, edge_order=2)


def u_dot(trajectory: Trajectory) -> list[VectorField]:
    """Material derivative du/dt = d_t u + (u . grad) u per snapshot, the
    time part by centred differencing of the stored snapshots."""
    if len(trajectory) < 3:
        raise ValueError("need at least 3 snapshots for centred differencing")
    times = trajectory.times
    grid = trajectory.initial.grid
    coeffs = np.stack([s.u.coeffs for s in trajectory.states])
    dt_u = _time_derivative(times, coeffs)
    out = []
    for n, state in enumerate(trajectory.states):
        adv = []
        for j in range(grid.dim):
            acc = ScalarField.zero(grid)
            for i in range(grid.dim):
                acc = acc + multiply(state.u.component(i),
                                     partial(state.u.component(j), i))
            adv.append(acc)
        out.append(VectorField(grid, dt_u[n]) + VectorField.from_components(adv))
    return out


def material_derivative(trajectory: Trajectory,
                        fields: Sequence[ScalarField]) -> list[ScalarField]:
    """d/dt = d_t + u . grad applied to a scalar series along the trajectory."""
    if len(trajectory) < 3:
        raise ValueError("need at least 3 snapshots for centred differencing")
    times = trajectory.times
    grid = trajectory.initial.grid
    stack = np.stack([f.coeffs for f in fields])
    dt_f = _time_derivative(times, stack)
    out = []
    for n, (state, f) in enumerate(zip(trajectory.states, fields)):
        adv = ScalarField.zero(grid)
        for i in range(grid.dim):
            adv = adv + multiply(state.u.component(i), partial(f, i))
        out.append(ScalarField(grid, dt_f[n]) + adv)
    return out


# ---------------------------------------------------------------------------
# identity residual suites
# ---------------------------------------------------------------------------

def f_transport_residual(trajectory: Trajectory, params: FluidParams,
                         reading: str = "adopted") -> np.ndarray:
    """Sup-norm residual series of the transport identity for F:

        d_t F + u . grad F + (P - mean P) - [u_j, R_i R_j](rho u_i)
            - inv_lap div(rho g) = 0

    evaluated with centred time differencing (interior snapshots only).
    reading = "adopted" uses F = nu log rho + inv_lap div(rho u);
    reading = "rejected" uses the factor-on-both-terms variant, whose
    residual does not vanish with dt.
    """
    build = log_state if reading == "adopted" else log_state_rejected_reading
    states = trajectory.states
    if len(states) < 3:
        raise ValueError("need at least 3 snapshots")
    grid = states[0].grid
    times = trajectory.times
    f_fields = [build(s, params) for s in states]
    stack = np.stack([f.coeffs for f in f_fields])
    dt_f = _time_derivative(times, stack)
    out = []
    for n in range(1, len(states) - 1):
        state, f = states[n], f_fields[n]
        resid = ScalarField(grid, dt_f[n])
        for i in range(grid.dim):
            resid = resid + multiply(state.u.component(i), partial(f, i))
        p = pressure_field(state, params)
        resid = resid + p - ScalarField.constant(grid, p.mean)
        comm, _ = coifman_commutator(state)
        resid = resid - comm
        g = params.forcing_field(state.t, grid)
        if g is not None:
            rho_g = VectorField.from_components(
                [multiply(state.rho, g.component(i)) for i in range(grid.dim)])
            resid = resid - inv_laplacian_zero_mean(divergence(rho_g))
        out.append(lebesgue_norm(resid, math.inf))
    return np.array(out)


def elliptic_identities(trajectory: Trajectory, params: FluidParams,
                        forcing_sign: float = -1.0) -> dict[str, np.ndarray]:
    """Residual series (interior snapshots) of the elliptic identities

        mu lap(Pu) = P(rho udot) - P(rho g)
        grad G     = Q(rho udot) - Q(rho g)
        lap G      = div(rho (udot - g))

    with udot from centred differencing. forcing_sign=+1 evaluates the
    falsified +g variant of the lap G identity, which must not converge.
    """
    states = trajectory.states
    grid = states[0].grid
    dots = u_dot(trajectory)
    res_p, res_q, res_lap = [], [], []
    for n in range(1, len(states) - 1):
        state, dot = states[n], dots[n]
        rho_dot = VectorField.from_components(
            [multiply(state.rho, dot.component(i)) for i in range(grid.dim)])
        g = params.forcing_field(state.t, grid)
        if g is not None:
            rho_g = VectorField.from_components(
                [multiply(state.rho, g.component(i)) for i in range(grid.dim)])
        else:
            rho_g = VectorField.zero(grid)
        p_u, _ = leray_project(state.u)
        p_dot, q_dot = leray_project(rho_dot)
        p_g, q_g = leray_project(rho_g)
        g_field = effective_pressure(state, params)
        res_p.append(lebesgue_norm(
            laplacian(p_u) * params.mu - p_dot + p_g, math.inf))
        res_q.append(lebesgue_norm(
            gradient(g_field) - q_dot + q_g, math.inf))
        res_lap.append(lebesgue_norm(
            laplacian(g_field) - divergence(rho_dot + rho_g * forcing_sign),
            math.inf))
    return {"momentum_p_part": np.array(res_p),
            "effective_pressure_gradient": np.array(res_q),
            "effective_pressure_laplacian": np.array(res_lap)}


# ---------------------------------------------------------------------------
# energy ledgers
# ---------------------------------------------------------------------------

def total_energy(state: FluidState, params: FluidParams) -> float:
    """E = int (rho |u|^2 / 2 + Pi(rho)) dx."""
    kin = 0.5 * float(np.sum(state.rho.samples * np.sum(state.u.samples ** 2,
                                                        axis=0))) * state.grid.cell_volume
    pot = integral(pressure_potential(params.pressure, state.rho))
    return kin + pot


def dissipation_rate(state: FluidState, params: FluidParams) -> float:
    """int mu |grad u|^2 + (mu + lam)(div u)^2 dx."""
    gu = velocity_gradient(state.u)
    div_u = np.trace(gu, axis1=0, axis2=1)
    val = params.mu * np.sum(gu ** 2) + (params.mu + params.lam) * np.sum(div_u ** 2)
    return float(val) * state.grid.cell_volume


def energy_ledger(trajectory: Trajectory, params: FluidParams) -> LedgerReport:
    """Energy balance E(t) + dissipation <= E(0) + forcing work.

    The dissipation and work integrals come from the solver's stage-level
    quadratures (RK4-accurate); the slack column should be zero up to time
    discretization and dealiasing, and non-negative up to that tolerance.
    """
    e0 = total_energy(trajectory.states[0], params)
    diss = trajectory.quadratures.get("dissipation")
    work = trajectory.quadratures.get("forcing_work")
    rows = []
    worst = 0.0
    for n, state in enumerate(trajectory.states):
        e = total_energy(state, params)
        d = diss[n] if diss else 0.0
        w = work[n] if work else 0.0
        slack = e0 + w - e - d
        worst = min(worst, slack)
        rows.append((state.t, e, d, w, slack))
    return LedgerReport(
        "energy_balance",
        ["time", "energy", "dissipation", "forcing_work", "slack"],
        rows,
        empirical_constant=-worst,
        notes="slack = E(0) + work - E(t) - dissipation; stays >= -tolerance")


def a_functional(trajectory: Trajectory, params: FluidParams
                 ) -> dict[str, np.ndarray]:
    """The weighted energy functional

        A(t) = int_0^t int f(s) rho |d_s u|^2 + f(t)/2 int (mu |grad u|^2
               + (lam+mu)(div u)^2) + nu^{-2} int_0^t int f P^2 (rho P' - P)
               + nu^{-1} f(t) int k(rho)

    returned together with its four components as time series.
    """
    states = trajectory.states
    grid = states[0].grid
    times = trajectory.times
    vol = grid.cell_volume
    coeffs = np.stack([s.u.coeffs for s in states])
    dt_u = _time_derivative(times, coeffs)
    fw = f_weight(times)
    kin_rate = np.empty(len(states))
    press_rate = np.empty(len(states))
    grad_term = np.empty(len(states))
    k_term = np.empty(len(states))
    for n, state in enumerate(states):
        du = VectorField(grid, dt_u[n]).samples
        kin_rate[n] = fw[n] * float(np.sum(state.rho.samples * np.sum(du ** 2, axis=0))) * vol
        p_s = params.pressure(state.rho.samples)
        dp_s = params.pressure.derivative(state.rho.samples)
        press_rate[n] = fw[n] * float(
            np.sum(p_s ** 2 * (state.rho.samples * dp_s - p_s))) * vol
        grad_term[n] = 0.5 * fw[n] * dissipation_rate(state, params) / 1.0
        k_term[n] = fw[n] * float(np.sum(k_function(params.pressure,
                                                    state.rho.samples))) * vol
    # the grad term uses the same quadratic form as the dissipation rate but
    # weights (mu, lam+mu); dissipation_rate already carries exactly those
    accel = cumulative_trapezoid(kin_rate, times, initial=0)
    press = cumulative_trapezoid(press_rate, times, initial=0) / params.nu ** 2
    total = accel + grad_term + press + k_term / params.nu
    return {"time": times, "A": total, "acceleration": accel,
            "gradient": grad_term, "pressure_interaction": press,
            "k_weight": k_term / params.nu}


def gradient_splitting(state: FluidState, params: FluidParams
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Zero-order splitting of the velocity gradient

        grad u = grad Pu + nu^{-1} R G + nu^{-1} R (P - mean P),
        R = grad grad inv_lap,

    returned as three sample tensors (vorticity part, effective-pressure
    part, pressure part) plus the sup-norm residual of the reconstruction,
    which is exact up to round-off."""
    grid = state.grid
    p_u, _ = leray_project(state.u)
    omega_part = velocity_gradient(p_u)
    g_field = effective_pressure(state, params)
    p = pressure_field(state, params)
    p0 = p - ScalarField.constant(grid, p.mean)

    def hessian_inv_lap(f: ScalarField) -> np.ndarray:
        base = inv_laplacian_zero_mean(f)
        out = np.empty((grid.dim, grid.dim) + grid.shape)
        for i in range(grid.dim):
            di = partial(base, i)
            for j in range(grid.dim):
                out[i, j] = partial(di, j).samples
        return out

    g_part = hessian_inv_lap(g_field) / params.nu
    p_part = hessian_inv_lap(p0) / params.nu
    total = omega_part + g_part + p_part
    residual = float(np.max(np.abs(total - velocity_gradient(state.u))))
    return omega_part, g_part, p_part, residual


def quartic_gradient_budget(trajectory: Trajectory, params: FluidParams
                            ) -> LedgerReport:
    """int_0^t int f(s)^N |grad u|^4 against ||rho||_inf^alpha (1 + A(t)^2)
    with the reporting choice alpha = 1 (the paper leaves alpha > 0 free)."""
    states = trajectory.states
    grid = states[0].grid
    times = trajectory.times
    fw = f_weight(times) ** grid.dim
    rate = np.empty(len(states))
    rho_sup = 0.0
    for n, state in enumerate(states):
        gu = velocity_gradient(state.u)
        mag2 = np.sum(gu ** 2, axis=(0, 1))
        rate[n] = fw[n] * float(np.sum(mag2 ** 2)) * grid.cell_volume
        rho_sup = max(rho_sup, lebesgue_norm(state.rho, math.inf))
    lhs = cumulative_trapezoid(rate, times, initial=0)
    a_series = a_functional(trajectory, params)["A"]
    rows, worst = [], 0.0
    for n in range(len(states)):
        rhs = rho_sup * (1.0 + a_series[n] ** 2)
        ratio = lhs[n] / rhs if rhs > 0 else 0.0
        worst = max(worst, ratio)
        rows.append((times[n], lhs[n], rhs, ratio))
    return LedgerReport("quartic_gradient_budget",
                        ["time", "lhs", "rhs", "ratio"], rows, worst,
                        notes="alpha = 1 reporting choice")


def udot_budget(trajectory: Trajectory, params: FluidParams
                ) -> dict[str, np.ndarray]:
    """The material-acceleration bundle

        B(t) = f(t)^2 int rho |udot|^2
               + int_0^t int f^2 (mu |grad udot|^2 + (lam+mu) |Ddot|^2)

    where Ddot is the material derivative of div u.  Returned with its two
    components; reader-verification series for the budget inequalities."""
    states = trajectory.states
    grid = states[0].grid
    times = trajectory.times
    fw = f_weight(times)
    vol = grid.cell_volume
    dots = u_dot(trajectory)
    div_series = [divergence(s.u) for s in states]
    ddot_series = material_derivative(trajectory, div_series)
    point = np.empty(len(states))
    rate = np.empty(len(states))
    for n, state in enumerate(states):
        dot_s = dots[n].samples
        point[n] = fw[n] ** 2 * float(
            np.sum(state.rho.samples * np.sum(dot_s ** 2, axis=0))) * vol
        g_dot = velocity_gradient(dots[n])
        rate[n] = fw[n] ** 2 * (params.mu * float(np.sum(g_dot ** 2))
                                + (params.mu + params.lam)
                                * float(np.sum(ddot_series[n].samples ** 2))) * vol
    integral_part = cumulative_trapezoid(rate, times, initial=0)
    return {"time": times, "B": point + integral_part,
            "pointwise": point, "integral": integral_part}


def grad_omega_budget(trajectory: Trajectory, params: FluidParams
                      ) -> LedgerReport:
    """int_0^t int f(s) |grad omega|^2 against ||rho||_inf A(t)."""
    states = trajectory.states
    times = trajectory.times
    fw = f_weight(times)
    rate = np.empty(len(states))
    rho_sup = 0.0
    for n, state in enumerate(states):
        val = float(np.sum(velocity_gradient(curl(state.u)) ** 2)) * state.grid.cell_volume
        rate[n] = fw[n] * val
        rho_sup = max(rho_sup, lebesgue_norm(state.rho, math.inf))
    lhs = cumulative_trapezoid(rate, times, initial=0)
    a_series = a_functional(trajectory, params)["A"]
    rows, worst = [], 0.0
    for n in range(len(states)):
        rhs = rho_sup * a_series[n]
        ratio = lhs[n] / rhs if rhs > 0 else 0.0
        worst = max(worst, ratio)
        rows.append((times[n], lhs[n], rhs, ratio))
    return LedgerReport("vorticity_gradient_budget",
                        ["time", "lhs", "rhs", "ratio"], rows, worst)


def integrability_gain(trajectory: Trajectory, params: FluidParams,
                       p1: int, time_lebesgue_q: float = 6.0) -> LedgerReport:
    """Weighted-velocity moment ledger: tracks (1/p1) int rho |u|^{p1} and the
    two dissipation-like integrals against the pressure norm on the right.

    The Young exponent eta solves lam eta (p1-2)/4 = s mu + lam with
    s = 1/(2N); p1 must be even and >= 2 (grid powers of |u| stay smooth).
    """
    if p1 < 2 or p1 % 2 != 0:
        raise ValueError(f"p1 must be even and >= 2, got {p1}")
    if params.mu <= 0:
        raise ValueError("mu must be positive")
    grid = trajectory.initial.grid
    dim = grid.dim
    s_param = 1.0 / (2.0 * dim)
    if p1 > 2 and params.lam > 0:
        eta = 4.0 * (s_param * params.mu + params.lam) / (params.lam * (p1 - 2))
        b_coeff = (p1 - 2) / 4.0 * (params.mu - params.lam ** 2 * (p1 - 2)
                                    / (s_param * params.mu + params.lam))
    else:
        eta = math.inf
        b_coeff = params.mu * (p1 - 2) / 4.0
    a_coeff = params.mu * (1.0 - s_param * dim)

    times = trajectory.times
    states = trajectory.states
    vol = grid.cell_volume
    moment = np.empty(len(states))
    d1_rate = np.empty(len(states))
    d2_rate = np.empty(len(states))
    p_norm = np.empty(len(states))
    for n, state in enumerate(states):
        u_s = state.u.samples
        mag2 = np.sum(u_s ** 2, axis=0)
        moment[n] = float(np.sum(state.rho.samples * mag2 ** (p1 / 2))) * vol / p1
        gu = velocity_gradient(state.u)
        d1_rate[n] = float(np.sum(mag2 ** ((p1 - 2) / 2) * np.sum(gu ** 2,
                                                                  axis=(0, 1)))) * vol
        if p1 >= 4:
            grad_mag2 = sum(
                (2 * np.sum(u_s * np.stack([partial(state.u.component(j), i).samples
                                            for j in range(dim)]), axis=0)) ** 2
                for i in range(dim))
            d2_rate[n] = float(np.sum(mag2 ** ((p1 - 4) / 2) * grad_mag2)) * vol
        else:
            d2_rate[n] = 0.0
        if dim == 3:
            space_p = 3.0 * p1 / (p1 + 1.0)
        else:
            q = time_lebesgue_q
            space_p = 2.0 * q * p1 / ((q - 2.0) * p1 + 4.0)
        p_norm[n] = lebesgue_norm(pressure_field(state, params), space_p)
    d1 = cumulative_trapezoid(d1_rate, times, initial=0)
    d2 = cumulative_trapezoid(d2_rate, times, initial=0)
    p_time = cumulative_trapezoid(p_norm ** p1, times, initial=0) ** (1.0 / p1)
    rows, worst = [], 0.0
    for n in range(len(states)):
        lhs = moment[n] + a_coeff * d1[n] + max(b_coeff, 0.0) * d2[n]
        rhs = p_time[n] ** 2 + moment[0]
        ratio = lhs / rhs if rhs > 0 else 0.0
        worst = max(worst, ratio)
        rows.append((times[n], moment[n], d1[n], d2[n], lhs, rhs, ratio))
    return LedgerReport(
        f"integrability_gain_p{p1}",
        ["time", "moment", "grad_integral", "grad_mag_integral", "lhs", "rhs", "ratio"],
        rows, worst,
        notes=f"eta={eta:g}, A_s={a_coeff:g}, B_s={b_coeff:g}, s={s_param:g}")


# ---------------------------------------------------------------------------
# density bounds
# ---------------------------------------------------------------------------

def density_bound_ledger(trajectory: Trajectory, params: FluidParams
                         ) -> LedgerReport:
    """Assembled two-sided log-density bounds along a trajectory.

    Upper: nu log rho(t,x) <= nu log ||rho0||_inf + ||inv_lap div m0||_inf
           + ||inv_lap div(rho u)(t)||_inf + int_0^t mean P + int_0^t ||comm||_inf.
    Lower: nu log rho(t,x) >= nu log min rho0 - ||inv_lap div m0||_inf
           - sup_{s<=t} ||inv_lap div(rho u)||_inf - int ||P||_inf + int mean P
           - int ||comm||_inf.
    Both follow from the characteristic representation of F by dropping
    sign-definite terms, so the empirical constants sit near one.
    """
    states = trajectory.states
    if states[0].min_density <= 0:
        raise VacuumError(states[0].t, states[0].min_density)
    nu = params.nu
    times = trajectory.times
    m0 = scale_vector(states[0].rho, states[0].u)
    init_term = lebesgue_norm(inv_laplacian_zero_mean(divergence(m0)), math.inf)
    mean_p = np.empty(len(states))
    sup_p = np.empty(len(states))
    comm_sup = np.empty(len(states))
    pot_term = np.empty(len(states))
    for n, state in enumerate(states):
        p = pressure_field(state, params)
        mean_p[n] = p.mean
        sup_p[n] = lebesgue_norm(p, math.inf)
        comm, _ = coifman_commutator(state)
        comm_sup[n] = lebesgue_norm(comm, math.inf)
        m = scale_vector(state.rho, state.u)
        pot_term[n] = lebesgue_norm(inv_laplacian_zero_mean(divergence(m)), math.inf)
    int_mean_p = cumulative_trapezoid(mean_p, times, initial=0)
    int_sup_p = cumulative_trapezoid(sup_p, times, initial=0)
    int_comm = cumulative_trapezoid(comm_sup, times, initial=0)
    running_pot = np.maximum.accumulate(pot_term)
    rho0 = states[0].rho.samples
    upper_base = nu * math.log(float(np.max(rho0))) + init_term
    lower_base = nu * math.log(float(np.min(rho0))) - init_term
    rows, worst = [], 0.0
    for n, state in enumerate(states):
        log_rho = np.log(state.rho.samples)
        lhs_hi = nu * float(np.max(log_rho))
        rhs_hi = upper_base + pot_term[n] + int_mean_p[n] + int_comm[n]
        lhs_lo = nu * float(np.min(log_rho))
        rhs_lo = (lower_base - running_pot[n] - int_sup_p[n] + int_mean_p[n]
                  - int_comm[n])
        gap_hi = rhs_hi - lhs_hi
        gap_lo = lhs_lo - rhs_lo
        ratio = max(lhs_hi / rhs_hi if rhs_hi != 0 else 0.0, 0.0)
        worst = max(worst, ratio)
        rows.append((state.t, lhs_hi, rhs_hi, gap_hi, lhs_lo, rhs_lo, gap_lo))
    return LedgerReport(
        "log_density_bounds",
        ["time", "upper_lhs", "upper_rhs", "upper_gap",
         "lower_lhs", "lower_rhs", "lower_gap"],
        rows, worst,
        notes="gaps must stay nonnegative up to discretization; forcing terms "
              "are not included (the bound is derived for g = 0)")


# ---------------------------------------------------------------------------
# blow-up monitors
# ---------------------------------------------------------------------------

@dataclass
class MonitorFlags:
    density_bounded: bool
    criterion_norms_finite: bool
    extendable: bool
    first_violation_time: float | None
    rho_sup: float
    criterion_exponent: float
    pressure_time_norm: float
    companion_norms: dict[str, float]
    lipschitz_integral: float
    stop_reason: str


def blowup_monitor(trajectory: Trajectory, params: FluidParams,
                   monitor: MonitorConfig, window_end: float | None = None
                   ) -> MonitorFlags:
    """Evaluate the continuation criteria on [0, T]:

      (a) sup_t ||rho||_inf finite with positive minimum (density criterion);
      (b) the pressure-integrability norms: ||rho||_{L^{gamma+1}_T(L^{q_c})}
          with q_c = (N+1+eps) gamma, plus the companion sup-in-time norms
          (L^{9+eps} and L^{3 gamma + 3/2} in 3-D, L^{2 gamma + 1} in 2-D);
      (c) the accumulating int ||grad u||_inf dt.

    Flags are monotone under window extension: once violated, the first
    violation time is fixed.
    """
    if len(trajectory) == 0:
        raise ValueError("empty trajectory")
    states = trajectory.states
    if window_end is not None:
        states = [s for s in states if s.t <= window_end * (1 + 1e-12)]
        if not states:
            raise ValueError("window excludes every snapshot")
    times = np.array([s.t for s in states])
    dim = states[0].grid.dim
    gamma = getattr(params.pressure, "gamma", None)
    if gamma is None:
        if monitor.q_density is None:
            raise ValueError("tabulated law needs an explicit q_density")
        gamma = 1.0
    q_crit = monitor.q_density or criterion_exponent(dim, gamma, monitor.epsilon)

    density_ok = True
    first_bad = None
    rho_sup = 0.0
    rho_qc = np.empty(len(states))
    grad_sup = np.empty(len(states))
    companions: dict[str, list[float]] = {}
    comp_exps = ({"L9eps": 9.0 + monitor.epsilon, "L3g32": 3.0 * gamma + 1.5}
                 if dim == 3 else {"L2g1": 2.0 * gamma + 1.0})
    for n, s in enumerate(states):
        finite = s.is_finite() and s.min_density > 0
        if not finite and first_bad is None:
            density_ok = False
            first_bad = s.t
        rho_sup = max(rho_sup, lebesgue_norm(s.rho, math.inf))
        rho_qc[n] = lebesgue_norm(s.rho, q_crit)
        grad_sup[n] = lebesgue_norm(
            pointwise(s.grid, np.sqrt(np.sum(velocity_gradient(s.u) ** 2,
                                             axis=(0, 1))), dealiased=False),
            math.inf)
        for name, q in comp_exps.items():
            companions.setdefault(name, []).append(lebesgue_norm(s.rho, q))
    abnormal = trajectory.stop_reason not in ("completed", "max_steps")
    in_window = window_end is None or trajectory.stop_time <= window_end * (1 + 1e-12)
    if abnormal and in_window:
        density_ok = False
        if first_bad is None:
            first_bad = trajectory.stop_time
    if len(states) > 1:
        pressure_time_norm = float(np.trapezoid(rho_qc ** (gamma + 1.0), times)
                                   ** (1.0 / (gamma + 1.0)))
        lipschitz = float(np.trapezoid(grad_sup, times))
    else:
        pressure_time_norm, lipschitz = 0.0, 0.0
    comp = {k: float(np.max(v)) for k, v in companions.items()}
    norms_finite = (math.isfinite(pressure_time_norm) and math.isfinite(lipschitz)
                    and all(math.isfinite(v) for v in comp.values()))
    return MonitorFlags(
        density_bounded=density_ok,
        criterion_norms_finite=norms_finite,
        extendable=density_ok and norms_finite,
        first_violation_time=first_bad,
        rho_sup=rho_sup,
        criterion_exponent=q_crit,
        pressure_time_norm=pressure_time_norm,
        companion_norms=comp,
        lipschitz_integral=lipschitz,
        stop_reason=trajectory.stop_reason)


# ---------------------------------------------------------------------------
# Besov transport estimate and regularity monitor
# ---------------------------------------------------------------------------

def _vector_besov(partition: DyadicPartition, fields: Sequence[ScalarField],
                  spec: BesovSpec) -> float:
    return max(besov_norm(partition, f, spec) for f in fields)


def _grad_block_fields(u: VectorField) -> list[ScalarField]:
    grid = u.grid
    return [partial(u.component(j), i) for i in range(grid.dim)
            for j in range(grid.dim)]


def transport_estimate_report(trajectory: Trajectory, partition: DyadicPartition,
                              sigma: float, p: float, r: float,
                              p1: float | None = None) -> LedgerReport:
    """Empirical Gronwall constant of the Besov transport estimate

        ||rho||_{L~inf_t(B^sigma_{p,r})} <= e^{C V(t)} (||rho0||_{B^sigma_{p,r}}
            + int_0^t ||rho||_inf ||div v1||_{B^sigma_{p,r}})

    with V(t) accumulating the grad u / div v1 / density norms.  The minimal
    C making the bound hold at each snapshot is reported.
    """
    params = trajectory.params
    grid = trajectory.initial.grid
    if p1 is None:
        p1 = p
    if p > p1:
        raise ValueError("need p <= p1")
    p_prime = p / (p - 1.0) if p > 1 else math.inf
    if sigma <= -grid.dim * min(1.0 / p1, 1.0 / p_prime):
        raise ValueError(
            f"regularity index sigma={sigma} violates the admissible window")
    alpha = max(0, math.ceil(sigma))
    spec = BesovSpec(sigma, p, r)
    env_spec = BesovSpec(grid.dim / p1, p1, math.inf)
    times = trajectory.times
    states = trajectory.states
    block_sup = None
    lhs = np.empty(len(states))
    v_rate = np.empty(len(states))
    src_rate = np.empty(len(states))
    from .littlewood_paley import block_norms
    for n, state in enumerate(states):
        bn = block_norms(partition, state.rho, p)
        block_sup = bn if block_sup is None else np.maximum(block_sup, bn)
        qs = np.arange(-1, partition.q_max + 1, dtype=float)
        weighted = 2.0 ** (qs * sigma) * block_sup
        lhs[n] = float(np.max(weighted)) if math.isinf(r) else \
            float(np.sum(weighted ** r) ** (1.0 / r))
        v1, _ = effective_velocity(state, params)
        div_v1 = divergence(v1)
        grad_u_fields = _grad_block_fields(state.u)
        rho_inf = lebesgue_norm(state.rho, math.inf)
        v_rate[n] = (max(_vector_besov(partition, grad_u_fields, env_spec),
                         max(lebesgue_norm(f, math.inf) for f in grad_u_fields))
                     + max(besov_norm(partition, div_v1, env_spec),
                           lebesgue_norm(div_v1, math.inf))
                     + rho_inf ** (alpha + 1) + 1.0)
        src_rate[n] = rho_inf * besov_norm(partition, div_v1, spec)
    v_int = cumulative_trapezoid(v_rate, times, initial=0)
    src_int = cumulative_trapezoid(src_rate, times, initial=0)
    base = lhs[0]
    rows, c_min = [], 0.0
    for n in range(len(states)):
        envelope = base + src_int[n]
        need = 0.0
        if lhs[n] > envelope and v_int[n] > 0:
            need = math.log(lhs[n] / envelope) / v_int[n]
        c_min = max(c_min, need)
        rows.append((times[n], lhs[n], envelope, v_int[n], need))
    return LedgerReport(
        "besov_transport_estimate",
        ["time", "lhs", "envelope_no_exp", "V", "required_C"],
        rows, c_min,
        notes=f"sigma={sigma}, p={p}, r={r}, p1={p1}")


def besov_regularity_monitor(trajectory: Trajectory, partition: DyadicPartition,
                             epsilon: float) -> dict[str, np.ndarray]:
    """Time series of the density's Besov norms, the logarithmic interpolation
    ratio, and the accumulating Lipschitz-type integrals of grad u and grad v1."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    params = trajectory.params
    states = trajectory.states
    times = trajectory.times
    inf = math.inf
    eps_spec = BesovSpec(epsilon, inf, inf)
    zero_inf = BesovSpec(0.0, inf, inf)
    zero_one = BesovSpec(0.0, inf, 1.0)
    b_eps = np.empty(len(states))
    b01 = np.empty(len(states))
    ratio = np.empty(len(states))
    gu_rate = np.empty(len(states))
    gv_rate = np.empty(len(states))
    for n, state in enumerate(states):
        b_eps[n] = besov_norm(partition, state.rho, eps_spec)
        b01[n] = besov_norm(partition, state.rho, zero_one)
        base = besov_norm(partition, state.rho, zero_inf)
        rhs = base * (1.0 + math.log(max(b_eps[n], 1e-300))) \
            * math.log(math.e + 1.0 / max(base, 1e-300))
        ratio[n] = b01[n] / rhs if rhs > 0 else math.nan
        gu_rate[n] = _vector_besov(partition, _grad_block_fields(state.u), eps_spec)
        v1, _ = effective_velocity(state, params)
        gv_rate[n] = _vector_besov(partition, _grad_block_fields(v1), eps_spec)
    return {"time": times,
            "rho_besov_eps": b_eps,
            "rho_besov_zero_one": b01,
            "log_interpolation_ratio": ratio,
            "grad_u_besov_integral": cumulative_trapezoid(gu_rate, times, initial=0),
            "grad_v1_besov_integral": cumulative_trapezoid(gv_rate, times, initial=0)}


# ---------------------------------------------------------------------------
# effective-velocity energy ledger
# ---------------------------------------------------------------------------

def dtv_formula(state: FluidState, params: FluidParams) -> VectorField:
    """Time derivative of the pressure potential field v from the mass
    equation alone:

        d_t v = Lambda^{-1}( -div(P u) + (P - rho P') div u
                             - mean(P div u) + mean(rho P' div u) )

    with Lambda^{-1} the Bogovskii inverse grad inv_lap (. - mean)."""
    grid = state.grid
    p = pressure_field(state, params)
    dp = pointwise(grid, params.pressure.derivative(state.rho.samples))
    div_u = divergence(state.u)
    pu = scale_vector(p, state.u)
    rho_dp = multiply(state.rho, dp)
    h = (divergence(pu) * -1.0) + multiply(p - rho_dp, div_u)
    mean_terms = (-multiply(p, div_u).mean + multiply(rho_dp, div_u).mean)
    h = h + ScalarField.constant(grid, mean_terms)
    return bogovskii(h)


def v1_energy_ledger(trajectory: Trajectory, params: FluidParams
                     ) -> LedgerReport:
    """Weighted energy of the effective velocity v1 (heat-type budget):
    K1(t) = int_0^t int f rho |d_s v1|^2 and
    K2(t) = f(t)/2 int (mu |grad v1|^2 + (lam+mu)(div v1)^2),
    plus the residual of the d_t v formula against centred differencing."""
    states = trajectory.states
    if any(s.min_density <= 0 for s in states):
        raise VacuumError(trajectory.stop_time,
                          min(s.min_density for s in states))
    if len(states) < 3:
        raise ValueError("need at least 3 snapshots")
    grid = states[0].grid
    times = trajectory.times
    fw = f_weight(times)
    vol = grid.cell_volume
    v1s, vs = [], []
    for s in states:
        v1, v = effective_velocity(s, params)
        v1s.append(v1)
        vs.append(v)
    dt_v1 = _time_derivative(times, np.stack([f.coeffs for f in v1s]))
    dt_v = _time_derivative(times, np.stack([f.coeffs for f in vs]))
    k1_rate = np.empty(len(states))
    k2 = np.empty(len(states))
    dtv_resid = np.full(len(states), math.nan)
    for n, state in enumerate(states):
        dv1 = VectorField(grid, dt_v1[n]).samples
        k1_rate[n] = fw[n] * float(np.sum(state.rho.samples
                                          * np.sum(dv1 ** 2, axis=0))) * vol
        gv = velocity_gradient(v1s[n])
        div_v = np.trace(gv, axis1=0, axis2=1)
        k2[n] = 0.5 * fw[n] * (params.mu * float(np.sum(gv ** 2))
                               + (params.mu + params.lam)
                               * float(np.sum(div_v ** 2))) * vol
        if 0 < n < len(states) - 1:
            formula = dtv_formula(state, params)
            dtv_resid[n] = lebesgue_norm(
                formula - VectorField(grid, dt_v[n]), math.inf)
    k1 = cumulative_trapezoid(k1_rate, times, initial=0)
    rows = [(times[n], k1[n], k2[n], dtv_resid[n]) for n in range(len(states))]
    finite = [r for r in dtv_resid if math.isfinite(r)]
    return LedgerReport(
        "effective_velocity_energy",
        ["time", "weighted_acceleration", "weighted_gradient", "dtv_residual"],
        rows, max(finite) if finite else 0.0,
        notes="dtv_residual is O(dt^2); NaN at the window ends")


# ---------------------------------------------------------------------------
# ensemble studies owned by the diagnostics layer
# ---------------------------------------------------------------------------

def coifman_constant_study(grid: TorusGrid, ensemble_size: int,
                           r1: float = 2.0, r2: float = 2.0, seed: int = 0):
    """sup ||[u_j, R_i R_j](rho u)||_{W^{1,r3}} / (||u||_{W^{1,r1}}
    ||rho u||_{L^{r2}}) over random states."""
    from .littlewood_paley import EnsembleReport
    ratios = []
    for i in range(ensemble_size):
        rng = np.random.default_rng(seed + i)
        rho = pointwise(grid, 1.0 + 0.4 * random_field(grid, rng).samples
                        / max(1e-9, np.max(np.abs(random_field(grid, rng).samples))),
                        dealiased=False)
        u = random_vector_field(grid, rng)
        state = FluidState(rho, u, 0.0)
        comm, norm = coifman_commutator(state, r1, r2)
        den = sobolev_norm(u, 1, r1) * lebesgue_norm(
            scale_vector(rho, u), r2)
        ratios.append(norm / den if den > 0 else 0.0)
    return EnsembleReport("coifman_commutator_continuity", ensemble_size,
                          max(ratios), ratios)


# ---------------------------------------------------------------------------
# forcing norm
# ---------------------------------------------------------------------------

def forcing_norm(trajectory: Trajectory, params: FluidParams,
                 epsilon: float = 0.5) -> dict[str, float]:
    """The working norm of the source term over the trajectory window:
    sup-in-time and square-integrated L^2 norms, the L^1_T(L^{N+eps}) norm,
    the f^gamma-weighted squared L^4 norm of grad g, and the f^5-weighted
    time-derivative energy."""
    grid = trajectory.initial.grid
    times = trajectory.times
    gamma = getattr(params.pressure, "gamma", None) or 1.0
    if params.forcing is None:
        zero = {"sup_l2": 0.0, "l2_l2": 0.0, "l1_lneps": 0.0,
                "weighted_grad": 0.0, "weighted_dt": 0.0, "total": 0.0}
        return zero
    fields = [params.forcing(t, grid) for t in times]
    l2 = np.array([lebesgue_norm(g, 2) for g in fields])
    lneps = np.array([lebesgue_norm(g, grid.dim + epsilon) for g in fields])
    grad4 = np.array([lebesgue_norm(pointwise(
        grid, np.sqrt(np.sum(velocity_gradient(g) ** 2, axis=(0, 1))),
        dealiased=False), 4) for g in fields])
    fw = f_weight(times)
    if len(times) > 2:
        dt_g = _time_derivative(times, np.stack([g.coeffs for g in fields]))
        dt_energy = np.array([float(np.sum(VectorField(grid, d).samples ** 2))
                              * grid.cell_volume for d in dt_g])
    else:
        dt_energy = np.zeros(len(times))
    out = {
        "sup_l2": float(np.max(l2)),
        "l2_l2": float(np.sqrt(np.trapezoid(l2 ** 2, times))),
        "l1_lneps": float(np.trapezoid(lneps, times)),
        "weighted_grad": float(np.trapezoid(fw ** gamma * grad4 ** 2, times)),
        "weighted_dt": float(np.trapezoid(fw ** 5 * dt_energy, times)),
    }
    out["total"] = sum(out.values())
    return out


# ---------------------------------------------------------------------------
# per-snapshot records
# ---------------------------------------------------------------------------

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
    RECORD_COLUMNS (besov column NaN when no partition was supplied)."""
    time: float
    values: dict[str, float]
    flags: dict[str, bool] = dc_field(default_factory=dict)

    def row(self) -> list[float]:
        out = []
        for col in RECORD_COLUMNS:
            if col == "time":
                out.append(self.time)
            elif col in ("finite", "positive"):
                out.append(1.0 if self.flags.get(col, False) else 0.0)
            else:
                out.append(self.values.get(col, math.nan))
        return out


def compute_diagnostics(trajectory: Trajectory, params: FluidParams,
                        monitor: MonitorConfig,
                        partition: DyadicPartition | None = None
                        ) -> list[DiagnosticRecord]:
    """Per-snapshot bundle of norms, functionals, exact-identity residuals,
    and sanity flags."""
    gamma = getattr(params.pressure, "gamma", None) or 1.0
    dim = trajectory.initial.grid.dim
    q_dens = monitor.q_density or criterion_exponent(dim, gamma, monitor.epsilon)
    diss = trajectory.quadratures.get("dissipation", [0.0] * len(trajectory))
    work = trajectory.quadratures.get("forcing_work", [0.0] * len(trajectory))
    eps_spec = BesovSpec(monitor.epsilon, math.inf, math.inf)
    records = []
    for n, state in enumerate(trajectory.states):
        grid = state.grid
        vol = grid.cell_volume
        positive = state.min_density > 0
        finite = state.is_finite()
        gu = velocity_gradient(state.u)
        gu_mag = np.sqrt(np.sum(gu ** 2, axis=(0, 1)))
        kin = 0.5 * float(np.sum(state.rho.samples
                                 * np.sum(state.u.samples ** 2, axis=0))) * vol
        pot = integral(pressure_potential(params.pressure, state.rho)) \
            if positive else math.nan
        mag2 = np.sum(state.u.samples ** 2, axis=0)
        p1 = monitor.p_gain
        values = {
            "mass": state.mass,
            "min_rho": state.min_density,
            "rho_linf": lebesgue_norm(state.rho, math.inf),
            "rho_lq": lebesgue_norm(state.rho, q_dens),
            "grad_u_l2": float(math.sqrt(np.sum(gu_mag ** 2) * vol)),
            "grad_u_linf": float(np.max(gu_mag)),
            "kinetic": kin,
            "potential": pot,
            "energy": kin + pot if positive else math.nan,
            "dissipation_cum": diss[n] if n < len(diss) else math.nan,
            "forcing_work_cum": work[n] if n < len(work) else math.nan,
            "p1_moment": float(np.sum(state.rho.samples * mag2 ** (p1 / 2)))
            * vol / p1,
        }
        residuals = v1_identities(state, params)
        values["div_v1_residual"] = residuals["div_v1"]
        values["curl_v1_residual"] = residuals["curl_v1"]
        values["lap_decomposition_residual"] = residuals["lap_u_decomposition"]
        values["effective_pressure_l2"] = lebesgue_norm(
            effective_pressure(state, params), 2)
        values["rho_besov_eps"] = besov_norm(partition, state.rho, eps_spec) \
            if partition is not None else math.nan
        records.append(DiagnosticRecord(state.t, values,
                                        {"finite": finite, "positive": positive}))
    return records


def records_to_csv(records: Sequence[DiagnosticRecord]) -> str:
    lines = [",".join(RECORD_COLUMNS)]
    for rec in records:
        lines.append(",".join(repr(float(v)) for v in rec.row()))
    return "\n".join(lines) + "\n"
