"""Periodic Littlewood-Paley machinery: dyadic blocks, Besov and
Chemin-Lerner norms, Bony paraproducts, transport and multiplier
commutators, and the ensemble harnesses that estimate the constants of
the classical inequalities empirically.

Block convention: Delta_{-1} is the low-pass chi(D) (it carries the mean),
Delta_q for q >= 0 is the shell filter phi(2^{-q} D) with
phi(xi) = chi(xi/2) - chi(xi).  Then u = sum_{q >= -1} Delta_q u exactly,
S_q = chi(2^{-q} D) for q >= 0 and S_q = 0 for q < 0, and the Bony
decomposition reconstructs the (dealiased) grid product exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .spectral import (
    Field,
    MultiplierSymbol,
    ScalarField,
    TorusGrid,
    VectorField,
    dealias,
    divergence,
    gradient,
    lebesgue_norm,
    multiply,
    partial,
    random_field,
    random_vector_field,
    sobolev_norm,
    _check_same_grid,
)

# smooth step built from exp(-1/t); the chi ramp starts at (3/4)(1 + RAMP_DELTA)
RAMP_DELTA = 0.02
_RAMP_LO = 0.75 * (1.0 + RAMP_DELTA)
_RAMP_HI = 4.0 / 3.0


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def chi_profile(r: np.ndarray) -> np.ndarray:
    """Radial low-pass bump: 1 on |xi| <= (3/4)(1+delta), 0 beyond 4/3."""
    r = np.asarray(r, dtype=np.float64)
    return 1.0 - _smooth_step((r - _RAMP_LO) / (_RAMP_HI - _RAMP_LO))


def phi_profile(r: np.ndarray) -> np.ndarray:
    """Radial shell bump phi(xi) = chi(xi/2) - chi(xi), supported in
    [3/4, 8/3] (partition of unity by telescoping)."""
    return chi_profile(np.asarray(r) / 2.0) - chi_profile(r)


class DyadicPartition:
    """Dyadic filters for one grid, blocks q = -1 .. q_max."""

    def __init__(self, grid: TorusGrid):
        if grid.n < 8:
            raise ValueError("grid too small to host one full dyadic shell (M < 8)")
        self.grid = grid
        radius = grid.k_radius
        kmax = float(np.max(radius))
        self.q_max = int(math.floor(math.log2(kmax / 0.75)))
        filters = {-1: chi_profile(radius)}
        for q in range(0, self.q_max + 1):
            filters[q] = phi_profile(radius / 2.0 ** q)
        self._filters = filters
        self._low_pass = {0: filters[-1]}

    @property
    def active_blocks(self) -> range:
        return range(-1, self.q_max + 1)

    def block_filter(self, q: int) -> np.ndarray:
        """Filter array for Delta_q; identically zero off the active range."""
        if q in self._filters:
            return self._filters[q]
        if q == -1:
            return self._filters[-1]
        return phi_profile(self.grid.k_radius / 2.0 ** q)

    def low_pass_filter(self, q: int) -> np.ndarray:
        """Filter for S_q = chi(2^{-q} D) for q >= 0; S_q = 0 for q < 0."""
        if q < 0:
            return np.zeros(self.grid.spectral_shape)
        f = self._low_pass.get(q)
        if f is None:
            f = chi_profile(self.grid.k_radius / 2.0 ** q)
            self._low_pass[q] = f
        return f

    def partition_residual(self) -> float:
        total = self._filters[-1] + sum(self._filters[q] for q in range(self.q_max + 1))
        return float(np.max(np.abs(total - 1.0)))


def build_partition(grid: TorusGrid) -> DyadicPartition:
    return DyadicPartition(grid)


def dyadic_block(partition: DyadicPartition, q: int, f: Field) -> Field:
    """Delta_q f.  Blocks with q <= -2 (or above q_max) vanish on the grid."""
    _check_same_grid(partition.grid, f)
    if q < -1:
        return f * 0.0
    return f.with_coeffs(f.coeffs * partition.block_filter(q))


def low_pass(partition: DyadicPartition, q: int, f: Field) -> Field:
    """S_q f = sum_{p <= q-1} Delta_p f."""
    _check_same_grid(partition.grid, f)
    return f.with_coeffs(f.coeffs * partition.low_pass_filter(q))


# ---------------------------------------------------------------------------
# Besov / Chemin-Lerner norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BesovSpec:
    s: float
    p: float
    r: float

    def __post_init__(self):
        if not (self.p >= 1 and self.r >= 1):
            raise ValueError(f"p and r must be >= 1, got p={self.p}, r={self.r}")


@dataclass(frozen=True)
class CheminLernerSpec:
    rho: float
    besov: BesovSpec

    def __post_init__(self):
        if not self.rho >= 1:
            raise ValueError(f"rho must be >= 1, got {self.rho}")


def block_norms(partition: DyadicPartition, f: Field, p: float) -> np.ndarray:
    """(||Delta_l f||_{L^p})_{l=-1..q_max}; the mean sits in the l = -1 block."""
    return np.array([lebesgue_norm(dyadic_block(partition, q, f), p)
                     for q in partition.active_blocks])


def _lr_combine(weighted: np.ndarray, r: float) -> float:
    if math.isinf(r):
        return float(np.max(weighted)) if weighted.size else 0.0
    return float(np.sum(weighted ** r) ** (1.0 / r))


def besov_norm(partition: DyadicPartition, f: Field, spec: BesovSpec) -> float:
    norms = block_norms(partition, f, spec.p)
    qs = np.arange(-1, partition.q_max + 1, dtype=float)
    return _lr_combine(2.0 ** (qs * spec.s) * norms, spec.r)


def chemin_lerner_norm(partition: DyadicPartition, times: Sequence[float],
                       snapshots: Sequence[Field], spec: CheminLernerSpec) -> float:
    """Time-inside-block norm of Chemin-Lerner type; the time integral is
    trapezoidal over the snapshot instants."""
    times = np.asarray(times, dtype=float)
    if len(snapshots) < 2 or times.size < 2:
        raise ValueError("need at least 2 snapshots")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time samples must be strictly increasing")
    bs = spec.besov
    per_block = np.stack([block_norms(partition, f, bs.p) for f in snapshots])  # (t, l)
    if math.isinf(spec.rho):
        time_norms = np.max(per_block, axis=0)
    else:
        time_norms = np.trapezoid(per_block ** spec.rho, times, axis=0) ** (1.0 / spec.rho)
    qs = np.arange(-1, partition.q_max + 1, dtype=float)
    return _lr_combine(2.0 ** (qs * bs.s) * time_norms, bs.r)


def besov_norm_timespace(partition: DyadicPartition, times, snapshots,
                         rho: float, spec: BesovSpec) -> float:
    """Plain L^rho_T(B^s_{p,r}) norm, the Minkowski partner of the above."""
    times = np.asarray(times, dtype=float)
    vals = np.array([besov_norm(partition, f, spec) for f in snapshots])
    if math.isinf(rho):
        return float(np.max(vals))
    return float(np.trapezoid(vals ** rho, times) ** (1.0 / rho))


# ---------------------------------------------------------------------------
# Bony decomposition
# ---------------------------------------------------------------------------

class _BlockCache:
    """Physical-space samples of all blocks and low-pass sums of one field."""

    def __init__(self, partition: DyadicPartition, f: ScalarField):
        self.partition = partition
        self.blocks = [np.asarray(dyadic_block(partition, q, f).samples)
                       for q in partition.active_blocks]
        # sums[i] = blocks[0] + ... + blocks[i], accumulated left to right
        self.sums = np.cumsum(self.blocks, axis=0)

    def block(self, q: int) -> np.ndarray:
        if q < -1 or q > self.partition.q_max:
            return np.zeros(self.partition.grid.shape)
        return self.blocks[q + 1]

    def low_pass(self, q: int) -> np.ndarray:
        # S_q = sum_{p <= q-1} Delta_p, empty sum for q <= 0 ... S_0 = Delta_{-1}
        if q <= -1:
            return np.zeros(self.partition.grid.shape)
        return self.sums[min(q, self.partition.q_max + 1)]


def _prod(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> ScalarField:
    return dealias(ScalarField.from_samples(grid, a * b))


def bony_decompose(partition: DyadicPartition, u: ScalarField, v: ScalarField
                   ) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Bony splitting (T_u v, T_v u, R(u, v)) of the dealiased product u*v.

    T_u v = sum_q S_{q-1} u Delta_q v and R(u, v) = sum_q Delta_q u
    (Delta_{q-1} + Delta_q + Delta_{q+1}) v; the three pieces reconstruct
    multiply(u, v) exactly.
    """
    grid = _check_same_grid(partition.grid, u, v)
    cu = _BlockCache(partition, u)
    cv = _BlockCache(partition, v)
    t_uv = ScalarField.zero(grid)
    t_vu = ScalarField.zero(grid)
    remainder = ScalarField.zero(grid)
    for q in partition.active_blocks:
        su = cu.low_pass(q - 1)
        sv = cv.low_pass(q - 1)
        if q >= 1:  # S_{q-1} vanishes for q <= 0
            t_uv = t_uv + _prod(grid, su, cv.block(q))
            t_vu = t_vu + _prod(grid, sv, cu.block(q))
        near = cv.block(q - 1) + cv.block(q) + cv.block(q + 1)
        remainder = remainder + _prod(grid, cu.block(q), near)
    return t_uv, t_vu, remainder


def paraproduct(partition: DyadicPartition, low: ScalarField, high: ScalarField) -> ScalarField:
    """T_low high = sum_q S_{q-1} low * Delta_q high."""
    grid = _check_same_grid(partition.grid, low, high)
    cl = _BlockCache(partition, low)
    ch = _BlockCache(partition, high)
    out = ScalarField.zero(grid)
    for q in range(1, partition.q_max + 1):
        out = out + _prod(grid, cl.low_pass(q - 1), ch.block(q))
    return out


def remainder(partition: DyadicPartition, u: ScalarField, v: ScalarField) -> ScalarField:
    """R(u, v) = sum_q Delta_q u (Delta_{q-1} + Delta_q + Delta_{q+1}) v."""
    grid = _check_same_grid(partition.grid, u, v)
    cu = _BlockCache(partition, u)
    cv = _BlockCache(partition, v)
    out = ScalarField.zero(grid)
    for q in partition.active_blocks:
        near = cv.block(q - 1) + cv.block(q) + cv.block(q + 1)
        out = out + _prod(grid, cu.block(q), near)
    return out


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

def multiplier_commutator(theta: MultiplierSymbol, lam: float,
                          a: ScalarField, b: ScalarField) -> ScalarField:
    """[theta(lam^{-1} D), a] b = theta(lam^{-1}D)(a b) - a theta(lam^{-1}D) b."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    grid = _check_same_grid(a, b)
    scaled = MultiplierSymbol(lambda *k: theta.rule(*(x / lam for x in k)),
                              theta.order, name=f"{theta.name}@{lam:g}")
    from .spectral import apply_multiplier
    lhs = apply_multiplier(scaled, multiply(a, b))
    rhs = multiply(a, apply_multiplier(scaled, b))
    return lhs - rhs


def transport_commutator(partition: DyadicPartition, u: VectorField,
                         a: ScalarField, q: int) -> ScalarField:
    """R_q = [u . grad, Delta_q] a = u . grad Delta_q a - Delta_q (u . grad a)."""
    grid = _check_same_grid(partition.grid, u, a)
    if q not in partition.active_blocks:
        raise ValueError(f"q={q} outside active block range {partition.active_blocks}")
    u = dealias(u)
    a = dealias(a)
    block_a = dyadic_block(partition, q, a)
    first = ScalarField.zero(grid)
    second_arg = ScalarField.zero(grid)
    for k in range(grid.dim):
        uk = u.component(k)
        first = first + multiply(uk, partial(block_a, k))
        second_arg = second_arg + multiply(uk, partial(a, k))
    return first - dyadic_block(partition, q, second_arg)


def eight_way_split(partition: DyadicPartition, u: VectorField,
                    a: ScalarField, q: int) -> list[ScalarField]:
    """The eight commutator pieces from the low/high splitting u = S_0 u + u1.

    Pieces (sums over the component index k are implicit):
      1: [T_{u1^k}, Delta_q] d_k a          2: T_{d_k Delta_q a} u1^k
      3: -Delta_q T_{d_k a} u1^k            4: d_k R(u1^k, Delta_q a)
      5: -R(div u1, Delta_q a)              6: -d_k Delta_q R(u1^k, a)
      7: Delta_q R(div u1, a)               8: [S_0 u^k, Delta_q] d_k a
    They sum to transport_commutator exactly (the printed form of piece 2
    truncates the paraproduct argument; the plain paraproduct reading is the
    one that makes the sum exact, which the tests pin down).
    """
    grid = _check_same_grid(partition.grid, u, a)
    if q not in partition.active_blocks:
        raise ValueError(f"q={q} outside active block range {partition.active_blocks}")
    u = dealias(u)
    a = dealias(a)
    low_u = low_pass(partition, 0, u)     # S_0 u, carries the mean
    high_u = u - low_u                    # u1
    div_high = divergence(high_u)
    block_a = dyadic_block(partition, q, a)

    pieces = [ScalarField.zero(grid) for _ in range(8)]
    for k in range(grid.dim):
        u1k = high_u.component(k)
        da_k = partial(a, k)
        dblock_k = partial(block_a, k)
        # 1: T_{u1k}(d_k Delta_q a) - Delta_q T_{u1k}(d_k a)
        pieces[0] = pieces[0] + paraproduct(partition, u1k, dblock_k) \
            - dyadic_block(partition, q, paraproduct(partition, u1k, da_k))
        # 2: paraproduct with low factor d_k Delta_q a
        pieces[1] = pieces[1] + paraproduct(partition, dblock_k, u1k)
        # 3
        pieces[2] = pieces[2] - dyadic_block(partition, q, paraproduct(partition, da_k, u1k))
        # 4
        pieces[3] = pieces[3] + partial(remainder(partition, u1k, block_a), k)
        # 6
        pieces[5] = pieces[5] - partial(dyadic_block(partition, q,
                                                     remainder(partition, u1k, a)), k)
        # 8: S_0 u^k Delta_q d_k a - Delta_q (S_0 u^k d_k a)
        s0k = low_u.component(k)
        pieces[7] = pieces[7] + multiply(s0k, dblock_k) \
            - dyadic_block(partition, q, multiply(s0k, da_k))
    # 5 and 7 use div u1 once
    pieces[4] = -remainder(partition, div_high, block_a)
    pieces[6] = dyadic_block(partition, q, remainder(partition, div_high, a))
    return pieces


# ---------------------------------------------------------------------------
# pointwise inequality probes
# ---------------------------------------------------------------------------

def bernstein_check(partition: DyadicPartition, f: ScalarField, q: int,
                    p2: float) -> tuple[float, float]:
    """Two-sided Bernstein ratio for the block q of the high-frequency part.

    Returns (r, 1/r) with r = ||Delta_q grad u||_{p2} / (2^q ||Delta_q u||_{p2});
    both entries must stay below a fixed constant C (so r lies in [1/C, C]).
    """
    if q < 0:
        raise ValueError("Bernstein ratios are for the away-from-origin blocks q >= 0")
    high = f - low_pass(partition, 0, f)
    block = dyadic_block(partition, q, high)
    denom = lebesgue_norm(block, p2)
    if denom <= 1e-14 * max(lebesgue_norm(high, p2), 1e-300):
        raise ValueError(f"Delta_q u vanishes for q={q}; ratio undefined")
    num = lebesgue_norm(gradient(block), p2)
    ratio = num / (2.0 ** q * denom)
    return ratio, 1.0 / ratio


def log_interpolation_check(partition: DyadicPartition, f: Field, s: float,
                            p: float, epsilon: float) -> tuple[float, float]:
    """Left side ||u||_{B^s_{p,1}} and the logarithmic right side
    ((1+eps)/eps) ||u||_{B^s_{p,inf}} (1 + log(||u||_{B^{s+eps}_{p,inf}} /
    ||u||_{B^s_{p,inf}})), without the universal constant."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lhs = besov_norm(partition, f, BesovSpec(s, p, 1))
    base = besov_norm(partition, f, BesovSpec(s, p, math.inf))
    if base == 0.0:
        raise ValueError("zero field: logarithmic ratio undefined")
    upper = besov_norm(partition, f, BesovSpec(s + epsilon, p, math.inf))
    rhs = (1.0 + epsilon) / epsilon * base * (1.0 + math.log(upper / base))
    return lhs, rhs


# ---------------------------------------------------------------------------
# ensemble estimators for the existential constants
# ---------------------------------------------------------------------------

@dataclass
class EnsembleReport:
    """Empirical supremum of an inequality ratio over a random ensemble."""
    name: str
    size: int
    sup_ratio: float
    ratios: list[float] = dc_field(default_factory=list)

    def stable_against(self, other: "EnsembleReport", tol: float = 0.5) -> bool:
        if self.sup_ratio == 0.0 and other.sup_ratio == 0.0:
            return True
        base = max(self.sup_ratio, other.sup_ratio)
        return abs(self.sup_ratio - other.sup_ratio) / base < tol


def _ensemble(name: str, n: int, sample: Callable[[np.random.Generator], float],
              seed: int) -> EnsembleReport:
    ratios = []
    for i in range(n):
        ratios.append(float(sample(np.random.default_rng(seed + i))))
    return EnsembleReport(name, n, max(ratios), ratios)


def _validate_product_law(law: str, n_dim: int, spec1: BesovSpec, spec2: BesovSpec,
                          p_out: float | None) -> float:
    """Check the exponent constraints; return the output regularity index."""
    if law == "linf_sym":
        if spec1 != spec2:
            raise ValueError("the symmetric law uses one spec for both factors")
        return spec1.s
    if law == "bilinear":
        s1, p1 = spec1.s, spec1.p
        s2, p2 = spec2.s, spec2.p
        p = p_out if p_out is not None else max(p1, p2)
        if 1.0 / p > 1.0 / p1 + 1.0 / p2 + 1e-12:
            raise ValueError("need 1/p <= 1/p1 + 1/p2")
        lam1 = lam2 = math.inf
        if p1 <= p2:
            with np.errstate(divide="ignore"):
                lam2 = math.inf if p1 == p2 else 1.0 / (1.0 / p1 - 1.0 / p2)
        else:
            lam1 = 1.0 / (1.0 / p2 - 1.0 / p1)
        low = s1 + s2 + n_dim * min(0.0, 1.0 - 1.0 / p1 - 1.0 / p2)
        if low <= 0:
            raise ValueError(
                f"s1 + s2 + N inf(0, 1 - 1/p1 - 1/p2) = {low:g} must be positive")
        if s1 + n_dim / lam2 >= n_dim / p1:
            raise ValueError("need s1 + N/lambda2 < N/p1")
        if s2 + n_dim / lam1 >= n_dim / p2:
            raise ValueError("need s2 + N/lambda1 < N/p2")
        return s1 + s2 - n_dim * (1.0 / p1 + 1.0 / p2 - 1.0 / p)
    if law == "critical":
        s1, p1 = spec1.s, spec1.p
        s2, p2 = spec2.s, spec2.p
        if abs(s1 + s2) > 1e-12:
            raise ValueError(f"critical law needs s1 + s2 = 0, got {s1 + s2:g}")
        if 1.0 / p1 + 1.0 / p2 > 1.0 + 1e-12:
            raise ValueError("need 1/p1 + 1/p2 <= 1")
        lam1 = lam2 = math.inf
        if p1 < p2:
            lam2 = 1.0 / (1.0 / p1 - 1.0 / p2)
        elif p2 < p1:
            lam1 = 1.0 / (1.0 / p2 - 1.0 / p1)
        lo = n_dim / lam1 - n_dim / p2
        hi = n_dim / p1 - n_dim / lam2
        if not (lo < s1 <= hi):
            raise ValueError(
                f"critical window needs s1 in ({lo:g}, {hi:g}], got {s1}")
        p = p_out if p_out is not None else max(p1, p2)
        return -n_dim * (1.0 / p1 + 1.0 / p2 - 1.0 / p)
    if law == "uniform":
        s, p = spec1.s, spec1.p
        if p >= 2:
            if not abs(s) < n_dim / p:
                raise ValueError(f"need |s| < N/p, got s={s}, N/p={n_dim / p:g}")
        else:
            pp = p / (p - 1.0) if p > 1 else math.inf
            if not (-n_dim / pp < s < n_dim / p):
                raise ValueError("need -N/p' < s < N/p")
        return s
    raise ValueError(f"unknown product law {law!r}")


def product_law_estimator(partition: DyadicPartition, ensemble_size: int,
                          spec1: BesovSpec, spec2: BesovSpec, *, law: str = "linf_sym",
                          p_out: float | None = None, seed: int = 0) -> EnsembleReport:
    """Empirical constant for one of the Besov product laws.

    law = "linf_sym":  ||uv||_B <= C(||u||_inf ||v||_B + ||v||_inf ||u||_B)
    law = "bilinear":  ||uv||_{B^{s1+s2-N(1/p1+1/p2-1/p)}_{p,r}}
                       <= C ||u||_{B^{s1}_{p1,r}} ||v||_{B^{s2}_{p2,inf}}
    law = "critical":  the borderline s1 + s2 = 0 variant, landing in
                       B^{-N(1/p1+1/p2-1/p)}_{p,inf} from ||u||_{B^{s1}_{p1,1}}
    law = "uniform":   ||uv||_{B^s_{p,r}} <= C ||u||_{B^s_{p,r}}
                       ||v||_{B^{N/p}_{p,inf} ∩ L^inf}
    Exponent constraints are validated up front and violations raise.
    """
    grid = partition.grid
    s_out = _validate_product_law(law, grid.dim, spec1, spec2, p_out)

    def sample(rng: np.random.Generator) -> float:
        u = random_field(grid, rng)
        v = random_field(grid, rng)
        uv = multiply(u, v)
        if law == "linf_sym":
            num = besov_norm(partition, uv, spec1)
            den = (lebesgue_norm(u, math.inf) * besov_norm(partition, v, spec1)
                   + lebesgue_norm(v, math.inf) * besov_norm(partition, u, spec1))
        elif law == "bilinear":
            p = p_out if p_out is not None else max(spec1.p, spec2.p)
            num = besov_norm(partition, uv, BesovSpec(s_out, p, spec1.r))
            den = (besov_norm(partition, u, spec1)
                   * besov_norm(partition, v, BesovSpec(spec2.s, spec2.p, math.inf)))
        elif law == "critical":
            p = p_out if p_out is not None else max(spec1.p, spec2.p)
            num = besov_norm(partition, uv, BesovSpec(s_out, p, math.inf))
            den = (besov_norm(partition, u, BesovSpec(spec1.s, spec1.p, 1))
                   * besov_norm(partition, v, BesovSpec(spec2.s, spec2.p, math.inf)))
        else:
            num = besov_norm(partition, uv, spec1)
            vnorm = max(besov_norm(partition, v,
                                   BesovSpec(grid.dim / spec1.p, spec1.p, math.inf)),
                        lebesgue_norm(v, math.inf))
            den = besov_norm(partition, u, spec1) * vnorm
        return num / den if den > 0 else 0.0

    return _ensemble(f"product_law[{law}]", ensemble_size, sample, seed)


def embedding_estimator(partition: DyadicPartition, ensemble_size: int, s: float,
                        p1: float, p2: float, r: float, *, seed: int = 0) -> EnsembleReport:
    """Empirical constant of B^s_{p1,r} into B^{s - N(1/p1 - 1/p2)}_{p2,r}."""
    if p1 > p2:
        raise ValueError("embedding increases the integrability index: need p1 <= p2")
    grid = partition.grid
    s_target = s - grid.dim * (1.0 / p1 - 1.0 / p2)

    def sample(rng):
        u = random_field(grid, rng)
        num = besov_norm(partition, u, BesovSpec(s_target, p2, r))
        den = besov_norm(partition, u, BesovSpec(s, p1, r))
        return num / den if den > 0 else 0.0

    return _ensemble("embedding[Prop2.2]", ensemble_size, sample, seed)


def linf_embedding_estimator(partition: DyadicPartition, ensemble_size: int,
                             epsilon: float, *, seed: int = 0) -> EnsembleReport:
    """Empirical constant of ||f||_inf <= C ||f||_{B^1_{N+eps,inf}}."""
    grid = partition.grid
    spec = BesovSpec(1.0, grid.dim + epsilon, math.inf)

    def sample(rng):
        u = random_field(grid, rng)
        den = besov_norm(partition, u, spec)
        return lebesgue_norm(u, math.inf) / den if den > 0 else 0.0

    return _ensemble("embedding[B^1_{N+eps,inf}->Linf]", ensemble_size, sample, seed)


def lemma1_scaling_study(grid: TorusGrid, *, k_range: Sequence[int] = range(7),
                         ensemble_size: int = 12, p: float = 2, seed: int = 0,
                         theta: MultiplierSymbol | None = None) -> dict[int, float]:
    """Median of lam * ||[theta(lam^{-1}D), a] b||_p / (||grad a||_inf ||b||_p)
    over an ensemble with flat dyadic spectrum, for lam = 2^k.

    The decay law says this stays in a fixed band across k.
    """
    if theta is None:
        theta = MultiplierSymbol(lambda *k: chi_profile(np.sqrt(sum(x ** 2 for x in k))),
                                 order=0, name="chi")
    a = ScalarField.from_function(grid, lambda *c: np.sin(c[0]))
    grad_a = lebesgue_norm(gradient(a), math.inf)
    fields = [random_field(grid, np.random.default_rng(seed + i), flat_dyadic=True)
              for i in range(ensemble_size)]
    out = {}
    for k in k_range:
        lam = 2.0 ** k
        ratios = []
        for b in fields:
            comm = multiplier_commutator(theta, lam, a, b)
            ratios.append(lam * lebesgue_norm(comm, p) / (grad_a * lebesgue_norm(b, p)))
        out[k] = float(np.median(ratios))
    return out


def composition_report(partition: DyadicPartition, func: Callable[[np.ndarray], np.ndarray],
                       f: ScalarField, spec: BesovSpec) -> dict[str, float]:
    """Norms of the pointwise composition func(f) next to those of f.

    The composition estimate only guarantees a bound with an unspecified
    envelope depending on ||f||_inf, so this reports the raw numbers
    (including the vanishing-at-zero normalization func(f) - func(0))."""
    from .spectral import pointwise
    grid = partition.grid
    composed = pointwise(grid, func(f.samples) - func(np.zeros(1)))
    return {
        "input_besov": besov_norm(partition, f, spec),
        "input_linf": lebesgue_norm(f, math.inf),
        "composed_besov": besov_norm(partition, composed, spec),
        "composed_linf": lebesgue_norm(composed, math.inf),
    }


def derivative_norm_equivalence(partition: DyadicPartition, ensemble_size: int,
                                s: float, p: float, r: float, *, seed: int = 0
                                ) -> tuple[EnsembleReport, EnsembleReport]:
    """Two-sided empirical constants for ||grad u||_{B^{s-1}} vs ||u||_{B^s}
    on zero-mean fields (the equivalence fails on constants, which the blocks
    see only through the mean)."""
    grid = partition.grid
    low_spec = BesovSpec(s - 1.0, p, r)
    spec = BesovSpec(s, p, r)

    def fwd(rng):
        u = random_field(grid, rng)
        den = besov_norm(partition, u, spec)
        num = max(besov_norm(partition, partial(u, a), low_spec)
                  for a in range(grid.dim))
        return num / den if den > 0 else 0.0

    def bwd(rng):
        u = random_field(grid, rng)
        num = besov_norm(partition, u, spec)
        den = max(besov_norm(partition, partial(u, a), low_spec)
                  for a in range(grid.dim))
        return num / den if den > 0 else 0.0

    return (_ensemble("grad_vs_besov_forward", ensemble_size, fwd, seed),
            _ensemble("grad_vs_besov_backward", ensemble_size, bwd, seed))


def lemma2_constant_study(partition: DyadicPartition, ensemble_size: int, *,
                          sigma: float = 0.5, p: float = 2, p1: float = 2,
                          r: float = 2, seed: int = 0) -> EnsembleReport:
    """sup over samples of ||(2^{q sigma} ||R_q||_p)_q||_{l^r} /
    (||a||_{B^sigma_{p,r}} ||u||_{B^{N/p1}_{p1,inf} ∩ L^inf})."""
    grid = partition.grid

    def sample(rng):
        u = random_vector_field(grid, rng)
        a = random_field(grid, rng)
        weighted = []
        for q in partition.active_blocks:
            rq = transport_commutator(partition, u, a, q)
            weighted.append(2.0 ** (q * sigma) * lebesgue_norm(rq, p))
        num = _lr_combine(np.array(weighted), r)
        u_norm = max(besov_norm(partition, u, BesovSpec(grid.dim / p1, p1, math.inf)),
                     lebesgue_norm(u, math.inf))
        den = besov_norm(partition, a, BesovSpec(sigma, p, r)) * u_norm
        return num / den if den > 0 else 0.0

    return _ensemble("lemma2[transport-commutator]", ensemble_size, sample, seed)
