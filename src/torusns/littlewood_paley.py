"""Periodic Littlewood-Paley machinery: dyadic blocks, Besov norms, Bony
paraproducts, transport and multiplier commutators, and the ensemble
harnesses that estimate the constants of the classical inequalities
empirically.

Block convention: Delta_{-1} is the low-pass chi(D) (it carries the mean),
Delta_q for q >= 0 is the shell filter phi(2^{-q} D) with
phi(xi) = chi(xi/2) - chi(xi).  Then u = sum_{q >= -1} Delta_q u exactly,
S_q = chi(2^{-q} D) for q >= 0 and S_q = 0 for q < 0, and the Bony
decomposition reconstructs the (dealiased) grid product exactly.

Kernels work on block stacks: the samples of Delta_{-1} f .. Delta_{q_max} f
of one field, stacked on a leading axis (one inverse transform per block,
filters from the partition's single filter stack).  Dealiasing and the
forward transform are linear, so a Bony piece sums its block products in
physical space and pays one forward transform: T_l h keeps S_{q-1} l as a
running sum of l's blocks, and R(u, v) is three shifted contractions of the
two stacks.  A stack lives as long as the call that builds it;
bony_decompose builds the stacks of u and v once and hands both to its
three pieces (at most 2(q_max + 2) inverse and 3 forward transforms, 19 at
2-D 128^2), and eight_way_split builds the stacks of a, Delta_q a and
div u1 once and those of u1^k, d_k a and d_k Delta_q a per component,
freeing them before the next one.

L^2 block norms cost no transform: by Parseval, ||Delta_l f||_2^2 is the
torus volume times sum_k w_k phi_l(k)^2 |c_k|^2 (w_k the mode weight), one
product of the squared filter stack with the field's power spectrum.

Max-type norms skip the blocks they cannot need: ||Delta_q f||_inf is at
most the l^1 sum of the block's coefficients, which costs no transform, so
besov_norm with p = r = inf (scalar field) transforms a block only while its
bound can still beat the running max.  A skipped block's norm is at most the
max already found, so the result is identical to the all-blocks one.
Operators after Bahouri, Chemin & Danchin, *Fourier Analysis and Nonlinear
PDEs* (2011), ch. 2.
"""

from __future__ import annotations

import functools
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
    sample_norm,
    to_coeffs,
    to_samples,
    _check_same_grid,
    _frozen,
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
    """Dyadic filters for one grid, blocks q = -1 .. q_max.

    The stack of block filters (row q + 1 is Delta_q's) is read-only and
    built once per grid size, so every partition of an equal grid holds the
    same array; the low-pass filters other than S_0 are built on demand and
    kept by the partition that built them."""

    def __init__(self, grid: TorusGrid):
        if grid.n < 8:
            raise ValueError("grid too small to host one full dyadic shell (M < 8)")
        self.grid = grid
        self._filters = _filter_stack(grid)
        self.q_max = len(self._filters) - 2
        self._low_pass = {0: self._filters[0]}

    @property
    def active_blocks(self) -> range:
        return range(-1, self.q_max + 1)

    def block_filter(self, q: int) -> np.ndarray:
        """Filter array for Delta_q; identically zero off the active range."""
        if -1 <= q <= self.q_max:
            return self._filters[q + 1]
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
        return float(np.max(np.abs(np.sum(self._filters, axis=0) - 1.0)))


@functools.lru_cache(maxsize=32)  # one entry per grid size in use
def _filter_stack(grid: TorusGrid) -> np.ndarray:
    """chi, then phi(2^-q |k|) for q = 0 .. q_max, with q_max the last shell
    that reaches the grid's largest |k|."""
    radius = grid.k_radius
    q_max = int(math.floor(math.log2(float(np.max(radius)) / 0.75)))
    return _frozen(np.stack([chi_profile(radius)]
                            + [phi_profile(radius / 2.0 ** q) for q in range(q_max + 1)]))


@functools.lru_cache(maxsize=32)  # one entry per grid size in use
def _squared_filter_stack(grid: TorusGrid) -> np.ndarray:
    """The filter stack squared, flattened to one row per block: the Parseval
    weights of the L^2 block norms."""
    filters = _filter_stack(grid)
    return _frozen((filters ** 2).reshape(len(filters), -1))


def _rows(stack: np.ndarray, blocks: Sequence[int] | None) -> np.ndarray:
    """The rows of a per-block stack (row q + 1 is Delta_q's) for `blocks`;
    all of them when `blocks` is None."""
    if blocks is None:
        return stack
    if not all(-1 <= q <= len(stack) - 2 for q in blocks):
        raise ValueError(f"blocks {list(blocks)} outside the active range "
                         f"-1..{len(stack) - 2}")
    return stack[[q + 1 for q in blocks]]


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


def _block_stack(partition: DyadicPartition, f: Field,
                 blocks: Sequence[int] | None = None) -> np.ndarray:
    """Samples of Delta_q f for q in `blocks` (default -1 .. q_max), stacked
    on a leading axis.  A row whose filter misses the field's coefficients
    (for Delta_q f, all but rows q-1 .. q+1) is set to zero, which is what
    its transform gives, bit for bit.  `reach` sums the non-negative terms
    filter * |c|: zero exactly when every filtered coefficient is, and NaN
    (so the row is transformed) when a coefficient is not finite."""
    grid = _check_same_grid(partition.grid, f)
    filters = _rows(partition._filters, blocks)
    weight = np.abs(f.coeffs).reshape((-1,) + grid.spectral_shape).sum(axis=0)
    reach = filters.reshape(len(filters), weight.size) @ weight.ravel()
    stack = np.empty((len(filters),) + f.coeffs.shape[:f.rank] + grid.shape)
    # one block at a time: forming the whole product stack first and passing
    # it to `to_samples` once (the same transform calls) made an lp-ensemble
    # cycle 24 % slower (0.350 against 0.282 s, medians of 20 interleaved
    # cycles, one thread of a 2-vCPU x86 host)
    for block, filt, r in zip(stack, filters, reach):
        if r != 0:
            block[...] = to_samples(grid, f.coeffs * filt)
        else:
            block[...] = 0.0
    return stack


# ---------------------------------------------------------------------------
# Besov norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BesovSpec:
    s: float
    p: float
    r: float

    def __post_init__(self):
        if not (self.p >= 1 and self.r >= 1):
            raise ValueError(f"p and r must be >= 1, got p={self.p}, r={self.r}")


def block_norms(partition: DyadicPartition, f: Field, p: float,
                blocks: Sequence[int] | None = None) -> np.ndarray:
    """(||Delta_l f||_{L^p}) for l in `blocks` (default -1 .. q_max); the
    mean sits in the l = -1 block.

    p = 2 takes no transform: sqrt(volume * sum_k w_k phi_l(k)^2 |c_k|^2),
    summed over components, which is the grid quadrature of the block's
    samples up to round-off.  A non-finite coefficient gives NaN (or inf) in
    every block, as the samples would."""
    if p == 2:
        grid = _check_same_grid(partition.grid, f)
        squares = _rows(_squared_filter_stack(grid), blocks)
        power = (grid.mode_weight * np.abs(f.coeffs) ** 2).reshape(
            -1, squares.shape[1]).sum(axis=0)
        return np.sqrt(grid.volume * (squares @ power))
    return np.array([sample_norm(f.grid, block, p, f.rank)
                     for block in _block_stack(partition, f, blocks)])


def _lr_combine(weighted: np.ndarray, r: float) -> float:
    if math.isinf(r):
        return float(np.max(weighted)) if weighted.size else 0.0
    return float(np.sum(weighted ** r) ** (1.0 / r))


def _block_weights(n_blocks: int, s: float) -> np.ndarray:
    """2^{ls} for l = -1 .. n_blocks - 2."""
    return 2.0 ** (np.arange(-1, n_blocks - 1, dtype=float) * s)


def besov_from_block_norms(norms: np.ndarray, spec: BesovSpec) -> float:
    """The B^s_{p,r} norm from block norms (||Delta_l f||_{L^p})_{l >= -1}."""
    return _lr_combine(_block_weights(len(norms), spec.s) * norms, spec.r)


def _block_bounds(partition: DyadicPartition, f: ScalarField) -> np.ndarray:
    """(sum_k |phi_l(k) c_k| over the full lattice)_{l=-1..q_max}: the l^1
    bound ||Delta_l f||_inf <= sum_k |phi_l(k) c_k| behind Bernstein's lemma,
    from the coefficients alone."""
    grid = _check_same_grid(partition.grid, f)
    filters = partition._filters
    return filters.reshape(len(filters), -1) @ (np.abs(f.coeffs) * grid.mode_weight).ravel()


def _sup_besov(partition: DyadicPartition, f: ScalarField, s: float,
               floor: float = 0.0) -> float:
    """max(floor, max_q 2^{qs} ||Delta_q f||_inf), transforming only the
    blocks that can still raise the running max.

    Blocks are visited by decreasing `_block_bounds`, which cost no
    transform, and the visit stops once the running max reaches the next
    bound, so the result is the max over the same block norms that
    `block_norms` returns.  NaN in the floor, a bound or a visited block
    gives NaN.
    """
    filters = partition._filters
    weights = _block_weights(len(filters), s)
    bounds = weights * _block_bounds(partition, f)
    if math.isnan(floor) or np.isnan(bounds).any():
        return math.nan
    # round-off: the computed bound, a K-term positive sum, may fall short of
    # the exact one by K unit round-offs, and the computed block sup may
    # exceed the exact one by far less (a transform's error is O(log K))
    slack = 1.0 + 2.0 * filters[0].size * np.finfo(float).eps
    best = floor
    for row in np.argsort(-bounds, kind="stable"):
        if best >= bounds[row] * slack:
            break
        [norm] = block_norms(partition, f, math.inf, [row - 1])
        value = weights[row] * norm
        if math.isnan(value):
            return math.nan
        best = max(best, value)
    return float(best)


def besov_norm(partition: DyadicPartition, f: Field, spec: BesovSpec) -> float:
    if f.rank == 0 and math.isinf(spec.p) and math.isinf(spec.r):
        return _sup_besov(partition, f, spec.s)
    return besov_from_block_norms(block_norms(partition, f, spec.p), spec)


# ---------------------------------------------------------------------------
# Bony decomposition
# ---------------------------------------------------------------------------

def _dealiased(grid: TorusGrid, samples: np.ndarray) -> ScalarField:
    return dealias(ScalarField(grid, to_coeffs(grid, samples), copy=False))


def _paraproduct(grid: TorusGrid, low: np.ndarray, high: np.ndarray) -> ScalarField:
    """T_low high from the block stacks of both factors."""
    running = np.zeros(grid.shape)  # S_{q-1} low = Delta_{-1} + ... + Delta_{q-2} low
    total = np.zeros(grid.shape)
    for q in range(1, len(low) - 1):  # S_{q-1} vanishes for q <= 0
        running += low[q - 1]
        total += running * high[q + 1]
    return _dealiased(grid, total)


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[i] * b[i] over the leading (block) axis."""
    return np.einsum("i...,i...->...", a, b)


def _remainder(grid: TorusGrid, u: np.ndarray, v: np.ndarray) -> ScalarField:
    """R(u, v) from the block stacks of both factors: each block of u meets
    the same, the lower and the upper neighbouring block of v."""
    total = _contract(u, v) + _contract(u[1:], v[:-1]) + _contract(u[:-1], v[1:])
    return _dealiased(grid, total)


def bony_decompose(partition: DyadicPartition, u: ScalarField, v: ScalarField
                   ) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Bony splitting (T_u v, T_v u, R(u, v)) of the dealiased product u*v.

    T_u v = sum_q S_{q-1} u Delta_q v and R(u, v) = sum_q Delta_q u
    (Delta_{q-1} + Delta_q + Delta_{q+1}) v; the three pieces reconstruct
    multiply(u, v) exactly.  The block stacks of u and v are built once and
    shared by the three pieces.
    """
    stacks = _block_stack(partition, u), _block_stack(partition, v)
    return paraproduct(partition, u, v, stacks), \
        paraproduct(partition, v, u, stacks[::-1]), \
        remainder(partition, u, v, stacks)


def paraproduct(partition: DyadicPartition, low: ScalarField, high: ScalarField,
                stacks: tuple[np.ndarray, np.ndarray] | None = None) -> ScalarField:
    """T_low high = sum_q S_{q-1} low * Delta_q high.

    ``stacks``, when given, must be the block stacks of (low, high) (it saves
    rebuilding them)."""
    if stacks is None:
        stacks = _block_stack(partition, low), _block_stack(partition, high)
    return _paraproduct(partition.grid, *stacks)


def remainder(partition: DyadicPartition, u: ScalarField, v: ScalarField,
              stacks: tuple[np.ndarray, np.ndarray] | None = None) -> ScalarField:
    """R(u, v) = sum_q Delta_q u (Delta_{q-1} + Delta_q + Delta_{q+1}) v.

    ``stacks``, when given, must be the block stacks of (u, v) (it saves
    rebuilding them)."""
    if stacks is None:
        stacks = _block_stack(partition, u), _block_stack(partition, v)
    return _remainder(partition.grid, *stacks)


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
    block_a = dyadic_block(partition, q, a)
    a_blocks = _block_stack(partition, a)
    qa_blocks = _block_stack(partition, block_a)

    pieces = [ScalarField.zero(grid) for _ in range(8)]
    for k in range(grid.dim):
        da_k = partial(a, k)
        dblock_k = partial(block_a, k)
        u1k = _block_stack(partition, high_u.component(k))
        dak = _block_stack(partition, da_k)
        dqk = _block_stack(partition, dblock_k)
        # 1: T_{u1k}(d_k Delta_q a) - Delta_q T_{u1k}(d_k a)
        pieces[0] = pieces[0] + _paraproduct(grid, u1k, dqk) \
            - dyadic_block(partition, q, _paraproduct(grid, u1k, dak))
        # 2: paraproduct with low factor d_k Delta_q a
        pieces[1] = pieces[1] + _paraproduct(grid, dqk, u1k)
        # 3
        pieces[2] = pieces[2] - dyadic_block(partition, q, _paraproduct(grid, dak, u1k))
        # 4
        pieces[3] = pieces[3] + partial(_remainder(grid, u1k, qa_blocks), k)
        # 6
        pieces[5] = pieces[5] - partial(dyadic_block(partition, q,
                                                     _remainder(grid, u1k, a_blocks)), k)
        # 8: S_0 u^k Delta_q d_k a - Delta_q (S_0 u^k d_k a)
        s0k = low_u.component(k)
        pieces[7] = pieces[7] + multiply(s0k, dblock_k) \
            - dyadic_block(partition, q, multiply(s0k, da_k))
        # free this component's stacks before the next one builds its own
        del u1k, dak, dqk
    # 5 and 7 use div u1 once
    div_blocks = _block_stack(partition, divergence(high_u))
    pieces[4] = -_remainder(grid, div_blocks, qa_blocks)
    pieces[6] = dyadic_block(partition, q, _remainder(grid, div_blocks, a_blocks))
    return pieces


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

    def stable_against(self, other: "EnsembleReport") -> bool:
        """The two sup ratios differ by less than 50 % of the larger one."""
        if self.sup_ratio == 0.0 and other.sup_ratio == 0.0:
            return True
        base = max(self.sup_ratio, other.sup_ratio)
        return abs(self.sup_ratio - other.sup_ratio) / base < 0.5


def _ensemble(n: int, sample: Callable[[np.random.Generator], tuple[float, float]],
              seed: int) -> list[tuple[float, float]]:
    """The (numerator, denominator) pairs of n members; member i draws from
    default_rng(seed + i)."""
    return [sample(np.random.default_rng(seed + i)) for i in range(n)]


def _ratio_report(name: str, pairs: Sequence[tuple[float, float]]) -> EnsembleReport:
    """The members' ratios num/den (0 where den is not positive) and their sup."""
    ratios = [float(num / den) if den > 0 else 0.0 for num, den in pairs]
    return EnsembleReport(name, len(ratios), max(ratios), ratios)


def embedding_estimator(partition: DyadicPartition, ensemble_size: int, s: float,
                        p1: float, p2: float, r: float, *, seed: int = 0) -> EnsembleReport:
    """Empirical constant of B^s_{p1,r} into B^{s - N(1/p1 - 1/p2)}_{p2,r}."""
    if p1 > p2:
        raise ValueError("embedding increases the integrability index: need p1 <= p2")
    grid = partition.grid
    s_target = s - grid.dim * (1.0 / p1 - 1.0 / p2)

    def sample(rng):
        u = random_field(grid, rng)
        return (besov_norm(partition, u, BesovSpec(s_target, p2, r)),
                besov_norm(partition, u, BesovSpec(s, p1, r)))

    return _ratio_report("embedding[Prop2.2]", _ensemble(ensemble_size, sample, seed))


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


