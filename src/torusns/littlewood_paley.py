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
of one field, one row per block.  A block whose filtered coefficients are
all zero is a zero row without a transform, and the kernels skip its
products unless the other factor is not finite, since 0 * NaN is NaN.  Every
other block is one inverse transform pruned to its own columns: Delta_q f
lives in the first ceil((8/3) 2^q) columns of the half spectrum (2, 3, 6,
11, 22 and 43 of 65 at 2-D 128^2; 2, 3, 6 and 11 of 17 at 3-D 32^3), and
in no column past the field's own last nonzero one (43 of 65 for a
dealiased 128^2 field), so only those columns take the transform along the
leading axes before the last-axis pass (`spectral._block_inverse`,
bit-identical to the full-width transform; pruning, after Markel, IEEE
Trans. Audio Electroacoust. 19, 1971).  Dealiasing, Delta_q and the forward
transform are linear, so a piece sums its block products in physical
space, over the component index too, and pays one forward transform: T_l h
keeps S_{q-1} l as a running sum of l's blocks, and R(u, v) meets each
block of u with the neighbouring blocks of v.  A stack lives as long as the
call that builds it.  bony_decompose builds the stacks of u and v once and
hands both to its three pieces (at most 2(q_max + 2) inverse and 3 forward
transforms, 19 at 2-D 128^2).  eight_way_split builds the stacks of a and
Delta_q a once and those of u1^k, d_k a and d_k Delta_q a per component,
freeing them before the next one; it takes pieces 5 and 7 by Leibniz from
sums it already has, so it builds no div u1 stack (51 inverse and 12
forward transforms at 2-D 128^2, q = 2).  transport_commutator makes 2 dim
inverse and 2 forward transforms.

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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .spectral import (
    Field,
    MultiplierSymbol,
    ScalarField,
    TorusGrid,
    VectorField,
    apply_multiplier,
    dealias,
    gradient,
    lebesgue_norm,
    multiply,
    partial,
    pointwise,
    random_field,
    sample_norm,
    _block_inverse,
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
            return _zero_filter(self.grid)
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
def _filter_widths(grid: TorusGrid) -> np.ndarray:
    """Per row of the filter stack, the number of leading half-spectrum
    columns (last-axis frequencies 0, 1, ...) that hold its support."""
    support = _filter_stack(grid).any(axis=grid.axes[:-1])
    return _frozen(np.array([np.flatnonzero(row)[-1] + 1 for row in support]))


@functools.lru_cache(maxsize=32)  # one entry per grid size in use
def _zero_filter(grid: TorusGrid) -> np.ndarray:
    return _frozen(np.zeros(grid.spectral_shape))


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


class _Stack(NamedTuple):
    """Block stack of one field: ``rows`` are the samples of its blocks, and
    ``reach`` (one entry per row) is zero exactly where the row was left at
    zero without a transform; such rows share one read-only zero array."""
    rows: list[np.ndarray]
    reach: np.ndarray


def _block_stack(partition: DyadicPartition, f: Field,
                 blocks: Sequence[int] | None = None) -> _Stack:
    """Samples of Delta_q f for q in `blocks` (default -1 .. q_max), one row
    per block, each transformed over the columns of its filter's support and
    of the field's (see the module docstring).  A row whose filter misses
    the field's coefficients (for Delta_q f, all but rows q-1 .. q+1) is
    zero without a transform, which is what its transform gives, bit for
    bit.  `reach` sums the non-negative terms filter * |c|: zero exactly
    when every filtered coefficient is, and NaN (so the row is transformed)
    when a coefficient is not finite."""
    grid = _check_same_grid(partition.grid, f)
    filters = _rows(partition._filters, blocks)
    weight = np.abs(f.coeffs).reshape((-1,) + grid.spectral_shape).sum(axis=0)
    reach = filters.reshape(len(filters), weight.size) @ weight.ravel()
    zero = np.broadcast_to(0.0, f.coeffs.shape[:f.rank] + grid.shape)
    # row q is transformed over the columns where both its filter and the
    # field may be nonzero; a non-finite coefficient anywhere makes every
    # product non-finite (0 * NaN), so then every row takes the full width
    if np.isfinite(reach).all():
        columns = np.flatnonzero(weight.any(axis=grid.axes[:-1]))
        widths = np.minimum(_rows(_filter_widths(grid), blocks),
                            columns[-1] + 1 if columns.size else 0)
    else:
        widths = np.full(len(filters), weight.shape[-1])
    # one block at a time: forming the whole product stack first and passing
    # it to `to_samples` once (the same transform calls) made an lp-ensemble
    # cycle 24 % slower (0.350 against 0.282 s, medians of 20 interleaved
    # cycles, one thread of a 2-vCPU x86 host).  Each row is the array its
    # transform returns: copying the rows into one preallocated stack cost
    # an eight-way split at 2-D 128^2 about 1500 minor page faults per call
    # against about 1200 this way.  The products share one work buffer, and
    # the rows run by increasing width, so each product covers every column
    # that the previous one left there
    rows = [zero] * len(filters)
    work = np.zeros_like(f.coeffs)
    for row in np.argsort(widths, kind="stable"):
        if reach[row] != 0:
            rows[row] = _block_inverse(grid, f.coeffs, filters[row], widths[row], work)
    return _Stack(rows, reach)


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
                     for block in _block_stack(partition, f, blocks).rows])


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

def _visited(stack: _Stack, other: _Stack) -> np.ndarray:
    """The rows of `stack` whose products with `other` a kernel forms: the
    rows `_block_stack` transformed (reach != 0, NaN included), or every row
    while `other` is not finite, since 0 * NaN is NaN and a skipped product
    would hide it."""
    if np.isfinite(other.reach).all():
        return stack.reach != 0
    return np.ones(len(stack.reach), dtype=bool)


def _paraproduct(low: _Stack, high: _Stack, out: np.ndarray | None = None) -> np.ndarray:
    """Samples of T_low high (before dealiasing) from the block stacks of both
    factors, added into `out` (zeros when None), which is returned."""
    visit_low, visit_high = _visited(low, high), _visited(high, low)
    started = np.logical_or.accumulate(visit_low)  # S_{q-1} low has a visited row
    # S_{q-1} low = Delta_{-1} + ... + Delta_{q-2} low, and one block product
    running, product = np.zeros((2,) + low.rows[0].shape)
    total = np.zeros_like(running) if out is None else out
    for q in range(1, len(started) - 1):  # S_{q-1} vanishes for q <= 0
        if visit_low[q - 1]:
            running += low.rows[q - 1]
        if started[q - 1] and visit_high[q + 1]:
            total += np.multiply(running, high.rows[q + 1], out=product)
    return total


def _remainder(u: _Stack, v: _Stack, out: np.ndarray | None = None) -> np.ndarray:
    """Samples of R(u, v) (before dealiasing) from the block stacks of both
    factors, added into `out` (zeros when None), which is returned: each
    block of u meets the same, the lower and the upper neighbouring block of
    v."""
    visit_u, visit_v = _visited(u, v), _visited(v, u)
    total = np.zeros(u.rows[0].shape) if out is None else out
    product = np.empty_like(total)
    for i in np.flatnonzero(visit_u):
        near = [v.rows[j] for j in (i - 1, i, i + 1)
                if 0 <= j < len(visit_v) and visit_v[j]]
        if near:
            # (near[0] + near[1] + ...) * u_i, summed in the same order
            factor = near[0]
            for row in near[1:]:
                factor = np.add(factor, row, out=product)
            total += np.multiply(u.rows[i], factor, out=product)
    return total


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
                stacks: tuple[_Stack, _Stack] | None = None) -> ScalarField:
    """T_low high = sum_q S_{q-1} low * Delta_q high.

    ``stacks``, when given, must be the block stacks of (low, high) (it saves
    rebuilding them)."""
    if stacks is None:
        stacks = _block_stack(partition, low), _block_stack(partition, high)
    return pointwise(partition.grid, _paraproduct(*stacks))


def remainder(partition: DyadicPartition, u: ScalarField, v: ScalarField,
              stacks: tuple[_Stack, _Stack] | None = None) -> ScalarField:
    """R(u, v) = sum_q Delta_q u (Delta_{q-1} + Delta_q + Delta_{q+1}) v.

    ``stacks``, when given, must be the block stacks of (u, v) (it saves
    rebuilding them)."""
    if stacks is None:
        stacks = _block_stack(partition, u), _block_stack(partition, v)
    return pointwise(partition.grid, _remainder(*stacks))


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
                              name=f"{theta.name}@{lam:g}")
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
    first = np.zeros(grid.shape)   # u . grad Delta_q a
    second = np.zeros(grid.shape)  # u . grad a
    for k in range(grid.dim):
        uk = u.component(k).samples
        first += uk * partial(block_a, k).samples
        second += uk * partial(a, k).samples
    return pointwise(grid, first) - dyadic_block(partition, q, pointwise(grid, second))


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

    Each piece sums its products over k in physical space and pays one
    forward transform per term; pieces 4 and 6 pay one per k, as d_k acts on
    their coefficients.  Pieces 5 and 7 come from Leibniz's rule
    d_k R(f, g) = R(d_k f, g) + R(f, d_k g):
      5 = R(u1^k, d_k Delta_q a) - piece 4,
      7 = -piece 6 - Delta_q R(u1^k, d_k a),
    so no stack of div u1 is built.  The rule is exact on the 2/3-dealiased
    band: the factors are dealiased, so the aliases of their grid products
    fall outside the kept band, where the pieces are zero.  The samples of
    d_k a and d_k Delta_q a (piece 8) are the row sums of their stacks.
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

    def delta_q(samples: np.ndarray) -> ScalarField:
        return dyadic_block(partition, q, pointwise(grid, samples))

    # sums over k of the samples of: T_{u1k} d_k Delta_q a, T_{u1k} d_k a,
    # T_{d_k Delta_q a} u1k, T_{d_k a} u1k, R(u1k, d_k Delta_q a),
    # R(u1k, d_k a), S_0 u^k d_k Delta_q a and S_0 u^k d_k a
    t1, t1q, t2, t3, r5, r7, p8, p8q = np.zeros((8,) + grid.shape)
    piece4 = piece6 = ScalarField.zero(grid)
    for k in range(grid.dim):
        u1k = _block_stack(partition, high_u.component(k))
        dak = _block_stack(partition, partial(a, k))
        dqk = _block_stack(partition, partial(block_a, k))
        _paraproduct(u1k, dqk, t1)
        _paraproduct(u1k, dak, t1q)
        _paraproduct(dqk, u1k, t2)
        _paraproduct(dak, u1k, t3)
        piece4 = piece4 + partial(pointwise(grid, _remainder(u1k, qa_blocks)), k)
        piece6 = piece6 - partial(delta_q(_remainder(u1k, a_blocks)), k)
        _remainder(u1k, dqk, r5)
        _remainder(u1k, dak, r7)
        s0k = low_u.component(k).samples
        p8 += s0k * sum(dqk.rows)
        p8q += s0k * sum(dak.rows)
        # free this component's stacks before the next one builds its own
        del u1k, dak, dqk
    return [pointwise(grid, t1) - delta_q(t1q),
            pointwise(grid, t2),
            -delta_q(t3),
            piece4,
            pointwise(grid, r5) - piece4,
            piece6,
            -piece6 - delta_q(r7),
            pointwise(grid, p8) - delta_q(p8q)]


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
                         ensemble_size: int = 12, seed: int = 0) -> dict[int, float]:
    """Median of lam * ||[theta(lam^{-1}D), a] b||_2 / (||grad a||_inf ||b||_2)
    over an ensemble with flat dyadic spectrum, for lam = 2^k and theta the
    low-pass bump chi.

    The decay law says this stays in a fixed band across k.
    """
    theta = MultiplierSymbol(lambda *k: chi_profile(np.sqrt(sum(x ** 2 for x in k))),
                             name="chi")
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
            ratios.append(lam * lebesgue_norm(comm, 2) / (grad_a * lebesgue_norm(b, 2)))
        out[k] = float(np.median(ratios))
    return out


