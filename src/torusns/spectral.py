"""Fourier representation of real periodic fields on (0, 2*pi)^N and the
elementary spectral operators built on it: derivatives, inverse Laplacian,
Riesz transforms, Leray projection, general multipliers, and grid norms.

Fields are stored as the half spectrum that ``np.fft.rfftn`` returns:
u(x) = sum_k c_k e^{i k.x} over the integer lattice, of which only the modes
with 0 <= k_N <= M/2 on the last axis are kept; the leading axes run over
{-M/2+1, ..., M/2}.  The omitted modes are the conjugates of stored ones, so
samples are real by construction.  A vector field stacks its components on
a leading axis, and every operator is written once for both kinds.

The Nyquist class of an axis is represented as +M/2, so the lattice partner
k* of k (the mode carrying conj(c_k)) keeps the Nyquist components of k and
negates the others.  Fourier symbols s are applied through their Hermitian
part (s(k) + conj(s(k*)))/2, which is what taking the real part of a
full-lattice inverse transform does implicitly on the Nyquist planes.

This module holds the package's only calls into ``np.fft``.  All operations
are pure; field objects are immutable after construction.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

TAU = 2.0 * math.pi

#: fraction of the spectrum kept by the default (2/3 rule) dealiasing
DEALIAS_FRACTION = 2.0 / 3.0


class GridMismatchError(ValueError):
    """Two fields (or a field and an operator) live on different grids."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# grid and transforms
# ---------------------------------------------------------------------------

class TorusGrid:
    """Uniform grid on the torus (0, 2*pi)^dim with M points per axis.

    M must be a power of two >= 8 so every dyadic shell fits.  Integer
    frequencies per axis are {-M/2+1, ..., M/2}; the Nyquist residue class
    is represented as +M/2.  The frequency arrays live on the half-spectrum
    layout ``spectral_shape``, whose last axis runs over 0..M/2.
    """

    def __init__(self, dim: int, points_per_axis: int):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        m = int(points_per_axis)
        if m < 8 or (m & (m - 1)) != 0:
            raise ValueError(
                f"points_per_axis must be a power of two >= 8, got {points_per_axis}")
        self.dim = dim
        self.n = m
        self.shape = (m,) * dim
        self.spectral_shape = (m,) * (dim - 1) + (m // 2 + 1,)
        self.axes = tuple(range(-dim, 0))
        self.size = m ** dim
        self.spacing = TAU / m
        self.cell_volume = self.spacing ** dim
        self.volume = TAU ** dim

        freqs = np.fft.fftfreq(m, d=1.0 / m).astype(np.int64)
        freqs[m // 2] = m // 2  # report the Nyquist class as +M/2
        self.axis_frequencies = _frozen(freqs)

        mesh = np.meshgrid(*([freqs] * (dim - 1) + [freqs[:m // 2 + 1]]), indexing="ij")
        self.frequency_mesh = tuple(_frozen(k.astype(np.float64)) for k in mesh)
        # the lattice partner k*: Nyquist components stay, the others flip sign
        self.partner_mesh = tuple(_frozen(np.where(k == m // 2, k, -k))
                                  for k in self.frequency_mesh)
        self.k_squared = _frozen(sum(k * k for k in self.frequency_mesh))
        self.k_radius = _frozen(np.sqrt(self.k_squared))
        # True on every plane that touches the Nyquist frequency of some axis
        self.nyquist_mask = _frozen(np.logical_or.reduce(
            [k == m // 2 for k in self.frequency_mesh]))
        # full-lattice modes each stored coefficient stands for (along the
        # last axis): its partner is stored too on the k_N = 0 and M/2 planes
        weight = np.full(m // 2 + 1, 2.0)
        weight[[0, -1]] = 1.0
        self.mode_weight = _frozen(weight)

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Meshgrid of sample coordinates x_i = 2*pi*j/M."""
        x = np.arange(self.n) * self.spacing
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def dealias_mask(self, fraction: float = DEALIAS_FRACTION) -> np.ndarray:
        cutoff = math.floor(self.n * fraction / 2.0)
        keep = np.ones(self.spectral_shape, dtype=bool)
        for k in self.frequency_mesh:
            keep &= np.abs(k) <= cutoff
        return keep

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusGrid) and (self.dim, self.n) == (other.dim, other.n)

    def __hash__(self) -> int:
        return hash((self.dim, self.n))

    def __repr__(self) -> str:
        return f"TorusGrid(dim={self.dim}, points_per_axis={self.n})"


def to_coeffs(grid: TorusGrid, samples: np.ndarray) -> np.ndarray:
    """Normalized half-spectrum coefficients of real samples; leading axes
    beyond the grid's are a batch transformed in one call."""
    return np.fft.rfftn(samples, axes=grid.axes, norm="forward")


def to_samples(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Real samples of half-spectrum coefficients (inverse of to_coeffs)."""
    return np.fft.irfftn(coeffs, s=grid.shape, axes=grid.axes, norm="forward")


def _check_same_grid(*objs) -> TorusGrid:
    grid = objs[0].grid if hasattr(objs[0], "grid") else objs[0]
    for o in objs[1:]:
        g = o.grid if hasattr(o, "grid") else o
        if g != grid:
            raise GridMismatchError(f"grid mismatch: {g} vs {grid}")
    return grid


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Field:
    """Real field stored as normalized half-spectrum Fourier coefficients,
    with ``rank`` leading component axes of length dim (0: scalar, 1: vector).

    ``coeffs[..., k]`` is the coefficient of e^{i k.x}, so the mode
    ``(0,...,0)`` carries the mean value.
    """

    __slots__ = ("grid", "coeffs", "_samples")
    rank = 0

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray, *, copy: bool = True,
                 samples: np.ndarray | None = None):
        """``samples``, when given, must be the inverse transform of coeffs
        (it saves recomputing them)."""
        if coeffs.shape != self._lead(grid) + grid.spectral_shape:
            raise GridMismatchError(
                f"coefficient shape {coeffs.shape} does not match grid {grid.shape}")
        c = np.array(coeffs, dtype=np.complex128) if copy \
            else np.asarray(coeffs, dtype=np.complex128)
        self.grid = grid
        self.coeffs = _frozen(c)
        self._samples = None if samples is None else _frozen(samples)

    @classmethod
    def _lead(cls, grid: TorusGrid) -> tuple[int, ...]:
        return (grid.dim,) * cls.rank

    @classmethod
    def from_samples(cls, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != cls._lead(grid) + grid.shape:
            raise GridMismatchError(
                f"sample shape {values.shape} does not match grid {grid.shape}")
        return cls(grid, to_coeffs(grid, values), copy=False, samples=values.copy())

    @classmethod
    def zero(cls, grid: TorusGrid):
        return cls(grid, np.zeros(cls._lead(grid) + grid.spectral_shape,
                                  dtype=np.complex128), copy=False)

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            self._samples = _frozen(to_samples(self.grid, self.coeffs))
        return self._samples

    def with_coeffs(self, coeffs: np.ndarray):
        """A field of the same kind and grid with the given coefficients."""
        return type(self)(self.grid, coeffs, copy=False)

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean norm over the component axes."""
        return np.sqrt(np.sum(self.samples ** 2, axis=tuple(range(self.rank))))

    def max_frequency(self, tol: float = 1e-13) -> int:
        """Largest per-axis |k| carrying a coefficient above tol * max|c|
        (the maximum taken per component)."""
        c = np.abs(self.coeffs)
        thresh = tol * np.maximum(c.max(axis=self.grid.axes, keepdims=True), 1e-300)
        active = np.any(c > thresh, axis=tuple(range(self.rank)))
        if not active.any():
            return 0
        return max(int(np.max(np.abs(k)[active])) for k in self.grid.frequency_mesh)

    def shifted(self, cells: Sequence[int]):
        """Translate by an integer number of grid cells (for symmetry tests)."""
        return self.from_samples(self.grid, np.roll(self.samples, cells, axis=self.grid.axes))

    def __add__(self, other):
        _check_same_grid(self, other)
        return self.with_coeffs(self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return self.with_coeffs(self.coeffs - other.coeffs)

    def __mul__(self, scalar: float):
        return self.with_coeffs(self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self.with_coeffs(-self.coeffs)


class ScalarField(Field):
    """Real scalar field."""

    __slots__ = ()

    @classmethod
    def from_function(cls, grid: TorusGrid, fn: Callable[..., np.ndarray]) -> "ScalarField":
        return cls.from_samples(grid, np.asarray(fn(*grid.coordinates()), dtype=np.float64)
                                + np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: TorusGrid, value: float) -> "ScalarField":
        c = np.zeros(grid.spectral_shape, dtype=np.complex128)
        c[(0,) * grid.dim] = value
        return cls(grid, c, copy=False)

    @property
    def mean(self) -> float:
        return float(np.real(self.coeffs[(0,) * self.grid.dim]))

    def __repr__(self) -> str:
        return f"ScalarField(grid={self.grid!r}, mean={self.mean:.6g})"


class VectorField(Field):
    """Real vector field; the leading coefficient axis is the component."""

    __slots__ = ()
    rank = 1

    @classmethod
    def from_components(cls, components: Sequence[ScalarField]) -> "VectorField":
        grid = _check_same_grid(*components)
        if len(components) != grid.dim:
            raise ValueError(f"need {grid.dim} components, got {len(components)}")
        return cls(grid, np.stack([c.coeffs for c in components]), copy=False)

    def component(self, i: int) -> ScalarField:
        return ScalarField(self.grid, self.coeffs[i], copy=False,
                           samples=None if self._samples is None else self._samples[i])

    @property
    def components(self) -> list[ScalarField]:
        return [self.component(i) for i in range(self.grid.dim)]


# ---------------------------------------------------------------------------
# multiplier symbols
# ---------------------------------------------------------------------------

def hermitian_part(grid: TorusGrid, rule: Callable[..., np.ndarray]) -> np.ndarray:
    """The symbol k -> rule(*k) on the stored modes, taken as its Hermitian
    part (rule(k) + conj(rule(k*)))/2 so that it maps real fields to real
    fields; symbols that are already Hermitian come back unchanged."""
    values = np.broadcast_to(rule(*grid.frequency_mesh), grid.spectral_shape)
    partner = np.broadcast_to(rule(*grid.partner_mesh), grid.spectral_shape)
    return _frozen(0.5 * (values + np.conj(partner)))


class MultiplierSymbol:
    """Fourier multiplier xi -> f(xi) of declared order m.

    The rule receives the tuple of frequency meshes and returns the symbol
    values.  Validation on a grid checks finiteness everywhere and returns
    the empirical bound constant C = max |f(xi)| / (1+|xi|)^m.
    """

    def __init__(self, rule: Callable[..., np.ndarray], order: float, name: str = ""):
        self.rule = rule
        self.order = float(order)
        self.name = name or getattr(rule, "__name__", "multiplier")
        self._cache: dict[TorusGrid, np.ndarray] = {}

    def evaluate(self, grid: TorusGrid) -> np.ndarray:
        values = self._cache.get(grid)
        if values is None:
            with np.errstate(invalid="ignore"):  # reported just below
                values = hermitian_part(
                    grid, lambda *k: np.asarray(self.rule(*k), dtype=np.complex128))
            if not np.all(np.isfinite(values)):
                bad = np.argwhere(~np.isfinite(values))[0]
                freq = tuple(int(grid.frequency_mesh[a][tuple(bad)]) for a in range(grid.dim))
                raise ValueError(
                    f"symbol {self.name!r} is non-finite at grid frequency {freq}")
            self._cache[grid] = values
        return values

    def bound_constant(self, grid: TorusGrid) -> float:
        values = self.evaluate(grid)
        weight = (1.0 + grid.k_radius) ** self.order
        return float(np.max(np.abs(values) / weight))

    def __repr__(self) -> str:
        return f"MultiplierSymbol({self.name!r}, order={self.order})"


def apply_multiplier(symbol: MultiplierSymbol, field: Field) -> Field:
    return field.with_coeffs(field.coeffs * symbol.evaluate(field.grid))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def _derivative_factor(grid: TorusGrid, multi_index: Sequence[int]) -> np.ndarray:
    factor = np.ones(grid.spectral_shape, dtype=np.complex128)
    for axis, power in enumerate(multi_index):
        if power:
            factor = factor * (1j * grid.frequency_mesh[axis]) ** power
    # the odd derivative of the Nyquist cosine is ill-defined; drop the class
    if any(multi_index):
        factor = np.where(grid.nyquist_mask, 0.0, factor)
    return factor


def differentiate(field: Field, multi_index: Sequence[int]) -> Field:
    """Spectral partial derivative d^{|alpha|} / dx^alpha (exact on resolved
    modes; Nyquist planes are zeroed)."""
    grid = field.grid
    if len(multi_index) != grid.dim:
        raise ValueError(f"multi-index length {len(multi_index)} != dim {grid.dim}")
    return field.with_coeffs(field.coeffs * _derivative_factor(grid, multi_index))


def partial(field: Field, axis: int) -> Field:
    alpha = [0] * field.grid.dim
    alpha[axis] = 1
    return differentiate(field, alpha)


def gradient(field: ScalarField) -> VectorField:
    grid = field.grid
    comps = [partial(field, a) for a in range(grid.dim)]
    return VectorField.from_components(comps)


def divergence(field: VectorField) -> ScalarField:
    grid = field.grid
    out = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for a in range(grid.dim):
        out += partial(field.component(a), a).coeffs
    return ScalarField(grid, out, copy=False)


def curl(field: VectorField) -> Field:
    """Vorticity: scalar d1 u2 - d2 u1 in 2-D, the usual vector in 3-D."""
    grid = field.grid
    u = field.components
    if grid.dim == 2:
        return partial(u[1], 0) - partial(u[0], 1)
    w0 = partial(u[2], 1) - partial(u[1], 2)
    w1 = partial(u[0], 2) - partial(u[2], 0)
    w2 = partial(u[1], 0) - partial(u[0], 1)
    return VectorField.from_components([w0, w1, w2])


def laplacian(field: Field) -> Field:
    grid = field.grid
    return field.with_coeffs(field.coeffs * np.where(grid.nyquist_mask, 0.0, -grid.k_squared))


def velocity_gradient(field: Field) -> np.ndarray:
    """Sample array G[i, ...] = d_i f; for a vector field G[i, j] = d_i u_j,
    shape (dim, dim, *grid.shape)."""
    return np.stack([partial(field, i).samples for i in range(field.grid.dim)])


def strain(field: VectorField) -> np.ndarray:
    """Strain tensor D(u) = (grad u + grad u^T)/2 as samples."""
    g = velocity_gradient(field)
    return 0.5 * (g + np.swapaxes(g, 0, 1))


def inv_laplacian_zero_mean(field: Field) -> Field:
    """Solve laplacian(g) = f - mean(f) with mean(g) = 0."""
    grid = field.grid
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(grid.k_squared > 0, -1.0 / grid.k_squared, 0.0)
    return field.with_coeffs(field.coeffs * inv)


@functools.lru_cache(maxsize=32)  # a few grids: a 3-D grid needs 9 entries
def _riesz_symbol(grid: TorusGrid, i: int, j: int) -> np.ndarray:
    def rule(*k):
        k_squared = sum(x * x for x in k)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(k_squared > 0, k[i] * k[j] / k_squared, 0.0)
    return hermitian_part(grid, rule)


def riesz_composite(i: int, j: int, field: Field) -> Field:
    """R_i R_j with the fixed sign convention: multiplier xi_i xi_j / |xi|^2
    on the zero-mean part (so sum_i R_i R_i = identity on zero-mean fields)."""
    return field.with_coeffs(field.coeffs * _riesz_symbol(field.grid, i, j))


def leray_project(field: VectorField) -> tuple[VectorField, VectorField]:
    """Split u = Pu + Qu with Q = grad inv_laplacian div (curl-free part,
    zero-mean convention) and P = I - Q (divergence-free part)."""
    grid = field.grid
    q = np.stack([sum(_riesz_symbol(grid, a, b) * field.coeffs[b] for b in range(grid.dim))
                  for a in range(grid.dim)])
    return field.with_coeffs(field.coeffs - q), field.with_coeffs(q)


# ---------------------------------------------------------------------------
# products, dealiasing, pointwise maps
# ---------------------------------------------------------------------------

def dealias(field: Field, fraction: float = DEALIAS_FRACTION) -> Field:
    return field.with_coeffs(np.where(field.grid.dealias_mask(fraction), field.coeffs, 0.0))


def multiply(a: ScalarField, b: ScalarField, *, dealiased: bool = True) -> ScalarField:
    """Grid product, dealiased with the 2/3 rule by default."""
    grid = _check_same_grid(a, b)
    prod = ScalarField.from_samples(grid, a.samples * b.samples)
    return dealias(prod) if dealiased else prod


def scale_vector(a: ScalarField, u: VectorField, *, dealiased: bool = True) -> VectorField:
    grid = _check_same_grid(a, u)
    prod = VectorField.from_samples(grid, a.samples[None, ...] * u.samples)
    return dealias(prod) if dealiased else prod


def pointwise(grid: TorusGrid, values: np.ndarray, *, dealiased: bool = True) -> ScalarField:
    """Wrap samples produced by a nonlinear pointwise map into a field."""
    f = ScalarField.from_samples(grid, values)
    return dealias(f) if dealiased else f


# ---------------------------------------------------------------------------
# norms and integrals
# ---------------------------------------------------------------------------

def integral(field: ScalarField) -> float:
    """Integral over the torus (exact for the resolved trigonometric sum)."""
    return field.mean * field.grid.volume


def lebesgue_norm(field: Field, p: float) -> float:
    """L^p norm by uniform grid quadrature; p = inf is the sample max."""
    if not (p >= 1):
        raise ValueError(f"p must be >= 1, got {p}")
    mag = field.magnitude()
    if math.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag ** p) * field.grid.cell_volume) ** (1.0 / p))


def sobolev_norm(field: Field, k: int = 1, p: float = 2) -> float:
    """W^{k,p} norm: field plus all derivatives up to order k, combined in
    the l^p sense (max for p = inf)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    grid = field.grid
    terms = [field]
    frontier = [field]
    for _ in range(k):
        nxt = []
        for f in frontier:
            for axis in range(grid.dim):
                nxt.append(partial(f, axis))
        terms.extend(nxt)
        frontier = nxt
    norms = [lebesgue_norm(t, p) for t in terms]
    if math.isinf(p):
        return float(max(norms))
    return float(np.sum(np.asarray(norms) ** p) ** (1.0 / p))


def l2_inner(a: Field, b: Field) -> float:
    grid = _check_same_grid(a, b)
    return float(np.sum(a.samples * b.samples) * grid.cell_volume)


def parseval_sum(grid: TorusGrid, coeffs: np.ndarray) -> float:
    """sum |c_k|^2 over the full lattice for (a stack of) half-spectrum
    coefficient arrays; times the torus volume it is the squared L^2 norm."""
    return float(np.sum(grid.mode_weight * np.abs(coeffs) ** 2))


def coefficient_l2_norm(field: Field) -> float:
    """L^2 norm computed from coefficients (Parseval partner of the grid sum)."""
    return math.sqrt(parseval_sum(field.grid, field.coeffs) * field.grid.volume)


# ---------------------------------------------------------------------------
# transforms, evaluation, random fields
# ---------------------------------------------------------------------------

def transform_roundtrip(field: ScalarField) -> ScalarField:
    """physical -> spectral -> physical; the identity up to round-off."""
    return ScalarField.from_samples(field.grid, field.samples)


def fourier_eval(field: Field, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant at off-grid points by direct
    summation of the Fourier series.

    Each stored mode and its partner contribute together
    w cos(M/2 sum_{Nyquist a} x_a) Re(c e^{i sum_{other a} k_a x_a}), with w
    the mode weight, which is the real part of the full-lattice sum.

    points: (n, dim).  Returns (n,) for scalars, (n, dim) for vectors.
    """
    grid = field.grid
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    lead = field.coeffs.shape[:field.rank]
    flat = (field.coeffs * grid.mode_weight).reshape(-1, math.prod(grid.spectral_shape))
    active = np.any(np.abs(flat) > 1e-15, axis=0)
    kvecs = np.stack([k.ravel()[active] for k in grid.frequency_mesh], axis=1)
    nyquist = kvecs == grid.n // 2
    phases = (np.cos(points @ np.where(nyquist, kvecs, 0.0).T)
              * np.exp(1j * points @ np.where(nyquist, 0.0, kvecs).T))  # (n, modes)
    out = np.real(phases @ flat[:, active].T)  # (n, comps)
    return out.reshape((points.shape[0],) + lead)


def random_field(grid: TorusGrid, rng: np.random.Generator, *,
                 max_wavenumber: int | None = None, slope: float = 1.5,
                 rms: float = 1.0, flat_dyadic: bool = False) -> ScalarField:
    """Random real zero-mean field with power-law coefficient decay.

    slope is the decay exponent of |c_k| ~ (1+|k|)^-slope.  With
    flat_dyadic=True the spectrum is rescaled so every dyadic octave
    carries comparable L^2 mass (slope ignored).  The draws cover the full
    lattice; the stored coefficient of k is (c_k + conj(c_{k*}))/2.
    """
    if max_wavenumber is None:
        max_wavenumber = grid.n // 3
    m = grid.n
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    radius = grid.k_radius
    if flat_dyadic:
        # per-mode variance ~ |k|^-N keeps per-octave mass constant
        envelope = np.where(radius > 0, radius, 1.0) ** (-0.5 * grid.dim)
    else:
        envelope = (1.0 + radius) ** (-slope)
    band = np.ones(grid.spectral_shape, dtype=bool)
    for k in grid.frequency_mesh:
        band &= np.abs(k) <= max_wavenumber
    scale = envelope * band
    neg = (-np.arange(m)) % m
    partner = c[np.ix_(*([neg] * (grid.dim - 1) + [neg[:m // 2 + 1]]))]
    half = 0.5 * (c[..., :m // 2 + 1] * scale + np.conj(partner * scale))
    half[(0,) * grid.dim] = 0.0
    f = ScalarField(grid, half, copy=False)
    norm = lebesgue_norm(f, 2)
    if norm > 0:
        f = f * (rms * math.sqrt(grid.volume) / norm)
    return f


def random_vector_field(grid: TorusGrid, rng: np.random.Generator, **kw) -> VectorField:
    return VectorField.from_components(
        [random_field(grid, rng, **kw) for _ in range(grid.dim)])
