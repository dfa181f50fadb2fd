"""Fourier representation of real periodic fields on (0, 2*pi)^N and the
elementary spectral operators built on it: derivatives, inverse Laplacian,
Riesz transforms, Leray projection, general multipliers, and grid norms.

Fields are stored as the half spectrum of a real-to-complex transform:
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

This module holds the package's only transform calls, ``to_coeffs``,
``to_samples`` and the block inverse ``_block_inverse`` of
``littlewood_paley``'s block stacks.  In 2-D and 3-D alike they call the
compiled pocketfft kernels of scipy, ``r2c`` and ``c2r`` (and ``c2c``, for
the block inverse), on one thread, with the arguments that
``scipy.fft.rfftn``/``irfftn(norm="forward", workers=1)`` pass them or, for
the block inverse, with the two passes that ``c2r`` makes inside, so the
results are scipy's bit for bit.  The first ``TorusGrid`` loads the
kernel module from its file (``_kernels``) without importing ``scipy.fft``,
whose import brings ``scipy.special`` and more and cost every fresh 3-D
process about 0.2 s and 19 MiB, all to reach these two functions.  Each
call looks its kernel up on the module at call time.  A missing kernel
file is an ImportError: there is no second engine to fall back on.

Milliseconds per call, one thread of a 2-vCPU x86 host (numpy 2.4.6,
scipy 1.17.1): for each shape, the median over eight arrays at different
addresses of the median of 9 interleaved samples; "one / per" is the range
over those arrays of the ratio of one inverse call over the stack to one
call per field.  The host's speed drifts by up to 2x between runs, which
moves the times but not the ratios:

=============  =======  ===============  ==================  =========
fields x grid  forward  inverse, 1 call  inverse, per field  one / per
=============  =======  ===============  ==================  =========
1 x 128^2      0.141    0.147            -                   -
2 x 128^2      0.291    0.299            0.320               0.91-1.00
3 x 128^2      0.428    0.820            0.488               0.99-1.85
5 x 128^2      0.769    1.519            0.887               1.06-1.83
1 x 32^3       0.437    0.448            -                   -
2 x 32^3       0.852    0.940            0.950               0.86-1.02
4 x 32^3       1.725    2.200            2.007               0.97-1.66
12 x 32^3      5.579    8.368            6.333               1.16-1.36
=============  =======  ===============  ==================  =========

So ``to_samples`` makes one call over a stack of at most two fields and one
call per field above that.  The kernels replaced two engines: 3-D grids ran
``scipy.fft``, and 2-D grids ran ``numpy.fft`` in two 1-D passes, which the
kernels match bit for bit and beat at 128^2 in interleaved per-call
timings: by 7-14 % forward on one to four fields, 3-7 % inverse on one and
two, and 44 % inverse on three and four (0.22 against 0.40 and 0.29
against 0.53 ms).

A block row of ``littlewood_paley`` is pruned to the first w columns of the
half spectrum that its filter reaches (``_block_inverse``).  Milliseconds per
row, with the method above on the same host, measured on another day, when
it ran faster: "full" is ``to_samples`` of the filtered product, "pruned" is
``_block_inverse`` over the columns of the block, product included, and
"ratio" is the range of pruned over full:

=====  ==========  =====  ======  =========  ==========  =====  ======  =========
block  128^2: w    full   pruned  ratio      32^3: w     full   pruned  ratio
=====  ==========  =====  ======  =========  ==========  =====  ======  =========
-1     2 of 65     0.095  0.052   0.54-0.57  2 of 17     0.246  0.125   0.50-0.51
0      3 of 65     0.125  0.069   0.52-0.58  3 of 17     0.268  0.147   0.53-0.58
1      6 of 65     0.097  0.057   0.58-0.60  6 of 17     0.250  0.170   0.62-0.71
2      11 of 65    0.095  0.064   0.62-0.88  11 of 17    0.255  0.222   0.80-1.00
3      22 of 65    0.093  0.068   0.72-0.85  17 of 17    0.238  0.227   0.92-0.96
4      43 of 65    0.101  0.092   0.89-0.94  17 of 17    0.254  0.242   0.93-1.00
5      65 of 65    0.107  0.101   0.88-1.02  17 of 17    0.248  0.234   0.85-1.01
6      65 of 65    0.111  0.103   0.89-0.99  -           -      -       -
=====  ==========  =====  ======  =========  ==========  =====  ======  =========

The last-axis pass, over every line, is the floor: about half of a full
2-D inverse.  At full width on the stepper's stacks, without a filter,
``_block_inverse`` (a filter of ones) was not faster than ``to_samples``:
0.456 against 0.418 ms at 3 x 128^2, though 0.153 against 0.163 ms at
4 x 16^3 (medians as above), so ``to_samples`` keeps its own calls.

A field computes whichever of its coefficients and samples it was not built
from on first read.  All operations are pure; field objects are immutable
after construction.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Callable, Sequence

import numpy as np

TAU = 2.0 * math.pi

#: fraction of the spectrum kept by dealiasing (the 2/3 rule)
DEALIAS_FRACTION = 2.0 / 3.0


class GridMismatchError(ValueError):
    """Two fields (or a field and an operator) live on different grids."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# grid and transforms
# ---------------------------------------------------------------------------

def grid_errors(dim: int, points_per_axis: int) -> list[str]:
    """The grid's rules, which `TorusGrid` raises as ValueError, the
    checkpoint reader as CheckpointError, and `parse_config` collects."""
    m = int(points_per_axis)
    rules = [(dim in (2, 3), f"dim must be 2 or 3, got {dim}"),
             (m >= 8 and m & (m - 1) == 0,
              f"points_per_axis must be a power of two >= 8, got {points_per_axis}")]
    return [message for holds, message in rules if not holds]


class TorusGrid:
    """Uniform grid on the torus (0, 2*pi)^dim with M points per axis.

    M must be a power of two >= 8 so every dyadic shell fits.  Integer
    frequencies per axis are {-M/2+1, ..., M/2}; the Nyquist residue class
    is represented as +M/2.  The frequency arrays live on the half-spectrum
    layout ``spectral_shape``, whose last axis runs over 0..M/2.

    The grid owns none of its arrays: ``axis_frequencies``,
    ``frequency_mesh``, ``partner_mesh``, ``k_squared``, ``k_radius``,
    ``nyquist_mask`` and ``mode_weight`` are read-only and built once per
    (dim, M), so every equal grid (one per checkpoint read, say) holds the
    same objects, as it holds the same ``dealias_mask()``.
    """

    def __init__(self, dim: int, points_per_axis: int):
        if errors := grid_errors(dim, points_per_axis):
            raise ValueError("; ".join(errors))
        _kernels()  # the transform engine, loaded at set-up
        m = int(points_per_axis)
        self.dim = dim
        self.n = m
        self.shape = (m,) * dim
        self.spectral_shape = (m,) * (dim - 1) + (m // 2 + 1,)
        self.axes = tuple(range(-dim, 0))
        self.size = m ** dim
        self.spacing = TAU / m
        self.cell_volume = self.spacing ** dim
        self.volume = TAU ** dim
        (self.axis_frequencies, self.frequency_mesh, self.partner_mesh,
         self.k_squared, self.k_radius, self.nyquist_mask,
         self.mode_weight) = _lattice(dim, m)

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Meshgrid of sample coordinates x_i = 2*pi*j/M."""
        x = np.arange(self.n) * self.spacing
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def dealias_mask(self) -> np.ndarray:
        """Read-only mask of the modes kept by 2/3-rule dealiasing."""
        return _dealias_mask(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusGrid) and (self.dim, self.n) == (other.dim, other.n)

    def __hash__(self) -> int:
        return hash((self.dim, self.n))

    def __repr__(self) -> str:
        return f"TorusGrid(dim={self.dim}, points_per_axis={self.n})"


KERNELS = "scipy.fft._pocketfft.pypocketfft"


@functools.cache
def _kernels():
    """scipy's compiled pocketfft module, loaded from its file once per
    process without importing ``scipy.fft``.

    It is registered under its own name, so a later ``import scipy.fft``
    (a tabulated law's ``scipy.interpolate`` brings one) reuses it, and a
    module that such an import has loaded already is taken as it is."""
    if KERNELS in sys.modules:
        return sys.modules[KERNELS]
    scipy_spec = importlib.util.find_spec("scipy")  # locates, imports nothing
    folder = None if scipy_spec is None else os.path.join(
        scipy_spec.submodule_search_locations[0], "fft", "_pocketfft")
    spec = folder and importlib.machinery.PathFinder.find_spec(KERNELS, [folder])
    if spec is None:
        from importlib import metadata  # the error path alone pays for it
        try:
            version = f"scipy {metadata.version('scipy')}"
        except metadata.PackageNotFoundError:
            version = "scipy not installed"
        raise ImportError(f"no {KERNELS} extension in {folder} ({version})",
                          name=KERNELS, path=folder)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[KERNELS] = module
    return module


@functools.lru_cache(maxsize=32)  # one entry per grid size in use
def _lattice(dim: int, m: int) -> tuple:
    """The frozen frequency arrays of every (dim, M) grid, in the order
    `TorusGrid.__init__` unpacks them."""
    freqs = np.fft.fftfreq(m, d=1.0 / m).astype(np.int64)
    freqs[m // 2] = m // 2  # report the Nyquist class as +M/2
    mesh = np.meshgrid(*([freqs] * (dim - 1) + [freqs[:m // 2 + 1]]), indexing="ij")
    frequency_mesh = tuple(_frozen(k.astype(np.float64)) for k in mesh)
    # the lattice partner k*: Nyquist components stay, the others flip sign
    partner_mesh = tuple(_frozen(np.where(k == m // 2, k, -k)) for k in frequency_mesh)
    k_squared = _frozen(sum(k * k for k in frequency_mesh))
    # True on every plane that touches the Nyquist frequency of some axis
    nyquist_mask = _frozen(np.logical_or.reduce([k == m // 2 for k in frequency_mesh]))
    # full-lattice modes each stored coefficient stands for (along the
    # last axis): its partner is stored too on the k_N = 0 and M/2 planes
    weight = np.full(m // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    return (_frozen(freqs), frequency_mesh, partner_mesh, k_squared,
            _frozen(np.sqrt(k_squared)), nyquist_mask, _frozen(weight))


@functools.lru_cache(maxsize=32)  # one entry per grid in use
def _dealias_mask(grid: TorusGrid) -> np.ndarray:
    cutoff = math.floor(grid.n * DEALIAS_FRACTION / 2.0)
    keep = np.ones(grid.spectral_shape, dtype=bool)
    for k in grid.frequency_mesh:
        keep &= np.abs(k) <= cutoff
    return _frozen(keep)


def to_coeffs(grid: TorusGrid, samples: np.ndarray) -> np.ndarray:
    """Normalized half-spectrum coefficients of real samples; leading axes
    beyond the grid's are a batch transformed in one call."""
    # forward, normalized by 1/size (inorm 2), into a new array, one thread
    return _kernels().r2c(samples, grid.axes, True, 2, None, 1)


def _inverse(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """One inverse transform call over the grid's axes."""
    # last axis of length M, backward, not normalized (inorm 0), new array, one thread
    return _kernels().c2r(coeffs, grid.axes, grid.n, False, 0, None, 1)


def to_samples(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Real samples of half-spectrum coefficients (inverse of to_coeffs).

    Leading axes are a stack of fields.  A stack of more than two fields
    is transformed one field per call, with bit-identical results: one call
    over it was up to 1.85 times slower, depending on the array's address,
    and at best 3 % faster (the table in the module docstring)."""
    lead = coeffs.shape[:coeffs.ndim - grid.dim]
    if math.prod(lead) <= 2:
        return _inverse(grid, coeffs)
    out = np.empty(lead + grid.shape)
    for index in np.ndindex(lead):
        out[index] = _inverse(grid, coeffs[index])
    return out


def _block_inverse(grid: TorusGrid, coeffs: np.ndarray, filt: np.ndarray,
                   width: int, work: np.ndarray) -> np.ndarray:
    """Samples of ``coeffs * filt`` when both are zero beyond the first
    ``width`` columns of the half spectrum, bit-identical to
    ``to_samples(grid, coeffs * filt)``.

    ``work``, of the shape of ``coeffs``, must hold zeros beyond those
    columns; the product is written into the rest.  The two passes are the
    ones the inverse kernel makes inside: ``c2c`` over the leading grid
    axes, here in place on the ``width`` columns alone, then ``c2r`` over
    the last axis of the whole buffer (FFT pruning)."""
    head = work[..., :width]
    np.multiply(coeffs[..., :width], filt[..., :width], out=head)
    kernels = _kernels()
    # backward, not normalized (inorm 0), in place, one thread
    kernels.c2c(head, grid.axes[:-1], False, 0, head, 1)
    return kernels.c2r(work, (-1,), grid.n, False, 0, None, 1)


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
    ``(0,...,0)`` carries the mean value.  A field made from samples keeps
    them and computes its coefficients on first read, with the same
    ``to_coeffs`` call that building them eagerly would make, so a field read
    only in physical space costs no transform.
    """

    __slots__ = ("grid", "_coeffs", "_samples")
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
        self._coeffs = _frozen(c)
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
        return cls._of_samples(grid, values.copy())

    @classmethod
    def _of_samples(cls, grid: TorusGrid, samples: np.ndarray):
        """A field that owns ``samples`` and transforms them on first read."""
        f = cls.__new__(cls)
        f.grid, f._coeffs, f._samples = grid, None, _frozen(samples)
        return f

    @classmethod
    def zero(cls, grid: TorusGrid):
        return cls(grid, np.zeros(cls._lead(grid) + grid.spectral_shape,
                                  dtype=np.complex128), copy=False)

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = _frozen(to_coeffs(self.grid, self._samples))
        return self._coeffs

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            self._samples = _frozen(to_samples(self.grid, self._coeffs))
        return self._samples

    def view(self):
        """A field of the same kind over the same arrays; what it computes on
        first read is kept by the new field alone, not by this one."""
        f = type(self).__new__(type(self))
        f.grid, f._coeffs, f._samples = self.grid, self._coeffs, self._samples
        return f

    def with_coeffs(self, coeffs: np.ndarray):
        """A field of the same kind and grid with the given coefficients."""
        return type(self)(self.grid, coeffs, copy=False)

    def max_frequency(self) -> int:
        """Largest per-axis |k| carrying a coefficient above 1e-13 * max|c|
        (the maximum taken per component)."""
        c = np.abs(self.coeffs)
        thresh = 1e-13 * np.maximum(c.max(axis=self.grid.axes, keepdims=True), 1e-300)
        active = np.any(c > thresh, axis=tuple(range(self.rank)))
        if not active.any():
            return 0
        return max(int(np.max(np.abs(k)[active])) for k in self.grid.frequency_mesh)

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
        """The i-th component; while this field's coefficients are not
        computed yet, the component transforms its own samples when read."""
        if self._coeffs is None:
            return ScalarField._of_samples(self.grid, self._samples[i])
        return ScalarField(self.grid, self._coeffs[i], copy=False,
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
    """Fourier multiplier xi -> f(xi).

    The rule receives the tuple of frequency meshes and returns the symbol
    values.  Evaluating it on a grid checks that it is finite everywhere.
    """

    def __init__(self, rule: Callable[..., np.ndarray], name: str = ""):
        self.rule = rule
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

    def __repr__(self) -> str:
        return f"MultiplierSymbol({self.name!r})"


def apply_multiplier(symbol: MultiplierSymbol, field: Field) -> Field:
    return field.with_coeffs(field.coeffs * symbol.evaluate(field.grid))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)  # a few grids, one entry per multi-index in use
def _derivative_factor(grid: TorusGrid, multi_index: tuple[int, ...]) -> np.ndarray:
    factor = np.ones(grid.spectral_shape, dtype=np.complex128)
    for axis, power in enumerate(multi_index):
        if power:
            factor = factor * (1j * grid.frequency_mesh[axis]) ** power
    # the odd derivative of the Nyquist cosine is ill-defined; drop the class
    if any(multi_index):
        factor = np.where(grid.nyquist_mask, 0.0, factor)
    return _frozen(factor)


def differentiate(field: Field, multi_index: Sequence[int]) -> Field:
    """Spectral partial derivative d^{|alpha|} / dx^alpha (exact on resolved
    modes; Nyquist planes are zeroed)."""
    grid = field.grid
    if len(multi_index) != grid.dim:
        raise ValueError(f"multi-index length {len(multi_index)} != dim {grid.dim}")
    return field.with_coeffs(field.coeffs * _derivative_factor(grid, tuple(multi_index)))


def partial(field: Field, axis: int) -> Field:
    alpha = [0] * field.grid.dim
    alpha[axis] = 1
    return differentiate(field, alpha)


def _axis_derivative(grid: TorusGrid, axis: int) -> np.ndarray:
    """The factor of d/dx_axis, as `partial` applies it."""
    return _derivative_factor(grid, tuple(int(b == axis) for b in range(grid.dim)))


def _derivative_stack(field: Field) -> np.ndarray:
    """The coefficients of d_i f for every axis i, stacked on a new leading
    axis and written in place (no per-axis field, no stacking copy)."""
    grid, c = field.grid, field.coeffs
    out = np.empty((grid.dim,) + c.shape, dtype=np.complex128)
    for i in range(grid.dim):
        np.multiply(c, _axis_derivative(grid, i), out=out[i])
    return out


def gradient(field: ScalarField) -> VectorField:
    return VectorField(field.grid, _derivative_stack(field), copy=False)


def divergence(field: VectorField) -> ScalarField:
    grid = field.grid
    out = np.zeros(grid.spectral_shape, dtype=np.complex128)
    term = np.empty_like(out)
    for a in range(grid.dim):
        out += np.multiply(field.coeffs[a], _axis_derivative(grid, a), out=term)
    return ScalarField(grid, out, copy=False)


def curl(field: VectorField) -> Field:
    """Vorticity: scalar d1 u2 - d2 u1 in 2-D, the usual vector in 3-D.
    Each component d_i u_j - d_j u_i forms only its own two products."""
    grid, c = field.grid, field.coeffs
    pairs = [(0, 1)] if grid.dim == 2 else [(1, 2), (2, 0), (0, 1)]
    out = np.empty((len(pairs),) + grid.spectral_shape, dtype=np.complex128)
    term = np.empty(grid.spectral_shape, dtype=np.complex128)
    for row, (i, j) in zip(out, pairs):
        np.multiply(c[j], _axis_derivative(grid, i), out=row)
        row -= np.multiply(c[i], _axis_derivative(grid, j), out=term)
    if grid.dim == 2:
        return ScalarField(grid, out[0], copy=False)
    return VectorField(grid, out, copy=False)


@functools.lru_cache(maxsize=32)  # one entry per grid in use
def _laplacian_symbol(grid: TorusGrid) -> np.ndarray:
    return _frozen(np.where(grid.nyquist_mask, 0.0, -grid.k_squared))


def laplacian(field: Field) -> Field:
    return field.with_coeffs(field.coeffs * _laplacian_symbol(field.grid))


def velocity_gradient(field: Field) -> np.ndarray:
    """Sample array G[i, ...] = d_i f; for a vector field G[i, j] = d_i u_j,
    shape (dim, dim, *grid.shape)."""
    return to_samples(field.grid, _derivative_stack(field))


@functools.lru_cache(maxsize=32)  # one entry per grid in use
def _inv_laplacian_symbol(grid: TorusGrid) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return _frozen(np.where(grid.k_squared > 0, -1.0 / grid.k_squared, 0.0))


def inv_laplacian_zero_mean(field: Field) -> Field:
    """Solve laplacian(g) = f - mean(f) with mean(g) = 0."""
    return field.with_coeffs(field.coeffs * _inv_laplacian_symbol(field.grid))


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
    grid, c = field.grid, field.coeffs
    q = np.empty_like(c)
    term = np.empty(grid.spectral_shape, dtype=np.complex128)
    for a in range(grid.dim):
        np.multiply(_riesz_symbol(grid, a, 0), c[0], out=q[a])
        for b in range(1, grid.dim):
            q[a] += np.multiply(_riesz_symbol(grid, a, b), c[b], out=term)
    return field.with_coeffs(c - q), field.with_coeffs(q)


# ---------------------------------------------------------------------------
# products, dealiasing, pointwise maps
# ---------------------------------------------------------------------------

def dealias(field: Field) -> Field:
    return field.with_coeffs(np.where(field.grid.dealias_mask(), field.coeffs, 0.0))


def _dealiased_values(cls, grid: TorusGrid, values: np.ndarray):
    """A field of pointwise values that keeps only their truncated
    coefficients: the values are not the samples of the result, so they are
    transformed at once and not stored."""
    return dealias(cls(grid, to_coeffs(grid, values), copy=False))


def multiply(a: ScalarField, b: ScalarField) -> ScalarField:
    """Grid product, dealiased with the 2/3 rule."""
    grid = _check_same_grid(a, b)
    return _dealiased_values(ScalarField, grid, a.samples * b.samples)


def scale_vector(a: ScalarField, u: VectorField) -> VectorField:
    grid = _check_same_grid(a, u)
    return _dealiased_values(VectorField, grid, a.samples[None, ...] * u.samples)


def pointwise(grid: TorusGrid, values: np.ndarray, *, dealiased: bool = True) -> ScalarField:
    """Wrap samples produced by a nonlinear pointwise map into a field."""
    values = np.asarray(values, dtype=np.float64)
    if dealiased:
        return _dealiased_values(ScalarField, grid, values)
    return ScalarField.from_samples(grid, values)


# ---------------------------------------------------------------------------
# norms and integrals
# ---------------------------------------------------------------------------

def _magnitude(samples: np.ndarray, rank: int) -> np.ndarray:
    """Pointwise Euclidean norm over the ``rank`` leading component axes."""
    if rank == 0:
        return np.abs(samples)
    return np.sqrt(np.sum(samples ** 2, axis=tuple(range(rank))))


def sample_norm(grid: TorusGrid, samples: np.ndarray, p: float, rank: int = 0) -> float:
    """L^p norm of a field given by its samples (``rank`` leading component
    axes) by uniform grid quadrature; p = inf is the sample max."""
    if not (p >= 1):
        raise ValueError(f"p must be >= 1, got {p}")
    mag = _magnitude(samples, rank)
    if math.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag ** p) * grid.cell_volume) ** (1.0 / p))


def lebesgue_norm(field: Field, p: float) -> float:
    """L^p norm by uniform grid quadrature; p = inf is the sample max."""
    return sample_norm(field.grid, field.samples, p, field.rank)


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


def parseval_sum(grid: TorusGrid, coeffs: np.ndarray) -> float:
    """sum |c_k|^2 over the full lattice for (a stack of) half-spectrum
    coefficient arrays; times the torus volume it is the squared L^2 norm."""
    return float(np.sum(grid.mode_weight * np.abs(coeffs) ** 2))


@functools.lru_cache(maxsize=32)  # one entry per grid in use
def _gradient_weight(grid: TorusGrid) -> np.ndarray:
    return _frozen(grid.mode_weight * np.where(grid.nyquist_mask, 0.0, grid.k_squared))


def gradient_sum(grid: TorusGrid, coeffs: np.ndarray) -> float:
    """sum |k|^2 |c_k|^2 over the full lattice off the Nyquist planes, for (a
    stack of) half-spectrum coefficient arrays; times the torus volume it is
    int |grad f|^2 dx with the spectral derivatives, which zero those planes
    (summed over the stack)."""
    return float(np.sum(_gradient_weight(grid) * np.abs(coeffs) ** 2))


def coefficient_l2_norm(field: Field) -> float:
    """L^2 norm computed from coefficients (Parseval partner of the grid sum)."""
    return math.sqrt(parseval_sum(field.grid, field.coeffs) * field.grid.volume)


@functools.lru_cache(maxsize=32)  # one entry per grid in use
def _part_weight(grid: TorusGrid) -> np.ndarray:
    """The mode weight of the real and of the imaginary part of each stored
    mode of a last-axis line, in the order of a complex array's float view."""
    return _frozen(np.repeat(grid.mode_weight, 2))


def coefficient_sup_bound(field: Field) -> float:
    """An upper bound on ``lebesgue_norm(field, inf)`` from the coefficients
    alone, at no transform.

    Each component obeys |f(x)| <= sum_k w_k |c_k| <= sum_k w_k (|Re c_k| +
    |Im c_k|) (the l^1 bound behind Bernstein's lemma, w the mode weight);
    the last sum is one matrix-vector product over the float view of the
    coefficients, and is what is taken.  A vector's pointwise length is at
    most the Euclidean length of its components' bounds.  The result is that
    bound times the round-off slack of littlewood_paley's `_sup_besov`,
    1 + 2 K eps over K stored modes, so it also bounds the computed sample
    max.  NaN when a coefficient is not finite."""
    grid, coeffs = field.grid, np.ascontiguousarray(field.coeffs)
    parts = np.abs(coeffs.view(np.float64)) @ _part_weight(grid)
    per_component = parts.reshape(coeffs.shape[:field.rank] + (-1,)).sum(axis=-1)
    bound = math.sqrt(np.sum(per_component ** 2))
    if not math.isfinite(bound):
        return math.nan
    return bound * (1.0 + 2.0 * math.prod(grid.spectral_shape) * float(np.finfo(float).eps))


# ---------------------------------------------------------------------------
# evaluation, random fields
# ---------------------------------------------------------------------------

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
                 flat_dyadic: bool = False) -> ScalarField:
    """Random real zero-mean field with power-law coefficient decay and unit
    root-mean-square value.

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
        f = f * (math.sqrt(grid.volume) / norm)
    return f


def random_vector_field(grid: TorusGrid, rng: np.random.Generator, **kw) -> VectorField:
    return VectorField.from_components(
        [random_field(grid, rng, **kw) for _ in range(grid.dim)])
