"""Spans around the calls into torusns, recorded from outside the package.

`Tracer.install()` replaces the traced public functions in *every* torusns
module namespace that holds them (so names bound by `from .x import y` are
caught too), and the transform entry points of `numpy.fft` and `scipy.fft`.
`uninstall()` puts the originals back.  No file of the package is edited.

A span is `[name, start, end, parent, child_s, extra]`; `parent` is the index
of the enclosing span (-1 at the top), `child_s` the summed duration of its
direct children, so its self time is `end - start - child_s`.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: traced public functions, by module, with the workloads expected to call them
TRACED = {
    "dynamics": {
        "run": ("sim2d-vortex", "sim3d-dense"),
        "cfl_limit": ("sim2d-vortex", "sim3d-dense"),
        "write_checkpoint": ("sim2d-vortex", "sim3d-dense"),
        "read_checkpoint": ("sim2d-vortex", "sim3d-dense"),
    },
    "diagnostics": {
        "compute_diagnostics": ("sim2d-vortex", "sim3d-dense"),
        "v1_identities": ("sim2d-vortex", "sim3d-dense"),
        "energy_ledger": ("sim2d-vortex", "sim3d-dense"),
        "density_bound_ledger": ("sim2d-vortex", "sim3d-dense"),
        "integrability_gain": ("sim2d-vortex", "sim3d-dense"),
        "grad_omega_budget": ("sim2d-vortex", "sim3d-dense"),
        "transport_estimate_report": ("sim2d-vortex", "sim3d-dense"),
        "v1_energy_ledger": ("sim2d-vortex", "sim3d-dense"),
        "blowup_monitor": ("sim2d-vortex", "sim3d-dense"),
    },
    "littlewood_paley": {
        "build_partition": ("sim2d-vortex", "sim3d-dense"),
        "dyadic_block": ("sim2d-vortex", "sim3d-dense", "lp-ensemble"),
        "besov_norm": ("sim2d-vortex", "sim3d-dense", "lp-ensemble"),
        "block_norms": ("sim2d-vortex", "sim3d-dense", "lp-ensemble"),
        "bony_decompose": ("lp-ensemble",),
        "paraproduct": ("lp-ensemble",),
        "remainder": ("lp-ensemble",),
        "transport_commutator": ("lp-ensemble",),
        "eight_way_split": ("lp-ensemble",),
    },
    "app": {
        "simulate": ("sim2d-vortex", "sim3d-dense"),
        "verify": ("sim2d-vortex", "sim3d-dense"),
        "build_problem": ("sim2d-vortex", "sim3d-dense"),
        "load_config": ("sim2d-vortex", "sim3d-dense"),
    },
}

#: transform entry points: complex and real, 1-D, 2-D and n-D
NUMPY_FFT = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
             "hfft", "ihfft")
SCIPY_FFT = NUMPY_FFT + ("hfft2", "ihfft2", "hfftn", "ihfftn",
                         "dct", "idct", "dctn", "idctn",
                         "dst", "idst", "dstn", "idstn")

FFT_PREFIX = "fft."


def _transform_axes(fn: str, ndim: int, args, kwargs) -> tuple[int, ...]:
    axes = kwargs.get("axes", kwargs.get("axis"))
    if axes is None and len(args) > 2:
        axes = args[2]
    if fn.endswith("n"):
        shape = kwargs.get("s", args[1] if len(args) > 1 else None)
        default = range(ndim - len(shape), ndim) if shape is not None else range(ndim)
    elif fn.endswith("2"):
        default = (ndim - 2, ndim - 1)
    else:
        default = (ndim - 1,)
    if axes is None:
        axes = default
    elif np.isscalar(axes):
        axes = (axes,)
    return tuple(int(a) % ndim for a in axes)


def fft_cost(fn: str, x, out, args, kwargs) -> tuple[tuple, float, float]:
    """(shape, computed bytes, computed flop) of one transform call.

    Bytes are the input plus the output array; flop use the textbook counts
    5 N log2 N for a complex transform of N points and half that for a real
    one, times the number of independent transforms in the batch.  Both are
    computed from array shapes, not measured.
    """
    x = np.asarray(x)
    out = np.asarray(out)
    real = not fn.lstrip("i").startswith("fft")
    # the real-space side fixes the logical transform length
    full = out if (fn.startswith(("irfft", "hfft")) or not real) else x
    axes = _transform_axes(fn, full.ndim, args, kwargs)
    n = math.prod(full.shape[a] for a in axes) or 1
    batch = full.size // n
    per = 2.5 if real else 5.0
    flop = per * n * math.log2(n) * batch if n > 1 else 0.0
    return x.shape, float(x.nbytes + out.nbytes), flop


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_fft(self, name: str, fn):
        short = name.rsplit(".", 1)[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a transform called from inside another one is not counted again
            if self._stack and self.spans[self._stack[-1]][0].startswith(FFT_PREFIX):
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            x = args[0] if args else kwargs.get("a", kwargs.get("x"))
            self.spans[idx][5] = fft_cost(short, x, out, args, kwargs)
            return out
        return traced

    # -- patching -----------------------------------------------------------
    def _replace_everywhere(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "torusns" or n.startswith("torusns."))]
        for module, names in TRACED.items():
            mod = importlib.import_module(f"torusns.{module}")
            for name in names:
                original = getattr(mod, name)
                self._replace_everywhere(
                    original, self._wrap(f"{module}.{name}", original), pkg)
        import numpy.fft
        import scipy.fft
        for lib, mod, names in (("numpy", numpy.fft, NUMPY_FFT),
                                ("scipy", scipy.fft, SCIPY_FFT)):
            for name in names:
                original = getattr(mod, name)
                self._patches.append((mod, name, original))
                setattr(mod, name,
                        self._wrap_fft(f"{FFT_PREFIX}{lib}.{name}", original))
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ------------------------------------------------------------
    def summary(self) -> dict:
        """Per-name calls, total and self seconds; FFT totals, the FFT calls
        made under each traced ancestor name, and the count per call shape."""
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        fft = {"calls": 0, "s": 0.0, "bytes": 0.0, "flop": 0.0}
        fft_under, shapes = Counter(), Counter()
        for name, start, end, parent, child_s, extra in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_s
            if extra is None:
                continue
            shape, nbytes, flop = extra
            fft["calls"] += 1
            fft["s"] += end - start
            fft["bytes"] += nbytes
            fft["flop"] += flop
            shapes[f"{name}{list(shape)}"] += 1
            seen = set()
            while parent >= 0:
                seen.add(self.spans[parent][0])
                parent = self.spans[parent][3]
            fft_under.update(seen)
        return {"calls": dict(calls), "total_s": dict(total),
                "self_s": dict(self_s), "fft": fft,
                "fft_under": dict(fft_under), "fft_shapes": dict(shapes)}
