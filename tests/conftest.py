import math
from collections import Counter

import numpy as np
import numpy.fft
import pytest
import scipy.fft


def _fields(x, args, kwargs) -> int:
    """Fields in one `(i)rfftn(x, s, axes, ...)` call: the product of the
    axes it does not transform (the leading batch axes of the package's
    calls)."""
    x = np.asarray(x)
    shape = kwargs.get("s", args[0] if args else None)
    axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
    if axes is None:
        axes = range(-len(shape), 0) if shape is not None else range(x.ndim)
    return x.size // math.prod(x.shape[a] for a in axes)


@pytest.fixture()
def fft_calls(monkeypatch):
    """Counts the package's transforms at the library entry points that
    `spectral` calls, under "rfftn" (forward) and "irfftn" (inverse), and
    under "<name>_fields" the fields they transformed.  A 2-D grid makes one
    `numpy.fft.rfft` per forward and one `numpy.fft.irfft` per inverse
    transform (the `fft`/`ifft` pass over axis -2 rides along), its fields
    counted over the last two axes; a 3-D grid calls `scipy.fft.rfftn` and
    `irfftn`.  A transform that bypasses these would not be seen."""
    counts = Counter()
    for module, name, key in ((numpy.fft, "rfft", "rfftn"), (numpy.fft, "irfft", "irfftn"),
                              (scipy.fft, "rfftn", "rfftn"), (scipy.fft, "irfftn", "irfftn")):
        def counted(x, *args, _fn=getattr(module, name), _key=key,
                    _planar=module is numpy.fft, **kwargs):
            counts[_key] += 1
            counts[_key + "_fields"] += (np.size(x) // math.prod(np.shape(x)[-2:]) if _planar
                                         else _fields(x, args, kwargs))
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts
