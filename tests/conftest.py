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
    """Counts rfftn/irfftn calls through either library's entry point, by
    name, and under "<name>_fields" the fields they transformed; a
    transform that bypasses both would not be seen."""
    counts = Counter()
    for module in (numpy.fft, scipy.fft):
        for name in ("rfftn", "irfftn"):
            def counted(x, *args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                counts[_name + "_fields"] += _fields(x, args, kwargs)
                return _fn(x, *args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return counts
