import math
from collections import Counter

import numpy as np
import pytest

from torusns import spectral


@pytest.fixture()
def fft_calls(monkeypatch):
    """Counts the package's transforms at the compiled kernels that
    `spectral` calls, under "rfftn" (forward, `r2c`) and "irfftn" (inverse,
    `c2r`), and under "<name>_fields" the fields they transformed: the
    product of the axes a call does not transform (the leading batch axes of
    the package's calls).  A transform that bypasses the kernels would not be
    seen."""
    counts = Counter()
    kernels = spectral._kernels()
    for name, key in (("r2c", "rfftn"), ("c2r", "irfftn")):
        def counted(x, axes, *args, _fn=getattr(kernels, name), _key=key):
            counts[_key] += 1
            counts[_key + "_fields"] += np.size(x) // math.prod(np.shape(x)[a] for a in axes)
            return _fn(x, axes, *args)
        monkeypatch.setattr(kernels, name, counted)
    return counts
