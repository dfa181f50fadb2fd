import math
from collections import Counter

import numpy as np
import pytest

from torusns import spectral


def _inverse_fields(shape: tuple[int, ...], lastsize: int) -> int:
    """The fields of an inverse call on coefficients of `shape`: the product
    of the axes before the grid's, which are the last one (M/2 + 1 long)
    and the axes of length M = `lastsize` before it.  The package's batch
    axes are at most 3 long and M is at least 8, so they are never taken
    for grid axes."""
    lead = len(shape) - 1
    while lead > 0 and shape[lead - 1] == lastsize:
        lead -= 1
    return math.prod(shape[:lead])


@pytest.fixture()
def fft_calls(monkeypatch):
    """Counts the package's transforms at the compiled kernels that
    `spectral` calls, under "rfftn" (forward, `r2c`) and "irfftn" (inverse,
    `c2r`), and under "<name>_fields" the fields they transformed: the
    product of the axes a forward call does not transform (the leading
    batch axes of the package's calls), and of the axes before the grid's
    for an inverse call.  A block inverse (`spectral._block_inverse`) runs
    `c2c` over the leading grid axes and then `c2r` over the last one
    alone: its `c2r` counts as one inverse call of the fields of its block,
    and its `c2c`, counted under "c2c", adds no call or field.  A transform
    that bypasses the kernels would not be seen."""
    counts = Counter()
    kernels = spectral._kernels()

    def forward(x, axes, *args, _fn=kernels.r2c):
        counts["rfftn"] += 1
        counts["rfftn_fields"] += np.size(x) // math.prod(np.shape(x)[a] for a in axes)
        return _fn(x, axes, *args)

    def inverse(x, axes, lastsize, *args, _fn=kernels.c2r):
        counts["irfftn"] += 1
        counts["irfftn_fields"] += _inverse_fields(np.shape(x), lastsize)
        return _fn(x, axes, lastsize, *args)

    def complex_pass(x, *args, _fn=kernels.c2c):
        counts["c2c"] += 1
        return _fn(x, *args)

    for name, counted in (("r2c", forward), ("c2r", inverse), ("c2c", complex_pass)):
        monkeypatch.setattr(kernels, name, counted)
    return counts
