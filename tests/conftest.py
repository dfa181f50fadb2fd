from collections import Counter

import numpy.fft
import pytest
import scipy.fft


@pytest.fixture()
def fft_calls(monkeypatch):
    """Counts rfftn/irfftn calls through either library's entry point, by
    name; a transform that bypasses both would not be seen."""
    counts = Counter()
    for module in (numpy.fft, scipy.fft):
        for name in ("rfftn", "irfftn"):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return counts
