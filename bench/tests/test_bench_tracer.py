"""Self-test of the tracer: coverage of every traced name, span nesting,
self times, transform accounting and repeatable counts.

    python3 -m pytest bench/tests -q
"""

import numpy as np
import pytest
import scipy.fft

import torusns.diagnostics
import torusns.littlewood_paley
import tracer as tr
import workloads


def traced_cycle(workload, tmp_path):
    w = workloads.make(workload)
    w.setup(workloads.DEFAULT_SEED, str(tmp_path))
    t = tr.Tracer()
    with t:
        w.cycle(split_verify=True)
    return t


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced(request, tmp_path_factory):
    name = request.param
    return name, traced_cycle(name, tmp_path_factory.mktemp(name))


def test_every_traced_name_records_a_span(traced):
    name, t = traced
    seen = {span[0] for span in t.spans}
    missing = [f"{module}.{fn}" for module, fns in tr.TRACED.items()
               for fn, expected in fns.items()
               if name in expected and f"{module}.{fn}" not in seen]
    assert not missing, f"{name}: no span for {missing}"


def test_spans_nest_inside_their_parents(traced):
    _, t = traced
    assert t.spans
    for name, start, end, parent, _, _ in t.spans:
        assert start <= end, name
        if parent >= 0:
            p = t.spans[parent]
            assert p[1] <= start and end <= p[2], (name, p[0])


def test_self_times_are_not_negative(traced):
    _, t = traced
    for name, start, end, _, child_s, _ in t.spans:
        assert end - start - child_s >= -1e-9, name
    assert all(v >= -1e-9 for v in t.summary()["self_s"].values())


def test_from_import_bindings_are_traced(tmp_path):
    """diagnostics binds besov_norm with `from .littlewood_paley import`;
    patching only the module attribute would miss these calls."""
    t = traced_cycle("sim2d-vortex", tmp_path)
    parents = {t.spans[p][0] for name, _, _, p, _, _ in t.spans
               if name == "littlewood_paley.besov_norm" and p >= 0}
    assert "diagnostics.compute_diagnostics" in parents


def test_uninstall_restores_every_binding():
    original = torusns.littlewood_paley.besov_norm
    fftn = np.fft.fftn
    with tr.Tracer():
        assert torusns.diagnostics.besov_norm is not original
        assert np.fft.fftn is not fftn
    assert torusns.diagnostics.besov_norm is original
    assert torusns.littlewood_paley.besov_norm is original
    assert np.fft.fftn is fftn


def test_every_transform_entry_point_is_counted():
    x = np.random.default_rng(0).standard_normal((8, 16))
    t = tr.Tracer()
    with t:
        for name in tr.NUMPY_FFT:
            getattr(np.fft, name)(x)
        for name in tr.SCIPY_FFT:
            getattr(scipy.fft, name)(x)
    counted = [span[0] for span in t.spans]
    assert counted == [f"fft.numpy.{n}" for n in tr.NUMPY_FFT] + \
        [f"fft.scipy.{n}" for n in tr.SCIPY_FFT]
    assert all(span[5] is not None and span[5][0] == (8, 16) for span in t.spans)
    summary = t.summary()
    assert summary["fft"]["calls"] == len(tr.NUMPY_FFT) + len(tr.SCIPY_FFT)
    assert summary["fft_shapes"]["fft.numpy.rfftn[8, 16]"] == 1


def test_transform_cost_is_computed_from_shapes():
    x = np.zeros((4, 8, 8))
    c = np.fft.fftn(x, axes=(1, 2))
    shape, nbytes, flop = tr.fft_cost("fftn", x, c, (x,), {"axes": (1, 2)})
    assert shape == (4, 8, 8)
    assert nbytes == x.nbytes + c.nbytes
    assert flop == pytest.approx(5.0 * 64 * 6 * 4)
    r = np.fft.rfftn(x)
    _, _, rflop = tr.fft_cost("rfftn", x, r, (x,), {})
    assert rflop == pytest.approx(2.5 * 256 * 8)
    back = np.fft.irfftn(r, s=x.shape, axes=(0, 1, 2))
    _, _, iflop = tr.fft_cost("irfftn", r, back, (r,), {"s": x.shape, "axes": (0, 1, 2)})
    assert iflop == pytest.approx(rflop)


def test_counts_repeat_exactly(tmp_path):
    w = workloads.make("lp-ensemble")
    w.setup(workloads.DEFAULT_SEED, str(tmp_path))
    counts = []
    for _ in range(2):
        t = tr.Tracer()
        with t:
            w.cycle()
        s = t.summary()
        counts.append((s["calls"], s["fft"]["calls"], s["fft"]["flop"], s["fft_under"]))
    assert counts[0] == counts[1]
