"""Start-up loads only the scipy a run uses.

Every step of the workflow is a fresh `torusns simulate` or `torusns verify`
process, so whatever `import torusns.app` loads is paid by every run.
`import torusns.app` loads no scipy at all.  The first grid loads scipy's
compiled pocketfft module from its file and nothing else of scipy, so a
2-D or 3-D run with a power law never imports `scipy.fft` (nor the
`scipy.special` that it brings).  Neither does a tabulated pressure law:
its PCHIP slopes and its integrals are numpy, so it loads neither
`scipy.interpolate` nor `scipy.integrate`.  Each check runs in a fresh
interpreter, since this test process has imported scipy already.
"""

import json
import os
import subprocess
import sys

import pytest
import scipy

from torusns.spectral import KERNELS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CONFIG = """
grid.dim = 2
grid.points_per_axis = 16
fluid.mu = 0.05
fluid.lambda = 0.05
init.preset = stream_vortex
init.amplitude = 0.3
time.dt = 0.01
time.t_end = 0.04
time.snapshot_every = 2
monitor.q_density = 4
"""

# simulate + verify through the CLI; with `tabulated`, every problem the
# run builds (simulate's and verify's) gets a tabulated law instead, as the
# config has no key for one (which is why CONFIG sets q_density)
RUN = """
import sys
from torusns import app, dynamics as dyn
cfg, out, tabulated = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
if tabulated:
    build = app.build_problem
    def build_problem(config):
        problem = build(config)
        knots = [0.1 * n for n in range(1, 41)]
        problem.params.pressure = dyn.TabulatedLaw(knots, [d * d for d in knots])
        return problem
    app.build_problem = build_problem
codes = (app.main(["simulate", "--config", cfg, "--out", out]),
         app.main(["verify", "--dir", out, "--suite", "all"]))
if codes != (0, 0):
    sys.exit(f"exit codes {codes}")
"""


def _fresh(code: str, *args: str, path: str = SRC) -> subprocess.CompletedProcess:
    """A fresh interpreter that runs `code` with `path` as its PYTHONPATH."""
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def _scipy_modules(code: str, *args: str) -> set[str]:
    """The scipy modules loaded after a fresh interpreter runs `code`."""
    done = _fresh(code + ("\nimport json, sys\nprint(json.dumps(sorted("
                          "m for m in sys.modules if m.startswith('scipy'))))"), *args)
    assert done.returncode == 0, done.stderr[-2000:]
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_loads_no_scipy():
    assert _scipy_modules("import torusns.app") == set()


@pytest.mark.parametrize("dim", [2, 3])
def test_power_law_run_loads_only_the_kernels(tmp_path, dim):
    """A power-law simulate + verify loads scipy's pocketfft module and no
    other scipy module: not `scipy.fft`, not `scipy.special`."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.replace("grid.dim = 2", f"grid.dim = {dim}")
                   .replace("points_per_axis = 16", f"points_per_axis = {16 if dim == 2 else 8}"))
    assert _scipy_modules(RUN, str(cfg), str(tmp_path / "out"), "0") == {KERNELS}
    assert os.path.exists(tmp_path / "out" / "ledgers" / "energy.csv")


def test_scipy_fft_imported_after_a_transform_reuses_the_kernels():
    """`import scipy.fft` after the first transform takes the loaded module
    (the extension is not loaded twice) and agrees with `to_coeffs` and
    `to_samples` bit for bit."""
    done = _fresh("""
import sys
import numpy as np
from torusns import spectral as sp
g = sp.TorusGrid(3, 16)
x = np.random.default_rng(3).standard_normal((2,) + g.shape)
c = sp.to_coeffs(g, x)
kernels = sys.modules[sp.KERNELS]
import scipy.fft
from scipy.fft._pocketfft import basic
assert basic.pfft is kernels, "a second copy of the kernels"
assert np.array_equal(scipy.fft.rfftn(x, axes=g.axes, norm="forward"), c)
assert np.array_equal(scipy.fft.irfftn(c, s=g.shape, axes=g.axes, norm="forward"),
                      sp.to_samples(g, c))
""")
    assert done.returncode == 0, done.stderr[-2000:]


def test_missing_kernels_name_the_path_and_scipy_version(tmp_path):
    """With no kernel file where scipy's package lives (here a stand-in
    package first on the path), the first grid raises an ImportError that
    names the folder it searched and the installed scipy version; there is
    no fallback engine."""
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    done = _fresh("from torusns.spectral import TorusGrid\nTorusGrid(2, 8)",
                  path=os.pathsep.join([str(tmp_path), SRC]))
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: ")
    assert str(tmp_path / "scipy" / "fft" / "_pocketfft") in last
    assert f"scipy {scipy.__version__}" in last


def test_tabulated_run_loads_only_the_kernels(tmp_path):
    """A tabulated-law simulate + verify loads the same scipy module as a
    power-law run and no other: not `scipy.interpolate` (nor the
    `scipy.optimize`, `sparse`, `linalg` and `spatial` it pulls in), and not
    `scipy.integrate`."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    assert _scipy_modules(RUN, str(cfg), str(tmp_path / "out"), "1") == {KERNELS}
    assert os.path.exists(tmp_path / "out" / "ledgers" / "energy.csv")
