"""Shape of the public analysis API."""

import ast
import inspect
import pathlib

import pytest

from torusns import diagnostics, dynamics

#: helpers of numpy.fft / scipy.fft that transform nothing
NON_TRANSFORMS = {"fftfreq", "rfftfreq", "fftshift", "ifftshift"}


@pytest.mark.parametrize("module", [diagnostics, dynamics], ids=lambda m: m.__name__)
def test_run_functions_take_params_from_the_trajectory(module):
    """A function of a run reads the run's parameters from
    `trajectory.params`; a second `params` argument could disagree with it."""
    both = [name for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and not name.startswith("_")
            and {"trajectory", "params"} <= set(inspect.signature(fn).parameters)]
    assert not both, f"take both `trajectory` and `params`: {both}"


def _transform_references(source: str) -> set[str]:
    """Dotted names of numpy.fft / scipy.fft transforms (or of the modules
    themselves) that a module's code imports or refers to, through any
    alias: `np.fft.rfftn`, `scipy.fft.irfftn`, `from scipy import fft`,
    `from numpy.fft import rfft as f`, ..."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                bound[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    # a chain such as np.fft.fftfreq is judged whole, not by its prefix np.fft
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = set(bound.values()) | {dotted(node) for node in ast.walk(tree)
                                   if id(node) not in inner}
    return {name for name in names if name for module in ("numpy.fft", "scipy.fft")
            if (name == module or name.startswith(module + "."))
            and name[len(module) + 1:] not in NON_TRANSFORMS}


def test_only_spectral_reaches_a_transform_entry_point():
    """Every transform of the package goes through `spectral.to_coeffs` and
    `spectral.to_samples`, which is why the `fft_calls` fixture and the
    benchmark's tracer, counting the library entry points, see them all."""
    src = pathlib.Path(dynamics.__file__).parent
    users = {path.name: refs for path in sorted(src.glob("*.py"))
             if (refs := _transform_references(path.read_text()))}
    assert set(users) == {"spectral.py"}, users
    assert {"numpy.fft.rfft", "numpy.fft.fft", "numpy.fft.ifft", "numpy.fft.irfft",
            "scipy.fft.rfftn", "scipy.fft.irfftn"} <= users["spectral.py"]


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.fft.rfftn(x)",
    "import scipy.fft\nscipy.fft.irfftn(c)",
    "from scipy import fft\nfft.rfft(x)",
    "from numpy.fft import irfftn as back\nback(c)",
    "import numpy.fft as F\ng = F",
    "from scipy.fft import *",
])
def test_transform_reference_is_seen(source):
    assert _transform_references(source)


def test_frequency_helpers_are_not_transforms():
    assert not _transform_references("import numpy as np\nk = np.fft.fftfreq(8)")



def test_every_public_definition_has_a_user():
    """Every public top-level function and class of the package is used by
    other package code, a benchmark script or an acceptance test.  One that
    only its own unit tests reach is reached by no command, no `verify`
    suite and no benchmark workload."""
    src = pathlib.Path(dynamics.__file__).parent
    root = src.parents[1]
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    users = [*trees.values()] + [
        ast.parse(path.read_text()) for path in
        [*sorted((root / "bench").glob("*.py")), root / "tests" / "test_acceptance.py"]]
    refs: dict[str, set[int]] = {}  # name -> ids of the Name/Attribute nodes reading it
    for node in (node for tree in users for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            refs.setdefault(node.id, set()).add(id(node))
        elif isinstance(node, ast.Attribute):
            refs.setdefault(node.attr, set()).add(id(node))
    unused = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and not refs.get(node.name, set()) - {id(n) for n in ast.walk(node)}]
    assert not unused, f"reached only by their own definition or unit tests: {unused}"
