"""Shape of the public analysis API."""

import ast
import functools
import inspect
import pathlib

import pytest

from torusns import diagnostics, dynamics

#: helpers of numpy.fft / scipy.fft that transform nothing
NON_TRANSFORMS = {"fftfreq", "rfftfreq", "fftshift", "ifftshift"}
#: scipy's compiled pocketfft module, which `spectral` loads by name from its
#: file, and the transforms it holds
KERNELS = "scipy.fft._pocketfft.pypocketfft"
KERNEL_TRANSFORMS = {"c2c", "r2c", "c2r", "r2r_fftpack", "dct", "dst",
                     "separable_hartley", "genuine_hartley"}


@pytest.mark.parametrize("module", [diagnostics, dynamics], ids=lambda m: m.__name__)
def test_run_functions_take_params_from_the_trajectory(module):
    """A function of a run reads the run's parameters from
    `trajectory.params`; a second `params` argument could disagree with it."""
    both = [name for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and not name.startswith("_")
            and {"trajectory", "params"} <= set(inspect.signature(fn).parameters)]
    assert not both, f"take both `trajectory` and `params`: {both}"


def _references(source: str) -> set[str]:
    """Dotted names of the modules that a module's code imports, and of the
    members of them that it refers to, through any alias: `np.fft.rfftn`,
    `scipy.fft.irfftn`, `from scipy import fft`, `from numpy.fft import
    rfft as f`, ..."""
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
    return {name for name in names if name}


def _transform_references(source: str) -> set[str]:
    """The references of `_references` to numpy.fft / scipy.fft transforms,
    or to those modules themselves, and the ways to the compiled kernels
    that need no import statement: a string naming their module, and the
    read of a kernel transform off any object (a handle to the module)."""
    found = {name for name in _references(source) for module in ("numpy.fft", "scipy.fft")
             if (name == module or name.startswith(module + "."))
             and name[len(module) + 1:] not in NON_TRANSFORMS}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and KERNELS.rpartition(".")[2] in node.value:
            found.add(KERNELS)
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_TRANSFORMS:
            found.add(f"{KERNELS}.{node.attr}")
    return found


def test_only_spectral_reaches_a_transform_entry_point():
    """Every transform of the package goes through `spectral.to_coeffs`,
    `spectral.to_samples` and the block inverse `spectral._block_inverse`,
    the only users of the compiled kernels, which is why the `fft_calls`
    fixture, counting the kernel calls, sees them all."""
    src = pathlib.Path(dynamics.__file__).parent
    users = {path.name: refs for path in sorted(src.glob("*.py"))
             if (refs := _transform_references(path.read_text()))}
    assert set(users) == {"spectral.py"}, users
    assert users["spectral.py"] == {KERNELS, f"{KERNELS}.r2c", f"{KERNELS}.c2r",
                                    f"{KERNELS}.c2c"}


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.fft.rfftn(x)",
    "import scipy.fft\nscipy.fft.irfftn(c)",
    "from scipy import fft\nfft.rfft(x)",
    "from numpy.fft import irfftn as back\nback(c)",
    "import numpy.fft as F\ng = F",
    "from scipy.fft import *",
    "import sys\nk = sys.modules['scipy.fft._pocketfft.pypocketfft']",
    "from torusns import spectral\nspectral._kernels().c2r(c, (0, 1), 8, False, 0, None, 1)",
    "from torusns import spectral\nk = spectral._kernels()\nk.c2c(c, (0,), False, 0, c, 1)",
])
def test_transform_reference_is_seen(source):
    assert _transform_references(source)


def test_frequency_helpers_are_not_transforms():
    assert not _transform_references("import numpy as np\nk = np.fft.fftfreq(8)")


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.gradient(x, t, axis=0)",
    "from numpy import gradient as g\ng(x)",
])
def test_gradient_reference_is_seen(source):
    assert "numpy.gradient" in _references(source)


def test_one_time_differencing_path():
    """Every time derivative of the package is `_Window.time_derivative`,
    the only reader of the difference weights `_difference`, so ledgers and
    identity residuals difference alike, through the shared snapshot pass;
    and no diagnostics code differences with np.gradient."""
    trees, _ = _sources()
    [window] = [c for c in trees["diagnostics.py"].body
                if isinstance(c, ast.ClassDef) and c.name == "_Window"]
    [method] = [f for f in window.body
                if isinstance(f, ast.FunctionDef) and f.name == "time_derivative"]
    inside = {id(n) for n in ast.walk(method)}
    uses = [node for tree in trees.values() for node in ast.walk(tree)
            if "_difference" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert uses and all(id(node) in inside for node in uses)
    assert "numpy.gradient" not in _references(pathlib.Path(diagnostics.__file__).read_text())


def test_snapshots_built_only_by_the_pass():
    """A `_Snapshot` is built only in `feed`, the one snapshot pass, and in
    `v1_identities`' fallback for a lone state, so no per-snapshot loop of
    the package runs beside the pass."""
    trees, _ = _sources()
    builders = sorted(
        f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
        for call in ast.walk(node) if isinstance(call, ast.Call)
        and "_Snapshot" in (getattr(call.func, "id", None), getattr(call.func, "attr", None)))
    assert builders == ["diagnostics.py:feed", "diagnostics.py:v1_identities"], builders


def test_one_refusal_site():
    """A snapshot pass refuses a non-finite sample and a density at or below
    zero in one place: the one `NonFiniteError` and the one `VacuumError`
    that diagnostics code builds are in `_Snapshot.__init__`, and `app`
    names no `SolverStop` to catch one anywhere else."""
    trees, _ = _sources()
    [snapshot] = [c for c in trees["diagnostics.py"].body
                  if isinstance(c, ast.ClassDef) and c.name == "_Snapshot"]
    [init] = [f for f in snapshot.body
              if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
    for error in ("NonFiniteError", "VacuumError"):
        builds = [node for node in ast.walk(trees["diagnostics.py"])
                  if isinstance(node, ast.Call)
                  and error in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
        assert len(builds) == 1 and builds[0] in ast.walk(init), error
    assert not [node for node in ast.walk(trees["app.py"])
                if "SolverStop" in (getattr(node, "id", None), getattr(node, "attr", None))]


#: the frozen frequency arrays of a `TorusGrid`, and those of them that a
#: Fourier symbol is built from
LATTICE = {"axis_frequencies", "frequency_mesh", "partner_mesh", "k_squared", "k_radius",
           "nyquist_mask", "mode_weight"}
SYMBOL_SOURCES = {"axis_frequencies", "frequency_mesh", "partner_mesh", "k_squared",
                  "nyquist_mask"}


def test_only_spectral_builds_a_symbol():
    """Every Fourier symbol (derivative, Laplacian, divergence, Riesz, Leray)
    is built in `spectral`: no other package module reads the frequency
    arrays a symbol is made of, and littlewood_paley's dyadic filters read
    |k| (`k_radius`) alone, besides the mode weight of its Parseval sums."""
    trees, _ = _sources()
    reads = {module: {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in LATTICE}
             for module, tree in trees.items() if module != "spectral.py"}
    assert {module: names & SYMBOL_SOURCES for module, names in reads.items()
            if names & SYMBOL_SOURCES} == {}
    assert {module: names for module, names in reads.items() if names} == {
        "littlewood_paley.py": {"k_radius", "mode_weight"}}


@functools.cache
def _sources():
    """(package module name -> its tree, the trees whose uses count).  Uses
    count in package code, benchmark scripts and the acceptance tests: the
    code that commands, `verify` suites and benchmark workloads run.  A name
    that only unit tests use is kept for a test's sake."""
    src = pathlib.Path(dynamics.__file__).parent
    root = src.parents[1]
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    users = [*trees.values()] + [
        ast.parse(path.read_text()) for path in
        [*sorted((root / "bench").glob("*.py")), root / "tests" / "test_acceptance.py"]]
    return trees, users


def _reads() -> dict[str, set[int]]:
    """name -> ids of the Name/Attribute nodes of the users that read it."""
    refs: dict[str, set[int]] = {}
    for node in (node for tree in _sources()[1] for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            refs.setdefault(node.id, set()).add(id(node))
        elif isinstance(node, ast.Attribute):
            refs.setdefault(node.attr, set()).add(id(node))
    return refs


def _unread(node: ast.AST, name: str, refs: dict[str, set[int]]) -> bool:
    """Whether `name` is read nowhere but inside its own definition `node`."""
    return not refs.get(name, set()) - {id(n) for n in ast.walk(node)}


def test_every_public_definition_has_a_user():
    """Every public top-level function and class of the package has a user."""
    trees, _ = _sources()
    refs = _reads()
    unused = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and _unread(node, node.name, refs)]
    assert not unused, f"reached only by their own definition or unit tests: {unused}"


#: methods that the package reads nowhere, and why they stay
UNREAD_METHODS = {
    "app.py:_Parser.error": "argparse calls it on a usage error",
}


def test_every_public_method_has_a_user():
    """Every public method (property included) of a top-level class is read
    by a user."""
    trees, _ = _sources()
    refs = _reads()
    unused = [f"{module}:{cls.name}.{fn.name}" for module, tree in trees.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("_") and _unread(fn, fn.name, refs)]
    assert sorted(unused) == sorted(UNREAD_METHODS), \
        f"reached only by their own definition or unit tests: {unused}"


#: parameters with defaults that no user passes, and why they stay
UNPASSED_DEFAULTS = {
    "app.py:main(argv)": "the console entry point calls main() alone, and "
                         "argparse then reads sys.argv",
    "dynamics.py:SolverConfig(max_steps)": "the cap behind the `max_steps` stop, "
                                           "which a run whose t_end it cannot "
                                           "reach ends on",
    "diagnostics.py:BlowupMonitor.__init__(window_end)":
        "`_report` passes it on as `ledger(source, *config)` from "
        "`blowup_monitor`, whose window_end the acceptance tests set",
}


def _defaults(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of the parameters of `fn` with a default; position
    None for a keyword-only one."""
    args = fn.args.posonlyargs + fn.args.args
    first = len(args) - len(fn.args.defaults)
    return ([(i, a.arg) for i, a in enumerate(args) if i >= first]
            + [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None])


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether `call` passes the parameter at `position` (counted over the
    call's own arguments) or called `name`; `*args` and `**kwargs` pass
    every parameter they may reach."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    if position is None:
        return False
    for n, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or n == position:
            return True
    return False


def test_every_default_is_passed():
    """Every parameter with a default (of a top-level function, of a method
    of a top-level class, or a dataclass field) is passed, by position or
    by keyword, by a user; one that none passes is not an option."""
    trees, users = _sources()
    calls: dict[str, list[ast.Call]] = {}
    for node in (node for tree in users for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            calls.setdefault(name, []).append(node)
    subclasses = {}  # class -> itself and the package classes naming it as a base
    for tree in trees.values():
        for cls in (c for c in tree.body if isinstance(c, ast.ClassDef)):
            for base in [cls.name] + [b.id for b in cls.bases if isinstance(b, ast.Name)]:
                subclasses.setdefault(base, set()).add(cls.name)

    def passed(names, own: ast.AST, position, name, shift) -> bool:
        inside = {id(n) for n in ast.walk(own)}
        return any(_passes(call, None if position is None else position - shift, name)
                   for n in names for call in calls.get(n, []) if id(call) not in inside)

    unpassed = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                unpassed += [f"{module}:{node.name}({name})" for position, name in
                             _defaults(node) if not passed([node.name], node, position,
                                                           name, 0)]
            if not isinstance(node, ast.ClassDef):
                continue
            for fn in (f for f in node.body if isinstance(f, ast.FunctionDef)):
                # a call passes no `self` (or `cls`), so its arguments start at 1
                names = subclasses[node.name] if fn.name == "__init__" else [fn.name]
                unpassed += [f"{module}:{node.name}.{fn.name}({name})"
                             for position, name in _defaults(fn)
                             if not passed(names, fn, position, name, 1)]
            if any(getattr(d, "id", None) == "dataclass" for d in node.decorator_list):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                unpassed += [f"{module}:{node.name}({f.target.id})"
                             for position, f in enumerate(fields) if f.value is not None
                             and not passed([node.name], node, position, f.target.id, 0)]
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS), \
        f"set by no command, suite, workload or acceptance test: {unpassed}"
