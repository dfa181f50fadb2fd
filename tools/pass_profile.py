"""Milliseconds of each check's and ledger's `add` and of each `_Snapshot`
field in one `verify --suite all` pass.

    python3 tools/pass_profile.py --workload sim3d-dense
    python3 tools/pass_profile.py --workload sim2d-vortex --seed 3
    python3 tools/pass_profile.py --config run.cfg

Builds a simulation workload's config for the seed (the bench modules are
imported, not changed), or reads the config file given by --config, runs
`app.simulate` on it into a temporary directory and `app.verify(dir, "all")`
once untimed, which fills the per-grid caches.  Then, for one more
`verify --suite all` pass, it times every `add` that the pass calls (the
checks of `app` and the accumulators of `diagnostics`) and every field,
norm and `release` of `diagnostics._Snapshot`, and prints per name the
calls, the total milliseconds and the self milliseconds (the total less
that of the timed calls made inside it).  A field is timed where it is
first derived: the `add` that reads it first pays for it in its total, and
the field's own row holds that time once.  The whole pass's wall time is
printed last.  The timers replace the class attributes while the pass runs
and are taken back afterwards; importing the module changes nothing: `main`
pins the kernel threads to one and imports the bench modules.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
import time
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Profile:
    """Times the calls of the methods and cached properties that `timed`
    wraps while active, with one stack of open calls for the self times."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.inner: defaultdict = defaultdict(float)
        self.stack: list[str] = []
        self.saved: list[tuple[type, str, object]] = []

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.stack.append(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                if self.stack:
                    self.inner[self.stack[-1]] += elapsed
        return timed

    def timed(self, cls: type, attr: str, label: str) -> None:
        """Time `cls.attr`, a method or a cached property, under `label`."""
        original = vars(cls)[attr]
        if isinstance(original, functools.cached_property):
            wrapper = functools.cached_property(self._timed(label, original.func))
            wrapper.__set_name__(cls, attr)
        else:
            wrapper = self._timed(label, original)
        self.saved.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        for cls, attr, original in reversed(self.saved):
            setattr(cls, attr, original)
        self.saved.clear()

    def rows(self, prefix: str) -> list[tuple[str, int, float, float]]:
        """(name, calls, total ms, self ms) of each timed name under
        `prefix`, by total, largest first."""
        rows = [(name, self.calls[name], 1e3 * self.total[name],
                 1e3 * (self.total[name] - self.inner[name]))
                for name in self.calls if name.startswith(prefix)]
        return sorted(rows, key=lambda row: -row[2])


def instrument(profile: Profile) -> None:
    """Time every `add` defined by a class of `app` or `diagnostics` (the
    base `Accumulator.add` aside), and each cached property and public
    method of `diagnostics._Snapshot`."""
    from torusns import app, diagnostics
    for module in (app, diagnostics):
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and "add" in vars(cls) and cls is not diagnostics.Accumulator):
                profile.timed(cls, "add", f"add {cls.__name__}")
    snapshot = diagnostics._Snapshot
    for attr, value in list(vars(snapshot).items()):
        if isinstance(value, functools.cached_property) or (
                callable(value) and not attr.startswith("_")):
            profile.timed(snapshot, attr, f"_Snapshot.{attr}")


def profile_pass(config, rundir: str) -> tuple[Profile, float]:
    """The profile of one `verify --suite all` pass over a run of `config`
    written to `rundir`, after an untimed one, and the pass's wall seconds;
    a failed verification is an error."""
    from torusns import app
    app.simulate(config, rundir)
    for timed in (False, True):
        profile = Profile()
        if timed:
            instrument(profile)
        try:
            start = time.perf_counter()
            result = app.verify(rundir, "all")
            wall = time.perf_counter() - start
        finally:
            profile.restore()
        if not result.ok:
            raise RuntimeError(f"verify failed: {'; '.join(result.failures)}")
    return profile, wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=("sim2d-vortex", "sim3d-dense"))
    source.add_argument("--config", metavar="PATH", help="a config file instead of a workload")
    ap.add_argument("--seed", type=int, default=0, help="the workload's seed")
    args = ap.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # as bench/run.py starts its children
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import child  # bench/child.py, found through the path above
    child._import_torusns()
    import workloads
    from torusns import app
    if args.config:
        config, label = app.load_config(args.config), args.config
    else:
        config = app.parse_config(workloads.make(args.workload).config_text(args.seed))
        label = f"{args.workload}, seed {args.seed}"
    with tempfile.TemporaryDirectory(prefix="pass-profile-") as workdir:
        profile, wall = profile_pass(config, os.path.join(workdir, "run"))
    print(f"verify --suite all ({label})")
    for title, prefix in (("accumulator add", "add "), ("_Snapshot field", "_Snapshot.")):
        rows = profile.rows(prefix)
        width = max(len(name) for name, *_ in rows)
        print(f"  {title:<{width}s}{'calls':>7s}{'total ms':>10s}{'self ms':>10s}")
        for name, calls, total, own in rows:
            print(f"  {name:<{width}s}{calls:>7d}{total:>10.2f}{own:>10.2f}")
    print(f"  pass wall time: {1e3 * wall:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
