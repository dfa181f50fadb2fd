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
printed last.  The timers are the spans of the bench's `Tracer` (its
`summary` counts the self times), which replace the class attributes while
the pass runs and are taken back afterwards; importing the module changes
nothing: `main` pins the kernel threads to one and imports the bench modules
(`audit.import_bench`).
"""

from __future__ import annotations

import argparse
import functools
import sys
import tempfile
import time

import audit


def timed(tracer, cls: type, attr: str, label: str) -> None:
    """Time `cls.attr`, a method or a cached property, under `label`."""
    original = vars(cls)[attr]
    if isinstance(original, functools.cached_property):
        wrapper = functools.cached_property(tracer._wrap(label, original.func))
        wrapper.__set_name__(cls, attr)
    else:
        wrapper = tracer._wrap(label, original)
    tracer._patches.append((cls, attr, original))
    setattr(cls, attr, wrapper)


def instrument(tracer) -> None:
    """Time every `add` defined by a class of `app` or `diagnostics` (the
    base `Accumulator.add` aside), and each cached property and public
    method of `diagnostics._Snapshot`."""
    from torusns import app, diagnostics
    for module in (app, diagnostics):
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and "add" in vars(cls) and cls is not diagnostics.Accumulator):
                timed(tracer, cls, "add", f"add {cls.__name__}")
    snapshot = diagnostics._Snapshot
    for attr, value in list(vars(snapshot).items()):
        if isinstance(value, functools.cached_property) or (
                callable(value) and not attr.startswith("_")):
            timed(tracer, snapshot, attr, f"_Snapshot.{attr}")


def profile_pass(config, rundir: str) -> tuple[dict, float]:
    """The `Tracer.summary` of one `verify --suite all` pass over a run of
    `config` written to `rundir`, after an untimed one, and the pass's wall
    seconds; a failed verification is an error."""
    from torusns import app
    from tracer import Tracer  # bench/tracer.py
    app.simulate(config, rundir)
    for timing in (False, True):
        tracer = Tracer()
        if timing:
            instrument(tracer)
        try:
            start = time.perf_counter()
            result = app.verify(rundir, "all")
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        if not result.ok:
            raise RuntimeError(f"verify failed: {'; '.join(result.failures)}")
    return tracer.summary(), wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    audit.add_run_arguments(ap, required=True)
    args = ap.parse_args(argv)
    audit.import_bench()
    (label, config), = audit.runs(args).items()
    with tempfile.TemporaryDirectory(prefix="pass-profile-") as workdir:
        summary, wall = profile_pass(config, f"{workdir}/run")
    calls, total, own = summary["calls"], summary["total_s"], summary["self_s"]
    print(f"verify --suite all ({label})")
    for title, prefix in (("accumulator add", "add "), ("_Snapshot field", "_Snapshot.")):
        names = sorted((name for name in calls if name.startswith(prefix)),
                       key=lambda name: -total[name])
        width = max(map(len, names))
        print(f"  {title:<{width}s}{'calls':>7s}{'total ms':>10s}{'self ms':>10s}")
        for name in names:
            print(f"  {name:<{width}s}{calls[name]:>7d}{1e3 * total[name]:>10.2f}"
                  f"{1e3 * own[name]:>10.2f}")
    print(f"  pass wall time: {1e3 * wall:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
