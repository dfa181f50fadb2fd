"""Milliseconds and traced memory of each check's and ledger's `add` and of
each `_Snapshot` field in one `verify --suite all` pass.

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
the field's own row holds that time once.  The last column is the largest
tracemalloc high-water of a call above the traced memory live at its start,
in KiB, taken on a separate untimed pass (`HighWater`), so the times do not
pay for the tracing.  The whole pass's high-water above its start and its
wall time are printed last.  The timers are the spans of the bench's
`Tracer` (its `summary` counts the self times), which replace the class
attributes while the pass runs and are taken back afterwards, as the
memory probes are; importing the module changes nothing: `main` pins the
kernel threads to one and imports the bench modules (`audit.import_bench`).
"""

from __future__ import annotations

import argparse
import functools
import sys
import tempfile
import time
import tracemalloc

import audit


class HighWater:
    """Per label, the largest tracemalloc high-water of a wrapped call above
    the traced memory live at its start.  A call resets the peak counter, so
    each enclosing open call first takes the peak so far into its own.  It
    patches attributes as the bench's `Tracer` does (`_wrap`, `_patches`,
    `uninstall`), so `instrument` takes either; tracemalloc must be on."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._open: list[list[int]] = []   # [live at start, high-water before the last reset]
        self.peaks: dict[str, int] = {}

    def _wrap(self, label: str, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            live, peak = tracemalloc.get_traced_memory()
            for call in self._open:
                call[1] = max(call[1], peak)
            tracemalloc.reset_peak()
            self._open.append([live, live])
            try:
                return fn(*args, **kwargs)
            finally:
                start, high = self._open.pop()
                high = max(high, tracemalloc.get_traced_memory()[1]) - start
                self.peaks[label] = max(self.peaks.get(label, 0), high)
        return measured

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def timed(tracer, cls: type, attr: str, label: str) -> None:
    """Time `cls.attr`, a method or a cached property, under `label`, with
    `tracer` a `Tracer` or a `HighWater`."""
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


PASS = "verify --suite all"


def _checked(verify, rundir: str) -> None:
    """verify(rundir, "all"); a failed verification is an error."""
    if not (result := verify(rundir, "all")).ok:
        raise RuntimeError(f"verify failed: {'; '.join(result.failures)}")


def profile_pass(config, rundir: str) -> tuple[dict, dict, float]:
    """The `Tracer.summary` of one `verify --suite all` pass over a run of
    `config` written to `rundir`, the `HighWater.peaks` of another (the
    whole pass's under `PASS`), both after an unmeasured one that fills the
    per-grid caches, and the timed pass's wall seconds."""
    from torusns import app
    from tracer import Tracer  # bench/tracer.py
    app.simulate(config, rundir)
    _checked(app.verify, rundir)
    high = HighWater()
    instrument(high)
    tracemalloc.start()
    try:
        _checked(high._wrap(PASS, app.verify), rundir)
    finally:
        tracemalloc.stop()
        high.uninstall()
    tracer = Tracer()
    instrument(tracer)
    try:
        start = time.perf_counter()
        _checked(app.verify, rundir)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer.summary(), high.peaks, wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    audit.add_run_arguments(ap, required=True)
    args = ap.parse_args(argv)
    audit.import_bench()
    (label, config), = audit.runs(args).items()
    with tempfile.TemporaryDirectory(prefix="pass-profile-") as workdir:
        summary, peaks, wall = profile_pass(config, f"{workdir}/run")
    calls, total, own = summary["calls"], summary["total_s"], summary["self_s"]
    print(f"{PASS} ({label})")
    for title, prefix in (("accumulator add", "add "), ("_Snapshot field", "_Snapshot.")):
        names = sorted((name for name in calls if name.startswith(prefix)),
                       key=lambda name: -total[name])
        width = max(map(len, names))
        print(f"  {title:<{width}s}{'calls':>7s}{'total ms':>10s}{'self ms':>10s}"
              f"{'high KiB':>10s}")
        for name in names:
            print(f"  {name:<{width}s}{calls[name]:>7d}{1e3 * total[name]:>10.2f}"
                  f"{1e3 * own[name]:>10.2f}{peaks[name] / 2 ** 10:>10.1f}")
    print(f"  pass high-water: {peaks[PASS] / 2 ** 20:.2f} MiB")
    print(f"  pass wall time: {1e3 * wall:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
