"""Transform fields per call site of `simulate` and of each `verify` suite.

    python3 tools/transform_census.py --workload sim3d-dense
    python3 tools/transform_census.py --workload sim2d-vortex --seed 3
    python3 tools/transform_census.py --config run.cfg
    python3 tools/transform_census.py --workload sim3d-dense --out census.json
    python3 tools/transform_census.py --workload sim3d-dense --against census.json

Builds a simulation workload's config for the seed (the bench modules are
imported, not changed), or reads the config file given by --config (the
README's example run or a test's config, say), runs `app.simulate` on it
into a temporary directory, then `app.verify` on that directory once per
suite (identities, inequalities, monitors, all).  For each of these five phases it
prints the fields that `spectral`'s compiled kernels transformed, by call
site: the first frame outside spectral.py (file:function) of the call.

The fields are counted by `Census`, the one counting rule, which the
tests' `fft_calls` fixture reads too: a forward (`r2c`) call counts the
product of the axes it does not transform, an inverse (`c2r`) call the
product of the axes before the grid's.  A block inverse
(`spectral._block_inverse`: an in-place `c2c` over the leading grid axes,
then `c2r` over the last one) is listed under "block", apart from the
whole-grid inverses; "inverse" plus "block" is the fixture's inverse count.
A transform that bypasses the kernels is not seen.  Importing the module
changes nothing: `main` pins the kernel threads to one and imports the
bench modules.

With --out FILE the tables are saved as JSON, {phase: {call site: [forward,
inverse, block]}}.  With --against FILE they are compared with tables that
an earlier --out saved: each row (phase and call site) whose counts differ,
or that only one of the two holds, is named on stderr, and the exit code is
1 if there is any.  A change that claims to move no transform is checked by
saving the parent commit's tables and running --against them on the
change's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASES = ("simulate", "identities", "inequalities", "monitors", "all")
KINDS = ("forward", "inverse", "block")
KERNELS = ("r2c", "c2r", "c2c")


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


def _call_site(spectral_file: str) -> tuple[str, bool]:
    """(file:function of the first frame outside spectral.py that led to the
    kernel call, whether `spectral._block_inverse` made it).  The frames of
    this file, a census's wrappers (one per census that is active), are
    passed over first."""
    frame = sys._getframe(1)
    while frame.f_code.co_filename == __file__:
        frame = frame.f_back
    block = frame.f_code.co_name == "_block_inverse"
    while frame is not None and frame.f_code.co_filename == spectral_file:
        frame = frame.f_back
    if frame is None:
        return "spectral.py", block
    code = frame.f_code
    return (f"{os.path.basename(code.co_filename)}:"
            f"{getattr(code, 'co_qualname', code.co_name)}"), block


class Census:
    """Wraps the compiled kernels that `spectral` calls (`r2c`, `c2r`, `c2c`)
    while active, and counts their work two ways.

    `totals`, which the tests' `fft_calls` fixture reads: "rfftn" (forward,
    `r2c`) and "irfftn" (inverse, `c2r`) calls, and under "<name>_fields"
    the fields they transformed: the product of the axes a forward call does
    not transform (the leading batch axes of the package's calls), and of
    the axes before the grid's for an inverse call.  A block inverse
    (`spectral._block_inverse`) runs `c2c` over the leading grid axes and
    then `c2r` over the last one alone: its `c2r` counts as one inverse
    call of the fields of its block, and its `c2c`, counted under "c2c",
    adds no call or field.

    `counts`: the same fields by (call site, kind), a block inverse's under
    "block" apart from the whole-grid "inverse", which `table` prints.  A
    transform that bypasses the kernels is not seen."""

    def __init__(self, spectral):
        self.kernels = spectral._kernels()
        self.spectral_file = spectral.__file__
        self.counts: Counter = Counter()
        self.totals: Counter = Counter()

    def _count(self, call: str, fields: int, kind: str) -> None:
        site, block = _call_site(self.spectral_file)
        self.totals[call] += 1
        self.totals[f"{call}_fields"] += fields
        self.counts[site, "block" if block else kind] += fields

    def __enter__(self):
        self.saved = {name: getattr(self.kernels, name) for name in KERNELS}
        r2c, c2r, c2c = self.saved.values()

        def forward(x, axes, *args):
            self._count("rfftn", x.size // math.prod(x.shape[a] for a in axes), "forward")
            return r2c(x, axes, *args)

        def inverse(x, axes, lastsize, *args):
            self._count("irfftn", _inverse_fields(x.shape, lastsize), "inverse")
            return c2r(x, axes, lastsize, *args)

        def complex_pass(x, *args):
            self.totals["c2c"] += 1
            return c2c(x, *args)

        for name, counted in zip(KERNELS, (forward, inverse, complex_pass)):
            setattr(self.kernels, name, counted)
        return self

    def __exit__(self, *exc):
        for name, kernel in self.saved.items():
            setattr(self.kernels, name, kernel)

    def table(self) -> list[tuple[str, list[int]]]:
        sites = sorted({site for site, _ in self.counts})
        rows = [(site, [self.counts[site, kind] for kind in KINDS]) for site in sites]
        return rows + [("total", [sum(r[1][i] for r in rows) for i in range(len(KINDS))])]


def phases(config, rundir: str):
    """Yield (phase, its census table, its failure or None) for `simulate`
    of `config` into `rundir` and then `verify` of each suite; a phase runs
    when the previous one's tuple has been taken."""
    from torusns import app, spectral
    for phase in PHASES:
        failure = None
        with Census(spectral) as census:
            if phase == "simulate":
                app.simulate(config, rundir)
            elif not (result := app.verify(rundir, phase)).ok:
                failure = f"{phase}: {'; '.join(result.failures)}"
        yield phase, census.table(), failure


def differences(expected: dict, actual: dict) -> list[str]:
    """`phase call-site: saved -> now` of every row whose counts differ
    between two saved tables, or that only one of them holds (None)."""
    rows = []
    for phase in sorted(set(expected) | set(actual)):
        saved, now = expected.get(phase, {}), actual.get(phase, {})
        rows += [f"{phase} {site}: {saved.get(site)} -> {now.get(site)}"
                 for site in sorted(set(saved) | set(now)) if saved.get(site) != now.get(site)]
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=("sim2d-vortex", "sim3d-dense"))
    source.add_argument("--config", metavar="PATH", help="a config file instead of a workload")
    ap.add_argument("--seed", type=int, default=0, help="the workload's seed")
    ap.add_argument("--out", metavar="FILE", help="save the tables as JSON")
    ap.add_argument("--against", metavar="FILE", help="tables that --out saved earlier")
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
    failed, tables = [], {}
    with tempfile.TemporaryDirectory(prefix="transform-census-") as workdir:
        for phase, rows, failure in phases(config, os.path.join(workdir, "run")):
            failed += [failure] if failure else []
            tables[phase] = dict(rows)
            width = max(len(site) for site, _ in rows)
            print(f"{phase} ({label})")
            print(f"  {'call site':<{width}s}" + "".join(f"{k:>9s}" for k in KINDS))
            for site, counts in rows:
                print(f"  {site:<{width}s}" + "".join(f"{c:>9d}" for c in counts))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(tables, fh, indent=1)
    differing = []
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            differing = differences(json.load(fh), tables)
        for row in differing:
            print(f"differs: {row}", file=sys.stderr)
        print(f"{len(differing)} of {sum(map(len, tables.values()))} rows differ",
              file=sys.stderr)
    if failed:
        print("FAILED: " + " | ".join(failed), file=sys.stderr)
    return 1 if failed or differing else 0


if __name__ == "__main__":
    sys.exit(main())
