"""The sha256 of every file and the transforms per call site of `simulate`
and `verify` runs.

    python3 tools/audit.py --out audit.json
    python3 tools/audit.py --against audit.json
    python3 tools/audit.py --workload sim3d-dense --seed 3
    python3 tools/audit.py --config run.cfg --out audit.json

For each run it runs `app.simulate` into a temporary run directory and then
`app.verify` on it once per suite (identities, inequalities, monitors, all),
each of these five phases under `Census`, and then hashes every file of the
run directory (named relative to it: `ledgers/energy.csv`, say).  The
default runs are the seed-0 configs of the `sim2d-vortex` and `sim3d-dense`
workloads (the bench modules are imported, not changed) and the README's
example config (its first ```ini block); --workload W [--seed S] or
--config PATH picks one run instead.  It prints each phase's table of the
fields that `spectral`'s compiled kernels transformed by call site, the
first frame outside spectral.py (file:function) of the call, as `Census`
counts them: the one counting rule, which the tests' `fft_calls` fixture
reads too.  A verify suite that fails is named with its run on stderr, and
the exit code is 1.

With --out FILE the result is saved as JSON, {run: {"files": {file: sha256},
"transforms": {phase: {call site: [forward, inverse, block]}}}}.  With
--against FILE it is compared with one that an earlier --out saved: each
file whose sha256 differs and each transform row whose counts differ, or
that only one of the two holds, is named on stderr, and the exit code is 1
if there is any.  A change that claims to move no output byte and no
transform is checked by saving the parent commit's audit and running
--against it on the change's.

Importing the module changes nothing.  `import_bench`, which the other
tools call too, pins the kernel threads, puts bench/ on sys.path and
imports the package, and `runs` resolves --workload, --config and --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIMULATIONS = ("sim2d-vortex", "sim3d-dense")
README_RUN = "README example"
PHASES = ("simulate", "identities", "inequalities", "monitors", "all")
KINDS = ("forward", "inverse", "block")
KERNELS = ("r2c", "c2r", "c2c")


def import_bench() -> None:
    """Pin the kernel threads to one, as bench/run.py starts its children
    (call it before numpy loads), put bench/ on sys.path and import the
    package from this checkout's src/ (`child._import_torusns`)."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import child  # bench/child.py, found through the path above
    child._import_torusns()


def add_run_arguments(ap: argparse.ArgumentParser, required: bool) -> None:
    """--workload W [--seed S] or --config PATH."""
    source = ap.add_mutually_exclusive_group(required=required)
    source.add_argument("--workload", choices=SIMULATIONS)
    source.add_argument("--config", metavar="PATH", help="a config file instead of a workload")
    ap.add_argument("--seed", type=int, default=0, help="the workload's seed")


def runs(args) -> dict:
    """run label -> parsed config of the run that --config or --workload
    picks, else of each default run; call `import_bench` first."""
    import workloads
    from torusns import app
    if args.config:
        return {args.config: app.load_config(args.config)}
    names = [args.workload] if args.workload else SIMULATIONS
    configs = {f"{name}, seed {args.seed}": app.parse_config(
        workloads.make(name).config_text(args.seed)) for name in names}
    if not args.workload:
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            configs[README_RUN] = app.parse_config(
                re.search(r"```ini\n(.*?)```", fh.read(), re.DOTALL).group(1))
    return configs


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


def file_digest(rundir: str) -> dict[str, str]:
    """relative path -> sha256 of every file under `rundir`, sorted by path."""
    digest = {}
    for folder, _, names in os.walk(rundir):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, rundir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digest.items()))


def _entries(audit: dict) -> dict:
    """Each file's sha256 and each transform row's counts of an audit, by
    `run file` and `run phase call-site`."""
    entries = {}
    for run, result in audit.items():
        entries.update({f"{run} {name}": sha for name, sha in result["files"].items()})
        entries.update({f"{run} {phase} {site}": counts
                        for phase, rows in result["transforms"].items()
                        for site, counts in rows.items()})
    return entries


def differences(expected: dict, actual: dict) -> list[str]:
    """`entry: saved -> now` of every entry (`_entries`) that differs
    between two audits, or that only one of them holds (None)."""
    saved, now = _entries(expected), _entries(actual)
    return [f"{name}: {saved.get(name)} -> {now.get(name)}"
            for name in sorted(saved.keys() | now.keys()) if saved.get(name) != now.get(name)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_run_arguments(ap, required=False)
    ap.add_argument("--out", metavar="FILE", help="save the audit as JSON")
    ap.add_argument("--against", metavar="FILE", help="an audit that --out saved earlier")
    args = ap.parse_args(argv)
    import_bench()
    audit, failed = {}, []
    with tempfile.TemporaryDirectory(prefix="audit-") as workdir:
        for n, (label, config) in enumerate(runs(args).items()):
            rundir, tables = os.path.join(workdir, f"run{n}"), {}
            for phase, rows, failure in phases(config, rundir):
                failed += [f"{label} {failure}"] if failure else []
                tables[phase] = dict(rows)
                width = max(len(site) for site, _ in rows)
                print(f"{phase} ({label})")
                print(f"  {'call site':<{width}s}" + "".join(f"{k:>9s}" for k in KINDS))
                for site, counts in rows:
                    print(f"  {site:<{width}s}" + "".join(f"{c:>9d}" for c in counts))
            audit[label] = {"files": file_digest(rundir), "transforms": tables}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(audit, fh, indent=1, sort_keys=True)
    differing = []
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            differing = differences(json.load(fh), audit)
        for entry in differing:
            print(f"differs: {entry}", file=sys.stderr)
        print(f"{len(differing)} of {len(_entries(audit))} entries differ", file=sys.stderr)
    if failed:
        print("FAILED: " + " | ".join(failed), file=sys.stderr)
    return 1 if failed or differing else 0


if __name__ == "__main__":
    sys.exit(main())
