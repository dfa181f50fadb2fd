"""Transform fields per call site of `simulate` and of each `verify` suite.

    python3 tools/transform_census.py --workload sim3d-dense
    python3 tools/transform_census.py --workload sim2d-vortex --seed 3
    python3 tools/transform_census.py --config run.cfg

Builds a simulation workload's config for the seed (the bench modules are
imported, not changed), or reads the config file given by --config (the
README's example run or a test's config, say), runs `app.simulate` on it
into a temporary directory, then `app.verify` on that directory once per
suite (identities, inequalities, monitors, all).  For each of these five phases it
prints the fields that `spectral`'s compiled kernels transformed, by call
site: the first frame outside spectral.py (file:function) of the call.

The fields are counted by the rule of the tests' `fft_calls` fixture: a
forward (`r2c`) call counts the product of the axes it does not transform,
an inverse (`c2r`) call the product of the axes before the grid's.  A block
inverse (`spectral._block_inverse`: an in-place `c2c` over the leading grid
axes, then `c2r` over the last one) is listed under "block", apart from the
whole-grid inverses; "inverse" plus "block" is the fixture's inverse count.
A transform that bypasses the kernels is not seen.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # as bench/run.py starts its children

import argparse
import math
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import child  # noqa: E402  (bench/child.py, found through the path above)

PHASES = ("simulate", "identities", "inequalities", "monitors", "all")
KINDS = ("forward", "inverse", "block")


def _inverse_fields(shape: tuple[int, ...], lastsize: int) -> int:
    """The fields of an inverse call on coefficients of `shape`: the product
    of the axes before the grid's, which are the last one and the axes of
    length M = `lastsize` before it (batch axes are at most 3 long)."""
    lead = len(shape) - 1
    while lead > 0 and shape[lead - 1] == lastsize:
        lead -= 1
    return math.prod(shape[:lead])


def _call_site(spectral_file: str) -> tuple[str, bool]:
    """(file:function of the first frame outside spectral.py, whether the
    kernel was called from `spectral._block_inverse`)."""
    frame = sys._getframe(2)   # the kernel's caller: above this and the wrapper
    block = frame.f_code.co_name == "_block_inverse"
    while frame is not None and frame.f_code.co_filename == spectral_file:
        frame = frame.f_back
    if frame is None:
        return "spectral.py", block
    code = frame.f_code
    return (f"{os.path.basename(code.co_filename)}:"
            f"{getattr(code, 'co_qualname', code.co_name)}"), block


class Census:
    """Wraps the kernels' `r2c` and `c2r` while active and counts the fields
    of each call under (call site, kind)."""

    def __init__(self, spectral):
        self.kernels = spectral._kernels()
        self.spectral_file = spectral.__file__
        self.counts: Counter = Counter()

    def __enter__(self):
        real_r2c, real_c2r = self.kernels.r2c, self.kernels.c2r

        def r2c(x, axes, *args):
            site, _ = _call_site(self.spectral_file)
            fields = x.size // math.prod(x.shape[a] for a in axes)
            self.counts[site, "forward"] += fields
            return real_r2c(x, axes, *args)

        def c2r(x, axes, lastsize, *args):
            site, block = _call_site(self.spectral_file)
            self.counts[site, "block" if block else "inverse"] += \
                _inverse_fields(x.shape, lastsize)
            return real_c2r(x, axes, lastsize, *args)

        self.saved = real_r2c, real_c2r
        self.kernels.r2c, self.kernels.c2r = r2c, c2r
        return self

    def __exit__(self, *exc):
        self.kernels.r2c, self.kernels.c2r = self.saved

    def table(self) -> list[tuple[str, list[int]]]:
        sites = sorted({site for site, _ in self.counts})
        rows = [(site, [self.counts[site, kind] for kind in KINDS]) for site in sites]
        return rows + [("total", [sum(r[1][i] for r in rows) for i in range(len(KINDS))])]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=("sim2d-vortex", "sim3d-dense"))
    source.add_argument("--config", metavar="PATH", help="a config file instead of a workload")
    ap.add_argument("--seed", type=int, default=0, help="the workload's seed")
    args = ap.parse_args(argv)

    child._import_torusns()
    import workloads
    from torusns import app, spectral
    if args.config:
        config, label = app.load_config(args.config), args.config
    else:
        config = app.parse_config(workloads.make(args.workload).config_text(args.seed))
        label = f"{args.workload}, seed {args.seed}"
    failed = []
    with tempfile.TemporaryDirectory(prefix="transform-census-") as workdir:
        rundir = os.path.join(workdir, "run")
        for phase in PHASES:
            with Census(spectral) as census:
                if phase == "simulate":
                    app.simulate(config, rundir)
                elif not (result := app.verify(rundir, phase)).ok:
                    failed.append(f"{phase}: {'; '.join(result.failures)}")
            rows = census.table()
            width = max(len(site) for site, _ in rows)
            print(f"{phase} ({label})")
            print(f"  {'call site':<{width}s}" + "".join(f"{k:>9s}" for k in KINDS))
            for site, counts in rows:
                print(f"  {site:<{width}s}" + "".join(f"{c:>9d}" for c in counts))
    if failed:
        print("FAILED: " + " | ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
