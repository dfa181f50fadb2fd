"""The sha256 of every file that `simulate` and `verify --suite all` write.

    python3 tools/output_digest.py > digest.json
    python3 tools/output_digest.py --against digest.json

Runs `app.simulate` and then `app.verify(dir, "all")` on each config, each
into its own temporary run directory, and prints {run: {file: sha256}} as
JSON, every file named relative to its run directory (`ledgers/energy.csv`,
say).  The runs are the seed-0 configs of the `sim2d-vortex` and
`sim3d-dense` workloads (the bench modules are imported, not changed) and
the README's example config (its first ```ini block).

With --against FILE the digest is compared with one that an earlier call
printed: each file whose sha256 differs, or that only one of the two holds,
is named on stderr, and the exit code is 1 if there is any.  A change that
claims to leave the outputs alone is checked by printing the digest of the
parent commit's checkout and running --against it on the change's.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # as bench/run.py starts its children

import argparse
import hashlib
import json
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import child  # noqa: E402  (bench/child.py, found through the path above)

child._import_torusns()
import workloads  # noqa: E402
from torusns import app  # noqa: E402

WORKLOADS = ("sim2d-vortex", "sim3d-dense")
README_RUN = "README example"


def _configs() -> dict:
    """run name -> parsed config of each default run."""
    configs = {name: app.parse_config(workloads.make(name).config_text(workloads.DEFAULT_SEED))
               for name in WORKLOADS}
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        configs[README_RUN] = app.parse_config(
            re.search(r"```ini\n(.*?)```", fh.read(), re.DOTALL).group(1))
    return configs


def file_digest(rundir: str) -> dict[str, str]:
    """relative path -> sha256 of every file under `rundir`, sorted by path."""
    digest = {}
    for folder, _, names in os.walk(rundir):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, rundir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digest.items()))


def run_digest(config, rundir: str) -> dict[str, str]:
    """`file_digest` of `rundir` after `simulate` and `verify --suite all`
    wrote a run of `config` there; a failed verification is an error."""
    app.simulate(config, rundir)
    result = app.verify(rundir, "all")
    if not result.ok:
        raise RuntimeError(f"verify failed on {rundir}: {'; '.join(result.failures)}")
    return file_digest(rundir)


def differences(expected: dict, actual: dict) -> list[str]:
    """`run/file` of every file whose sha256 differs between two digests,
    or that only one of them holds."""
    return [f"{run}/{name}" for run in sorted(set(expected) | set(actual))
            for name in sorted(set(expected.get(run, {})) | set(actual.get(run, {})))
            if expected.get(run, {}).get(name) != actual.get(run, {}).get(name)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="FILE", help="a digest printed earlier")
    args = ap.parse_args(argv)
    digest = {}
    with tempfile.TemporaryDirectory(prefix="output-digest-") as workdir:
        for n, (name, config) in enumerate(_configs().items()):
            digest[name] = run_digest(config, os.path.join(workdir, f"run{n}"))
    print(json.dumps(digest, indent=1, sort_keys=True))
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            differing = differences(json.load(fh), digest)
        for name in differing:
            print(f"differs: {name}", file=sys.stderr)
        print(f"{len(differing)} of {sum(map(len, digest.values()))} files differ",
              file=sys.stderr)
        return 1 if differing else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
