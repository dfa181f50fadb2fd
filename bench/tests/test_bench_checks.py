"""The workload checks fail closed, and the command fails without sources.

    python3 -m pytest bench/tests -q
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

import child
import workloads
from torusns import app

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def inject_nan(rundir: str, name: str) -> None:
    """Overwrite the first density sample of a checkpoint with NaN and keep
    the manifest checksum consistent, so only the values are wrong."""
    path = os.path.join(rundir, name)
    raw = bytearray(open(path, "rb").read())
    body = raw.index(b"\n") + 1
    raw[body:body + 8] = np.array([math.nan], dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(raw)
    manifest_path = os.path.join(rundir, app.MANIFEST_FILE)
    manifest = json.load(open(manifest_path))
    for entry in manifest["files"]:
        if entry["name"] == name:
            entry["sha256"] = hashlib.sha256(bytes(raw)).hexdigest()
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)


def test_nan_in_a_copied_checkpoint_counts_as_a_failure(tmp_path):
    w = workloads.make("sim2d-vortex")
    w.setup(workloads.DEFAULT_SEED, str(tmp_path))
    cycle = w.cycle()
    assert w.check(cycle) == []

    copy = str(tmp_path / "copy")
    shutil.copytree(w.rundir, copy)
    inject_nan(copy, "state_000002.nsb")
    bundle, _ = cycle.outputs
    w.rundir = copy
    corrupted = workloads.CycleResult(cycle.main_s, cycle.cycle_s, cycle.items,
                                      outputs=(bundle, app.verify(copy, "all")))
    assert any("checkpoint 2" in f for f in w.check(corrupted))

    w.cycle = lambda split_verify=False: corrupted
    loop = child.Loop(w)
    loop.run()
    assert (loop.attempted, len(loop.failures)) == (1, 1)


def test_nan_ledger_values_fail(tmp_path):
    w = workloads.make("sim2d-vortex")
    w.setup(workloads.DEFAULT_SEED, str(tmp_path))
    cycle = w.cycle()
    bundle, result = cycle.outputs
    bundle.records[-1].values["div_v1_residual"] = math.nan
    energy = result.reports["energy"]
    energy.rows[-1] = energy.rows[-1][:-1] + (math.nan,)
    failures = w.check(cycle)
    assert any("non-finite diagnostic" in f for f in failures)
    assert any("v1 identity residual" in f for f in failures)
    assert any("energy-ledger slack" in f for f in failures)


def test_fingerprint_comparison_fails_closed():
    stored = workloads.load_fingerprints()["sim2d-vortex"]
    assert workloads.compare_fingerprint(stored, dict(stored)) == []
    for key, bad in (("rho_l2", math.nan), ("steps", stored["steps"] + 1),
                     ("u_linf", stored["u_linf"] * (1 + 1e-6)),
                     ("max_identity_residual", 1e-9)):
        assert workloads.compare_fingerprint(stored, dict(stored, **{key: bad}))
    assert workloads.compare_fingerprint(stored, {})


def test_ensemble_checks_catch_a_wrong_piece(tmp_path):
    w = workloads.make("lp-ensemble")
    w.setup(workloads.DEFAULT_SEED, str(tmp_path))
    w.inputs = w.inputs[:1]
    cycle = w.cycle()
    assert w.check(cycle) == []
    bony, comm, besov, pieces = cycle.outputs[0]
    cycle.outputs[0] = (bony, comm, math.nan, [pieces[0] * 2.0] + pieces[1:])
    failures = w.check(cycle)
    assert any("eight-way" in f for f in failures)
    assert any("Besov" in f for f in failures)


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sim2d-vortex",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
