"""The scripts under tools/."""

import argparse
import importlib.util
import json
import os
import re
import sys

import pytest

import audit
import pass_profile
from torusns import app

THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_MODULES = ("child", "run", "tracer", "workloads")

#: a 2-D 16^2 vortex with four checkpoints, enough for every ledger
SMALL_CFG = """
grid.points_per_axis = 16
init.preset = stream_vortex
time.dt = 0.01
time.t_end = 0.03
"""


@pytest.fixture()
def restored(monkeypatch):
    """What a tool's `main` (`audit.import_bench`) changes is taken back
    afterwards: the thread variables, the entries it puts on sys.path and
    the bench modules it imports."""
    for var in THREADS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    loaded = set(sys.modules)
    yield
    for name in BENCH_MODULES:
        if name not in loaded:
            sys.modules.pop(name, None)


@pytest.fixture()
def small_cfg(tmp_path):
    """The path of a config file holding SMALL_CFG, the run's label."""
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


@pytest.fixture()
def audit_main(restored, small_cfg):
    """audit.main on SMALL_CFG with the arguments given."""
    return lambda *args: audit.main(["--config", small_cfg, *args])


@pytest.mark.parametrize("tool", ["audit", "pass_profile", "heap_churn"])
def test_importing_a_tool_changes_nothing(tool, monkeypatch):
    """Importing a tool sets no thread variable, adds no sys.path entry and
    imports no bench module: its `main` does those, through
    `audit.import_bench`."""
    for var in THREADS:
        monkeypatch.delenv(var, raising=False)
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    environ, path = dict(os.environ), list(sys.path)
    spec = importlib.util.spec_from_file_location(f"{tool}_copy",
                                                  os.path.join(audit.ROOT, "tools", f"{tool}.py"))
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert (dict(os.environ), sys.path) == (environ, path)
    assert not set(BENCH_MODULES) & set(sys.modules)


def test_audit_default_runs(restored):
    """The default runs are the two simulation workloads at seed 0 and the
    README's example config; --workload and --seed pick one run."""
    ap = argparse.ArgumentParser()
    audit.add_run_arguments(ap, required=False)
    audit.import_bench()
    configs = audit.runs(ap.parse_args([]))
    assert list(configs) == ["sim2d-vortex, seed 0", "sim3d-dense, seed 0", "README example"]
    assert configs["README example"]["grid.points_per_axis"] == 64
    assert list(audit.runs(ap.parse_args(["--workload", "sim3d-dense", "--seed", "3"]))) \
        == ["sim3d-dense, seed 3"]


def test_audit_two_runs_agree(audit_main, small_cfg, tmp_path, capsys):
    """Two runs of one config save the same audit: the sha256 of every file,
    ledgers included, and every phase's transform table by call site; and
    --against the first finds no entry that differs."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert audit_main("--out", str(first)) == 0
    saved = json.loads(first.read_text())
    assert list(saved) == [small_cfg]
    assert list(saved[small_cfg]["files"]) == sorted(
        [app.CONFIG_FILE, app.MANIFEST_FILE, app.SERIES_FILE]
        + [f"state_{n:06d}.nsb" for n in range(4)]
        + [f"ledgers/{name}.csv" for name in ("density_bounds", "energy", "integrability",
                                              "omega_budget", "transport", "v1_energy")])
    tables = saved[small_cfg]["transforms"]
    assert sorted(tables) == sorted(audit.PHASES)
    assert all(len(counts) == 3 for table in tables.values() for counts in table.values())
    capsys.readouterr()
    assert audit_main("--out", str(second), "--against", str(first)) == 0
    assert json.loads(second.read_text()) == saved
    assert capsys.readouterr().err == f"0 of {len(audit._entries(saved))} entries differ\n"


def test_audit_names_an_edited_byte(tmp_path):
    """One byte edited in one file of a run directory is named, and only
    that file; so is a ledger file removed."""
    config = app.parse_config(SMALL_CFG)
    for name in "ab":
        for _ in audit.phases(config, str(tmp_path / name)):
            pass
    want = audit.file_digest(str(tmp_path / "a"))
    rundir = tmp_path / "b"
    assert audit.file_digest(str(rundir)) == want

    def named():
        return [entry.split(": ")[0] for entry in audit.differences(
            {"run": {"files": want, "transforms": {}}},
            {"run": {"files": audit.file_digest(str(rundir)), "transforms": {}}})]
    path = rundir / "state_000002.nsb"
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01
    path.write_bytes(bytes(data))
    assert named() == ["run state_000002.nsb"]
    os.remove(rundir / "ledgers" / "energy.csv")
    assert named() == ["run ledgers/energy.csv", "run state_000002.nsb"]


def test_audit_census_totals_are_the_fixtures_counts(fft_calls, tmp_path):
    """Each phase's census table, summed over its call sites, counts the
    fields that the `fft_calls` fixture counts for the same calls: forward,
    and inverse plus block."""
    config = app.parse_config(SMALL_CFG)
    seen = []
    for phase, rows, failure in audit.phases(config, str(tmp_path / "run")):
        site, (forward, inverse, block) = rows[-1]
        assert failure is None and site == "total", (phase, failure)
        assert forward > 0 and inverse + block > 0, (phase, rows)
        assert (forward, inverse + block) == (fft_calls["rfftn_fields"],
                                              fft_calls["irfftn_fields"]), phase
        seen.append((phase, block))
        fft_calls.clear()
    assert [phase for phase, _ in seen] == list(audit.PHASES)
    assert any(block for _, block in seen), seen  # the block inverses are told apart


def test_audit_names_each_differing_entry(audit_main, small_cfg, tmp_path, capsys):
    """A saved file digest or count that differs, a saved row that the run
    lacks and a row that the saved audit lacks are each named, and the exit
    code is 1."""
    path = tmp_path / "audit.json"
    assert audit_main("--out", str(path)) == 0
    saved = json.loads(path.read_text())
    entries = len(audit._entries(saved))
    files, tables = saved[small_cfg]["files"], saved[small_cfg]["transforms"]
    sha = files[app.SERIES_FILE]
    files[app.SERIES_FILE] = "0" * 64
    total = tables["monitors"]["total"]
    tables["monitors"]["total"] = [total[0] + 1] + total[1:]
    tables["all"]["nowhere.py:ghost"] = [1, 0, 0]
    dropped = sorted(tables["simulate"])[0]
    lost = tables["simulate"].pop(dropped)
    path.write_text(json.dumps(saved))
    capsys.readouterr()
    assert audit_main("--against", str(path)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"differs: {small_cfg} all nowhere.py:ghost: [1, 0, 0] -> None",
        f"differs: {small_cfg} monitors total: {[total[0] + 1] + total[1:]} -> {total}",
        f"differs: {small_cfg} {app.SERIES_FILE}: {'0' * 64} -> {sha}",
        f"differs: {small_cfg} simulate {dropped}: None -> {lost}",
        f"4 of {entries} entries differ"]


def test_audit_names_a_failed_verification(audit_main, small_cfg, monkeypatch, capsys):
    """A verify suite that fails names its run and phase, and the exit code
    is 1."""
    real = app.verify
    monkeypatch.setattr(app, "verify", lambda outdir, suite="all": (
        app.VerifyResult(False, ["forced"]) if suite == "monitors" else real(outdir, suite)))
    assert audit_main() == 1
    assert capsys.readouterr().err == f"FAILED: {small_cfg} monitors: forced\n"


def test_pass_profile_times_every_add_and_field(restored, small_cfg, capsys):
    """On a 2-D 16^2 run of four checkpoints the profile lists every check
    and ledger that `verify --suite all` feeds, once per snapshot, and the
    snapshot's shared fields, each derived once per snapshot, each with its
    traced high-water: |u|^2's holds at least its grid array, and none
    exceeds the whole pass's, printed before its wall time; the timed and
    probed classes are as they were afterwards."""
    from torusns import diagnostics as diag
    before = dict(vars(diag._Snapshot)), dict(vars(diag.EnergyLedger))
    assert pass_profile.main(["--config", small_cfg]) == 0
    assert (dict(vars(diag._Snapshot)), dict(vars(diag.EnergyLedger))) == before
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"verify --suite all ({small_cfg})" and "pass wall time" in lines[-1]
    rows = [re.fullmatch(r"  (add \S+|_Snapshot\.\S+) +(\d+) +[\d.]+ +[\d.]+ +([\d.]+)", line)
            for line in lines]
    calls = {row[1]: int(row[2]) for row in rows if row}
    fed = ["_IdentitySuite", "_SeriesCrosscheck", "_Diagnostics", "BlowupMonitor",
           "EnergyLedger", "DensityBoundLedger", "IntegrabilityGain", "TransportEstimate",
           "GradOmegaBudget", "_AFunctional", "V1EnergyLedger"]
    assert {name[4:]: n for name, n in calls.items() if name.startswith("add ")} == \
        dict.fromkeys(fed, 4)
    shared = ("energy", "u_sq", "div_u", "v1", "div_v1", "v", "pressure", "release")
    assert {name: calls[f"_Snapshot.{name}"] for name in shared} == dict.fromkeys(shared, 4)
    high = {row[1]: float(row[3]) for row in rows if row}
    whole = re.fullmatch(r"  pass high-water: ([\d.]+) MiB", lines[-2])
    assert high["_Snapshot.u_sq"] >= 16 * 16 * 8 / 2 ** 10
    assert max(high.values()) <= float(whole[1]) * 2 ** 10 + 5.0   # printed to 0.01 MiB
