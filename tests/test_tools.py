"""The scripts under tools/."""

import importlib.util
import json
import os
import pathlib
import re
import sys

import pytest

from torusns import app

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"

#: a 2-D 16^2 vortex with four checkpoints, enough for every ledger
SMALL_CFG = """
grid.points_per_axis = 16
init.preset = stream_vortex
time.dt = 0.01
time.t_end = 0.03
"""


@pytest.fixture()
def output_digest(monkeypatch):
    """tools/output_digest.py as a module.  What its import changes is taken
    back afterwards: the thread variables, the entries it puts on sys.path
    and the bench modules (`child`, `workloads`) it imports."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    loaded = set(sys.modules)
    spec = importlib.util.spec_from_file_location("output_digest", TOOLS / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("child", "workloads"):
        if name not in loaded:
            sys.modules.pop(name, None)


def test_output_digest_default_runs(output_digest):
    """The default runs are the two simulation workloads at seed 0 and the
    README's example config."""
    configs = output_digest._configs()
    assert list(configs) == ["sim2d-vortex", "sim3d-dense", "README example"]
    assert configs["README example"]["grid.points_per_axis"] == 64


def test_output_digest_two_runs_agree(output_digest, monkeypatch, tmp_path, capsys):
    """Two runs of one config print the same digest of every file, ledgers
    included, and --against the first finds no difference; a digest entry
    that differs is named and exits 1.  The default runs are swapped for
    one small run."""
    monkeypatch.setattr(output_digest, "_configs", lambda: {"small": app.parse_config(SMALL_CFG)})
    assert output_digest.main([]) == 0
    first = json.loads(capsys.readouterr().out)
    names = list(first["small"])
    assert names == sorted([app.CONFIG_FILE, app.MANIFEST_FILE, app.SERIES_FILE]
                           + [f"state_{n:06d}.nsb" for n in range(4)]
                           + [f"ledgers/{name}.csv" for name in (
                               "density_bounds", "energy", "integrability",
                               "omega_budget", "transport", "v1_energy")])
    saved = tmp_path / "digest.json"
    saved.write_text(json.dumps(first))
    assert output_digest.main(["--against", str(saved)]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out) == first and out.err == f"0 of {len(names)} files differ\n"

    first["small"][app.SERIES_FILE] = "0" * 64
    saved.write_text(json.dumps(first))
    assert output_digest.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().err == (f"differs: small/{app.SERIES_FILE}\n"
                                       f"1 of {len(names)} files differ\n")


def test_output_digest_names_an_edited_byte(output_digest, tmp_path):
    """One byte edited in one file of a run directory is named, and only
    that file."""
    config = app.parse_config(SMALL_CFG)
    want = output_digest.run_digest(config, str(tmp_path / "a"))
    rundir = tmp_path / "b"
    assert output_digest.run_digest(config, str(rundir)) == want
    path = rundir / "state_000002.nsb"
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01
    path.write_bytes(bytes(data))
    got = output_digest.file_digest(str(rundir))
    assert output_digest.differences({"run": want}, {"run": got}) == ["run/state_000002.nsb"]
    os.remove(rundir / "ledgers" / "energy.csv")
    assert output_digest.differences({"run": want}, {"run": output_digest.file_digest(
        str(rundir))}) == ["run/ledgers/energy.csv", "run/state_000002.nsb"]


def test_transform_census_import_changes_nothing(monkeypatch):
    """Importing the census sets no thread variable, adds no sys.path entry
    and imports no bench module: `main` does those."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    environ, path, modules = dict(os.environ), list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("census_copy", TOOLS / "transform_census.py")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert (dict(os.environ), sys.path) == (environ, path)
    assert not {"child", "workloads"} & (set(sys.modules) - modules)


def test_transform_census_totals_are_the_fixtures_counts(transform_census, fft_calls, tmp_path):
    """Each phase's census table, summed over its call sites, counts the
    fields that the `fft_calls` fixture counts for the same calls: forward,
    and inverse plus block."""
    config = app.parse_config(SMALL_CFG)
    seen = []
    for phase, rows, failure in transform_census.phases(config, str(tmp_path / "run")):
        site, (forward, inverse, block) = rows[-1]
        assert failure is None and site == "total", (phase, failure)
        assert forward > 0 and inverse + block > 0, (phase, rows)
        assert (forward, inverse + block) == (fft_calls["rfftn_fields"],
                                              fft_calls["irfftn_fields"]), phase
        seen.append((phase, block))
        fft_calls.clear()
    assert [phase for phase, _ in seen] == list(transform_census.PHASES)
    assert any(block for _, block in seen), seen  # the block inverses are told apart


@pytest.fixture()
def census_main(transform_census, monkeypatch, tmp_path):
    """transform_census.main on SMALL_CFG with the arguments given.  What
    `main` changes is taken back afterwards: the thread variables, the
    entries it puts on sys.path and the bench modules it imports."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    loaded = set(sys.modules)
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CFG)
    yield lambda *args: transform_census.main(["--config", str(config), *args])
    for name in ("child", "workloads"):
        if name not in loaded:
            sys.modules.pop(name, None)


def test_transform_census_saved_tables_agree(census_main, tmp_path, capsys):
    """--out saves every phase's table by call site, and a second run of
    the same config --against it finds no row that differs."""
    saved = tmp_path / "census.json"
    assert census_main("--out", str(saved)) == 0
    tables = json.loads(saved.read_text())
    assert list(tables) == ["simulate", "identities", "inequalities", "monitors", "all"]
    assert all(len(counts) == 3 for table in tables.values() for counts in table.values())
    capsys.readouterr()
    assert census_main("--against", str(saved)) == 0
    rows = sum(map(len, tables.values()))
    assert capsys.readouterr().err == f"0 of {rows} rows differ\n"


def test_transform_census_names_each_differing_row(census_main, tmp_path, capsys):
    """A saved count that differs, a saved row that the run lacks and a row
    that the saved tables lack are each named, and the exit code is 1."""
    saved = tmp_path / "census.json"
    assert census_main("--out", str(saved)) == 0
    tables = json.loads(saved.read_text())
    rows = sum(map(len, tables.values()))
    total = tables["monitors"]["total"]
    tables["monitors"]["total"] = [total[0] + 1] + total[1:]
    tables["all"]["nowhere.py:ghost"] = [1, 0, 0]
    dropped = sorted(tables["simulate"])[0]
    lost = tables["simulate"].pop(dropped)
    saved.write_text(json.dumps(tables))
    capsys.readouterr()
    assert census_main("--against", str(saved)) == 1
    assert capsys.readouterr().err.splitlines() == [
        "differs: all nowhere.py:ghost: [1, 0, 0] -> None",
        f"differs: monitors total: {[total[0] + 1] + total[1:]} -> {total}",
        f"differs: simulate {dropped}: None -> {lost}",
        f"3 of {rows} rows differ"]


@pytest.fixture()
def pass_profile(monkeypatch):
    """tools/pass_profile.py as a module.  What its `main` changes is taken
    back afterwards: the thread variables, the entries it puts on sys.path
    and the bench modules it imports."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    loaded = set(sys.modules)
    spec = importlib.util.spec_from_file_location("pass_profile", TOOLS / "pass_profile.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("child", "workloads"):
        if name not in loaded:
            sys.modules.pop(name, None)


def test_pass_profile_times_every_add_and_field(pass_profile, tmp_path, capsys):
    """On a 2-D 16^2 run of four checkpoints the profile lists every check
    and ledger that `verify --suite all` feeds, once per snapshot, and the
    snapshot's shared fields, each derived once per snapshot; the timed
    classes are as they were afterwards."""
    from torusns import diagnostics as diag
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CFG)
    before = dict(vars(diag._Snapshot)), dict(vars(diag.EnergyLedger))
    assert pass_profile.main(["--config", str(config)]) == 0
    assert (dict(vars(diag._Snapshot)), dict(vars(diag.EnergyLedger))) == before
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"verify --suite all ({config})" and "pass wall time" in lines[-1]
    rows = [re.fullmatch(r"  (add \S+|_Snapshot\.\S+) +(\d+) +[\d.]+ +[\d.]+", line)
            for line in lines]
    calls = {row[1]: int(row[2]) for row in rows if row}
    fed = ["_IdentitySuite", "_SeriesCrosscheck", "_Diagnostics", "BlowupMonitor",
           "EnergyLedger", "DensityBoundLedger", "IntegrabilityGain", "TransportEstimate",
           "GradOmegaBudget", "_AFunctional", "V1EnergyLedger"]
    assert {name[4:]: n for name, n in calls.items() if name.startswith("add ")} == \
        dict.fromkeys(fed, 4)
    shared = ("energy", "div_u", "div_v1", "velocities", "pressure", "release")
    assert {name: calls[f"_Snapshot.{name}"] for name in shared} == dict.fromkeys(shared, 4)
