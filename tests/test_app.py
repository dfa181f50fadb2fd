"""Configuration, CLI entry points, persistence, and verification suites."""

import hashlib
import json
import math
import os
import shutil

import numpy as np
import pytest

from torusns import app, dynamics as dyn, spectral as sp

VORTEX_CFG = """
grid.dim = 2
grid.points_per_axis = 32
fluid.mu = 0.05
fluid.lambda = 0.05
init.preset = stream_vortex
init.amplitude = 0.5
time.dt = 0.01
time.t_end = 0.1
time.snapshot_every = 5
seed = 7
"""

MANUFACTURED_CFG = """
grid.dim = 2
grid.points_per_axis = 32
fluid.mu = 0.05
fluid.lambda = 0.05
init.preset = manufactured
init.density = 1.0
init.amplitude = 0.3
init.flux_constant = 0.3
forcing.preset = manufactured
time.dt = 0.02
time.t_end = 0.2
time.snapshot_every = 2
"""


class TestConfig:
    def test_defaults_and_parse(self):
        cfg = app.parse_config("time.dt = 0.01")
        assert cfg["grid.points_per_axis"] == 32
        assert cfg["time.dt"] == 0.01

    def test_comments_and_blank_lines(self):
        cfg = app.parse_config("# top\n\ntime.dt = 0.01  # trailing\n")
        assert cfg["time.dt"] == 0.01

    def test_all_errors_reported_at_once(self):
        bad = "\n".join([
            "grid.dim = 5",
            "grid.points_per_axis = 17",
            "fluid.mu = -1",
            "init.preset = nonsense",
            "unknown.key = 3",
        ])
        with pytest.raises(app.ConfigError) as err:
            app.parse_config(bad)
        messages = err.value.errors
        assert len(messages) >= 5
        assert any("grid.dim" in m for m in messages)
        assert any("unknown key" in m for m in messages)
        assert any("time.dt or time.cfl" in m for m in messages)

    def test_canonical_hash_stable_under_reordering(self):
        a = app.parse_config("time.dt = 0.01\nfluid.mu = 0.2")
        b = app.parse_config("fluid.mu = 0.2\ntime.dt = 0.01")
        assert a.digest() == b.digest()


class TestSimulate:
    def test_equilibrium_run_succeeds(self, tmp_path):
        cfg = app.parse_config("init.preset = equilibrium\ntime.dt = 0.01\n"
                               "time.t_end = 0.05")
        bundle = app.simulate(cfg, str(tmp_path))
        assert bundle.manifest["stop_reason"] == "completed"
        rows = open(os.path.join(bundle.outdir, app.SERIES_FILE)).read().splitlines()
        assert len(rows) == bundle.manifest["snapshots"] + 1

    def test_manifest_lists_every_file(self, tmp_path):
        cfg = app.parse_config(VORTEX_CFG)
        bundle = app.simulate(cfg, str(tmp_path))
        listed = {entry["name"] for entry in bundle.manifest["files"]}
        on_disk = {name for name in os.listdir(tmp_path)
                   if name != app.MANIFEST_FILE}
        assert listed == on_disk

    def test_determinism_bit_identical_csv(self, tmp_path):
        cfg = app.parse_config(VORTEX_CFG)
        b1 = app.simulate(cfg, str(tmp_path / "a"))
        b2 = app.simulate(cfg, str(tmp_path / "b"))
        csv1 = open(os.path.join(b1.outdir, app.SERIES_FILE), "rb").read()
        csv2 = open(os.path.join(b2.outdir, app.SERIES_FILE), "rb").read()
        assert csv1 == csv2
        assert b1.manifest["config_hash"] == b2.manifest["config_hash"]
        assert (json.dumps(b1.manifest["files"])
                == json.dumps(b2.manifest["files"]))

    def test_vacuum_stop_recorded_in_manifest(self, tmp_path):
        cfg = app.parse_config(
            "init.preset = density_bump\ninit.u_amplitude = 3.0\n"
            "fluid.mu = 0.005\nfluid.lambda = 0.0\nfluid.a = 0.01\n"
            "time.cfl = 0.4\ntime.t_end = 5.0\ntime.vacuum_floor = 0.005\n"
            "time.snapshot_every = 10")
        bundle = app.simulate(cfg, str(tmp_path))
        assert bundle.manifest["stop_reason"] == "vacuum"

    def test_convergence_study_order_four(self, tmp_path):
        cfg = app.parse_config(MANUFACTURED_CFG)
        rows = app.convergence_study(cfg, levels=3, outdir=str(tmp_path))
        orders = [r[2] for r in rows[1:]]
        assert all(3.7 < o < 4.3 for o in orders)
        assert os.path.exists(os.path.join(tmp_path, "convergence.csv"))

    def test_convergence_rejects_other_presets(self, tmp_path):
        cfg = app.parse_config(VORTEX_CFG)
        with pytest.raises(app.ConfigError):
            app.convergence_study(cfg, outdir=str(tmp_path))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("run"))
    app.simulate(app.parse_config(VORTEX_CFG), outdir)
    return outdir


class TestVerify:
    def test_identities_pass_on_fresh_run(self, run_dir):
        result = app.verify(run_dir, "identities")
        assert result.ok, result.failures

    def test_inequalities_emit_ledger_csvs(self, run_dir):
        result = app.verify(run_dir, "inequalities")
        assert result.ok
        ledger_dir = os.path.join(run_dir, "ledgers")
        files = os.listdir(ledger_dir)
        assert "energy.csv" in files and "density_bounds.csv" in files
        header = open(os.path.join(ledger_dir, "energy.csv")).readline()
        assert header.strip().split(",")[0] == "time"

    def test_monitors_consistent(self, run_dir):
        result = app.verify(run_dir, "monitors")
        assert result.ok, result.failures

    def test_corrupted_checkpoint_fails(self, tmp_path):
        outdir = str(tmp_path)
        app.simulate(app.parse_config(VORTEX_CFG), outdir)
        victim = os.path.join(outdir, "state_000001.nsb")
        data = bytearray(open(victim, "rb").read())
        data[200] ^= 0xFF  # flip one payload byte
        open(victim, "wb").write(bytes(data))
        result = app.verify(outdir, "identities")
        assert not result.ok
        assert any("state_000001" in f for f in result.failures)

    @staticmethod
    def _with_nan(run_dir, tmp_path, sample_index):
        """Copy of the run with one NaN sample in state_000001 (rho comes
        first in the payload) and a manifest checksum that still matches."""
        outdir = str(tmp_path / "nan")
        shutil.copytree(run_dir, outdir)
        name = "state_000001.nsb"
        path = os.path.join(outdir, name)
        data = bytearray(open(path, "rb").read())
        offset = data.index(b"\n") + 1 + 8 * sample_index
        data[offset:offset + 8] = np.array(np.nan, dtype="<f8").tobytes()
        open(path, "wb").write(bytes(data))
        manifest_path = os.path.join(outdir, app.MANIFEST_FILE)
        manifest = json.load(open(manifest_path))
        for entry in manifest["files"]:
            if entry["name"] == name:
                entry["sha256"] = hashlib.sha256(bytes(data)).hexdigest()
        json.dump(manifest, open(manifest_path, "w"))
        return outdir

    def test_nan_velocity_fails_identities(self, run_dir, tmp_path):
        outdir = self._with_nan(run_dir, tmp_path, 32 * 32 + 5)
        result = app.verify(outdir, "identities")
        assert not result.ok
        assert any(f.startswith("state 1:") and "nan" in f for f in result.failures)

    def test_nan_density_fails_series_crosscheck(self, run_dir, tmp_path):
        outdir = self._with_nan(run_dir, tmp_path, 5)
        result = app.verify(outdir, "identities")
        assert any(f.startswith("snapshot 1: stored mass") for f in result.failures)

    def test_nan_fails_monitors(self, run_dir, tmp_path):
        outdir = self._with_nan(run_dir, tmp_path, 32 * 32 + 5)
        result = app.verify(outdir, "monitors")
        assert "snapshot 1: non-finite samples" in result.failures

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            app.verify(str(tmp_path))

    def test_unknown_suite_rejected(self, run_dir):
        with pytest.raises(ValueError):
            app.verify(run_dir, "everything")


class TestAnalyze:
    def test_zero_field_norms(self, tmp_path):
        grid = sp.TorusGrid(2, 16)
        state = dyn.FluidState(sp.ScalarField.zero(grid),
                               sp.VectorField.zero(grid), 0.0)
        path = os.path.join(tmp_path, "zero.nsb")
        dyn.write_checkpoint(path, state)
        rows = app.analyze(path, [(0.0, 2.0, 2.0)])
        assert all(value == 0.0 for _, _, value in rows)

    def test_besov_matches_direct_sum(self, tmp_path):
        from torusns import littlewood_paley as lp
        grid = sp.TorusGrid(2, 32)
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        state = dyn.FluidState(f + sp.ScalarField.constant(grid, 2.0),
                               sp.VectorField.zero(grid), 0.0)
        path = os.path.join(tmp_path, "cos.nsb")
        dyn.write_checkpoint(path, state)
        rows = app.analyze(path, [(0.0, 2.0, 2.0)])
        part = lp.build_partition(grid)
        expected = lp.besov_norm(part, state.rho, lp.BesovSpec(0.0, 2, 2))
        got = [v for name, norm, v in rows if name == "rho" and norm.startswith("B^0")]
        assert abs(got[0] - expected) < 1e-12

    def test_malformed_header_names_offset(self, tmp_path):
        path = os.path.join(tmp_path, "junk.nsb")
        open(path, "wb").write(b"NSLAB1 2 bad 3 0.0\nxxxx")
        with pytest.raises(dyn.CheckpointError, match="byte offset 9"):
            app.analyze(path, [])


class TestTrace:
    def test_stationary_paths(self, tmp_path):
        cfg = app.parse_config("init.preset = equilibrium\ntime.dt = 0.01\n"
                               "time.t_end = 0.05")
        bundle = app.trace(cfg, 4, str(tmp_path))
        lines = open(os.path.join(bundle.outdir, app.PATHS_FILE)).read().splitlines()
        header, rows = lines[0], lines[1:]
        assert header == "time,particle,x0,x1"
        first = np.array([[float(v) for v in r.split(",")[2:]] for r in rows[:4]])
        last = np.array([[float(v) for v in r.split(",")[2:]] for r in rows[-4:]])
        assert np.max(np.abs(first - last)) < 1e-12

    def test_uniform_seeds_count_and_range(self):
        grid = sp.TorusGrid(2, 16)
        seeds = app.uniform_seeds(grid, 7)
        assert seeds.shape == (7, 2)
        assert np.all(seeds >= 0) and np.all(seeds < 2 * np.pi)
        with pytest.raises(ValueError):
            app.uniform_seeds(grid, 0)


class TestCli:
    def test_simulate_and_verify_exit_codes(self, tmp_path):
        cfg_path = os.path.join(tmp_path, "run.cfg")
        open(cfg_path, "w").write(VORTEX_CFG + f"\noutput.dir = {tmp_path}/out\n")
        assert app.main(["simulate", "--config", cfg_path]) == 0
        assert app.main(["verify", "--dir", f"{tmp_path}/out",
                         "--suite", "identities"]) == 0

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        cfg_path = os.path.join(tmp_path, "bad.cfg")
        open(cfg_path, "w").write("grid.dim = 9\ntime.dt = 0.01\n")
        assert app.main(["simulate", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert "grid.dim" in err

    def test_abnormal_stop_exit_code(self, tmp_path):
        cfg_path = os.path.join(tmp_path, "vac.cfg")
        open(cfg_path, "w").write(
            "init.preset = density_bump\ninit.u_amplitude = 3.0\n"
            "fluid.mu = 0.005\nfluid.lambda = 0.0\nfluid.a = 0.01\n"
            "time.cfl = 0.4\ntime.t_end = 5.0\ntime.vacuum_floor = 0.005\n"
            f"output.dir = {tmp_path}/out\n")
        assert app.main(["simulate", "--config", cfg_path]) == 3

    def test_verification_failure_exit_code(self, tmp_path):
        cfg_path = os.path.join(tmp_path, "run.cfg")
        open(cfg_path, "w").write(VORTEX_CFG)
        app.main(["simulate", "--config", cfg_path, "--out", f"{tmp_path}/out"])
        victim = os.path.join(f"{tmp_path}/out", "state_000000.nsb")
        data = bytearray(open(victim, "rb").read())
        data[-4] ^= 0x01
        open(victim, "wb").write(bytes(data))
        assert app.main(["verify", "--dir", f"{tmp_path}/out"]) == 2
