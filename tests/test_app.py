"""Configuration, CLI entry points, persistence, and verification suites."""

import hashlib
import json
import math
import os
import shutil
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusns import app, diagnostics as diag, dynamics as dyn, spectral as sp
from torusns import littlewood_paley as lp

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

FORCED_3D_CFG = """
grid.dim = 3
grid.points_per_axis = 16
fluid.mu = 0.05
fluid.lambda = 0.05
fluid.gamma = 1.4
forcing.preset = constant
forcing.amplitude = 0.2
init.preset = density_bump
init.amplitude = 0.3
init.u_amplitude = 0.2
time.dt = 0.01
time.t_end = 0.03
time.snapshot_every = 1
"""

#: the README's example run at 64^2, with adaptive steps at cfl 0.12
README_VORTEX_CFG = """
grid.dim = 2
grid.points_per_axis = 64
fluid.mu = 0.05
fluid.lambda = 0.05
fluid.a = 1.0
fluid.gamma = 2.0
init.preset = stream_vortex
init.amplitude = 0.5
time.cfl = 0.12
time.t_end = 1.0
time.snapshot_every = 10
monitor.epsilon = 0.5
monitor.p_gain = 4
seed = 0
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

    @pytest.mark.parametrize("key, value", [
        ("fluid.mu", "nan"), ("time.t_end", "inf"), ("monitor.q_density", "-inf"),
        ("init.amplitude", "NaN"), ("time.dt", "1e999")])
    def test_non_finite_float_rejected(self, key, value):
        # parsed only: a run with time.t_end = inf would step until max_steps
        with pytest.raises(app.ConfigError, match=key):
            app.parse_config(f"time.cfl = 0.5\n{key} = {value}")

    def test_q_density_below_one_reported_with_the_others(self):
        with pytest.raises(app.ConfigError) as err:
            app.parse_config("time.dt = 0.01\nmonitor.q_density = 0.5\nfluid.mu = -1")
        messages = err.value.errors
        assert any("monitor.q_density" in m for m in messages)
        assert any("fluid.mu" in m for m in messages)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.builds("{} = {}".format, st.sampled_from(sorted(app.CONFIG_SCHEMA)),
                  st.one_of(st.sampled_from(["nan", "-inf", "Infinity", "1e999"]),
                            st.floats().map(repr), st.integers().map(str),
                            st.text(max_size=12))),
        st.text(max_size=40)), max_size=8))
    def test_any_text_gives_finite_floats_or_config_error(self, lines):
        try:
            cfg = app.parse_config("\n".join(["time.dt = 0.01"] + lines))
        except app.ConfigError:
            return
        assert all(math.isfinite(v) for v in cfg.values.values()
                   if isinstance(v, float))

    def test_constant_forcing_built_once_per_grid(self, fft_calls):
        problem = app.build_problem(app.parse_config(FORCED_3D_CFG))
        first = problem.params.forcing_field(0.0, problem.grid)
        fft_calls.clear()
        again = problem.params.forcing_field(0.37, problem.grid)
        assert fft_calls["rfftn"] + fft_calls["irfftn"] == 0
        assert np.array_equal(again.samples, first.samples)
        assert np.all(first.samples[0] == 0.2) and not np.any(first.samples[1:])

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

    def test_manifest_records_the_step_count(self, tmp_path):
        bundle = app.simulate(app.parse_config(VORTEX_CFG), str(tmp_path))
        assert bundle.trajectory.step_count == 10
        assert bundle.manifest["step_count"] == 10
        assert all(entry["name"] != "step_count" for entry in bundle.manifest["files"])
        _, _, run, _ = app._load_run(str(tmp_path))
        assert run.step_count == 10

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


def _with_manifest(run_dir, tmp_path, edit) -> str:
    """A copy of the run directory whose manifest is edit(manifest)."""
    outdir = os.path.join(tmp_path, "run")
    shutil.copytree(run_dir, outdir)
    path = os.path.join(outdir, app.MANIFEST_FILE)
    with open(path) as fh:
        manifest = json.load(fh)
    with open(path, "w") as fh:
        json.dump(edit(manifest), fh)
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
    def _with_nan(run_dir, tmp_path, sample_index, value=np.nan):
        """Copy of the run with one NaN (or other `value`) sample in
        state_000001 (rho comes first in the payload) and a manifest checksum
        that still matches."""
        outdir = str(tmp_path / "nan")
        shutil.copytree(run_dir, outdir)
        name = "state_000001.nsb"
        path = os.path.join(outdir, name)
        data = bytearray(open(path, "rb").read())
        offset = data.index(b"\n") + 1 + 8 * sample_index
        data[offset:offset + 8] = np.array(value, dtype="<f8").tobytes()
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

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("index, names", [
        (5, ("riesz_trace", "dyadic_reconstruction", "parseval_gap")),
        (32 * 32 + 5, ("div_v1", "leray_divergence", "leray_curl"))], ids=["rho", "u"])
    def test_non_finite_sample_fails_identities_by_name(self, run_dir, tmp_path, value,
                                                        index, names):
        """A NaN or inf sample makes the coefficient bounds of the residuals
        it reaches NaN, so they are sampled, and fail under their names."""
        result = app.verify(self._with_nan(run_dir, tmp_path, index, value), "identities")
        failed = {f.split()[2] for f in result.failures if f.startswith("state 1: ")}
        assert set(names) <= failed, result.failures

    def test_residual_over_tolerance_reports_its_sampled_sup(self, run_dir, monkeypatch):
        """A residual whose bound exceeds the tolerance is judged and reported
        by its sampled sup norm, not by the bound."""
        grid = sp.TorusGrid(2, 32)
        extra = sp.random_field(grid, np.random.default_rng(0)) * 1e-6
        riesz = sp.riesz_composite
        monkeypatch.setattr(sp, "riesz_composite", lambda i, j, f: riesz(i, j, f) + extra
                            if i == j == 0 else riesz(i, j, f))
        sup = sp.lebesgue_norm(extra, math.inf)
        assert sp.coefficient_sup_bound(extra) > 2.0 * sup
        result = app.verify(run_dir, "identities")
        assert result.failures == [f"state {n}: riesz_trace residual {sup:.3e}"
                                   for n in range(3)]

    def test_nan_density_fails_series_crosscheck(self, run_dir, tmp_path):
        outdir = self._with_nan(run_dir, tmp_path, 5)
        result = app.verify(outdir, "identities")
        assert any(f.startswith("snapshot 1: stored mass") for f in result.failures)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_sample_fails_inequalities_by_ledger(self, run_dir, tmp_path, capsys):
        """A NaN sample makes every empirical constant NaN, and each is a
        failure that names its ledger (exit code 2), not a silent pass."""
        outdir = self._with_nan(run_dir, tmp_path, 32 * 32 + 5)
        assert app.main(["verify", "--dir", outdir, "--suite", "inequalities"]) == 2
        out = capsys.readouterr().out
        for name in ("energy", "density_bounds", "integrability", "transport",
                     "omega_budget", "v1_energy"):
            assert f"FAIL ledger {name}: empirical constant nan is not finite" in out, out

    @staticmethod
    def _with_cell(run_dir, tmp_path, row, column, edit):
        """Copy of the run whose series cell (row, column) is edit(cell), as
        float, under a manifest checksum that still matches."""
        outdir = str(tmp_path / "run")
        shutil.copytree(run_dir, outdir)
        path = os.path.join(outdir, app.SERIES_FILE)
        lines = open(path).read().splitlines()
        cells = lines[row + 1].split(",")
        i = lines[0].split(",").index(column)
        cells[i] = repr(float(edit(float(cells[i]))))
        lines[row + 1] = ",".join(cells)
        open(path, "w").write("".join(line + "\n" for line in lines))
        _rewrite_checksum(outdir, app.SERIES_FILE)
        return outdir

    @pytest.mark.parametrize("column", [c for c in diag.RECORD_COLUMNS
                                        if c not in ("dissipation_cum", "forcing_work_cum")])
    def test_edited_series_cell_fails_identities(self, run_dir, tmp_path, column):
        """Every column but the two stage quadratures is recomputed and
        compared exactly: one cell moved by one ulp (a flag flipped from 1.0
        to 0.0), under a re-hashed manifest, fails with its column named."""
        move = (lambda x: 1.0 - x) if column in ("finite", "positive") \
            else (lambda x: np.nextafter(x, np.inf))
        outdir = self._with_cell(run_dir, tmp_path, 1, column, move)
        result = app.verify(outdir, "identities")
        assert any(f.startswith(f"snapshot 1: stored {column}=") for f in result.failures), \
            result.failures

    @pytest.mark.parametrize("row, column, edit, fault", [
        (1, "dissipation_cum", lambda x: math.nan, "is not finite"),
        (2, "forcing_work_cum", lambda x: math.inf, "is not finite"),
        (0, "dissipation_cum", lambda x: 1e-300, "is not 0.0"),
        (0, "forcing_work_cum", lambda x: -1e-300, "is not 0.0"),
        (2, "dissipation_cum", lambda x: 0.0, "decreases from"),
    ], ids=["nan", "inf", "dissipation-start", "work-start", "decrease"])
    def test_stage_quadrature_cell_fails_identities(self, run_dir, tmp_path, row, column,
                                                    edit, fault):
        """The stage quadratures, which the checkpoints cannot reproduce, must
        be finite, start at 0.0, and the dissipation must not decrease: each
        violation fails with its column and row named."""
        outdir = self._with_cell(run_dir, tmp_path, row, column, edit)
        failures = [f for f in app.verify(outdir, "identities").failures if "_cum=" in f]
        assert len(failures) == 1, failures
        assert failures[0].startswith(f"snapshot {row}: stored {column}=") \
            and fault in failures[0], failures

    def test_nan_fails_monitors(self, run_dir, tmp_path):
        outdir = self._with_nan(run_dir, tmp_path, 32 * 32 + 5)
        result = app.verify(outdir, "monitors")
        assert "snapshot 1: non-finite samples" in result.failures

    def test_monitor_stop_is_not_flagged(self):
        """A run stopped by the CFL check (a fixed dt above the limit) is one
        abnormal stop for both the density criterion and the monitor suite,
        so the suite finds nothing."""
        problem = app.build_problem(app.parse_config(
            "grid.points_per_axis = 16\ninit.preset = stream_vortex\n"
            "init.amplitude = 0.5\ntime.dt = 0.5\ntime.t_end = 1.0\n"))
        traj = dyn.run(problem.initial, problem.params, problem.solver)
        assert traj.stop_reason == "cfl"
        suite = app._MonitorSuite(traj, problem.monitor)
        diag.feed([suite], traj.params, len(traj), traj.states.__getitem__)
        assert suite.finish() == []

    @pytest.mark.parametrize("edit", [
        lambda lines: [],
        lambda lines: lines[:2] + [",".join(lines[2].split(",")[:2])] + lines[3:],
        lambda lines: [lines[0].replace("rho_linf", "rho_sup")] + lines[1:],
        lambda lines: lines[:2] + [lines[2].replace(",", ",x", 1)] + lines[3:],
        lambda lines: [lines[0] + ",extra"] + [line + ",0.0" for line in lines[1:]],
        lambda lines: [",".join(c[:1] + [c[2], c[1]] + c[3:])  # mass and min_rho swapped
                       for c in (line.split(",") for line in lines)],
    ], ids=["empty", "short-row", "missing-column", "non-numeric", "extra-column",
            "reordered"])
    def test_malformed_series_fails_identities(self, run_dir, tmp_path, capsys, edit):
        """A series file that the manifest's checksum matches but that cannot
        be read as the series is a named identities failure, not an error."""
        outdir = str(tmp_path / "run")
        shutil.copytree(run_dir, outdir)
        path = os.path.join(outdir, app.SERIES_FILE)
        lines = open(path).read().splitlines()
        open(path, "w").write("".join(line + "\n" for line in edit(lines)))
        _rewrite_checksum(outdir, app.SERIES_FILE)
        assert app.main(["verify", "--dir", outdir, "--suite", "identities"]) == 2
        out = capsys.readouterr().out
        assert f"FAIL {app.SERIES_FILE}" in out, out

    def test_two_snapshot_run_skips_time_differenced_ledgers(self, tmp_path):
        cfg_path = os.path.join(tmp_path, "two.cfg")
        open(cfg_path, "w").write(
            "grid.points_per_axis = 16\ninit.preset = stream_vortex\n"
            "time.dt = 0.01\ntime.t_end = 0.02\ntime.snapshot_every = 2\n"
            f"output.dir = {tmp_path}/out\n")
        assert app.main(["simulate", "--config", cfg_path]) == 0
        assert app.main(["verify", "--dir", f"{tmp_path}/out"]) == 0
        reports = app.verify(f"{tmp_path}/out").reports
        assert "energy" in reports
        assert "omega_budget" not in reports and "v1_energy" not in reports

    def test_transform_budget_of_verify_all(self, tmp_path, fft_calls):
        """Sup-norm Besov terms transform only the blocks their l^1 bound
        leaves open, the identity residuals are certified by their coefficient
        bounds and transform nothing, and every ledger and suite shares each
        snapshot's pressure, grad u, v1, G and curl u: 72 forward and 127
        inverse fields here (84 and 175 when the residuals were sampled and
        the Coifman flux took dim^2 products; 72 and 119 before the series
        check recomputed every column, which adds the samples of G and the
        epsilon-Besov block of each of the 4 snapshots)."""
        outdir = str(tmp_path / "run")
        app.simulate(app.parse_config(FORCED_3D_CFG), outdir)
        fft_calls.clear()
        assert app.verify(outdir, "all").ok
        assert (fft_calls["rfftn_fields"], fft_calls["irfftn_fields"]) == (72, 127)

    def test_transform_budget_of_compute_diagnostics(self, fft_calls):
        """The v1 residual columns are coefficient bounds and the potential a
        sample sum, so neither transforms, while each snapshot's density
        coefficients come from its samples: 20 forward and 44 inverse fields
        on these 4 snapshots (20 and 72 when the residuals were sampled, the
        potential's mean mode was transformed and the density's coefficients
        were the stepper's)."""
        problem = app.build_problem(app.parse_config(FORCED_3D_CFG))
        traj = dyn.run(problem.initial, problem.params, problem.solver)
        partition = lp.build_partition(problem.grid)
        fft_calls.clear()
        diag.compute_diagnostics(traj, problem.monitor, partition)
        assert (fft_calls["rfftn_fields"], fft_calls["irfftn_fields"]) == (20, 44)

    def test_pressure_law_evaluated_once_per_snapshot(self, tmp_path, monkeypatch):
        """`verify --suite all` evaluates P(rho) and P'(rho) once each per
        checkpoint, shared by every suite and ledger (8 and 6 times on these
        4 checkpoints when the A functional and the d_t v formula evaluated
        the law themselves)."""
        outdir = str(tmp_path / "run")
        app.simulate(app.parse_config(FORCED_3D_CFG), outdir)
        calls = {"__call__": 0, "derivative": 0}
        for name in calls:
            def counted(law, s, _real=getattr(dyn.PowerLaw, name), _name=name):
                calls[_name] += 1
                return _real(law, s)
            monkeypatch.setattr(dyn.PowerLaw, name, counted)
        assert app.verify(outdir, "all").ok
        assert calls == {"__call__": 4, "derivative": 4}

    def test_listed_directory_is_a_missing_file(self, run_dir, tmp_path):
        outdir = _with_manifest(run_dir, tmp_path, lambda m: {
            **m, "files": m["files"] + [{"name": "sub", "sha256": "0"}]})
        os.mkdir(os.path.join(outdir, "sub"))
        result = app.verify(outdir, "monitors")
        assert not result.ok and result.failures == ["missing file sub"]

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            app.verify(str(tmp_path))

    def test_unknown_suite_rejected(self, run_dir):
        with pytest.raises(ValueError):
            app.verify(run_dir, "everything")


@pytest.mark.parametrize("text", [VORTEX_CFG, FORCED_3D_CFG, README_VORTEX_CFG],
                         ids=["2d-vortex", "3d-forced", "readme-vortex"])
def test_series_rows_recomputed_from_checkpoints(tmp_path, text):
    """`compute_diagnostics` fed the checkpoints read back writes the rows
    that `simulate` wrote, cell for cell, except the two stage quadratures,
    which only the run holds; a NaN cell would fail."""
    outdir = str(tmp_path / "run")
    app.simulate(app.parse_config(text), outdir)
    _, problem, run, paths = app._load_run(outdir)
    run.states = [dyn.read_checkpoint(path) for path in paths]
    records = diag.compute_diagnostics(run, problem.monitor, lp.build_partition(problem.grid))
    lines = open(os.path.join(outdir, app.SERIES_FILE)).read().splitlines()
    header = lines[0].split(",")
    assert len(lines) == len(records) + 1
    for n, (line, record) in enumerate(zip(lines[1:], records)):
        for column, cell, value in zip(header, line.split(","), record.row()):
            if column not in ("dissipation_cum", "forcing_work_cum"):
                assert float(cell) == value, (n, column, cell, value)


#: 2-D forced vortex with a snapshot every step; `{t_end}` sets their count
STREAM_CFG = """
grid.points_per_axis = {m}
init.preset = stream_vortex
init.amplitude = 0.5
forcing.preset = constant
forcing.amplitude = 0.2
time.dt = 0.005
time.t_end = {t_end!r}
"""


def _stream_run(outdir, snapshots, m=16):
    app.simulate(app.parse_config(STREAM_CFG.format(m=m, t_end=0.005 * (snapshots - 1))),
                 outdir)
    return outdir


def _rewrite_checksum(outdir, name):
    manifest_path = os.path.join(outdir, app.MANIFEST_FILE)
    manifest = json.load(open(manifest_path))
    for entry in manifest["files"]:
        if entry["name"] == name:
            entry["sha256"] = app._sha256(os.path.join(outdir, name))
    json.dump(manifest, open(manifest_path, "w"))


def _ledgers_from_trajectory(outdir):
    """The inequality ledgers computed by the trajectory-level functions from
    every checkpoint of a run, loaded at once, with no quadratures (as
    `verify` has none)."""
    manifest = json.load(open(os.path.join(outdir, app.MANIFEST_FILE)))
    problem = app.build_problem(app.load_config(os.path.join(outdir, app.CONFIG_FILE)))
    states = [dyn.read_checkpoint(os.path.join(outdir, entry["name"]))
              for entry in manifest["files"] if entry["name"].endswith(".nsb")]
    traj = dyn.Trajectory(states, manifest["stop_reason"], manifest["stop_time"],
                          problem.solver, problem.params)
    part = lp.build_partition(problem.grid)
    mon = problem.monitor
    return {
        "energy": diag.energy_ledger(traj),
        "density_bounds": diag.density_bound_ledger(traj),
        "integrability": diag.integrability_gain(traj, mon.p_gain),
        "transport": diag.transport_estimate_report(traj, part, mon.epsilon,
                                                    math.inf, math.inf),
        "omega_budget": diag.grad_omega_budget(traj),
        "v1_energy": diag.v1_energy_ledger(traj),
    }


class TestStreamingVerify:
    """`verify` reads the checkpoints one at a time through a window of three
    and feeds every suite and ledger from it."""

    def test_at_most_three_states_alive(self, tmp_path, monkeypatch):
        """The window holds the `_Snapshot` of each state it has loaded, and
        no more than three of them live at once."""
        outdir = _stream_run(str(tmp_path), 8)
        live = weakref.WeakSet()
        most = []

        class Counted(diag._Snapshot):
            def __init__(self, *args):
                super().__init__(*args)
                live.add(self)
                most.append(len(live))

        monkeypatch.setattr(diag, "_Snapshot", Counted)
        assert app.verify(outdir, "all").ok
        assert len(most) == 8 and max(most) == 3

    def test_peak_memory_flat_in_the_snapshot_count(self, tmp_path):
        m = 32
        grid = sp.TorusGrid(2, m)
        # a state's fields as verify holds them: samples and coefficients
        snapshot_bytes = 3 * (grid.size * 8 + math.prod(grid.spectral_shape) * 16)
        peaks = []
        for n in (4, 12):
            outdir = _stream_run(str(tmp_path / str(n)), n, m)
            assert app.verify(outdir, "all").ok  # fills the per-grid caches
            tracemalloc.start()
            try:
                app.verify(outdir, "all")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < snapshot_bytes, peaks

    @pytest.mark.parametrize("cfg, snapshots", [
        (STREAM_CFG.format(m=16, t_end=0.03), 7), (FORCED_3D_CFG, 4)], ids=["2d", "3d"])
    def test_ledgers_equal_the_trajectory_functions(self, tmp_path, cfg, snapshots):
        outdir = str(tmp_path)
        bundle = app.simulate(app.parse_config(cfg), outdir)
        assert len(bundle.trajectory) == snapshots
        result = app.verify(outdir, "inequalities")
        reference = _ledgers_from_trajectory(outdir)
        assert list(result.reports) == list(reference)
        for name, want in reference.items():
            got = result.reports[name]
            assert got.columns == want.columns
            a, b = np.array(got.rows, dtype=float), np.array(want.rows, dtype=float)
            both_nan = np.isnan(a) & np.isnan(b)
            assert np.all(both_nan | (np.abs(a - b) <= 1e-13 * np.abs(b))), name
            assert got.empirical_constant == pytest.approx(want.empirical_constant,
                                                           rel=1e-13)

    def test_nan_checkpoint_mid_run_fails(self, tmp_path):
        outdir = _stream_run(str(tmp_path), 7)
        name = "state_000003.nsb"
        path = os.path.join(outdir, name)
        data = bytearray(open(path, "rb").read())
        offset = data.index(b"\n") + 1 + 8 * (16 * 16 + 9)  # a velocity sample
        data[offset:offset + 8] = np.array(np.nan, dtype="<f8").tobytes()
        open(path, "wb").write(bytes(data))
        _rewrite_checksum(outdir, name)
        result = app.verify(outdir, "all")
        assert not result.ok
        assert "snapshot 3: non-finite samples" in result.failures
        assert any(f.startswith("state 3:") for f in result.failures)
        assert not any(f.startswith(("state 2:", "state 4:")) for f in result.failures)
        assert math.isnan(result.reports["v1_energy"].empirical_constant)

    def test_checkpoint_names_out_of_time_order(self, tmp_path):
        """Checkpoints whose names do not follow their times are read in the
        time order of their headers, so the run verifies as it did."""
        outdir = _stream_run(str(tmp_path / "run"), 6)
        want = app.verify(outdir, "all")
        swapped = str(tmp_path / "swapped")
        shutil.copytree(outdir, swapped)
        a, b = (os.path.join(swapped, f"state_00000{n}.nsb") for n in (1, 4))
        os.rename(a, a + ".tmp")
        os.rename(b, a)
        os.rename(a + ".tmp", b)
        for name in ("state_000001.nsb", "state_000004.nsb"):
            _rewrite_checksum(swapped, name)
        got = app.verify(swapped, "all")
        assert got.ok and want.ok
        assert got.failures == want.failures
        for name, rep in want.reports.items():
            assert got.reports[name].to_csv() == rep.to_csv()

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
        """The reported norms, on the Parseval path (p = 2) and the block
        stack path (p = 4), are the definition summed block by block:
        (sum_q (2^{qs} ||Delta_q f||_p)^r)^{1/r}, each block from
        `dyadic_block` and its norm by grid quadrature."""
        grid = sp.TorusGrid(2, 32)
        r = np.random.default_rng(4)
        rho = sp.ScalarField.constant(grid, 2.0) + 0.1 * sp.random_field(grid, r)
        state = dyn.FluidState(rho, sp.random_vector_field(grid, r), 0.0)
        path = os.path.join(tmp_path, "state.nsb")
        dyn.write_checkpoint(path, state)
        specs = [(0.7, 2.0, 2.0), (0.5, 4.0, 1.0)]
        rows = app.analyze(path, specs)
        part = lp.build_partition(grid)
        for name, f in (("rho", state.rho), ("u2", state.u.component(1))):
            got = [v for field, norm, v in rows if field == name and norm.startswith("B^")]
            for value, (s, p, q_r) in zip(got, specs, strict=True):
                blocks = (2.0 ** (q * s) * sp.lebesgue_norm(lp.dyadic_block(part, q, f), p)
                          for q in part.active_blocks)
                expected = sum(b ** q_r for b in blocks) ** (1.0 / q_r)
                assert abs(value - expected) <= 1e-12 * expected, (name, p)

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

    def test_non_finite_config_exit_code(self, tmp_path):
        cfg_path = os.path.join(tmp_path, "nan.cfg")
        open(cfg_path, "w").write(VORTEX_CFG + f"fluid.mu = nan\noutput.dir = {tmp_path}/out\n")
        assert app.main(["simulate", "--config", cfg_path]) == 1
        assert not os.path.exists(f"{tmp_path}/out")

    def test_abnormal_stop_exit_code(self, tmp_path):
        cfg_path = os.path.join(tmp_path, "vac.cfg")
        open(cfg_path, "w").write(
            "init.preset = density_bump\ninit.u_amplitude = 3.0\n"
            "fluid.mu = 0.005\nfluid.lambda = 0.0\nfluid.a = 0.01\n"
            "time.cfl = 0.4\ntime.t_end = 5.0\ntime.vacuum_floor = 0.005\n"
            f"output.dir = {tmp_path}/out\n")
        assert app.main(["simulate", "--config", cfg_path]) == 3

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "DIR"],
        ["analyze", "--field", "DIR"],
        ["verify", "--dir", "RUN"],
        ["simulate", "--config", "CFG", "--out", "FILE"],
    ], ids=["config-is-a-directory", "field-is-a-directory", "manifest-is-a-directory",
            "out-is-a-file"])
    def test_os_error_exit_code(self, tmp_path, capsys, argv):
        """A directory where a file is read, or a file where the output
        directory goes, is an error message and exit code 1, not a traceback."""
        (tmp_path / "run" / app.MANIFEST_FILE).mkdir(parents=True)
        (tmp_path / "run.cfg").write_text(VORTEX_CFG)
        (tmp_path / "out").write_text("")
        paths = {"DIR": tmp_path, "RUN": tmp_path / "run", "CFG": tmp_path / "run.cfg",
                 "FILE": tmp_path / "out"}
        assert app.main([str(paths.get(a, a)) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: "), err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--field", "FIELD", "--besov", "1,2"],
        ["analyze", "--field", "FIELD", "--besov", "nan,2,2"],
        ["verify", "--dir", "DIR", "--suite", "bogus"],
        ["simulate"],
    ], ids=["besov-pair", "besov-nan", "unknown-suite", "missing-config"])
    def test_usage_error_exit_code(self, tmp_path, capsys, argv):
        """A malformed command line is a validation error (1); exit code 2
        stays reserved for a failed verification."""
        field = os.path.join(tmp_path, "f.nsb")
        grid = sp.TorusGrid(2, 16)
        dyn.write_checkpoint(field, dyn.equilibrium_state(grid))
        argv = [{"FIELD": field, "DIR": str(tmp_path)}.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            app.main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_counts_checked_before_any_run(self, tmp_path, capsys):
        """A particle count below one or a negative number of convergence
        levels is a usage error, found before anything runs or is written."""
        cfg_path = os.path.join(tmp_path, "run.cfg")
        open(cfg_path, "w").write(MANUFACTURED_CFG)
        out = os.path.join(tmp_path, "out")
        for argv in (["trace", "--config", cfg_path, "--particles", "0", "--out", out],
                     ["simulate", "--config", cfg_path, "--convergence", "-2",
                      "--out", out]):
            with pytest.raises(SystemExit) as exc:
                app.main(argv)
            assert exc.value.code == 1
            assert "must be at least" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("edit", [
        lambda m: {k: v for k, v in m.items() if k != "stop_reason"},
        lambda m: {k: v for k, v in m.items() if k != "files"},
        lambda m: {**m, "files": None},
        lambda m: [m],
        lambda m: {**m, "stop_time": "0.1"},
        lambda m: {**m, "files": [{"name": "config.txt"}]},
        lambda m: {**m, "files": [{"name": "../config.txt", "sha256": "0"}]},
    ], ids=["no-stop-reason", "no-files", "null-files", "list", "text-stop-time",
            "no-sha256", "name-outside"])
    def test_malformed_manifest_exit_code(self, run_dir, tmp_path, capsys, edit):
        outdir = _with_manifest(run_dir, tmp_path, edit)
        assert app.main(["verify", "--dir", outdir]) == 1
        err = capsys.readouterr().err
        assert "error: malformed manifest.json" in err and "Traceback" not in err

    @pytest.mark.parametrize("suite", app.VERIFY_SUITES)
    def test_checkpoint_listed_twice_exit_code(self, run_dir, tmp_path, capsys, suite):
        """A manifest naming a checkpoint twice is malformed for every suite:
        read twice, its state would meet itself across a zero time step."""
        outdir = _with_manifest(run_dir, tmp_path, lambda m: {
            **m, "files": m["files"] + [e for e in m["files"]
                                        if e["name"] == "state_000001.nsb"]})
        assert app.main(["verify", "--dir", outdir, "--suite", suite]) == 1
        err = capsys.readouterr().err
        assert err == ("error: malformed manifest.json: its `files` list names "
                       "state_000001.nsb more than once\n")

    @pytest.mark.parametrize("suite", app.VERIFY_SUITES)
    def test_checkpoint_copied_under_a_second_name_exit_code(self, run_dir, tmp_path,
                                                             capsys, suite):
        """A copy of a checkpoint under another name, with a matching
        checksum, repeats its header time, which every suite rejects."""
        outdir = str(tmp_path / "run")
        shutil.copytree(run_dir, outdir)
        shutil.copy(os.path.join(outdir, "state_000001.nsb"),
                    os.path.join(outdir, "state_copy.nsb"))
        path = os.path.join(outdir, app.MANIFEST_FILE)
        manifest = json.load(open(path))
        manifest["files"].append({"name": "state_copy.nsb", "sha256": app._sha256(
            os.path.join(outdir, "state_copy.nsb"))})
        json.dump(manifest, open(path, "w"))
        assert app.main(["verify", "--dir", outdir, "--suite", suite]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint times do not increase: ")
        assert "state_000001.nsb" in err and "state_copy.nsb" in err

    @pytest.mark.parametrize("suite", app.VERIFY_SUITES)
    def test_manifest_without_checkpoints_exit_code(self, run_dir, tmp_path, capsys,
                                                    suite):
        """Every suite rejects, with the same message, a manifest whose
        `files` list names no checkpoint."""
        outdir = _with_manifest(run_dir, tmp_path, lambda m: {
            **m, "files": [e for e in m["files"] if not e["name"].endswith(".nsb")]})
        assert app.main(["verify", "--dir", outdir, "--suite", suite]) == 1
        err = capsys.readouterr().err
        assert err == ("error: malformed manifest.json: its `files` list names "
                       "no .nsb checkpoint\n")

    @pytest.mark.parametrize("key", ["config_hash", "snapshots", "step_count", "stop_time",
                                     "stop_reason"])
    def test_manifest_fact_contradicted_exit_code(self, run_dir, tmp_path, capsys, key):
        """Each fact that the manifest states about its run is checked
        against the directory by every suite, and a wrong one is a named
        verification failure."""
        value = {"config_hash": "0" * 64, "snapshots": 99, "step_count": 0,
                 "stop_time": 123.0, "stop_reason": "bogus"}[key]
        outdir = _with_manifest(run_dir, tmp_path, lambda m: {**m, key: value})
        for suite in app.VERIFY_SUITES:
            assert app.main(["verify", "--dir", outdir, "--suite", suite]) == 2
            assert capsys.readouterr().out == (
                f"FAIL manifest {key} {value!r} contradicts the run directory\n"
                "verification failed\n")

    @pytest.mark.parametrize("after, ok", [(0.01, True), (0.0, True), (-0.01, False)])
    def test_abnormal_stop_time_not_before_the_last_checkpoint(self, run_dir, tmp_path,
                                                               after, ok):
        """An abnormal stop may come after the last checkpoint (a vacuum
        found after a step that no snapshot stored), never before it."""
        last = dyn.checkpoint_time(os.path.join(run_dir, "state_000002.nsb"))
        outdir = _with_manifest(run_dir, tmp_path, lambda m: {
            **m, "stop_reason": "vacuum", "stop_time": last + after})
        result = app.verify(outdir, "monitors")
        assert result.ok == ok, result.failures

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            app.main(["analyze", "--help"])
        assert exc.value.code == 0
        assert "--besov" in capsys.readouterr().out

    def test_verification_failure_exit_code(self, tmp_path):
        cfg_path = os.path.join(tmp_path, "run.cfg")
        open(cfg_path, "w").write(VORTEX_CFG)
        app.main(["simulate", "--config", cfg_path, "--out", f"{tmp_path}/out"])
        victim = os.path.join(f"{tmp_path}/out", "state_000000.nsb")
        data = bytearray(open(victim, "rb").read())
        data[-4] ^= 0x01
        open(victim, "wb").write(bytes(data))
        assert app.main(["verify", "--dir", f"{tmp_path}/out"]) == 2
