"""Configuration, CLI entry points, persistence, and verification suites."""

import builtins
import collections
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import re
import shutil
import tempfile
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import torusns
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

    def test_readme_example_config_builds(self):
        """README's example config (its first ```ini block) parses under
        `CONFIG_SCHEMA` and builds its problem, so it cannot drift from the
        schema."""
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        text = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        problem = app.build_problem(app.parse_config(text))
        assert (problem.grid.dim, problem.grid.n, problem.solver.dt) == (2, 64, 0.005)

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

    def test_repeated_key_reported_with_the_others(self, tmp_path, capsys):
        """A key set on two lines is an error naming both, reported with the
        other errors (exit code 1), not a run with the last value."""
        text = ("time.dt = 0.01\nfluid.mu = 0.05\n# the same key again\n"
                "fluid.mu = 0.5\ngrid.dim = 5\nfluid.mu = nan\n")
        with pytest.raises(app.ConfigError) as err:
            app.parse_config(text)
        assert err.value.errors[:4] == [
            "line 4: key fluid.mu already set on line 2",
            "line 6: key fluid.mu already set on line 2",
            "line 6: bad value 'nan' for fluid.mu",
            "grid.dim must be 2 or 3, got 5"]
        cfg_path, out = os.path.join(tmp_path, "twice.cfg"), os.path.join(tmp_path, "out")
        open(cfg_path, "w").write("time.dt = 0.01\nfluid.mu = 0.05\nfluid.mu = 0.5\n")
        assert app.main(["simulate", "--config", cfg_path, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "config error: line 3: key fluid.mu already set on line 2\n")
        assert not os.path.exists(out)

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

    @pytest.mark.parametrize("text, key, owner", [
        ("time.dt = 0.01\ngrid.dim = 4", "grid.dim", lambda: sp.TorusGrid(4, 32)),
        ("time.dt = 0.01\ngrid.points_per_axis = 12", "grid.points_per_axis",
         lambda: sp.TorusGrid(2, 12)),
        ("time.dt = 0.01\nfluid.mu = -0.01", "fluid.mu",
         lambda: dyn.FluidParams(-0.01, 0.1, dyn.PowerLaw(1.0, 2.0)).validate(2)),
        ("time.dt = 0.01\nfluid.lambda = -0.2", "fluid.lambda",
         lambda: dyn.FluidParams(0.1, -0.2, dyn.PowerLaw(1.0, 2.0)).validate(2)),
        ("time.dt = 0.01\nfluid.a = 0", "fluid.a", lambda: dyn.PowerLaw(0.0, 2.0)),
        ("time.dt = 0.01\nfluid.gamma = 0.5", "fluid.gamma", lambda: dyn.PowerLaw(1.0, 0.5)),
        ("time.t_end = 1", "time.dt", lambda: dyn.SolverConfig(1.0).validate()),
        ("time.dt = -0.01", "time.dt", lambda: dyn.SolverConfig(0.5, -0.01).validate()),
        ("time.cfl = 2", "time.cfl", lambda: dyn.SolverConfig(0.5, cfl=2.0).validate()),
        ("time.dt = 0.01\ntime.t_end = 0", "time.t_end",
         lambda: dyn.SolverConfig(0.0, 0.01).validate()),
        ("time.dt = 0.01\ntime.snapshot_every = 0", "time.snapshot_every",
         lambda: dyn.SolverConfig(0.5, 0.01, snapshot_every=0).validate()),
        ("time.dt = 0.01\ntime.vacuum_floor = -0.5", "time.vacuum_floor",
         lambda: dyn.SolverConfig(0.5, 0.01, vacuum_floor=-0.5).validate()),
        ("time.dt = 0.01\nmonitor.epsilon = 0", "monitor.epsilon",
         lambda: diag.MonitorConfig(epsilon=0.0)),
        ("time.dt = 0.01\nmonitor.p_gain = 3", "monitor.p_gain",
         lambda: diag.MonitorConfig(p_gain=3)),
        ("time.dt = 0.01\nmonitor.q_density = 0.5", "monitor.q_density",
         lambda: diag.MonitorConfig(q_density=0.5)),
    ], ids=["grid.dim", "grid.points_per_axis", "fluid.mu", "fluid.lambda", "fluid.a",
            "fluid.gamma", "time.dt-or-cfl", "time.dt", "time.cfl", "time.t_end",
            "time.snapshot_every", "time.vacuum_floor", "monitor.epsilon", "monitor.p_gain",
            "monitor.q_density"])
    def test_one_rule_two_entry_points(self, text, key, owner):
        """Each rule that a configured type owns is written once: the config
        reports it under its key, and the type raises the same text."""
        with pytest.raises(app.ConfigError) as err:
            app.parse_config(text)
        [message] = err.value.errors
        assert key in message
        with pytest.raises(ValueError) as owned:
            owner()
        fields = re.sub(r"\b(?:grid|fluid|time|monitor)\.(\w+)",
                        lambda m: "lam" if m[1] == "lambda" else m[1], message)
        assert str(owned.value) == fields

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


@pytest.fixture(scope="module")
def two_snapshot_dir(tmp_path_factory):
    """A 2-D 16^2 vortex run with two checkpoints, at t = 0 and t = 0.02."""
    outdir = str(tmp_path_factory.mktemp("two"))
    app.simulate(app.parse_config("grid.points_per_axis = 16\ninit.preset = stream_vortex\n"
                                  "time.dt = 0.01\ntime.t_end = 0.02\n"
                                  "time.snapshot_every = 2\n"), outdir)
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
    def _with_nan(run_dir, tmp_path, sample_index, value=np.nan, checkpoint=1):
        """Copy of the run with one NaN (or other `value`) sample in the
        checkpoint numbered `checkpoint` (rho comes first in the payload)
        and a manifest checksum that still matches."""
        def edit(data):
            offset = data.index(b"\n") + 1 + 8 * sample_index
            data[offset:offset + 8] = np.array(value, dtype="<f8").tobytes()

        return _with_edit(run_dir, str(tmp_path / "nan"), f"state_{checkpoint:06d}.nsb", edit)

    @pytest.mark.parametrize("suite", app.VERIFY_SUITES)
    @pytest.mark.parametrize("refused", [None, 1, 2], ids=["stored", "vacuum-1", "vacuum-2"])
    def test_each_file_read_once(self, run_dir, tmp_path, monkeypatch, suite, refused):
        """`verify` opens the manifest and each file it lists once, parses
        `config.txt` once and reads each checkpoint once, also when a stored
        density at or below zero in checkpoint `refused` sends it to the
        vacuum failure, which names the checkpoint: the files after it are
        then opened to be hashed alone."""
        outdir = run_dir if refused is None else self._with_nan(
            run_dir, tmp_path, 5, -0.1, checkpoint=refused)
        listed = [entry["name"] for entry in json.load(open(os.path.join(
            outdir, app.MANIFEST_FILE)))["files"]]
        calls = {"load_config": 0, "read_checkpoint": 0}

        def counted(module, name):
            original = getattr(module, name)

            def count(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(module, name, count)

        counted(app, "load_config")
        counted(dyn, "read_checkpoint")
        opened = _opened(monkeypatch, outdir)
        result = app.verify(outdir, suite)
        assert opened == collections.Counter(
            (name, "rb") for name in listed) + collections.Counter({(app.MANIFEST_FILE, "r"): 1})
        read = 3 if refused is None else refused + 1  # the refused one is the last read
        assert calls == {"load_config": 1, "read_checkpoint": read}
        assert result.ok == (refused is None)
        if refused is not None:
            assert result.failures == [f"state_00000{refused}.nsb (snapshot {refused}): stored "
                                       f"density reached -0.1 at t={0.05 * refused:g}"]

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
        assert result.failures == [f"state_{n:06d}.nsb (snapshot {n}): riesz_trace residual "
                                   f"{sup:.3e}" for n in range(3)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("suite", app.VERIFY_SUITES)
    @pytest.mark.parametrize("copy, m, checkpoint, time", [
        ("three", 32, 2, 0.1), ("two", 16, 1, 0.02)], ids=["three-checkpoints", "two-checkpoints"])
    @pytest.mark.parametrize("field, value, fault", [
        ("rho", -0.1, "density reached -0.1"),
        ("rho", np.nan, "density has a non-finite sample"),
        ("rho", np.inf, "density has a non-finite sample"),
        ("rho", -np.inf, "density has a non-finite sample"),
        ("u", np.nan, "velocity has a non-finite sample"),
        ("u", np.inf, "velocity has a non-finite sample"),
        ("u", -np.inf, "velocity has a non-finite sample"),
    ], ids=["rho-negative", "rho-nan", "rho-inf", "rho-minus-inf", "u-nan", "u-inf",
            "u-minus-inf"])
    def test_refused_state_fails_every_suite(self, run_dir, two_snapshot_dir, tmp_path, capsys,
                                             suite, copy, m, checkpoint, time, field, value,
                                             fault):
        """A stored NaN or inf sample, or a density below zero, which the
        snapshot pass refuses before any check or ledger reads the state, is
        one failure naming the checkpoint file in every suite (exit code 2):
        no traceback, no warning, and no ledger written, whether or not the
        time-differenced ledgers run."""
        source = run_dir if copy == "three" else two_snapshot_dir
        index = 5 if field == "rho" else m * m + 5
        outdir = self._with_nan(source, tmp_path, index, value, checkpoint=checkpoint)
        shutil.rmtree(os.path.join(outdir, "ledgers"), ignore_errors=True)  # an earlier verify's
        assert app.main(["verify", "--dir", outdir, "--suite", suite]) == 2
        assert capsys.readouterr().out == (
            f"FAIL state_{checkpoint:06d}.nsb (snapshot {checkpoint}): stored {fault} "
            f"at t={time:g}\nverification failed\n")
        assert not os.path.exists(os.path.join(outdir, "ledgers"))

    def test_huge_density_fails_transport_ledger(self, run_dir, tmp_path, capsys):
        """A finite density sample so large that its powers overflow makes the
        transport ledger's constant NaN, a failure naming the ledger (exit
        code 2), not an OverflowError."""
        outdir = self._with_nan(run_dir, tmp_path, 5, 1e200, checkpoint=2)
        with np.errstate(over="ignore", invalid="ignore"):
            assert app.main(["verify", "--dir", outdir, "--suite", "inequalities"]) == 2
        out = capsys.readouterr().out
        assert "FAIL ledger transport: empirical constant nan is not finite\n" in out, out

    def test_unbounded_criterion_norm_fails_monitors(self, run_dir, tmp_path, capsys):
        """A run that completed must be extendable: a density sample of 1e60
        makes the pressure time norm of the criterion overflow, and the
        monitors suite fails naming that norm, after the series row that the
        stored state no longer reproduces."""
        outdir = self._with_nan(run_dir, tmp_path, 5, 1e60, checkpoint=2)
        with np.errstate(over="ignore"):
            assert app.main(["verify", "--dir", outdir, "--suite", "monitors"]) == 2
        rho_linf = float(app._SeriesCrosscheck._read(
            open(os.path.join(run_dir, app.SERIES_FILE), "rb").read(), 3)[2]["rho_linf"])
        assert capsys.readouterr().out == (
            f"FAIL state_000002.nsb (snapshot 2): stored rho_linf={rho_linf!r} != recomputed "
            "1e+60\nFAIL completed run is not extendable: criterion norm pressure_time_norm "
            "inf is not finite\nverification failed\n")

    @pytest.mark.parametrize("suite", app.VERIFY_SUITES)
    def test_state_its_series_row_does_not_describe_fails_every_suite(self, run_dir, tmp_path,
                                                                      suite):
        """Every suite compares each stored state's time, min_rho and rho_linf,
        sample reductions that take no transform, with its series row: one
        density sample of 1e60 (re-hashed) fails each suite (exit code 2)
        with a line naming the checkpoint, and no RuntimeWarning."""
        outdir = self._with_nan(run_dir, tmp_path, 5, 1e60, checkpoint=2)
        code, out, err, warned = _main(["verify", "--dir", outdir, "--suite", suite])
        assert code == 2 and err == "" and not warned, (out, err, warned)
        assert "FAIL state_000002.nsb (snapshot 2): stored rho_linf=" in out, out

    @pytest.mark.parametrize("column", ["time", "min_rho", "rho_linf"])
    @pytest.mark.parametrize("suite", ["inequalities", "monitors"])
    def test_sampled_series_cell_fails_every_suite(self, run_dir, tmp_path, suite, column):
        """A series cell of a sample reduction moved by one ulp fails the
        suites that recompute no other column too."""
        outdir = self._with_cell(run_dir, tmp_path, 1, column, lambda x: np.nextafter(x, np.inf))
        [failure] = app.verify(outdir, suite).failures
        assert failure.startswith(f"state_000001.nsb (snapshot 1): stored {column}="), failure

    @pytest.mark.parametrize("suite", ["inequalities", "monitors"])
    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "non-numeric"])
    def test_missing_or_malformed_series_fails_every_suite(self, run_dir, tmp_path, suite,
                                                           missing):
        """A series file that is not there (but listed), or whose cell is not
        a number (re-hashed), fails the suites that recompute no other column
        too, naming the file."""
        outdir = str(tmp_path / "run")
        shutil.copytree(run_dir, outdir)
        path = os.path.join(outdir, app.SERIES_FILE)
        if missing:
            os.remove(path)
        else:
            lines = open(path).read().splitlines()
            open(path, "w").write("\n".join([lines[0], "x" + lines[1]] + lines[2:]) + "\n")
            _rewrite_checksum(outdir, app.SERIES_FILE)
        assert app.verify(outdir, suite).failures == [
            f"missing file {app.SERIES_FILE}" if missing else
            f"{app.SERIES_FILE} row 0: could not convert string to float: 'x0.0'"]

    def test_failures_name_the_checkpoint_file(self, run_dir, tmp_path):
        """Snapshots are numbered in file-name order, which is time order, so
        a failure of one snapshot names its checkpoint file too: a header time
        of state_000001.nsb moved from 0.05 to 0.04, still between its
        neighbours', fails that snapshot alone, and every line names it."""
        outdir = str(tmp_path / "run")
        shutil.copytree(run_dir, outdir)
        name = "state_000001.nsb"
        path = os.path.join(outdir, name)
        data = open(path, "rb").read()
        head, _, payload = data.partition(b"\n")
        open(path, "wb").write(b" ".join(head.split(b" ")[:4] + [b"0.04"]) + b"\n" + payload)
        _rewrite_checksum(outdir, name)
        failures = app.verify(outdir, "identities").failures
        assert f"{name} (snapshot 1): stored time=0.05 != recomputed 0.04" in failures
        assert all(f.startswith(f"{name} (snapshot 1): ") for f in failures), failures

    def test_header_time_out_of_file_order_is_refused(self, tmp_path, capsys):
        """A header time that moves before an earlier file's is refused with
        both files named (exit code 1).  Read in header-time order instead,
        the untouched state_000000.nsb of this 3-snapshot run became
        "snapshot 1" and was named in 14 of 28 failure lines."""
        outdir = _stream_run(str(tmp_path / "run"), 3)
        name = "state_000001.nsb"
        path = os.path.join(outdir, name)
        head, _, payload = open(path, "rb").read().partition(b"\n")
        open(path, "wb").write(b" ".join(head.split(b" ")[:4] + [b"-0.005"]) + b"\n" + payload)
        _rewrite_checksum(outdir, name)
        assert app.main(["verify", "--dir", outdir, "--suite", "identities"]) == 1
        assert capsys.readouterr().err == (
            "error: checkpoint times do not increase: state_000000.nsb at t=0.0, "
            "state_000001.nsb at t=-0.005\n")

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
        assert any(f.startswith(f"state_000001.nsb (snapshot 1): stored {column}=")
                   for f in result.failures), result.failures

    @pytest.mark.parametrize("column", diag.RESIDUAL_COLUMNS.values())
    def test_edited_residual_cell_message_prints_plain_floats(self, run_dir, tmp_path,
                                                              column):
        """The recomputed value of a residual cell, a coefficient bound, is a
        Python float, so the failure prints its repr and no numpy scalar's."""
        outdir = self._with_cell(run_dir, tmp_path, 1, column, lambda x: 2.0 * x)
        [failure] = app.verify(outdir, "identities").failures
        recomputed = float(failure.rsplit(" ", 1)[1])
        assert failure == (f"state_000001.nsb (snapshot 1): stored {column}="
                           f"{2.0 * recomputed!r} != recomputed {recomputed!r}")

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
        assert failures[0].startswith(f"state_{row:06d}.nsb (snapshot {row}): stored {column}=") \
            and fault in failures[0], failures

    def test_monitor_stop_is_not_flagged(self, tmp_path):
        """A run stopped by the CFL check (a fixed dt above the limit) is not
        extendable, and the monitors suite, whose contract binds a run that
        stopped normally, finds nothing."""
        config = app.parse_config("grid.points_per_axis = 16\ninit.preset = stream_vortex\n"
                                  "init.amplitude = 0.5\ntime.dt = 0.5\ntime.t_end = 1.0\n")
        bundle = app.simulate(config, str(tmp_path))
        assert bundle.manifest["stop_reason"] == "cfl"
        assert not diag.blowup_monitor(bundle.trajectory, diag.MonitorConfig()).extendable
        assert app.verify(str(tmp_path), "monitors").failures == []

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
        bounds and transform nothing, every ledger and suite shares each
        snapshot's pressure, grad u, v1, G and curl u, the transport ledger
        reads rho's epsilon-Besov norm that the series check took, and d_t u
        is differenced on the samples: 72 forward and 114 inverse fields
        here (126 when the A functional's d_t u was differenced on the
        coefficients; 127 when the ledger took that norm again; 84 and 175
        when the residuals were sampled and the Coifman flux took dim^2
        products; 72 and 119 before the series check recomputed every
        column, which adds the samples of G and the epsilon-Besov block of
        each of the 4 snapshots)."""
        outdir = str(tmp_path / "run")
        app.simulate(app.parse_config(FORCED_3D_CFG), outdir)
        fft_calls.clear()
        assert app.verify(outdir, "all").ok
        assert (fft_calls["rfftn_fields"], fft_calls["irfftn_fields"]) == (72, 114)

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
    config = app.load_config(os.path.join(outdir, app.CONFIG_FILE))
    paths = sorted(str(path) for path in pathlib.Path(outdir).glob("*.nsb"))
    problem = app.build_problem(config)
    run = dyn.Trajectory([dyn.read_checkpoint(path) for path in paths], "completed", 0.0,
                         problem.solver, problem.params)
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


def _sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _opened(monkeypatch, outdir) -> collections.Counter:
    """A count of (file name, mode) of each `open` of a file in `outdir`
    from now on (a file in a directory below it is not counted)."""
    opened, real = collections.Counter(), builtins.open

    def counted(file, mode="r", *args, **kwargs):
        path = os.path.abspath(file) if isinstance(file, str) else ""
        if os.path.dirname(path) == os.path.abspath(outdir):
            opened[os.path.basename(path), mode] += 1
        return real(file, mode, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", counted)
    return opened


def _rewrite_checksum(outdir, name):
    manifest_path = os.path.join(outdir, app.MANIFEST_FILE)
    manifest = json.load(open(manifest_path))
    for entry in manifest["files"]:
        if entry["name"] == name:
            entry["sha256"] = _sha256(os.path.join(outdir, name))
    json.dump(manifest, open(manifest_path, "w"))


def _with_edit(run_dir, outdir, name, edit):
    """Copy `run_dir` to `outdir`, apply edit(bytearray) to the bytes of
    its file `name` and re-hash that file in the manifest."""
    shutil.copytree(run_dir, outdir)
    path = os.path.join(outdir, name)
    data = bytearray(open(path, "rb").read())
    edit(data)
    open(path, "wb").write(bytes(data))
    _rewrite_checksum(outdir, name)
    return outdir


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


def _arrays(value) -> list:
    """Every numpy array that `value` holds, through fields, states, tuples,
    lists and dicts (a field's coefficients and its samples, when it has
    them)."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, sp.Field):
        return [a for a in (value._coeffs, value._samples) if a is not None]
    if isinstance(value, dyn.FluidState):
        return _arrays(value.rho) + _arrays(value.u)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _arrays(item)]
    return []


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

    def test_each_shared_quantity_derived_once_per_snapshot(self, tmp_path, monkeypatch):
        """Over one `verify --suite all` pass each snapshot derives once every
        quantity that several checks and ledgers read: the energy parts (one
        sum of the potential), ||rho||_{L^{q_c}}, the p1 moment, rho's
        B^eps_{inf,inf} norm, div u, v1, div v1 and |u|^2."""
        outdir = _stream_run(str(tmp_path), 6)
        problem = app.build_problem(app.load_config(os.path.join(outdir, app.CONFIG_FILE)))
        mon = problem.monitor
        _, q_c = diag._criterion_exponents(problem.params, mon, 2)
        snaps, calls = [], collections.defaultdict(list)

        class Recorded(diag._Snapshot):
            def __init__(self, *args):
                super().__init__(*args)
                snaps.append(self)

        monkeypatch.setattr(diag, "_Snapshot", Recorded)
        for owner, name in ((diag, "divergence"), (diag, "lebesgue_norm"), (diag, "_moment"),
                            (lp, "_sup_besov"), (dyn.PowerLaw, "potential")):
            def counted(*args, _real=getattr(owner, name), _seen=calls[name]):
                _seen.append(args)
                return _real(*args)
            monkeypatch.setattr(owner, name, counted)
        for name in ("u_sq", "v1"):
            def derived(snap, _real=getattr(diag._Snapshot, name).func, _seen=calls[name]):
                _seen.append((snap, value := _real(snap)))
                return value
            counted = functools.cached_property(derived)
            counted.__set_name__(diag._Snapshot, name)
            monkeypatch.setattr(diag._Snapshot, name, counted)
        assert app.verify(outdir, "all").ok
        assert len(snaps) == 6

        def per_snapshot(name, match):
            return [sum(match(snap, *args) for args in calls[name]) for snap in snaps]
        once = [1] * len(snaps)
        assert per_snapshot("potential", lambda s, law, x: x is s.state.rho.samples) == once
        assert per_snapshot("lebesgue_norm", lambda s, f, q: f is s.state.rho and q == q_c) == once
        assert per_snapshot("_moment", lambda s, rho, mag2, p1:
                            rho is s.state.rho and p1 == mon.p_gain) == once
        assert per_snapshot("_sup_besov", lambda s, part, f, sigma, floor:
                            f is s.state.rho and sigma == mon.epsilon) == once
        assert per_snapshot("divergence", lambda s, x: x is s.state.u) == once
        assert per_snapshot("v1", lambda s, snap, v1: snap is s) == once
        assert per_snapshot("divergence", lambda s, x: any(
            x is v1 for snap, v1 in calls["v1"] if snap is s)) == once
        assert per_snapshot("u_sq", lambda s, snap, u_sq: snap is s) == once

    def test_min_density_read_once_and_finiteness_never(self, tmp_path, monkeypatch):
        """Over one `verify --suite all` pass each snapshot reads its minimum
        density once, where it refuses a vacuum, and every check and ledger
        takes that `_Snapshot.min_rho`; nothing scans the samples for
        finiteness again (`FluidState.is_finite`) after the snapshot refused
        a NaN or inf."""
        outdir = _stream_run(str(tmp_path), 6)
        snaps, reads, scans = [], [], []

        class Recorded(diag._Snapshot):
            def __init__(self, *args):
                super().__init__(*args)
                snaps.append(self)

        monkeypatch.setattr(diag, "_Snapshot", Recorded)
        def min_density(state, _real=dyn.FluidState.min_density.fget):
            reads.append(state)
            return _real(state)
        monkeypatch.setattr(dyn.FluidState, "min_density", property(min_density))
        monkeypatch.setattr(dyn.FluidState, "is_finite", lambda state: scans.append(state))
        assert app.verify(outdir, "all").ok
        assert len(snaps) == 6 and scans == []
        assert len(reads) == 6 and all(read is snap.state for read, snap in zip(reads, snaps))

    def test_released_snapshot_holds_its_samples_and_v(self, tmp_path, monkeypatch):
        """Over a `verify --suite all` pass of a 3-D run, each snapshot, once
        released, still answers its time and minimum density, and holds no
        array but its stored samples and v's coefficients."""
        snaps = []

        class Recorded(diag._Snapshot):
            def __init__(self, *args):
                super().__init__(*args)
                snaps.append(self)

        outdir = str(tmp_path / "run")
        bundle = app.simulate(app.parse_config(FORCED_3D_CFG), outdir)
        monkeypatch.setattr(diag, "_Snapshot", Recorded)
        assert app.verify(outdir, "all").ok
        assert len(snaps) == len(bundle.trajectory) == 4
        for snap, state in zip(snaps, bundle.trajectory.states):
            assert snap.t == state.t and snap.min_rho == state.min_density
            held = [a for name, value in vars(snap).items() if name != "params"
                    for a in _arrays(value)]
            want = [snap.state.rho.samples, snap.state.u.samples, snap.v.coeffs]
            assert len(held) == len(want) and all(any(a is w for w in want) for a in held)

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

    def test_peak_memory_of_a_3d_pass_is_twenty_stored_states(self, tmp_path):
        """The traced high-water of `verify --suite all` on a 3-D 16^3 run
        is at most 20 stored states' bytes: three stored states, the current
        snapshot's fields and its neighbours' v (17.4 of them; 25.9 when a
        released snapshot kept u's coefficients and v1, grad u was held
        whole and verify built the run's initial state)."""
        outdir = str(tmp_path / "run")
        bundle = app.simulate(app.parse_config(FORCED_3D_CFG), outdir)
        grid = bundle.trajectory.states[0].rho.grid
        state_bytes = (1 + grid.dim) * grid.size * 8
        assert app.verify(outdir, "all").ok  # fills the per-grid caches
        tracemalloc.start()
        try:
            assert app.verify(outdir, "all").ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * state_bytes, peak / state_bytes

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_checkpoint_mid_run_fails(self, tmp_path):
        """A NaN velocity sample in a checkpoint in mid-run is the one
        failure, naming that checkpoint: no check reports the snapshots
        before it, and no ledger is written."""
        outdir = _stream_run(str(tmp_path), 7)
        name = "state_000003.nsb"
        path = os.path.join(outdir, name)
        data = bytearray(open(path, "rb").read())
        offset = data.index(b"\n") + 1 + 8 * (16 * 16 + 9)  # a velocity sample
        data[offset:offset + 8] = np.array(np.nan, dtype="<f8").tobytes()
        open(path, "wb").write(bytes(data))
        _rewrite_checksum(outdir, name)
        result = app.verify(outdir, "all")
        assert not result.ok and result.reports == {}
        assert result.failures == [f"{name} (snapshot 3): stored velocity has a non-finite "
                                   f"sample at t={dyn.read_checkpoint(path).t:g}"]
        assert not os.path.exists(os.path.join(outdir, "ledgers"))

    def test_checkpoint_names_out_of_time_order(self, tmp_path, capsys):
        """Checkpoints are read in file-name order, so two whose names are
        swapped (the times of 1 and 4, re-hashed) are refused, naming the
        first pair whose times do not increase (exit code 1)."""
        outdir = _stream_run(str(tmp_path / "run"), 6)
        times = [dyn.read_checkpoint(os.path.join(outdir, f"state_00000{n}.nsb")).t
                 for n in (2, 4)]
        a, b = (os.path.join(outdir, f"state_00000{n}.nsb") for n in (1, 4))
        os.rename(a, a + ".tmp")
        os.rename(b, a)
        os.rename(a + ".tmp", b)
        for name in ("state_000001.nsb", "state_000004.nsb"):
            _rewrite_checksum(outdir, name)
        assert app.main(["verify", "--dir", outdir, "--suite", "all"]) == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint times do not increase: state_000001.nsb at t={times[1]!r}, "
            f"state_000002.nsb at t={times[0]!r}\n")


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

    def test_non_finite_config_exit_code(self, tmp_path, capsys):
        cfg_path = os.path.join(tmp_path, "nan.cfg")
        open(cfg_path, "w").write(VORTEX_CFG.replace("fluid.mu = 0.05", "fluid.mu = nan")
                                  + f"output.dir = {tmp_path}/out\n")
        assert app.main(["simulate", "--config", cfg_path]) == 1
        assert capsys.readouterr().err == "config error: line 4: bad value 'nan' for fluid.mu\n"
        assert not os.path.exists(f"{tmp_path}/out")

    def test_abnormal_stop_exit_code(self, tmp_path):
        cfg_path = os.path.join(tmp_path, "vac.cfg")
        open(cfg_path, "w").write(
            "init.preset = density_bump\ninit.u_amplitude = 3.0\n"
            "fluid.mu = 0.005\nfluid.lambda = 0.0\nfluid.a = 0.01\n"
            "time.cfl = 0.4\ntime.t_end = 5.0\ntime.vacuum_floor = 0.005\n"
            f"output.dir = {tmp_path}/out\n")
        assert app.main(["simulate", "--config", cfg_path]) == 3

    @pytest.mark.parametrize("floor, code", [(-0.5, 1), (0.3, 3)])
    def test_vacuum_floor_below_zero_exit_code(self, tmp_path, capsys, floor, code):
        """The vacuum stress run with a negative floor would step through
        negative densities: it is a config error naming the key, and no run
        directory is written.  A positive floor runs and stops `vacuum`."""
        cfg_path = os.path.join(tmp_path, "floor.cfg")
        out = os.path.join(tmp_path, "out")
        open(cfg_path, "w").write(
            "grid.dim = 2\ngrid.points_per_axis = 32\ninit.preset = density_bump\n"
            "init.u_amplitude = 3.0\nfluid.a = 0.01\nfluid.mu = 0.005\n"
            f"fluid.lambda = 0.0\ntime.cfl = 0.4\ntime.vacuum_floor = {floor}\n"
            f"output.dir = {out}\n")
        assert app.main(["simulate", "--config", cfg_path]) == code
        if code == 1:
            assert capsys.readouterr().err.startswith("config error: time.vacuum_floor ")
            assert not os.path.exists(out)
        else:
            assert json.load(open(os.path.join(out, app.MANIFEST_FILE)))["stop_reason"] \
                == "vacuum"

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
        """A copy of a checkpoint under another name that sorts next to it,
        with a matching checksum, repeats its header time, which every suite
        rejects."""
        outdir = str(tmp_path / "run")
        shutil.copytree(run_dir, outdir)
        shutil.copy(os.path.join(outdir, "state_000001.nsb"),
                    os.path.join(outdir, "state_000001_copy.nsb"))
        path = os.path.join(outdir, app.MANIFEST_FILE)
        manifest = json.load(open(path))
        manifest["files"].append({"name": "state_000001_copy.nsb", "sha256": _sha256(
            os.path.join(outdir, "state_000001_copy.nsb"))})
        json.dump(manifest, open(path, "w"))
        assert app.main(["verify", "--dir", outdir, "--suite", suite]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint times do not increase: state_000001.nsb at ")
        assert "state_000001_copy.nsb" in err

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

    @pytest.mark.parametrize("name", [app.CONFIG_FILE, app.SERIES_FILE])
    def test_manifest_leaving_out_config_or_series_exit_code(self, run_dir, tmp_path, capsys,
                                                             name):
        """A manifest whose `files` list leaves out `config.txt` or
        `series.csv` is malformed (exit code 1): `verify` would parse a file
        that the manifest does not hash."""
        outdir = _with_manifest(run_dir, tmp_path, lambda m: {
            **m, "files": [e for e in m["files"] if e["name"] != name]})
        assert app.main(["verify", "--dir", outdir]) == 1
        assert capsys.readouterr().err == (
            f"error: malformed manifest.json: its `files` list leaves out {name}\n")

    @pytest.mark.parametrize("name, old, new", [
        (app.CONFIG_FILE, b"fluid.mu = 0.05", b"fluid.mu = x"),
        (app.SERIES_FILE, b"time,", b"tim,"),
        ("state_000001.nsb", b"NSLAB1", b"NSLABX"),
        ("state_000002.nsb", b"NSLAB1 2 32", b"NSLAB1 2 99"),
    ], ids=["config-value", "series-header", "checkpoint-magic", "checkpoint-grid"])
    def test_unhashed_edit_is_a_checksum_failure(self, run_dir, tmp_path, capsys, name, old,
                                                 new):
        """A listed file edited without re-hashing fails its checksum (exit
        code 2) in every suite, whatever its edit would break if parsed: its
        bytes are hashed before any of them is parsed, so a config value or
        a checkpoint header that does not parse is not a validation error."""
        outdir = str(tmp_path / "run")
        shutil.copytree(run_dir, outdir)
        path = os.path.join(outdir, name)
        data = open(path, "rb").read()
        assert old in data
        open(path, "wb").write(data.replace(old, new, 1))
        for suite in app.VERIFY_SUITES:
            assert app.main(["verify", "--dir", outdir, "--suite", suite]) == 2
            assert capsys.readouterr() == (
                f"FAIL checksum mismatch for {name}\nverification failed\n", "")

    @pytest.mark.parametrize("key", ["config_hash", "snapshots", "step_count", "stop_time",
                                     "stop_reason", "seed", "version"])
    def test_manifest_fact_contradicted_exit_code(self, run_dir, tmp_path, capsys, key):
        """Each fact that the manifest states about its run is checked
        against the directory by every suite, and a wrong one is a
        verification failure naming `manifest.json`; a wrong stop time names
        the last checkpoint, a wrong config digest the one `config.txt` has,
        a wrong seed the one `config.txt` sets and a wrong version the
        package's."""
        value = {"config_hash": "0" * 64, "snapshots": 99, "step_count": 0,
                 "stop_time": 123.0, "stop_reason": "bogus", "seed": 99, "version": "9.9"}[key]
        outdir = _with_manifest(run_dir, tmp_path, lambda m: {**m, key: value})
        last = dyn.read_checkpoint(os.path.join(run_dir, "state_000002.nsb")).t
        digest = json.load(open(os.path.join(run_dir, app.MANIFEST_FILE)))["config_hash"]
        named = {"stop_time": f": its last checkpoint state_000002.nsb is at t={last!r}",
                 "config_hash": f": config.txt hashes to {digest}",
                 "seed": ": config.txt has seed 7",
                 "version": f": this is torusns {torusns.__version__}"}
        for suite in app.VERIFY_SUITES:
            assert app.main(["verify", "--dir", outdir, "--suite", suite]) == 2
            assert capsys.readouterr().out == (
                f"FAIL manifest.json {key} {value!r} contradicts the run directory"
                f"{named.get(key, '')}\nverification failed\n")

    @pytest.mark.parametrize("after, ok", [(0.01, True), (0.0, True), (-0.01, False)])
    def test_abnormal_stop_time_not_before_the_last_checkpoint(self, run_dir, tmp_path,
                                                               after, ok):
        """An abnormal stop may come after the last checkpoint (a vacuum
        found after a step that no snapshot stored), never before it."""
        last = dyn.read_checkpoint(os.path.join(run_dir, "state_000002.nsb")).t
        outdir = _with_manifest(run_dir, tmp_path, lambda m: {
            **m, "stop_reason": "vacuum", "stop_time": last + after})
        result = app.verify(outdir, "monitors")
        assert result.ok == ok, result.failures

    def test_analyze_prints_every_norm(self, run_dir, capsys):
        """`analyze` exits 0 and prints one row per field and norm: the norms
        of `app.analyze`, each value's repr read back exactly."""
        path = os.path.join(run_dir, "state_000001.nsb")
        assert app.main(["analyze", "--field", path, "--besov", "0.5,2,2"]) == 0
        printed = [line.split() for line in capsys.readouterr().out.splitlines()]
        want = app.analyze(path, [(0.5, 2.0, 2.0)])
        assert len(want) == 3 * 4
        assert printed == [[name, norm, repr(value)] for name, norm, value in want]

    @pytest.mark.parametrize("t_end, code, stop", [(0.2, 0, "completed"), (1.0, 3, "vacuum")])
    def test_trace_writes_listed_paths(self, tmp_path, capsys, monkeypatch, t_end, code, stop):
        """`trace` exits 0 on a completed run and 3 on an abnormal stop (the
        vacuum floor 0.3 is reached near t = 0.26), and either way writes
        `paths.csv` (a row per particle and snapshot), lists it in the
        manifest with its sha256, and prints where it went.  Every sha256
        comes from the bytes written, so no written file is read back, and
        the manifest's other entries are `simulate`'s."""
        simulated, simulate = [], app.simulate

        def recorded(*args):
            bundle = simulate(*args)
            simulated.append(list(bundle.manifest["files"]))
            return bundle
        monkeypatch.setattr(app, "simulate", recorded)
        cfg_path, out = os.path.join(tmp_path, "trace.cfg"), os.path.join(tmp_path, "out")
        opened = _opened(monkeypatch, out)
        open(cfg_path, "w").write(
            "grid.points_per_axis = 16\ninit.preset = density_bump\n"
            "init.u_amplitude = 3.0\nfluid.a = 0.01\nfluid.mu = 0.005\n"
            f"fluid.lambda = 0.0\ntime.cfl = 0.4\ntime.t_end = {t_end}\n"
            "time.vacuum_floor = 0.3\n")
        assert app.main(["trace", "--config", cfg_path, "--particles", "3",
                         "--out", out]) == code
        assert opened and all(mode.startswith("w") for _, mode in opened), opened
        path = os.path.join(out, app.PATHS_FILE)
        assert capsys.readouterr().out == f"paths written to {path}\n"
        manifest = json.load(open(os.path.join(out, app.MANIFEST_FILE)))
        assert manifest["stop_reason"] == stop
        assert {"name": app.PATHS_FILE, "sha256": _sha256(path)} in manifest["files"]
        # every other entry is the one `simulate` wrote, not hashed again
        assert [entry for entry in manifest["files"] if entry["name"] != app.PATHS_FILE] \
            == simulated[0]
        rows = open(path).read().splitlines()
        assert rows[0] == "time,particle,x0,x1"
        assert len(rows) == 1 + 3 * manifest["snapshots"]

    def test_convergence_study_prints_and_writes_each_level(self, tmp_path, capsys):
        """`simulate --convergence N` exits 0, prints a header and one row per
        level, and writes those N rows to convergence.csv."""
        cfg_path, out = os.path.join(tmp_path, "mms.cfg"), os.path.join(tmp_path, "out")
        open(cfg_path, "w").write(MANUFACTURED_CFG)
        assert app.main(["simulate", "--config", cfg_path, "--convergence", "2",
                         "--out", out]) == 0
        header, *printed = capsys.readouterr().out.splitlines()
        assert header.split() == ["dt", "l2_error", "observed_order"]
        lines = open(os.path.join(out, "convergence.csv")).read().splitlines()
        assert lines[0] == "dt,l2_error,observed_order"
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        assert len(rows) == 2 and rows[0][0] == 0.02 and rows[1][0] == 0.01
        assert printed == [f"{dt:<9.6g} {err:<13.6e} {order:.3f}" for dt, err, order in rows]

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


@pytest.fixture(scope="module")
def small_run_dir(tmp_path_factory):
    """A forced 2-D 16^2 vortex run with three checkpoints."""
    return _stream_run(str(tmp_path_factory.mktemp("small")), 3)


def _main(argv):
    """(exit code, stdout, stderr, RuntimeWarnings) of `app.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = app.main(argv)
    return (code, out.getvalue(), err.getvalue(),
            [w for w in caught if issubclass(w.category, RuntimeWarning)])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(field="rho", value=math.nan)
@example(field="rho", value=-math.inf)
@example(field="rho", value=0.0)
@example(field="rho", value=-1.0)
@example(field="rho", value=1e60)
@example(field="rho", value=1e200)
@example(field="rho", value=5e-324)
@example(field="u", value=math.inf)
@example(field="u", value=-1e200)
@given(field=st.sampled_from(["rho", "u"]), value=st.floats())
def test_no_traceback_on_any_payload_value(small_run_dir, field, value):
    """Any float64 in one payload sample of a checkpoint (re-hashed) gives a
    documented exit code, no traceback and no RuntimeWarning from every
    `verify` suite (0 or 2) and from `analyze` (0 or 1); a finite sample
    huge enough to overflow too.  A NaN or inf sample, or a density at or
    below zero, is one failure line naming the file; `analyze` refuses a
    NaN or inf with one error line naming the file."""
    refused = not math.isfinite(value) or (field == "rho" and value <= 0)
    name = "state_000001.nsb"
    with tempfile.TemporaryDirectory() as tmp:
        outdir = TestVerify._with_nan(small_run_dir, pathlib.Path(tmp),
                                      5 if field == "rho" else 16 * 16 + 5, value)
        for suite in app.VERIFY_SUITES:
            code, out, err, warned = _main(["verify", "--dir", outdir, "--suite", suite])
            assert code in (0, 2) and "Traceback" not in err, (suite, out, err)
            assert not warned, (suite, [str(w.message) for w in warned])
            if refused:
                [failure] = [line for line in out.splitlines() if line.startswith("FAIL")]
                assert failure.startswith(f"FAIL {name} (snapshot 1): stored "), failure
                assert code == 2, suite
        code, _, err, warned = _main(["analyze", "--field", os.path.join(outdir, name)])
        assert code in (0, 1) and "Traceback" not in err, err
        assert not warned, [str(w.message) for w in warned]
        if not math.isfinite(value):
            assert code == 1 and err.splitlines() == [
                f"error: {os.path.join(outdir, name)}: a stored sample is not finite"]


# the header line of small_run_dir's state_000001.nsb, whose time is 0.005
HEADER = b"NSLAB1 2 16 3 0.0050000000000000001\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example(offset=0, byte=ord("O"))       # bad magic
@example(offset=7, byte=ord("3"))       # dim 3: field count 3 != 1 + dim
@example(offset=10, byte=ord("\t"))     # int("1\t") = 1: grid size 1
@example(offset=14, byte=ord("-"))      # t = -0.005: the checkpoint becomes snapshot 0
@example(offset=14, byte=ord("9"))      # t = 9.005: after the manifest's stop time
@example(offset=20, byte=0xFF)          # a non-ASCII time
@example(offset=34, byte=ord("2"))      # 0.0050000000000000002, the same float64
@example(offset=35, byte=ord(" "))      # no newline: the header runs into the payload
@given(offset=st.integers(0, len(HEADER) - 1), byte=st.integers(0, 255))
def test_no_traceback_on_any_header_byte(small_run_dir, offset, byte):
    """Any single-byte change of a checkpoint's header line, its newline
    included (re-hashed), gives a documented exit code, no traceback and no
    RuntimeWarning from `verify --suite all` (0, 1 or 2) and from `analyze`
    (0 or 1); every failure line names a checkpoint file, and a failing
    `verify` or `analyze` names the changed one.  All 9435 such changes of
    this header passed when the test was written."""
    name = "state_000001.nsb"
    assume(byte != HEADER[offset])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run", name)

        def edit(data):
            assert data.startswith(HEADER)
            data[offset] = byte

        outdir = _with_edit(small_run_dir, os.path.join(tmp, "run"), name, edit)
        for argv, codes in ((["verify", "--dir", outdir, "--suite", "all"], (0, 1, 2)),
                            (["analyze", "--field", path], (0, 1))):
            code, out, err, warned = _main(argv)
            assert code in codes and "Traceback" not in err, (argv, out, err)
            assert not warned, (argv, [str(w.message) for w in warned])
            lines = [line for line in out.splitlines() if line.startswith("FAIL")]
            lines += err.splitlines()
            assert all(".nsb" in line for line in lines), (argv, lines)
            assert code == 0 or any(name in line for line in lines), (argv, lines)


def _named_lines(out, err):
    """The FAIL lines of a `verify` run's stdout and every line of its stderr."""
    return [line for line in out.splitlines() if line.startswith("FAIL")] + err.splitlines()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@example(row=1, column="rho_linf", cell="1e+60")
@example(row=0, column="time", cell="nan")
@example(row=2, column="dissipation_cum", cell="-inf")
@example(row=1, column="mass", cell="1,2")
@example(row=2, column="positive", cell="")
@example(row=1, column="kinetic", cell="1\n2")
@given(row=st.integers(0, 2), column=st.sampled_from(diag.RECORD_COLUMNS),
       cell=st.one_of(st.floats().map(repr), st.text(max_size=6)))
def test_no_traceback_on_any_series_cell(small_run_dir, row, column, cell):
    """Any text in one `series.csv` cell (re-hashed) gives exit code 0 or 2
    from every `verify` suite, no traceback and no RuntimeWarning, and each
    failure line names `series.csv` or a checkpoint file.  A cell that is
    not one number fails every suite, naming `series.csv`; one that reads
    back as another number fails the identities and all suites unless it is
    a stage quadrature that keeps its rules, and every suite when it is a
    sample reduction (time, min_rho, rho_linf), naming its row's checkpoint."""
    with tempfile.TemporaryDirectory() as tmp:
        outdir = os.path.join(tmp, "run")
        shutil.copytree(small_run_dir, outdir)
        path = os.path.join(outdir, app.SERIES_FILE)
        lines = open(path, encoding="utf-8").read().splitlines()
        cells = lines[row + 1].split(",")
        i = diag.RECORD_COLUMNS.index(column)
        before, cells[i] = float(cells[i]), cell
        lines[row + 1] = ",".join(cells)
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        _rewrite_checksum(outdir, app.SERIES_FILE)
        try:
            one_cell = "," not in cell and len(f"x{cell}x".splitlines()) == 1
            changed = not (one_cell and float(cell) == before)
        except ValueError:
            one_cell = changed = False
        for suite in app.VERIFY_SUITES:
            code, out, err, warned = _main(["verify", "--dir", outdir, "--suite", suite])
            assert code in (0, 2) and not err and not warned, (suite, out, err, warned)
            lines = _named_lines(out, err)
            assert all(app.SERIES_FILE in line or ".nsb" in line for line in lines), lines
            if not one_cell:
                assert code == 2 and any(app.SERIES_FILE in line for line in lines), lines
            elif changed and (column in ("time", "min_rho", "rho_linf") or (
                    suite in ("identities", "all") and not column.endswith("_cum"))):
                assert code == 2 and any(f"state_{row:06d}.nsb" in line for line in lines)
            elif not changed or suite not in ("identities", "all"):
                assert code == 0, (suite, lines)


@pytest.mark.parametrize("name, old, new, stop", [
    ("state_000001.nsb", b"NSLAB1", b"NSLABX", "bad magic 'NSLABX' at byte offset 0"),
    (app.CONFIG_FILE, b"fluid.mu = 0.1", b"fluid.mu = x", "config.txt: line 4: bad value 'x' for fluid.mu"),
    ("state_000001.nsb", b" 0.0050000000000000001\n", b" -0.005\n",
     "checkpoint times do not increase: state_000000.nsb at t=0.0, state_000001.nsb at "
     "t=-0.005"),
], ids=["checkpoint-magic", "config-value", "checkpoint-time"])
def test_stop_on_a_hashed_file_names_every_unhashed_edit(small_run_dir, tmp_path, name, old,
                                                         new, stop):
    """A hashed file that does not parse stops `verify`, but first every
    listed file not read yet is hashed: an unhashed edit of a later
    checkpoint is a verification failure (exit code 2) that names it, and
    the stop is one more failure line.  Without that edit the stop is exit
    code 1, as before."""
    def edit(data):
        data[:] = data.replace(old, new, 1)
    outdir = _with_edit(small_run_dir, str(tmp_path / "run"), name, edit)
    code, out, err, _ = _main(["verify", "--dir", outdir])
    assert (code, out) == (1, "") and stop in err, (code, out, err)
    path = os.path.join(outdir, "state_000002.nsb")
    data = bytearray(open(path, "rb").read())
    data[-3] ^= 1
    open(path, "wb").write(bytes(data))
    code, out, err, _ = _main(["verify", "--dir", outdir])
    lines = out.splitlines()
    assert (code, err, lines[0], lines[2:]) == (
        2, "", "FAIL checksum mismatch for state_000002.nsb", ["verification failed"]), out
    assert lines[1].startswith("FAIL ") and stop in lines[1], out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(edits=[(0, 0.2, 1, "stale"), (1, 0.5, 4, "stale"), (3, 0.0, 8, "stale"),
                (4, 0.9, 16, "junk")])
@example(edits=[(0, 0.1, 0x40, "rehash"), (4, 0.5, 1, "stale")])
@example(edits=[(2, 0.0, 1, "rehash"), (4, 0.3, 2, "stale")])
@example(edits=[(3, 0.99, 0x80, "rehash"), (4, 0.99, 1, "junk")])
@given(edits=st.lists(st.tuples(st.integers(0, 4), st.floats(0, 1, exclude_max=True),
                                st.integers(1, 255), st.sampled_from(["stale", "rehash", "junk"])),
                      min_size=1, max_size=5, unique_by=lambda edit: edit[0]))
def test_no_traceback_on_any_edit_of_a_listed_file(small_run_dir, edits):
    """One byte of each of several listed files changed, together with its
    manifest entry: kept (stale), re-hashed, or set to another digest
    (junk).  `verify --suite all` exits 0, 1 or 2 with no traceback and no
    RuntimeWarning; while a file is left mismatched, the exit code is 2,
    every line names a listed file or `manifest.json`, and each mismatched
    file has its own checksum line, however far the pass got, even if an
    edit that the manifest hashes does not parse."""
    with tempfile.TemporaryDirectory() as tmp:
        outdir = os.path.join(tmp, "run")
        shutil.copytree(small_run_dir, outdir)
        manifest_path = os.path.join(outdir, app.MANIFEST_FILE)
        manifest = json.load(open(manifest_path))
        names = [entry["name"] for entry in manifest["files"]]
        assert names == [app.CONFIG_FILE, app.SERIES_FILE] + [
            f"state_00000{n}.nsb" for n in range(3)]
        for index, where, xor, entry in edits:
            path = os.path.join(outdir, names[index])
            data = bytearray(open(path, "rb").read())
            data[int(where * len(data))] ^= xor
            open(path, "wb").write(bytes(data))
            manifest["files"][index]["sha256"] = {
                "stale": manifest["files"][index]["sha256"], "rehash": _sha256(path),
                "junk": "0" * 64}[entry]
        json.dump(manifest, open(manifest_path, "w"))
        mismatched = [names[index] for index, _, _, entry in edits if entry != "rehash"]
        code, out, err, warned = _main(["verify", "--dir", outdir, "--suite", "all"])
        assert code in (0, 1, 2) and "Traceback" not in err and not warned, (code, out, err)
        lines = _named_lines(out, err)
        if mismatched:
            assert code == 2, (code, lines)
            assert all(app.MANIFEST_FILE in line or any(name in line for name in names)
                       for line in lines), lines
            assert sorted(line for line in lines if "checksum" in line) == sorted(
                f"FAIL checksum mismatch for {name}" for name in mismatched), lines


#: manifest JSON values: scalars, and lists and objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(where="stop_reason", value="vacuum")
@example(where="stop_time", value=math.nan)
@example(where="step_count", value=True)
@example(where="files", value={})
@example(where=(1, "name"), value="series\x00.csv")
@example(where=(3, "name"), value="state\x00.nsb")
@example(where=(3, "name"), value="\ud800.nsb")
@example(where=(3, "name"), value="state_000009.nsb")
@example(where=(2, "sha256"), value="0" * 64)
@given(where=st.one_of(st.sampled_from(["config_hash", "files", "seed", "snapshots",
                                        "step_count", "stop_reason", "stop_time", "version"]),
                       st.tuples(st.integers(0, 4), st.sampled_from(["name", "sha256"]))),
       value=JSON_VALUES)
def test_no_traceback_on_any_manifest_value(small_run_dir, where, value):
    """Any JSON value in place of one manifest value, a top-level one or one
    of a `files` entry, gives exit code 0, 1 or 2 from `verify --suite all`,
    no traceback and no RuntimeWarning, and each line of a failing `verify`
    names `manifest.json` or a file that the manifest lists, before or after
    the change."""
    with tempfile.TemporaryDirectory() as tmp:
        def edit(manifest):
            if isinstance(where, str):
                manifest[where] = value
            else:
                manifest["files"][where[0]][where[1]] = value
            return manifest

        outdir = _with_manifest(small_run_dir, tmp, edit)
        code, out, err, warned = _main(["verify", "--dir", outdir, "--suite", "all"])
        assert code in (0, 1, 2) and "Traceback" not in err and not warned, (code, out, err)
        listed = [entry["name"] for entry in json.load(open(os.path.join(
            small_run_dir, app.MANIFEST_FILE)))["files"]] + [str(value)]
        lines = _named_lines(out, err)
        assert all(app.MANIFEST_FILE in line or any(name in line for name in listed)
                   for line in lines), lines


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@example(line=7, value="1048576", raw=False)   # grid.points_per_axis = 2^20
@example(line=0, value="nan", raw=False)
@example(line=0, value="1.0   # the same value", raw=False)
@example(line=6, value="3\ngrid.dim = 2", raw=False)
@example(line=6, value="fluid.mu = 0.1", raw=True)
@given(line=st.integers(0, 22), raw=st.booleans(), value=st.one_of(
    st.integers(-10, 1 << 20).map(str), st.floats().map(repr), st.text(max_size=12)))
def test_no_traceback_on_any_config_line(small_run_dir, line, value, raw):
    """Any text in place of one line of `config.txt` (re-hashed), a new value
    for its key or `raw` text, gives exit code 0, 1 or 2 from `verify
    --suite all`, no traceback and no RuntimeWarning: a config that does not
    parse is an error naming `config.txt` (1), one whose digest moved a
    failure naming it (2), and only a config that the manifest's digest
    matches builds a problem, so that no edited grid size is allocated."""
    real = app.build_problem

    def checked(config):
        assert config.digest() == digest, "a problem built from an unchecked config"
        return real(config)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(app, "build_problem", checked):
        outdir = os.path.join(tmp, "run")
        shutil.copytree(small_run_dir, outdir)
        path = os.path.join(outdir, app.CONFIG_FILE)
        lines = open(path, encoding="utf-8").read().splitlines()
        digest = app.parse_config("\n".join(lines)).digest()
        lines[line] = value if raw else f"{lines[line].partition(' = ')[0]} = {value}"
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        _rewrite_checksum(outdir, app.CONFIG_FILE)
        try:
            expected = 0 if app.parse_config("\n".join(lines)).digest() == digest else 2
        except app.ConfigError:
            expected = 1
        code, out, err, warned = _main(["verify", "--dir", outdir, "--suite", "all"])
        assert code == expected and "Traceback" not in err and not warned, (code, out, err)
        assert all(app.CONFIG_FILE in line for line in _named_lines(out, err))
