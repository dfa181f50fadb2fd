"""Experiment configuration, command-line entry points, and persistence.

Commands:
    simulate --config <file>            run + diagnostics + checkpoints
    verify   --dir <dir> --suite <s>    identity / inequality / monitor suites
    analyze  --field <file> --besov s,p,r [...]   norms of a stored field
    trace    --config <file> --particles <n>      particle paths

Exit codes: 0 success, 1 validation error (config, checkpoint or command
line), 2 verification failure, 3 runtime stop other than normal completion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__
from . import spectral as sp
from . import littlewood_paley as lp
from . import dynamics as dyn
from . import diagnostics as diag

SERIES_FILE = "series.csv"
MANIFEST_FILE = "manifest.json"
CONFIG_FILE = "config.txt"
PATHS_FILE = "paths.csv"


class ConfigError(ValueError):
    """Carries every validation failure at once."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _finite_float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {s!r}")
    return value


#: key -> (converter, default); None default means the key may be absent
CONFIG_SCHEMA = {
    "grid.dim": (int, 2),
    "grid.points_per_axis": (int, 32),
    "fluid.mu": (_finite_float, 0.1),
    "fluid.lambda": (_finite_float, 0.1),
    "fluid.a": (_finite_float, 1.0),
    "fluid.gamma": (_finite_float, 2.0),
    "forcing.preset": (str, "none"),
    "forcing.amplitude": (_finite_float, 0.0),
    "init.preset": (str, "equilibrium"),
    "init.density": (_finite_float, 1.0),
    "init.amplitude": (_finite_float, 0.3),
    "init.width": (_finite_float, 2.0),
    "init.u_amplitude": (_finite_float, 0.0),
    "init.flux_constant": (_finite_float, 0.3),
    "init.transverse": (_finite_float, 0.3),
    "time.dt": (_finite_float, None),
    "time.cfl": (_finite_float, None),
    "time.t_end": (_finite_float, 0.5),
    "time.snapshot_every": (int, 1),
    "time.vacuum_floor": (_finite_float, 0.0),
    "monitor.epsilon": (_finite_float, 0.5),
    "monitor.p_gain": (int, 4),
    "monitor.q_density": (_finite_float, None),
    "output.dir": (str, "out"),
    "seed": (int, 0),
}

INIT_PRESETS = ("equilibrium", "density_bump", "stream_vortex", "manufactured")
FORCING_PRESETS = ("none", "constant", "manufactured")
VERIFY_SUITES = ("identities", "inequalities", "monitors", "all")


@dataclass
class ExperimentConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            val = self.values[key]
            if val is None:
                continue
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines with dotted keys; every validation failure
    is collected and reported at once."""
    values = {k: default for k, (_, default) in CONFIG_SCHEMA.items()}
    errors, set_on = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected `key = value`, got {raw!r}")
            continue
        key, _, val = (p.strip() for p in line.partition("="))
        if key not in CONFIG_SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in set_on:
            errors.append(f"line {lineno}: key {key} already set on line {set_on[key]}")
        set_on.setdefault(key, lineno)
        conv = CONFIG_SCHEMA[key][0]
        try:
            values[key] = conv(val)
        except ValueError:
            errors.append(f"line {lineno}: bad value {val!r} for {key}")
    errors.extend(_validate_values(values))
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(values)


def _keyed(section: str, message: str) -> str:
    """An owner's message with each word that names a field of `section`
    written as its config key (`lam` is fluid.lambda)."""
    keys = {key.partition(".")[2].replace("lambda", "lam"): key for key in CONFIG_SCHEMA
            if key.startswith(section + ".")}
    return re.sub(r"\w+", lambda word: keys.get(word[0], word[0]), message)


def _validate_values(v: dict) -> list[str]:
    """The configured types' rules, as each type states them, then the rest."""
    dim = v["grid.dim"]
    errors = [_keyed(section, message) for section, messages in (
        ("grid", sp.grid_errors(dim, v["grid.points_per_axis"])),
        ("fluid", dyn.FluidParams.errors(v["fluid.mu"], v["fluid.lambda"], dim)
         + dyn.PowerLaw.errors(v["fluid.a"], v["fluid.gamma"])),
        ("time", dyn.SolverConfig(v["time.t_end"], v["time.dt"], v["time.cfl"],
                                  v["time.snapshot_every"], v["time.vacuum_floor"]).errors()),
        ("monitor", diag.MonitorConfig.errors(v["monitor.epsilon"], v["monitor.p_gain"],
                                              v["monitor.q_density"]))) for message in messages]
    if v["init.preset"] not in INIT_PRESETS:
        errors.append(f"init.preset must be one of {INIT_PRESETS}")
    if v["forcing.preset"] not in FORCING_PRESETS:
        errors.append(f"forcing.preset must be one of {FORCING_PRESETS}")
    if v["forcing.preset"] == "manufactured" and v["init.preset"] != "manufactured":
        errors.append("forcing.preset = manufactured requires the matching init preset")
    if v["init.preset"] == "manufactured" and v["forcing.preset"] != "manufactured":
        errors.append("init.preset = manufactured requires forcing.preset = manufactured")
    return errors


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    grid: sp.TorusGrid
    params: dyn.FluidParams
    initial: dyn.FluidState
    solver: dyn.SolverConfig
    monitor: diag.MonitorConfig
    manufactured: dyn.ManufacturedSolution | None = None


def _constant_forcing(amplitude: float) -> dyn.ForcingFn:
    """g = amplitude e_1 at every t; the field is built once per grid (fields
    are immutable, so every call may share it)."""
    fields: dict[sp.TorusGrid, sp.VectorField] = {}

    def forcing(t, grid):
        if grid not in fields:
            s = np.zeros((grid.dim,) + grid.shape)
            s[0] = amplitude
            fields[grid] = sp.VectorField.from_samples(grid, s)
        return fields[grid]

    return forcing


def build_problem(config: ExperimentConfig) -> Problem:
    v = config.values
    grid = sp.TorusGrid(v["grid.dim"], v["grid.points_per_axis"])
    law = dyn.PowerLaw(v["fluid.a"], v["fluid.gamma"])
    ms = None
    forcing = None
    if v["init.preset"] == "manufactured":
        ms = dyn.ManufacturedSolution(
            law, v["fluid.mu"], v["fluid.lambda"],
            mean_density=v["init.density"] + 1.0,
            amplitude=v["init.amplitude"],
            flux_constant=v["init.flux_constant"],
            transverse_amplitude=v["init.transverse"])
        forcing = ms.forcing
        initial = ms.state(grid, 0.0)
    else:
        if v["init.preset"] == "equilibrium":
            initial = dyn.equilibrium_state(grid, v["init.density"])
        elif v["init.preset"] == "density_bump":
            initial = dyn.density_bump_state(
                grid, v["init.density"], v["init.amplitude"],
                width=v["init.width"], u_amplitude=v["init.u_amplitude"])
        else:
            initial = dyn.stream_vortex_state(grid, v["init.density"],
                                              v["init.amplitude"])
        if v["forcing.preset"] == "constant":
            forcing = _constant_forcing(v["forcing.amplitude"])

    params = dyn.FluidParams(v["fluid.mu"], v["fluid.lambda"], law, forcing)
    solver = dyn.SolverConfig(
        t_end=v["time.t_end"], dt=v["time.dt"], cfl=v["time.cfl"],
        snapshot_every=v["time.snapshot_every"],
        vacuum_floor=v["time.vacuum_floor"])
    monitor = diag.MonitorConfig(epsilon=v["monitor.epsilon"],
                                 p_gain=v["monitor.p_gain"],
                                 q_density=v["monitor.q_density"])
    return Problem(grid, params, initial, solver, monitor, ms)


# ---------------------------------------------------------------------------
# run bundle
# ---------------------------------------------------------------------------

@dataclass
class ReportBundle:
    outdir: str
    manifest: dict
    trajectory: dyn.Trajectory
    records: list


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _file_entry(outdir: str, name: str) -> dict:
    """The manifest's {name, sha256} entry of a file of the run directory."""
    return {"name": name, "sha256": _sha256(os.path.join(outdir, name))}


def _write_manifest(outdir: str, config: ExperimentConfig, trajectory,
                    files: list[dict]) -> dict:
    """Write the manifest of a run whose files have the {name, sha256} entries `files`."""
    manifest = {
        "version": __version__,
        "config_hash": config.digest(),
        "seed": config["seed"],
        "stop_reason": trajectory.stop_reason,
        "stop_time": trajectory.stop_time,
        "snapshots": len(trajectory),
        "step_count": trajectory.step_count,
        "files": sorted(files, key=lambda entry: entry["name"]),
    }
    path = os.path.join(outdir, MANIFEST_FILE)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest


def simulate(config: ExperimentConfig, outdir: str | None = None) -> ReportBundle:
    """Run the configured experiment, attach diagnostics at the snapshot
    cadence, and persist checkpoints + CSV series + manifest."""
    problem = build_problem(config)
    outdir = outdir or config["output.dir"]
    os.makedirs(outdir, exist_ok=True)
    trajectory = dyn.run(problem.initial, problem.params, problem.solver)
    partition = lp.build_partition(problem.grid)
    records = diag.compute_diagnostics(trajectory, problem.monitor, partition)
    files = []
    with open(os.path.join(outdir, CONFIG_FILE), "w", encoding="utf-8") as fh:
        fh.write(config.canonical_text())
    files.append(CONFIG_FILE)
    with open(os.path.join(outdir, SERIES_FILE), "w", encoding="utf-8") as fh:
        fh.write(diag.records_to_csv(records))
    files.append(SERIES_FILE)
    for n, state in enumerate(trajectory.states):
        name = f"state_{n:06d}.nsb"
        dyn.write_checkpoint(os.path.join(outdir, name), state)
        files.append(name)
    manifest = _write_manifest(outdir, config, trajectory,
                               [_file_entry(outdir, name) for name in files])
    return ReportBundle(outdir, manifest, trajectory, records)


def convergence_study(config: ExperimentConfig, levels: int = 3,
                      outdir: str | None = None) -> list[tuple[float, float, float]]:
    """Halve dt `levels` times on the manufactured preset and tabulate the
    terminal L2 velocity error against the exact solution; emits
    convergence.csv with (dt, error, observed_order) rows."""
    problem = build_problem(config)
    if problem.manufactured is None:
        raise ConfigError(["convergence study requires init.preset = manufactured"])
    if problem.solver.dt is None:
        raise ConfigError(["convergence study requires an explicit time.dt"])
    outdir = outdir or config["output.dir"]
    os.makedirs(outdir, exist_ok=True)
    ms = problem.manufactured
    rows = []
    dt = problem.solver.dt
    prev_err = None
    for _ in range(levels):
        solver = dyn.SolverConfig(t_end=problem.solver.t_end, dt=dt,
                                  snapshot_every=10 ** 9)
        traj = dyn.run(ms.state(problem.grid, 0.0), problem.params, solver)
        exact = ms.state(problem.grid, traj.states[-1].t)
        err = sp.lebesgue_norm(traj.states[-1].u - exact.u, 2)
        order = math.log2(prev_err / err) if prev_err else math.nan
        rows.append((dt, err, order))
        prev_err = err
        dt /= 2.0
    with open(os.path.join(outdir, "convergence.csv"), "w", encoding="utf-8") as fh:
        fh.write(diag._csv(("dt", "l2_error", "observed_order"), rows))
    return rows


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyResult:
    ok: bool
    failures: list = dc_field(default_factory=list)
    reports: dict = dc_field(default_factory=dict)


IDENTITY_TOL = 1e-11


def _load_run(outdir: str):
    """(manifest, config, problem, run, checkpoint paths in time order, their
    header times), each file read once.  `run` is the run's record without
    its states: the parameters and stop facts the ledgers read, while the
    states stream from the checkpoints.  ValueError when two checkpoints
    share a header time (a copy under a second name, say), since no time
    step separates them."""
    with open(os.path.join(outdir, MANIFEST_FILE), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    _check_manifest(manifest)
    config = load_config(os.path.join(outdir, CONFIG_FILE))
    problem = build_problem(config)
    run = dyn.Trajectory([], manifest["stop_reason"], manifest["stop_time"],
                         problem.solver, problem.params,
                         step_count=manifest.get("step_count", 0))
    paths = [os.path.join(outdir, entry["name"]) for entry in manifest["files"]
             if entry["name"].endswith(".nsb")]
    # the headers give the time order without reading the samples; the time
    # differences of the ledgers need times that strictly increase
    stored = sorted(((dyn.checkpoint_time(path), path) for path in paths),
                    key=lambda pair: pair[0])
    for (t0, earlier), (t1, later) in zip(stored, stored[1:]):
        if not t0 < t1:
            raise ValueError(f"checkpoint times do not increase: "
                             f"{os.path.basename(earlier)} at t={t0!r}, "
                             f"{os.path.basename(later)} at t={t1!r}")
    times, paths = (list(column) for column in zip(*stored))
    return manifest, config, problem, run, paths, times


def _is_file_entry(entry) -> bool:
    """Whether a manifest `files` entry is {name, sha256} with a plain file
    name, one that stays inside the run directory."""
    return (isinstance(entry, dict) and isinstance(entry.get("sha256"), str)
            and isinstance(name := entry.get("name"), str)
            and name not in ("", ".", "..") and os.path.basename(name) == name)


def _check_manifest(manifest) -> None:
    """Raise ValueError unless the manifest has what `verify` reads: a `files`
    list of such entries that names at least one checkpoint and no file
    twice, a string `stop_reason` and a numeric `stop_time`."""
    if not (isinstance(manifest, dict) and isinstance(manifest.get("files"), list)
            and all(map(_is_file_entry, manifest["files"]))
            and isinstance(manifest.get("stop_reason"), str)
            and type(manifest.get("stop_time")) in (int, float)):
        raise ValueError(f"malformed {MANIFEST_FILE}: need a `files` list of "
                         "{name, sha256} entries, `stop_reason` and `stop_time`")
    if not any(entry["name"].endswith(".nsb") for entry in manifest["files"]):
        raise ValueError(f"malformed {MANIFEST_FILE}: its `files` list names no "
                         ".nsb checkpoint")
    names = [entry["name"] for entry in manifest["files"]]
    if len(set(names)) != len(names):
        twice = sorted({name for name in names if names.count(name) > 1})
        raise ValueError(f"malformed {MANIFEST_FILE}: its `files` list names "
                         f"{', '.join(twice)} more than once")


def _check_integrity(outdir: str, manifest: dict) -> list[str]:
    failures = []
    for entry in manifest["files"]:
        path = os.path.join(outdir, entry["name"])
        if not os.path.isfile(path):
            failures.append(f"missing file {entry['name']}")
        elif _sha256(path) != entry["sha256"]:
            failures.append(f"checksum mismatch for {entry['name']}")
    return failures


def _check_facts(manifest: dict, config: ExperimentConfig, times: list[float]) -> list[str]:
    """The manifest's facts that the run directory, with its `config` and
    its checkpoints' header `times` in order, contradicts: config digest,
    checkpoint count, step count, stop time against the last checkpoint's,
    and stop reason."""
    count, steps, stop = len(times), manifest.get("step_count"), manifest["stop_time"]
    last = times[-1]
    holds = {
        "config_hash": manifest.get("config_hash") == config.digest(),
        "snapshots": manifest.get("snapshots") == count,
        "step_count": type(steps) is int and steps >= count - 1,
        "stop_time": stop == last or (stop > last and manifest["stop_reason"] != "completed"),
        "stop_reason": manifest["stop_reason"] in dyn.STOP_REASONS,
    }
    return [f"manifest {key} {manifest.get(key)!r} contradicts the run directory"
            for key, ok in holds.items() if not ok]


class _IdentitySuite:
    """Machine-precision identities on every checkpoint.

    Each residual is a field built from the snapshot's cached fields and is
    certified by `spectral.coefficient_sup_bound`, which costs no transform.
    That bound, round-off included, is at least the residual's computed sup
    norm.  The three v1 residuals are judged and reported by their bounds
    (`_Snapshot.v1_bounds`, what `series.csv` stores); any other residual
    whose bound exceeds the tolerance is transformed, and its sampled sup
    norm then decides and is reported.  The pass refuses a stored NaN or
    inf; a residual that overflows to one fails, since every test reads
    `not (residual <= tol)`.

    The Leray split is tested by div Pu = 0 and curl Qu = 0, properties of
    the projection that a wrong symbol breaks; Pu + Qu = u holds by the
    construction Pu = u - Qu whatever Q is, so it is not tested."""

    def __init__(self, problem: Problem, partition: lp.DyadicPartition, labels: list[str]):
        self.problem, self.partition, self.labels = problem, partition, labels
        self.failures: list[str] = []

    def _residuals(self, snap):
        """(name, residual field) of every identity but the three of
        `v1_bounds`, built one at a time so that only one is held at once."""
        grid, state, h = self.problem.grid, snap.state, snap.pressure
        yield "bogovskii", (sp.divergence(snap.velocities[1])
                            - (h - sp.ScalarField.constant(grid, h.mean)))
        zero_mean = state.rho - sp.ScalarField.constant(grid, state.rho.mean)
        trace = sp.ScalarField.zero(grid)
        for i in range(grid.dim):
            trace = trace + sp.riesz_composite(i, i, zero_mean)
        yield "riesz_trace", trace - zero_mean
        p_part, q_part = sp.leray_project(state.u)
        yield "leray_divergence", sp.divergence(p_part)
        yield "leray_curl", sp.curl(q_part)
        total = sp.ScalarField.zero(grid)
        for q in self.partition.active_blocks:
            total = total + lp.dyadic_block(self.partition, q, state.rho)
        yield "dyadic_reconstruction", total - state.rho

    def add(self, window) -> None:
        snap = window.current
        state = snap.state
        tol = IDENTITY_TOL * (1.0 + sp.lebesgue_norm(state.u, math.inf) + snap.rho_inf)
        values = dict(snap.v1_bounds)
        values.update({name: sp.lebesgue_norm(res, math.inf) for name, res in self._residuals(snap)
                       if not (sp.coefficient_sup_bound(res) <= tol)})
        values["parseval_gap"] = abs(sp.lebesgue_norm(state.rho, 2)
                                     - sp.coefficient_l2_norm(state.rho))
        for name, val in values.items():
            if not (val <= tol):
                self.failures.append(f"{self.labels[window.index]}: {name} residual {val:.3e}")

    def finish(self) -> list[str]:
        return self.failures


class _SeriesCrosscheck:
    """Every stored series cell against the row that `compute_diagnostics`'s
    accumulator recomputes from the checkpoints, bit for bit (float reprs
    read back exactly; a NaN fails), but the two stage quadratures, which
    only the run holds: they must be finite, 0.0 in the first row, and the
    dissipation must not decrease.  A missing or malformed series file (a
    header other than `RECORD_COLUMNS`, a short row, a non-number) fails."""

    QUADRATURES = ("dissipation_cum", "forcing_work_cum")

    def __init__(self, outdir: str, diagnostics: diag._Diagnostics, labels: list[str]):
        self.diagnostics, self.labels, self.rows, self.failures = diagnostics, labels, [], []
        try:
            self.rows = self._read(os.path.join(outdir, SERIES_FILE), len(labels))
        except ValueError as exc:
            self.failures.append(str(exc))

    @staticmethod
    def _read(path: str, count: int) -> list[list[float]]:
        """The cells of every row; ValueError names the first fault."""
        if not os.path.exists(path):
            raise ValueError(f"missing {SERIES_FILE}")
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            lines = fh.read().strip().splitlines() or [""]
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        if header != diag.RECORD_COLUMNS:
            raise ValueError(f"{SERIES_FILE} header is not {','.join(diag.RECORD_COLUMNS)}")
        if len(rows) != count:
            raise ValueError(f"{SERIES_FILE} rows ({len(rows)}) != checkpoints ({count})")
        for n, row in enumerate(rows):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells, header has {len(header)}")
                rows[n] = [float(cell) for cell in row]
            except ValueError as exc:
                raise ValueError(f"{SERIES_FILE} row {n}: {exc}") from None
        return rows

    def add(self, window) -> None:
        if not self.rows:
            return
        self.diagnostics.add(window)
        n = window.index
        for col, stored, val, before in zip(diag.RECORD_COLUMNS, self.rows[n],
                                            self.diagnostics.rows[-1].row(),
                                            self.rows[max(n - 1, 0)]):
            if col not in self.QUADRATURES:
                fault = None if stored == val else f"!= recomputed {val!r}"
            else:
                fault = ("is not finite" if not math.isfinite(stored)
                         else "is not 0.0" if n == 0 and stored != 0.0
                         else f"decreases from {before!r}"
                         if col == "dissipation_cum" and stored < before else None)
            if fault:
                self.failures.append(f"{self.labels[n]}: stored {col}={stored!r} {fault}")

    def finish(self) -> list[str]:
        return self.failures


def _inequality_ledgers(run: dyn.Trajectory, problem: Problem,
                        partition: lp.DyadicPartition, count: int) -> dict:
    """name -> (accumulator, the public function that reports it, the
    arguments that follow it there) for every ledger the suite writes."""
    mon = problem.monitor
    specs = {
        "energy": (diag.EnergyLedger, diag.energy_ledger, ()),
        "density_bounds": (diag.DensityBoundLedger, diag.density_bound_ledger, ()),
        "integrability": (diag.IntegrabilityGain, diag.integrability_gain,
                          (mon.p_gain,)),
        "transport": (diag.TransportEstimate, diag.transport_estimate_report,
                      (partition, mon.epsilon, math.inf, math.inf)),
    }
    if count >= 3:  # both differentiate the snapshots in time
        specs["omega_budget"] = (diag.GradOmegaBudget, diag.grad_omega_budget, ())
        specs["v1_energy"] = (diag.V1EnergyLedger, diag.v1_energy_ledger, ())
    return {name: (ledger(run, *args), report, args)
            for name, (ledger, report, args) in specs.items()}


def _write_ledgers(outdir: str, reports: dict[str, diag.LedgerReport]) -> None:
    ledger_dir = os.path.join(outdir, "ledgers")
    os.makedirs(ledger_dir, exist_ok=True)
    for name, rep in reports.items():
        with open(os.path.join(ledger_dir, f"{name}.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(rep.to_csv())


def verify(outdir: str, suite: str = "all") -> VerifyResult:
    """Run a verification suite over a stored run directory.

    The checkpoints are read one at a time, in time order, in one pass that
    feeds every check and ledger of the suite through a window of (previous,
    current, next) states; all of them share each state's derived fields
    while it is in the window, so at most three states are held at once
    (one for a suite whose checks differentiate nothing in time).

    A file that fails its checksum, or a manifest fact that the directory
    contradicts (`_check_facts`), fails every suite before the pass runs.
    Machine-precision identity failures, a `series.csv` cell that the
    checkpoints do not reproduce bit for bit (`_SeriesCrosscheck`) and, for
    a run that stopped normally, a blow-up criterion norm that is not finite
    (such a run must be extendable) make the result (and the exit code)
    fail, and so does an inequality ledger's empirical constant that is not
    finite; a finite one is only reported.  A stored state with a NaN or
    inf sample or a density at or below zero, which the pass refuses
    (`diagnostics._Snapshot`), is the one failure, and then no ledger is
    written.  A failure of one snapshot names its checkpoint file.
    """
    if suite not in VERIFY_SUITES:
        raise ValueError(f"suite must be one of {VERIFY_SUITES}, got {suite!r}")
    manifest, config, problem, run, paths, times = _load_run(outdir)
    failures = _check_integrity(outdir, manifest) + _check_facts(manifest, config, times)
    if failures:
        return VerifyResult(False, failures, {})
    labels = [f"{os.path.basename(path)} (snapshot {n})" for n, path in enumerate(paths)]
    checks, ledgers = [], {}
    monitors = [diag.BlowupMonitor(run, problem.monitor)] if suite in ("monitors", "all") else []
    if suite != "monitors":
        partition = lp.build_partition(problem.grid)
    if suite in ("identities", "all"):
        checks += [_IdentitySuite(problem, partition, labels), _SeriesCrosscheck(
            outdir, diag._Diagnostics(run, problem.monitor, partition), labels)]
    if suite in ("inequalities", "all"):
        ledgers = _inequality_ledgers(run, problem, partition, len(paths))
    try:
        diag.feed(checks + monitors + [ledger for ledger, _, _ in ledgers.values()],
                  problem.params, len(paths), lambda n: dyn.read_checkpoint(paths[n]))
    except (dyn.VacuumError, dyn.NonFiniteError) as refused:
        return VerifyResult(False, [f"{labels[times.index(refused.time)]}: stored {refused}"], {})
    for check in checks:
        failures += check.finish()
    for monitor in monitors:
        flags = diag.blowup_monitor(monitor, problem.monitor)
        if run.stop_reason in dyn.NORMAL_STOPS and not flags.extendable:
            failures += [f"{run.stop_reason} run is not extendable: criterion norm "
                         f"{name} {value!r} is not finite"
                         for name, value in flags.criterion_norms().items()
                         if not math.isfinite(value)]
    reports = {name: report(ledger, *args) for name, (ledger, report, args) in ledgers.items()}
    failures += [f"ledger {name}: empirical constant {rep.empirical_constant!r} is not finite"
                 for name, rep in reports.items() if not math.isfinite(rep.empirical_constant)]
    if reports:
        _write_ledgers(outdir, reports)
    return VerifyResult(not failures, failures, reports)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def analyze(field_path: str, besov_specs: list[tuple[float, float, float]]
            ) -> list[tuple[str, str, float]]:
    """Norm report for a stored checkpoint: Lebesgue, Sobolev, and the
    requested Besov norms for the density and each velocity component; a
    NaN or inf sample is refused with ValueError."""
    state = dyn.read_checkpoint(field_path)
    if not state.is_finite():
        raise ValueError(f"{field_path}: a stored sample is not finite")
    partition = lp.build_partition(state.grid)
    fields = [("rho", state.rho)]
    fields += [(f"u{i + 1}", state.u.component(i))
               for i in range(state.grid.dim)]
    rows = []
    for name, f in fields:
        rows.append((name, "L2", sp.lebesgue_norm(f, 2)))
        rows.append((name, "Linf", sp.lebesgue_norm(f, math.inf)))
        rows.append((name, "W1,2", sp.sobolev_norm(f, 1, 2)))
        for (s, p, r) in besov_specs:
            spec = lp.BesovSpec(s, p, r)
            rows.append((name, f"B^{s:g}_{{{p:g},{r:g}}}",
                         lp.besov_norm(partition, f, spec)))
    return rows


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def uniform_seeds(grid: sp.TorusGrid, n: int) -> np.ndarray:
    """n particles on a uniform sub-lattice of the torus."""
    if n < 1:
        raise ValueError("need at least one particle")
    per_axis = max(1, math.ceil(n ** (1.0 / grid.dim)))
    axes = [np.linspace(0, 2 * math.pi, per_axis, endpoint=False) + math.pi / per_axis
            for _ in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[:n]


def trace(config: ExperimentConfig, n_particles: int,
          outdir: str | None = None) -> ReportBundle:
    """Simulate, then advect uniformly seeded particles and emit paths.csv."""
    bundle = simulate(config, outdir)
    grid = bundle.trajectory.initial.grid
    seeds = uniform_seeds(grid, n_particles)
    paths = dyn.flow_map(bundle.trajectory, seeds)
    wrapped = paths.wrapped()
    path = os.path.join(bundle.outdir, PATHS_FILE)
    cols = ["time", "particle"] + [f"x{i}" for i in range(grid.dim)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for ti, t in enumerate(paths.times):
            for pi in range(wrapped.shape[1]):
                row = [repr(float(t)), str(pi)]
                row += [repr(float(x)) for x in wrapped[ti, pi]]
                fh.write(",".join(row) + "\n")
    files = bundle.manifest["files"] + [_file_entry(bundle.outdir, PATHS_FILE)]
    bundle.manifest = _write_manifest(bundle.outdir, config, bundle.trajectory, files)
    return bundle


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _besov_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected s,p,r got {text!r}")
    p, r = (math.inf if x.strip() == "oo" else float(x) for x in parts[1:])
    return _finite_float(parts[0]), p, r


def _count(minimum: int):
    """An argument type: an integer of at least `minimum`."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other validation error, keeping
    exit code 2 for a failed verification (argparse's default is 2)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_cli() -> argparse.ArgumentParser:
    keys = ", ".join(sorted(CONFIG_SCHEMA))
    parser = _Parser(
        prog="torusns",
        description="Pseudospectral compressible Navier-Stokes on the torus "
                    "with Littlewood-Paley diagnostics.",
        epilog=f"config keys: {keys}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run an experiment")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None, help="override output.dir")
    p_sim.add_argument("--convergence", type=_count(0), default=0, metavar="LEVELS",
                       help="dt-halving study instead of a single run "
                            "(manufactured preset only)")

    p_ver = sub.add_parser("verify", help="verify a stored run")
    p_ver.add_argument("--dir", required=True)
    p_ver.add_argument("--suite", default="all", choices=VERIFY_SUITES)

    p_ana = sub.add_parser("analyze", help="norms of a stored field")
    p_ana.add_argument("--field", required=True)
    p_ana.add_argument("--besov", type=_besov_triple, action="append",
                       default=[], metavar="s,p,r")

    p_tr = sub.add_parser("trace", help="particle paths of a run")
    p_tr.add_argument("--config", required=True)
    p_tr.add_argument("--particles", type=_count(1), default=16)
    p_tr.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_cli().parse_args(argv)
    try:
        if args.command == "simulate":
            config = load_config(args.config)
            if args.convergence:
                rows = convergence_study(config, args.convergence, args.out)
                print("dt        l2_error      observed_order")
                for dt, err, order in rows:
                    print(f"{dt:<9.6g} {err:<13.6e} {order:.3f}")
                return 0
            bundle = simulate(config, args.out)
            print(f"stop reason: {bundle.manifest['stop_reason']} "
                  f"at t={bundle.manifest['stop_time']:g} "
                  f"({bundle.manifest['snapshots']} snapshots) -> {bundle.outdir}")
            return 0 if bundle.manifest["stop_reason"] == "completed" else 3
        if args.command == "verify":
            result = verify(args.dir, args.suite)
            for failure in result.failures:
                print(f"FAIL {failure}")
            for name, rep in result.reports.items():
                print(f"ledger {name}: empirical constant "
                      f"{rep.empirical_constant:.6g}")
            print("verification " + ("passed" if result.ok else "failed"))
            return 0 if result.ok else 2
        if args.command == "analyze":
            for name, norm, value in analyze(args.field, args.besov):
                print(f"{name:>4s}  {norm:<14s} {value!r}")
            return 0
        if args.command == "trace":
            config = load_config(args.config)
            bundle = trace(config, args.particles, args.out)
            print(f"paths written to {os.path.join(bundle.outdir, PATHS_FILE)}")
            return 0 if bundle.manifest["stop_reason"] == "completed" else 3
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    except (dyn.CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
