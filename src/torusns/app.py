"""Experiment configuration, command-line entry points, and persistence.

Commands:
    simulate --config <file>            run + diagnostics + checkpoints
    verify   --dir <dir> --suite <s>    identity / inequality / monitor suites
    analyze  --field <file> --besov s,p,r [...]   norms of a stored field
    trace    --config <file> --particles <n>      particle paths

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 runtime stop other than normal completion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
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


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes"):
        return True
    if s.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


#: key -> (converter, default); None default means the key may be absent
CONFIG_SCHEMA = {
    "grid.dim": (int, 2),
    "grid.points_per_axis": (int, 32),
    "fluid.mu": (float, 0.1),
    "fluid.lambda": (float, 0.1),
    "fluid.a": (float, 1.0),
    "fluid.gamma": (float, 2.0),
    "forcing.preset": (str, "none"),
    "forcing.amplitude": (float, 0.0),
    "init.preset": (str, "equilibrium"),
    "init.density": (float, 1.0),
    "init.amplitude": (float, 0.3),
    "init.width": (float, 2.0),
    "init.u_amplitude": (float, 0.0),
    "init.flux_constant": (float, 0.3),
    "init.transverse": (float, 0.3),
    "time.dt": (float, None),
    "time.cfl": (float, None),
    "time.t_end": (float, 0.5),
    "time.snapshot_every": (int, 1),
    "time.vacuum_floor": (float, 0.0),
    "monitor.epsilon": (float, 0.5),
    "monitor.p_gain": (int, 4),
    "monitor.q_density": (float, None),
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
    errors = []
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
        conv = CONFIG_SCHEMA[key][0]
        try:
            values[key] = conv(val)
        except ValueError:
            errors.append(f"line {lineno}: bad value {val!r} for {key}")
    errors.extend(_validate_values(values))
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(values)


def _validate_values(v: dict) -> list[str]:
    errors = []
    if v["grid.dim"] not in (2, 3):
        errors.append(f"grid.dim must be 2 or 3, got {v['grid.dim']}")
    m = v["grid.points_per_axis"]
    if m < 8 or (m & (m - 1)) != 0:
        errors.append(f"grid.points_per_axis must be a power of two >= 8, got {m}")
    if v["fluid.mu"] <= 0:
        errors.append(f"fluid.mu must be positive, got {v['fluid.mu']}")
    if v["grid.dim"] * v["fluid.lambda"] + 2 * v["fluid.mu"] <= 0:
        errors.append("physical condition N*lambda + 2*mu > 0 violated")
    if v["fluid.a"] <= 0:
        errors.append(f"fluid.a must be positive, got {v['fluid.a']}")
    if v["fluid.gamma"] < 1:
        errors.append(f"fluid.gamma must be >= 1, got {v['fluid.gamma']}")
    if v["init.preset"] not in INIT_PRESETS:
        errors.append(f"init.preset must be one of {INIT_PRESETS}")
    if v["forcing.preset"] not in FORCING_PRESETS:
        errors.append(f"forcing.preset must be one of {FORCING_PRESETS}")
    if v["forcing.preset"] == "manufactured" and v["init.preset"] != "manufactured":
        errors.append("forcing.preset = manufactured requires the matching init preset")
    if v["init.preset"] == "manufactured" and v["forcing.preset"] != "manufactured":
        errors.append("init.preset = manufactured requires forcing.preset = manufactured")
    if v["time.dt"] is None and v["time.cfl"] is None:
        errors.append("one of time.dt or time.cfl is required")
    if v["time.dt"] is not None and v["time.dt"] <= 0:
        errors.append("time.dt must be positive")
    if v["time.cfl"] is not None and not (0 < v["time.cfl"] <= 1):
        errors.append("time.cfl must lie in (0, 1]")
    if v["time.t_end"] <= 0:
        errors.append("time.t_end must be positive")
    if v["time.snapshot_every"] < 1:
        errors.append("time.snapshot_every must be >= 1")
    if v["monitor.epsilon"] <= 0:
        errors.append("monitor.epsilon must be positive")
    if v["monitor.p_gain"] < 2 or v["monitor.p_gain"] % 2:
        errors.append("monitor.p_gain must be an even integer >= 2")
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


def build_problem(config: ExperimentConfig) -> Problem:
    v = config.values
    grid = sp.TorusGrid(v["grid.dim"], v["grid.points_per_axis"])
    gamma = v["fluid.gamma"]
    law = dyn.IsothermalLaw(v["fluid.a"]) if gamma == 1.0 \
        else dyn.PowerLaw(v["fluid.a"], gamma)
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
            amp = v["forcing.amplitude"]

            def forcing(t, grid, _amp=amp):
                s = np.zeros((grid.dim,) + grid.shape)
                s[0] = _amp
                return sp.VectorField.from_samples(grid, s)

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


def _write_manifest(outdir: str, config: ExperimentConfig, trajectory,
                    files: list[str]) -> dict:
    manifest = {
        "version": __version__,
        "config_hash": config.digest(),
        "seed": config["seed"],
        "stop_reason": trajectory.stop_reason,
        "stop_time": trajectory.stop_time,
        "snapshots": len(trajectory),
        "files": [{"name": name, "sha256": _sha256(os.path.join(outdir, name))}
                  for name in sorted(files)],
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
    records = diag.compute_diagnostics(trajectory, problem.params,
                                       problem.monitor, partition)
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
    manifest = _write_manifest(outdir, config, trajectory, files)
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
        fh.write("dt,l2_error,observed_order\n")
        for r in rows:
            fh.write(",".join(repr(float(v)) for v in r) + "\n")
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
    manifest_path = os.path.join(outdir, MANIFEST_FILE)
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"no manifest in {outdir}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    config = load_config(os.path.join(outdir, CONFIG_FILE))
    problem = build_problem(config)
    states = []
    for entry in manifest["files"]:
        if entry["name"].endswith(".nsb"):
            states.append(dyn.read_checkpoint(os.path.join(outdir, entry["name"])))
    states.sort(key=lambda s: s.t)
    return manifest, config, problem, states


def _check_integrity(outdir: str, manifest: dict) -> list[str]:
    failures = []
    for entry in manifest["files"]:
        path = os.path.join(outdir, entry["name"])
        if not os.path.exists(path):
            failures.append(f"missing file {entry['name']}")
        elif _sha256(path) != entry["sha256"]:
            failures.append(f"checksum mismatch for {entry['name']}")
    return failures


def _identity_suite(problem: Problem, states) -> list[str]:
    """Machine-precision identities on every checkpoint; a NaN residual
    fails (every test reads `not (residual <= tol)`)."""
    failures = []
    grid = problem.grid
    partition = lp.build_partition(grid)
    for n, state in enumerate(states):
        tol = IDENTITY_TOL * (1.0 + sp.lebesgue_norm(state.u, math.inf)
                              + sp.lebesgue_norm(state.rho, math.inf))
        residuals = diag.v1_identities(state, problem.params)
        h = diag.pressure_field(state, problem.params)
        h0 = h - sp.ScalarField.constant(grid, h.mean)
        residuals["bogovskii"] = sp.lebesgue_norm(
            sp.divergence(diag.bogovskii(h)) - h0, math.inf)
        zero_mean = state.rho - sp.ScalarField.constant(grid, state.rho.mean)
        trace = sp.ScalarField.zero(grid)
        for i in range(grid.dim):
            trace = trace + sp.riesz_composite(i, i, zero_mean)
        residuals["riesz_trace"] = sp.lebesgue_norm(trace - zero_mean, math.inf)
        p_part, q_part = sp.leray_project(state.u)
        residuals["leray_divergence"] = sp.lebesgue_norm(sp.divergence(p_part), math.inf)
        residuals["leray_completeness"] = sp.lebesgue_norm(
            (p_part + q_part) - state.u, math.inf)
        residuals["parseval_gap"] = abs(sp.lebesgue_norm(state.rho, 2)
                                        - sp.coefficient_l2_norm(state.rho))
        total = sp.ScalarField.zero(grid)
        for q in partition.active_blocks:
            total = total + lp.dyadic_block(partition, q, state.rho)
        residuals["dyadic_reconstruction"] = sp.lebesgue_norm(total - state.rho, math.inf)
        for name, val in residuals.items():
            if not (val <= tol):
                failures.append(f"state {n}: {name} residual {val:.3e}")
    return failures


def _series_crosscheck(outdir: str, problem: Problem, states) -> list[str]:
    """Recompute a few series columns from the checkpoints and compare;
    a NaN on either side fails."""
    path = os.path.join(outdir, SERIES_FILE)
    if not os.path.exists(path):
        return [f"missing {SERIES_FILE}"]
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(states):
        return [f"series rows ({len(rows)}) != checkpoints ({len(states)})"]
    failures = []
    cols = {name: header.index(name) for name in ("time", "mass", "rho_linf",
                                                  "min_rho")}
    for n, (state, row) in enumerate(zip(states, rows)):
        stored = {k: float(row[i]) for k, i in cols.items()}
        if not (abs(stored["time"] - state.t) <= 1e-12 * (1 + abs(state.t))):
            failures.append(f"snapshot {n}: time mismatch")
            continue
        recomputed = {
            "mass": state.mass,
            "rho_linf": sp.lebesgue_norm(state.rho, math.inf),
            "min_rho": state.min_density,
        }
        for key, val in recomputed.items():
            if not (abs(stored[key] - val) <= 1e-9 * (1.0 + abs(val))):
                failures.append(
                    f"snapshot {n}: stored {key}={stored[key]:.12g} "
                    f"!= recomputed {val:.12g}")
    return failures


def _rebuild_trajectory(problem: Problem, states, manifest) -> dyn.Trajectory:
    return dyn.Trajectory(states, manifest["stop_reason"], manifest["stop_time"],
                          problem.solver, problem.params)


def _inequality_suite(outdir: str, problem: Problem, trajectory
                      ) -> dict[str, diag.LedgerReport]:
    params = problem.params
    partition = lp.build_partition(problem.grid)
    reports = {}
    reports["energy"] = diag.energy_ledger(trajectory, params)
    reports["density_bounds"] = diag.density_bound_ledger(trajectory, params)
    reports["integrability"] = diag.integrability_gain(
        trajectory, params, problem.monitor.p_gain)
    reports["omega_budget"] = diag.grad_omega_budget(trajectory, params)
    reports["transport"] = diag.transport_estimate_report(
        trajectory, partition, problem.monitor.epsilon, math.inf, math.inf)
    if len(trajectory) >= 3:
        reports["v1_energy"] = diag.v1_energy_ledger(trajectory, params)
    ledger_dir = os.path.join(outdir, "ledgers")
    os.makedirs(ledger_dir, exist_ok=True)
    for name, rep in reports.items():
        with open(os.path.join(ledger_dir, f"{name}.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(rep.to_csv())
    return reports


def _monitor_suite(problem: Problem, trajectory, manifest) -> list[str]:
    failures = [f"snapshot {n}: non-finite samples"
                for n, state in enumerate(trajectory.states) if not state.is_finite()]
    flags = diag.blowup_monitor(trajectory, problem.params, problem.monitor)
    abnormal = manifest["stop_reason"] in ("vacuum", "nonfinite", "cfl")
    if abnormal and flags.extendable:
        failures.append(
            f"stop reason {manifest['stop_reason']} but monitor flags extendable")
    if not abnormal and not flags.density_bounded:
        failures.append("completed run flagged as density-unbounded")
    # monotonicity of the flags under window extension
    times = trajectory.times
    if len(times) >= 3:
        mid = float(times[len(times) // 2])
        early = diag.blowup_monitor(trajectory, problem.params, problem.monitor,
                                    window_end=mid)
        if (not early.density_bounded) and flags.density_bounded:
            failures.append("monitor flags are not monotone in the window")
    return failures


def verify(outdir: str, suite: str = "all") -> VerifyResult:
    """Run a verification suite over a stored run directory.

    Machine-precision identity failures and monitor-contract violations
    make the result (and the exit code) fail; inequality ledgers only
    report their empirical constants.
    """
    if suite not in VERIFY_SUITES:
        raise ValueError(f"suite must be one of {VERIFY_SUITES}, got {suite!r}")
    manifest, config, problem, states = _load_run(outdir)
    failures = _check_integrity(outdir, manifest)
    reports = {}
    if not failures:
        trajectory = _rebuild_trajectory(problem, states, manifest)
        if suite in ("identities", "all"):
            failures += _identity_suite(problem, states)
            failures += _series_crosscheck(outdir, problem, states)
        if suite in ("inequalities", "all"):
            reports = _inequality_suite(outdir, problem, trajectory)
        if suite in ("monitors", "all"):
            failures += _monitor_suite(problem, trajectory, manifest)
    return VerifyResult(not failures, failures, reports)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def analyze(field_path: str, besov_specs: list[tuple[float, float, float]]
            ) -> list[tuple[str, str, float]]:
    """Norm report for a stored checkpoint: Lebesgue, Sobolev, and the
    requested Besov norms for the density and each velocity component."""
    state = dyn.read_checkpoint(field_path)
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
    problem = build_problem(config)
    seeds = uniform_seeds(problem.grid, n_particles)
    paths = dyn.flow_map(bundle.trajectory, seeds)
    wrapped = paths.wrapped()
    path = os.path.join(bundle.outdir, PATHS_FILE)
    cols = ["time", "particle"] + [f"x{i}" for i in range(problem.grid.dim)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for ti, t in enumerate(paths.times):
            for pi in range(wrapped.shape[1]):
                row = [repr(float(t)), str(pi)]
                row += [repr(float(x)) for x in wrapped[ti, pi]]
                fh.write(",".join(row) + "\n")
    files = [entry["name"] for entry in bundle.manifest["files"]] + [PATHS_FILE]
    bundle.manifest = _write_manifest(bundle.outdir,
                                      config, bundle.trajectory, files)
    return bundle


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _besov_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected s,p,r got {text!r}")
    s = float(parts[0])
    p = math.inf if parts[1].strip() in ("inf", "oo") else float(parts[1])
    r = math.inf if parts[2].strip() in ("inf", "oo") else float(parts[2])
    return s, p, r


def _build_cli() -> argparse.ArgumentParser:
    keys = ", ".join(sorted(CONFIG_SCHEMA))
    parser = argparse.ArgumentParser(
        prog="torusns",
        description="Pseudospectral compressible Navier-Stokes on the torus "
                    "with Littlewood-Paley diagnostics.",
        epilog=f"config keys: {keys}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run an experiment")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None, help="override output.dir")
    p_sim.add_argument("--convergence", type=int, default=0, metavar="LEVELS",
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
    p_tr.add_argument("--particles", type=int, default=16)
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
    except (dyn.CheckpointError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
