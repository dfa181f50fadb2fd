"""The benchmark's workloads: seeded inputs, one closed-loop cycle each,
and the fail-closed checks applied to every cycle's outputs.

`setup()` does the work that `setup_s` charges (config parsing, problem and
partition construction, input generation) and keeps what `cycle()` reuses.
`check()` and `fingerprint()` read a cycle's outputs outside the timed
region.  Every comparison is written so that NaN fails (`not (x <= tol)`),
because `verify` itself still passes NaN samples.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from torusns import app, dynamics as dyn, littlewood_paley as lp, spectral as sp

DEFAULT_SEED = 0
FINGERPRINT_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "fingerprints.json")

MASS_TOL = 1e-12           # relative drift of the mass over a run
IDENTITY_TOL = 1e-11       # v1 identity residuals (sup norm, O(1) fields)
SLACK_TOL = 1e-10          # energy-ledger slack must stay >= -SLACK_TOL
BONY_TOL = 1e-12           # Bony reconstruction, relative to |u|_inf |v|_inf
EIGHT_WAY_TOL = 1e-10      # eight-way sum vs transport_commutator, relative
FINGERPRINT_RTOL = 1e-9    # stored norms and constants, relative
FINGERPRINT_ATOL = 1e-12   # stored round-off-level residuals, absolute


@dataclass
class CycleResult:
    main_s: float          # app.simulate, or the whole LP ensemble
    cycle_s: float         # main call plus app.verify (simulations)
    items: int             # RK4 steps, or ensemble members
    member_ms: list = field(default_factory=list)
    outputs: object = None  # what check() and fingerprint() read
    info: dict = field(default_factory=dict)


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


# ---------------------------------------------------------------------------
# simulation workloads: simulate, then verify --suite all
# ---------------------------------------------------------------------------

SIM2D_CONFIG = """\
grid.dim = 2
grid.points_per_axis = 128
fluid.mu = 0.05
fluid.lambda = 0.05
fluid.a = 1.0
fluid.gamma = 2.0
init.preset = stream_vortex
init.amplitude = {amplitude!r}
time.dt = 0.002
time.t_end = 0.09
time.snapshot_every = 15
seed = {seed}
"""

SIM3D_CONFIG = """\
grid.dim = 3
grid.points_per_axis = 32
fluid.mu = 0.05
fluid.lambda = 0.05
fluid.a = 1.0
fluid.gamma = 1.4
forcing.preset = constant
forcing.amplitude = 0.2
init.preset = density_bump
init.amplitude = {amplitude!r}
init.u_amplitude = {u_amplitude!r}
time.cfl = 0.08
time.t_end = 0.07
time.snapshot_every = 1
seed = {seed}
"""


class SimulationWorkload:
    """`app.simulate` on a seeded config, then `app.verify(dir, "all")`.

    The seed perturbs amplitudes by a few percent only, so every seed does
    the same number of steps and snapshots and the timings stay comparable.
    """

    def __init__(self, name: str, template: str, perturb):
        self.name = name
        self.template = template
        self.perturb = perturb

    def config_text(self, seed: int) -> str:
        rng = np.random.default_rng(seed)
        return self.template.format(seed=seed, **self.perturb(rng))

    def setup(self, seed: int, workdir: str):
        self.config = app.parse_config(self.config_text(seed))
        self.problem = app.build_problem(self.config)
        self.grid = self.problem.grid
        # not reused (simulate builds its own), but part of what a user
        # pays before the first step, so setup_s charges it
        self.partition = lp.build_partition(self.problem.grid)
        self.rundir = os.path.join(workdir, self.name)

    def cycle(self, split_verify: bool = False) -> CycleResult:
        """One closed-loop cycle.  With split_verify the three suites run as
        separate calls (the traced run times them one by one)."""
        shutil.rmtree(self.rundir, ignore_errors=True)
        t0 = time.perf_counter()
        bundle = app.simulate(self.config, self.rundir)
        t1 = time.perf_counter()
        suite_s = {}
        if split_verify:
            parts = []
            for suite in ("identities", "inequalities", "monitors"):
                s0 = time.perf_counter()
                parts.append(app.verify(self.rundir, suite))
                suite_s[suite] = time.perf_counter() - s0
            result = app.VerifyResult(
                all(p.ok for p in parts), sum((p.failures for p in parts), []),
                {k: v for p in parts for k, v in p.reports.items()})
        else:
            result = app.verify(self.rundir, "all")
        t2 = time.perf_counter()
        paths = [os.path.join(self.rundir, e["name"])
                 for e in bundle.manifest["files"]]
        info = {
            "steps": bundle.trajectory.step_count,
            "snapshots": len(bundle.trajectory),
            "bytes_written": sum(os.path.getsize(p) for p in paths)
            + os.path.getsize(os.path.join(self.rundir, app.MANIFEST_FILE)),
            "checkpoint_bytes": sum(os.path.getsize(p) for p in paths
                                    if p.endswith(".nsb")),
            "verify_suite_s": suite_s,
        }
        return CycleResult(t1 - t0, t2 - t0, bundle.trajectory.step_count,
                           outputs=(bundle, result), info=info)

    def check(self, cycle: CycleResult) -> list[str]:
        """Seed-independent checks of one simulate + verify cycle."""
        bundle, result = cycle.outputs
        failures = []
        traj = bundle.trajectory
        if traj.stop_reason != "completed":
            failures.append(f"run stopped: {traj.stop_reason}")
        if not result.ok:
            failures.append(f"verify failed: {result.failures[:3]}")
        # the checkpoints read back must be finite and equal the snapshots
        stored = [dyn.read_checkpoint(os.path.join(self.rundir, e["name"]))
                  for e in bundle.manifest["files"] if e["name"].endswith(".nsb")]
        if len(stored) != len(traj.states):
            failures.append("checkpoint count differs from the snapshots")
        for n, (disk, mem) in enumerate(zip(stored, traj.states)):
            if not (disk.is_finite()
                    and np.array_equal(disk.rho.samples, mem.rho.samples)
                    and np.array_equal(disk.u.samples, mem.u.samples)):
                failures.append(f"checkpoint {n} is not the state it stores")
        mass = np.array([s.mass for s in stored] or [math.nan])
        drift = float(np.max(np.abs(mass - mass[0]))) / abs(mass[0])
        if not (drift <= MASS_TOL):
            failures.append(f"mass drift {drift:.3e} > {MASS_TOL:g}")
        for rec in bundle.records:
            if not _finite(list(rec.values.values())):
                failures.append(f"non-finite diagnostic at t={rec.time:g}")
            if not (rec.flags.get("finite") and rec.flags.get("positive")):
                failures.append(f"state flagged at t={rec.time:g}")
        worst = _identity_residual(bundle.records)
        if not (worst <= IDENTITY_TOL):
            failures.append(f"v1 identity residual {worst:.3e} > {IDENTITY_TOL:g}")
        slack = float(np.min(_energy_slack(result)))
        if not (slack >= -SLACK_TOL):
            failures.append(f"energy-ledger slack {slack:.3e} < -{SLACK_TOL:g}")
        return failures

    def fingerprint(self, cycle: CycleResult) -> dict:
        bundle, result = cycle.outputs
        final = bundle.trajectory.states[-1]
        return {
            "steps": bundle.trajectory.step_count,
            "rho_l2": sp.lebesgue_norm(final.rho, 2),
            "rho_linf": sp.lebesgue_norm(final.rho, math.inf),
            "u_l2": sp.lebesgue_norm(final.u, 2),
            "u_linf": sp.lebesgue_norm(final.u, math.inf),
            "final_energy_slack": float(_energy_slack(result)[-1]),
            "max_identity_residual": _identity_residual(bundle.records),
        }


RESIDUAL_COLUMNS = ("div_v1_residual", "curl_v1_residual",
                    "lap_decomposition_residual")


def _identity_residual(records) -> float:
    """Largest v1-identity residual in the series; NaN if any is not finite."""
    vals = [rec.values.get(k, math.nan) for rec in records for k in RESIDUAL_COLUMNS]
    return max(vals) if vals and _finite(vals) else math.nan


def _energy_slack(result) -> np.ndarray:
    """The energy-ledger slack column; [NaN] if the ledger is missing."""
    energy = result.reports.get("energy")
    slack = energy.column("slack") if energy is not None else []
    return np.asarray(slack, dtype=float) if len(slack) else np.array([math.nan])


# ---------------------------------------------------------------------------
# Littlewood-Paley ensemble: the analysis toolkit without the solver
# ---------------------------------------------------------------------------

class EnsembleWorkload:
    """Each member runs bony_decompose, transport_commutator, besov_norm and
    eight_way_split on seeded random fields at one seeded active block q."""

    def __init__(self, name: str, n: int, members: int):
        self.name = name
        self.n = n
        self.members = members

    def setup(self, seed: int, workdir: str):
        self.grid = sp.TorusGrid(2, self.n)
        self.partition = lp.build_partition(self.grid)
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(self.members):
            slope = 1.0 + rng.random()
            a = sp.random_field(self.grid, rng, slope=slope)
            b = sp.random_field(self.grid, rng, slope=slope)
            u = sp.random_vector_field(self.grid, rng, slope=slope)
            q = int(rng.integers(1, self.partition.q_max + 1))
            self.inputs.append((a, b, u, q))
        self.spec = lp.BesovSpec(0.5, 2.0, 2.0)

    def cycle(self, split_verify: bool = False) -> CycleResult:
        part, outs, member_ms = self.partition, [], []
        t0 = time.perf_counter()
        for a, b, u, q in self.inputs:
            m0 = time.perf_counter()
            bony = lp.bony_decompose(part, a, b)
            comm = lp.transport_commutator(part, u, a, q)
            besov = lp.besov_norm(part, a, self.spec)
            pieces = lp.eight_way_split(part, u, a, q)
            member_ms.append((time.perf_counter() - m0) * 1e3)
            outs.append((bony, comm, besov, pieces))
        t1 = time.perf_counter()
        return CycleResult(t1 - t0, t1 - t0, len(self.inputs), member_ms,
                           outputs=outs)

    def check(self, cycle: CycleResult) -> list[str]:
        """Seed-independent checks of every member of one ensemble."""
        failures = []
        for (a, b, u, q), (bony, comm, besov, pieces) in zip(self.inputs,
                                                            cycle.outputs):
            scale = 1.0 + sp.lebesgue_norm(a, math.inf) * sp.lebesgue_norm(b, math.inf)
            recon = bony[0] + bony[1] + bony[2] - sp.multiply(a, b)
            err = sp.lebesgue_norm(recon, math.inf) / scale
            if not (err <= BONY_TOL):
                failures.append(f"Bony reconstruction residual {err:.3e}")
            total = pieces[0]
            for piece in pieces[1:]:
                total = total + piece
            cscale = 1.0 + sp.lebesgue_norm(comm, math.inf)
            err = sp.lebesgue_norm(total - comm, math.inf) / cscale
            if not (err <= EIGHT_WAY_TOL):
                failures.append(f"eight-way sum differs from the commutator by {err:.3e}")
            if not (math.isfinite(besov) and besov > 0):
                failures.append(f"Besov norm {besov!r} is not finite and positive")
        return failures

    def fingerprint(self, cycle: CycleResult) -> dict:
        bony, comm, _, _ = cycle.outputs[0]
        return {
            "members": len(cycle.outputs),
            "paraproduct_l2": sp.lebesgue_norm(bony[0], 2),
            "remainder_l2": sp.lebesgue_norm(bony[2], 2),
            "commutator_l2": sp.lebesgue_norm(comm, 2),
            "besov_sum": float(sum(out[2] for out in cycle.outputs)),
        }


def _sim2d_perturb(rng):
    return {"amplitude": 0.5 + 0.05 * float(rng.random())}


def _sim3d_perturb(rng):
    return {"amplitude": 0.3 + 0.02 * float(rng.random()),
            "u_amplitude": 0.2 + 0.02 * float(rng.random())}


def make(name: str):
    if name == "sim2d-vortex":
        return SimulationWorkload(name, SIM2D_CONFIG, _sim2d_perturb)
    if name == "sim3d-dense":
        return SimulationWorkload(name, SIM3D_CONFIG, _sim3d_perturb)
    if name == "lp-ensemble":
        return EnsembleWorkload(name, 128, 6)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sim2d-vortex", "sim3d-dense", "lp-ensemble")


# ---------------------------------------------------------------------------
# stored fingerprint of the default seed
# ---------------------------------------------------------------------------

def load_fingerprints() -> dict:
    with open(FINGERPRINT_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare_fingerprint(stored: dict, got: dict) -> list[str]:
    """Counts must match exactly, round-off-level quantities within
    FINGERPRINT_ATOL, everything else within FINGERPRINT_RTOL."""
    failures = []
    for key, want in stored.items():
        have = got.get(key, math.nan)
        if isinstance(want, int):
            ok = have == want
        elif abs(want) < 1e-9:
            ok = abs(have - want) <= FINGERPRINT_ATOL
        else:
            ok = abs(have - want) <= FINGERPRINT_RTOL * abs(want)
        if not ok:
            failures.append(f"fingerprint {key}: {have!r} != stored {want!r}")
    return failures
