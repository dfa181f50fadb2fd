"""One workload in one fresh, single-threaded process (started by run.py).

    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/child.py --workload NAME --seed N --setup-only

Prints one JSON object with the raw samples as its last stdout line; run.py
turns them into metrics.  With --trace 1 untraced and traced cycles
alternate, so the per-layer figures and the tracing overhead come from the
same process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

SPAWN_ENV = "TORUSNS_BENCH_SPAWNED_AT"
PROCESS_START = float(os.environ.get(SPAWN_ENV, time.time()))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

LEDGERS = {"energy": "energy_ledger", "density_bounds": "density_bound_ledger",
           "integrability": "integrability_gain", "omega_budget": "grad_omega_budget",
           "transport": "transport_estimate_report", "v1_energy": "v1_energy_ledger"}
SUITES = ("identities", "inequalities", "monitors")


def _import_torusns():
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import torusns
    if os.path.dirname(os.path.dirname(os.path.abspath(torusns.__file__))) != SRC:
        raise ImportError(f"torusns imported from {torusns.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    backend = "pocketfft" if hasattr(numpy.fft, "_pocketfft") else "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "fft_backend": f"numpy.fft ({backend})",
            "nproc": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


class Loop:
    """Runs cycles, checks each one outside the timed region, and counts
    attempted and failed operations (one operation per cycle).  A cycle's
    outputs are dropped once checked, so memory does not grow with the
    number of cycles."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprint = None

    def run(self, split_verify: bool = False, tracer=None):
        self.attempted += 1
        try:
            with tracer or contextlib.nullcontext():
                cycle = self.workload.cycle(split_verify)
            problems = self.workload.check(cycle)
            self.fingerprint = self.workload.fingerprint(cycle)
        except Exception:  # a crash is a failed operation, reported in full
            self.failures.append(traceback.format_exc())
            raise
        if problems:
            self.failures.append("; ".join(problems))
        cycle.outputs = None
        gc.collect()
        return cycle


def reference_kernel(shape: tuple):
    """Timer of a fixed numpy workload that uses no torusns code: in-place
    FFT round trips and products on an array of the workload's grid shape,
    2**23 points in all (about 0.2 s).  Timed next to each cycle, it tracks
    the host's speed at that moment; see `measure`."""
    import numpy as np
    a = np.random.default_rng(12345).standard_normal(shape) + 0j
    buf, out = np.empty_like(a), np.empty_like(a)
    repeats = 2 ** 23 // a.size

    def sample() -> float:
        t0 = time.perf_counter()
        for _ in range(repeats):
            np.fft.fftn(a, out=buf)
            np.fft.ifftn(buf, out=out)
            np.multiply(out, a, out=buf)
        return time.perf_counter() - t0
    return sample


def measure(loop: Loop, seconds: float) -> dict:
    """Untraced closed loop for `seconds`, after one warm-up cycle, with a
    reference-kernel sample before the first cycle and after each one.

    The host's speed drifts by up to 1.5x over minutes; dividing each cycle
    by the mean of the two reference samples around it removes most of
    that drift from the normalized metrics (run.py)."""
    reference = reference_kernel(loop.workload.grid.shape)
    loop.run()
    cycles, ref_s, start = [], [reference()], time.perf_counter()
    while not cycles or time.perf_counter() - start + cycles[-1].cycle_s <= seconds:
        cycles.append(loop.run())
        ref_s.append(reference())
    return {"main_s": [c.main_s for c in cycles],
            "cycle_s": [c.cycle_s for c in cycles],
            "items": [c.items for c in cycles],
            "member_ms": [m for c in cycles for m in c.member_ms],
            "reference_s": ref_s}


def measure_traced(loop: Loop, seconds: float) -> dict:
    """Alternate untraced and traced cycles; per-layer figures per cycle."""
    from tracer import Tracer
    loop.run(split_verify=True)
    plain, traced, infos, totals = [], [], [], None
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start + 2 * traced[-1] <= seconds:
        plain.append(loop.run(split_verify=True).cycle_s)
        tracer = Tracer()
        cycle = loop.run(split_verify=True, tracer=tracer)
        traced.append(cycle.cycle_s)
        infos.append(cycle.info)
        totals = _add(totals, tracer.summary())
    layers = layer_metrics(totals, infos, sum(traced))
    layers["trace.overhead_frac"] = \
        (statistics.median(traced) / statistics.median(plain) - 1, "fraction")
    return {"layers": layers, "fft_shapes": totals["fft_shapes"]}


def _add(acc, summary):
    """Sum two tracer summaries (nested dicts of numbers)."""
    if acc is None:
        return summary
    out = {}
    for key, val in summary.items():
        if isinstance(val, dict):
            out[key] = {k: acc[key].get(k, 0) + val.get(k, 0)
                        for k in set(acc[key]) | set(val)}
        else:
            out[key] = acc[key] + val
    return out


def layer_metrics(s: dict, infos: list[dict], traced_wall: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}, per traced cycle unless
    the name says otherwise.  A per-call time reads 0 when the workload
    makes no such call."""
    n = len(infos)
    calls, total, self_s, fft = s["calls"], s["total_s"], s["self_s"], s["fft"]
    steps = sum(i.get("steps", 0) for i in infos)
    snapshots = sum(i.get("snapshots", 0) for i in infos)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_cycle(name):
        return total.get(name, 0.0) / n

    def per_call_ms(name):
        return 1e3 * ratio(total.get(name, 0.0), calls.get(name, 0))

    def info_sum(key):
        return sum(i.get(key, 0) for i in infos) / n

    m = {
        "spectral.fft_calls": (fft["calls"] / n, "count"),
        "spectral.fft_calls_per_step":
            (ratio(s["fft_under"].get("dynamics.run", 0), steps), "count"),
        "spectral.fft_s": (fft["s"] / n, "s"),
        "spectral.fft_share": (fft["s"] / traced_wall, "fraction"),
        "spectral.fft_bytes_computed": (fft["bytes"] / n, "B"),
        "spectral.fft_gflop_computed": (fft["flop"] / n / 1e9, "Gflop"),
        "dynamics.run_s": (per_cycle("dynamics.run"), "s"),
        "dynamics.step_ms": (1e3 * ratio(total.get("dynamics.run", 0.0), steps), "ms"),
        "dynamics.steps": (steps / n, "count"),
        "dynamics.cfl_limit_s": (per_cycle("dynamics.cfl_limit"), "s"),
        "dynamics.write_checkpoint_ms": (per_call_ms("dynamics.write_checkpoint"), "ms"),
        "dynamics.read_checkpoint_ms": (per_call_ms("dynamics.read_checkpoint"), "ms"),
        "dynamics.checkpoint_bytes": (info_sum("checkpoint_bytes"), "B"),
        "diagnostics.compute_diagnostics_ms_per_snapshot":
            (1e3 * ratio(total.get("diagnostics.compute_diagnostics", 0.0), snapshots), "ms"),
        "diagnostics.v1_identities_ms": (per_call_ms("diagnostics.v1_identities"), "ms"),
    }
    for short, fn in LEDGERS.items():
        m[f"diagnostics.ledger_s.{short}"] = (per_cycle(f"diagnostics.{fn}"), "s")
    m["diagnostics.blowup_monitor_s"] = (per_cycle("diagnostics.blowup_monitor"), "s")
    for fn in ("bony_decompose", "eight_way_split", "transport_commutator", "besov_norm"):
        m[f"littlewood_paley.{fn}_ms"] = (per_call_ms(f"littlewood_paley.{fn}"), "ms")
    m["littlewood_paley.dyadic_block_calls"] = \
        (calls.get("littlewood_paley.dyadic_block", 0) / n, "count")
    for short, fn in (("bony", "bony_decompose"), ("eight_way", "eight_way_split")):
        name = f"littlewood_paley.{fn}"
        m[f"littlewood_paley.fft_calls_per_{short}"] = \
            (ratio(s["fft_under"].get(name, 0), calls.get(name, 0)), "count")
    for suite in SUITES:
        m[f"app.verify_suite_s.{suite}"] = \
            (sum(i.get("verify_suite_s", {}).get(suite, 0.0) for i in infos) / n, "s")
    # simulate's own time plus the checkpoint writes it makes
    m["app.output_s"] = ((self_s.get("app.simulate", 0.0)
                          + total.get("dynamics.write_checkpoint", 0.0)) / n, "s")
    m["app.bytes_written"] = (info_sum("bytes_written"), "B")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    _import_torusns()
    import workloads
    workload = workloads.make(args.workload)
    workload.setup(args.seed, args.workdir)
    setup_s = time.time() - PROCESS_START
    result = {"setup_s": setup_s}
    if not args.setup_only:
        loop = Loop(workload)
        try:
            if args.trace:
                result.update(measure_traced(loop, args.seconds))
            else:
                result.update(measure(loop, args.seconds))
        except Exception:  # recorded by Loop; report what was measured
            pass
        fingerprint = loop.fingerprint
        if fingerprint and args.seed == workloads.DEFAULT_SEED:
            # comparing with the stored fingerprint is one more operation
            loop.attempted += 1
            stored = workloads.load_fingerprints()[workload.name]
            mismatch = workloads.compare_fingerprint(stored, fingerprint)
            if mismatch:
                loop.failures.append("; ".join(mismatch))
        result.update({
            "attempted": loop.attempted,
            "failed": len(loop.failures),
            "failures": loop.failures,
            "fingerprint": fingerprint,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "env": environment(),
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
