"""torusns benchmark: simulate, verify and Littlewood-Paley workloads.

    python3 bench/run.py                      # every workload, untraced then traced
    python3 bench/run.py --workload sim2d-vortex --seed 3 --seconds 20 --trace 0

Run from the root of a checkout.  Each measurement runs in a fresh child
process (bench/child.py) pinned to one thread.  With --trace 0 the last
stdout line is a JSON object with the end-to-end metrics of BENCHMARK.json;
with --trace 1 it holds the per-layer metrics of the traced run.  The lines
before it are the human-readable report.  The exit code is non-zero when a
correctness check failed or the checkout has no torusns sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKDIR = os.path.join(ROOT, ".bench_build", "torusns-bench")
WORKLOADS = ("sim2d-vortex", "sim3d-dense", "lp-ensemble")
SIMULATIONS = ("sim2d-vortex", "sim3d-dense")
SETUP_PROBES = 4          # set-up-only processes per run, besides the measuring one
RUN_DEADLINE_S = 170.0    # one invocation must end well within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ChildError(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    """Run child.py in a fresh single-threaded process; return its JSON."""
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    env["TORUSNS_BENCH_SPAWNED_AT"] = repr(time.time())
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen([sys.executable, CHILD, "--workdir", WORKDIR] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=env)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"child {args} did not finish within {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {args} exited {proc.returncode}:\n{err.strip()}")
    return json.loads(lines[-1])


def normalized(times: list[float], ref_s: list[float]) -> float:
    """Median over cycles of the cycle's time divided by the mean of the
    reference-kernel samples taken just before and just after it."""
    return statistics.median(t / (0.5 * (ref_s[i] + ref_s[i + 1]))
                             for i, t in enumerate(times))


def end_to_end(workload: str, raw: dict, setup: list[float]) -> tuple[dict, list]:
    """(result-line metrics, report rows).  The result line carries the
    metrics every workload has, with the main-call and cycle times in units
    of the reference kernel; the report adds the seconds under per-workload
    names."""
    main_s = statistics.median(raw["main_s"])
    ref_s = raw["reference_s"]
    setup_s = statistics.median(setup)
    metrics = {
        "setup_s": (setup_s, "s"),
        "main_norm": (normalized(raw["main_s"], ref_s), "ref"),
        "cycle_norm": (normalized(raw["cycle_s"], ref_s), "ref"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
    }
    n = f"median of {len(raw['main_s'])} cycles"
    rows = [("setup_s", setup_s, "s", f"median of {len(setup)} processes")]
    rows += [(k, *metrics[k], "cycle time / adjacent reference-kernel time")
             for k in ("main_norm", "cycle_norm")]
    rows.append(("reference_ms", 1e3 * statistics.median(ref_s), "ms",
                 f"median of {len(ref_s)} reference-kernel samples"))
    if workload in SIMULATIONS:
        verify_s = statistics.median(c - m for c, m in zip(raw["cycle_s"], raw["main_s"]))
        steps = statistics.median(raw["items"])
        rows += [("simulate_s", main_s, "s", n),
                 ("steps_per_s", steps / main_s, "1/s", f"{steps:g} steps per run"),
                 ("verify_s", verify_s, "s", n)]
    else:
        members = raw["member_ms"]
        deciles = statistics.quantiles(members, n=10, method="inclusive")
        rows += [("analysis_s", main_s, "s", n),
                 ("member_ms.p50", statistics.median(members), "ms", f"n={len(members)}"),
                 ("member_ms.p90", deciles[8], "ms", f"n={len(members)}")]
    rows += [("peak_rss_mb", raw["peak_rss_mb"], "MiB", "child process"),
             ("failed_fraction", raw["failed"] / raw["attempted"], "1",
              f"{raw['failed']} of {raw['attempted']}")]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, rows


def measure(workload: str, seed: int, seconds: float, trace: int,
            deadline: float) -> tuple[dict, list, dict]:
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []
    if not trace:
        # the first import compiles bytecode; it is not one of the samples
        run_child(common + ["--setup-only"], deadline)
        for _ in range(SETUP_PROBES):
            setup.append(run_child(common + ["--setup-only"], deadline)["setup_s"])
    raw = run_child(common + ["--seconds", str(seconds), "--trace", str(trace)],
                    deadline)
    setup.append(raw["setup_s"])
    if trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in raw.get("layers", {}).items()}
        rows = [(k, m["value"], m["unit"], "per traced cycle") for k, m in metrics.items()]
    elif "main_s" in raw:
        metrics, rows = end_to_end(workload, raw, setup)
    else:
        metrics, rows = {}, []
    return metrics, rows, raw


def report(workload: str, trace: int, rows: list, raw: dict) -> None:
    mode = "traced" if trace else "untraced"
    print(f"== {workload} ({mode}, seed {raw.get('seed')})")
    for name, value, unit, note in rows:
        print(f"  {name:<50s} {value:>14.6g} {unit:<6s} {note}")
    if trace and raw.get("fft_shapes"):
        for shape, count in sorted(raw["fft_shapes"].items()):
            print(f"  transform {shape:<40s} {count:>8d} calls")
    if raw.get("fingerprint"):
        print(f"  fingerprint {json.dumps(raw['fingerprint'])}")
    for failure in raw.get("failures", []):
        print(f"  FAILED: {failure.strip()}")
    if raw.get("env"):
        print(f"  env {json.dumps(raw['env'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="torusns benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "torusns", "__init__.py")):
        print(f"error: no torusns sources under {ROOT}/src", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    single = len(workloads) * len(traces) == 1
    try:
        for workload in workloads:
            for trace in traces:
                deadline = time.monotonic() + RUN_DEADLINE_S
                try:
                    metrics, rows, raw = measure(workload, args.seed, args.seconds,
                                                 trace, deadline)
                except ChildError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                raw["seed"] = args.seed
                report(workload, trace, rows, raw)
                out["attempted"] += raw["attempted"]
                out["failed"] += raw["failed"]
                prefix = "" if single else f"{workload}/"
                out["metrics"].update({prefix + k: v for k, v in metrics.items()})
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    out["correct"] = out["failed"] == 0
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
