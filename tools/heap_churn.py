"""Per-cycle page faults and timings of one benchmark workload.

    python3 tools/heap_churn.py --workload sim2d-vortex --cycles 12
    python3 tools/heap_churn.py --workload lp-ensemble --cycles 8 --seed 3

Runs the untraced closed loop of `bench/child.py` in this process: one
warm-up cycle, then per cycle the workload's cycle, its check, and a sample
of the reference kernel, exactly as a benchmark child does.  The bench
modules are imported, not changed.  Per cycle it prints the main-call and
verify seconds (`simulate_s`/`verify_s`, or `analysis_s` on lp-ensemble),
the minor page faults and the system CPU seconds that the cycle, check and
reference sample took together, and the process's peak resident set so far
(`ru_maxrss`, in MiB), then the medians over the measured cycles.

A cycle whose arrays the allocator hands back to the kernel and faults in
again shows here as many minor faults and system time; the timings of the
benchmark move with that count, so read it before trusting a timing claim.
The peak column reads a memory claim cycle by cycle: it is the figure that
the benchmark reports as `peak_rss_mb` at the end of its run.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tempfile

import audit


def _usage() -> tuple[int, float, float]:
    """Minor faults, system seconds and peak RSS in MiB (Linux reports
    ru_maxrss in KiB)."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_stime, ru.ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--cycles", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.cycles < 1:
        ap.error("--cycles must be >= 1")

    audit.import_bench()
    import child
    import workloads
    workload = workloads.make(args.workload)
    simulation = args.workload != "lp-ensemble"
    main_name = "simulate_s" if simulation else "analysis_s"
    columns = ["cycle", main_name] + (["verify_s"] if simulation else []) \
        + ["minor_faults", "sys_s", "peak_rss_mb"]
    rows = []
    with tempfile.TemporaryDirectory(prefix="heap-churn-") as workdir:
        workload.setup(args.seed, workdir)
        loop = child.Loop(workload)
        reference = child.reference_kernel(workload.grid.shape)
        loop.run()
        reference()
        print(" ".join(f"{c:>12s}" for c in columns))
        for n in range(args.cycles):
            faults0, sys0, _ = _usage()
            cycle = loop.run()
            reference()
            faults1, sys1, peak_mb = _usage()
            row = [cycle.main_s] + ([cycle.cycle_s - cycle.main_s] if simulation else []) \
                + [faults1 - faults0, sys1 - sys0, peak_mb]
            rows.append(row)
            print(f"{n:>12d} " + " ".join(
                f"{v:>12d}" if isinstance(v, int) else f"{v:>12.4f}" for v in row))
    medians = [statistics.median(col) for col in zip(*rows)]
    print(f"{'median':>12s} " + " ".join(f"{v:>12.4f}" for v in medians))
    if loop.failures:
        print("FAILED: " + "; ".join(f.strip() for f in loop.failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
