"""Closed-loop benchmark of carfima: simulate, fit and tables.

    python3 bench/run.py --workload simulate --seed 1 --seconds 15 --trace 0

One process, one caller: each operation starts when the previous one has
returned.  The run sets up SETUPS times (import once, then input generation
and one warm-up call of each kind of operation), then repeats whole cycles
of the workload's fixed list of operations until --seconds have passed,
checks every output against values computed apart from the program, and
prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics.  --trace 1 sets up once, runs
each operation twice, untraced and traced in alternating order, and reports
the per-layer metrics of the traced copies (see tracing.py) per cycle;
trace.overhead_s is the traced minus the untraced time of one cycle.
"""

import os
import sys

# BLAS threads: fixed, at most the cores this process may use.  The n = 4096
# Cholesky takes about 1.3 s on two threads and 1.5 s on one (2-core host).
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3


def import_carfima() -> float:
    """Import the program from this checkout's src/; returns the seconds taken."""
    src = ROOT / "src"
    if not (src / "carfima" / "__init__.py").is_file():
        raise SystemExit(f"carfima sources not found under {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import carfima
    import carfima.cli  # noqa: F401
    elapsed = perf_counter() - start
    if Path(carfima.__file__).resolve().parent != src / "carfima":
        raise SystemExit(f"imported carfima from {carfima.__file__}, not from {src}")
    return elapsed


def _call(fn):
    """(output, None), or (None, the error) when the operation raises."""
    try:
        return fn(), None
    except Exception as exc:  # an operation that raises counts as failed
        return None, f"{type(exc).__name__}: {exc}"


def _run_plain(ops, wl, seconds):
    records = []
    cycles = 0
    start = perf_counter()
    while True:
        for label, fn in ops:
            t = perf_counter()
            out, error = _call(fn)
            records.append((label, perf_counter() - t, error or wl.digest(label, out)))
        cycles += 1
        if perf_counter() - start >= seconds:
            return records, cycles


def _run_traced(ops, wl, seconds, tracer):
    records = []
    cycles = 0
    plain_s = traced_s = 0.0
    start = perf_counter()
    while True:
        for k, (label, fn) in enumerate(ops):
            for traced in ((False, True) if (cycles + k) % 2 == 0 else (True, False)):
                t = perf_counter()
                if traced:
                    with tracer.operation(len(records), label):
                        out, error = _call(fn)
                else:
                    out, error = _call(fn)
                dt = perf_counter() - t
                if traced:
                    traced_s += dt
                else:
                    plain_s += dt
                records.append((label, dt, error or wl.digest(label, out)))
        cycles += 1
        if perf_counter() - start >= seconds:
            return records, cycles, (traced_s - plain_s) / cycles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["simulate", "fit", "tables"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_s = import_carfima()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    out_dir = ROOT / "bench" / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    setup_times = []
    for _ in range(1 if args.trace else SETUPS):
        t = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t)

    ops = wl.cycle()
    if args.trace:
        tracer = tracing.Tracer()
        records, cycles, overhead_s = _run_traced(ops, wl, args.seconds, tracer)
    else:
        records, cycles = _run_plain(ops, wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks_start = perf_counter()
    failed = 0
    for label, _, digest in records:
        errors = [digest] if isinstance(digest, str) else wl.check(label, digest)
        if errors:
            failed += 1
            print(f"FAILED {label}: {'; '.join(errors)}", file=sys.stderr)

    if args.trace:
        values = tracer.layer_metrics(cycles, overhead_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        times = [dt for _, dt, _ in records]
        cycle_s = [sum(times[i : i + len(ops)]) for i in range(0, len(times), len(ops))]
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": len(ops) / statistics.median(cycle_s), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{args.workload}: {cycles} cycles of {len(ops)} operations, "
          f"import {import_s:.3f} s, set-ups {[round(s, 3) for s in setup_times]} s, "
          f"checks {perf_counter() - checks_start:.3f} s", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
