"""Benchmark of strichartz-lab: one workload, one process, one op in flight.

    python3 perfbench/run.py --workload picard --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  The run sets up (imports once, then input
generation and a warm-up cycle at the tiny size, repeated), then runs whole
op cycles of the workload in a closed loop while the next cycle is expected
to end within --seconds; at least one cycle runs.

--trace 0 prints the end-to-end metrics (set-up time, median op time, peak
RSS, error and certificate digits).  --trace 1 runs its first cycle
untraced as a reference, traces the rest, prints the per-layer metrics per
cycle and writes the spans to ``.perfbench/``.  The last line of standard
output is the JSON result; the line before it gives the details (machine,
per-op times and errors, missed gates).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, set before numpy loads.  With more, OpenBLAS's waiting
# helper thread spins and competes with the main thread whenever another
# process holds the second CPU: Picard op times spread 5.5-7.2 s on a 2-CPU
# machine with two threads, and 6.16-6.28 s with one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import spans  # noqa: E402

SETUP_REPEATS = 3
DIGITS_CAP = 16.0
LAYER_COUNTS = ("lattice.transform.calls", "fft.calls", "fft.points",
                "propagator.evolve_range.calls", "propagator.evolve_range.bytes",
                "propagator.rows_direct", "propagator.rows_factored",
                "propagator.switch_time.calls", "extremizer.lambda_apply.calls",
                "extremizer.gauge_fix.calls", "extremizer.picard_steps",
                "sextic_form.spline_calls", "sextic_form.spline_points")
LAYER_SELF_TIMES = ("lattice.transform", "propagator.evolve_range",
                    "propagator.switch_time", "propagator.spacetime_lp",
                    "extremizer.lambda_apply", "extremizer.gauge_fix",
                    "extremizer.picard_iterate", "sextic_form.q_quadrature",
                    "sextic_form.q_spacetime", "bilinear.bilinear_l3",
                    "bilinear.bilinear_l3.N4", "bilinear.bilinear_l3.N8",
                    "bilinear.bilinear_l3.N16", "bilinear.bilinear_l3.N32",
                    "bilinear.bilinear_l3.N64", "bilinear.pair_time_quadrature",
                    "bilinear.hausdorff_young_density", "bilinear.make_band_limited",
                    "bilinear.separation_sweep", "functional_equation.quadratic_log_fit",
                    "functional_equation.residual_statistic")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("picard", "oracle", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the smoke-test inputs")
    return p.parse_args(argv)


def import_program():
    """The package from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import strichartz_lab
    except ImportError as exc:
        sys.exit(f"cannot import strichartz_lab from {ROOT / 'src'}: {exc}")
    origin = Path(strichartz_lab.__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        sys.exit(f"strichartz_lab was imported from {origin}, not from this checkout")


def digits(err: float) -> float:
    """min(16, -log10 err); a NaN error has no digits."""
    if math.isnan(err):
        return 0.0
    return DIGITS_CAP if err <= 0 else min(DIGITS_CAP, -math.log10(err))


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    t_import = time.perf_counter() - T_START

    # set-up: input generation and a tiny warm-up cycle, repeated
    prep = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cycle = workloads.build(args.workload, args.seed, args.size)
        for op in workloads.build(args.workload, args.seed, "tiny"):
            op.run()
        prep.append(time.perf_counter() - t0)
    setup_s = t_import + statistics.median(prep)

    recorder = None
    ops = []            # (name, seconds, outcome or None, traced)
    cycle_s = []
    traced_cycles = 0
    t_loop = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for op in cycle:
            span = None
            if recorder is not None:
                recorder.op = len(ops)
                span = recorder.open(f"op.{op.name}")
            t0 = time.perf_counter()
            try:
                outcome = op.run()
            except Exception:   # a failed op is counted, not fatal
                traceback.print_exc()
                outcome = None
            dt = time.perf_counter() - t0
            if span is not None:
                recorder.close(span)
            ops.append((op.name, dt, outcome, recorder is not None))
        cycle_s.append(time.perf_counter() - t_cycle)
        if recorder is not None:
            traced_cycles += 1
        elif args.trace:
            recorder = spans.Recorder()
            recorder.install()
        # start another cycle only if it should end within --seconds
        expected_end = time.perf_counter() - t_loop + statistics.mean(cycle_s)
        if expected_end > args.seconds and (traced_cycles or not args.trace):
            break

    failed = [i for i, (_, _, out, _) in enumerate(ops) if out is None or out.failures]
    done = [out for _, _, out, _ in ops if out is not None]
    untraced = [dt for _, dt, _, traced in ops if not traced]
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "machine": machine(), "import_s": t_import, "prep_s": prep,
        "ops": [{"op": name, "seconds": dt, "traced": traced,
                 "err": None if out is None else out.err,
                 "cert": None if out is None else out.cert,
                 "failures": ["raised"] if out is None else out.failures,
                 "facts": {} if out is None else out.facts}
                for name, dt, out, traced in ops],
    }
    print(json.dumps(detail, default=float))

    if args.trace:
        metrics = layer_metrics(recorder, traced_cycles,
                                [dt for _, dt, _, traced in ops if traced], untraced)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        certs = [out.cert for out in done if out.cert is not None]
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "solve_s": metric(statistics.median(untraced), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "err_digits": metric(min((digits(out.err) for out in done), default=0.0), "digits"),
            "cert_digits": metric(min((digits(c) for c in certs), default=0.0), "digits"),
        }
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def layer_metrics(recorder, cycles: int, traced: list, untraced: list) -> dict:
    """Per-layer metrics per op cycle, and the cost of tracing itself."""
    self_times = recorder.self_times()
    counts = recorder.counts + Counter(f"{s[0]}.calls" for s in recorder.spans)
    out = {}
    for key in LAYER_COUNTS:
        out[key] = metric(counts.get(key, 0) / cycles,
                          "B" if key.endswith(".bytes") else "count")
    out["extremizer.contraction_rate"] = metric(
        counts.get("extremizer.contraction_rate", 0.0) / cycles, "ratio")
    for key in LAYER_SELF_TIMES:
        out[f"{key}.self_s"] = metric(self_times.get(key, 0.0) / cycles, "s")
    layers = Counter()
    for name, value in self_times.items():
        if name.count(".") == 1:    # name.tag entries repeat their name's time
            layers[name.split(".")[0]] += value
    for layer in (*spans.LAYERS, "op"):
        out[f"{layer}.self_s"] = metric(layers[layer] / cycles, "s")
    out["trace.solve_s"] = metric(statistics.median(traced), "s")
    out["trace.overhead_s"] = metric(statistics.median(traced) - statistics.median(untraced), "s")
    out["trace.span_coverage"] = metric(recorder.coverage(), "ratio")
    out["trace.spans"] = metric(len(recorder.spans) / cycles, "count")
    return out


if __name__ == "__main__":
    sys.exit(main())
