"""Run one workload of the sigzero benchmark and print its metrics.

    python3 bench/run.py --workload sweep-warm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; sigzero is imported from its ``src/``.
The run:

1. builds the workload's inputs from ``--seed``;
2. (``--trace 0``) times set-up in fresh interpreters: importing sigzero and
   sigzero.cli and building the provider or session the workload starts
   from, SETUP_SAMPLES times, reporting the median;
3. runs one round untimed and checks every result against its reference;
4. runs whole rounds, each on fresh state, for ``--seconds`` (and at least
   MIN_OPS operations), timing each operation, with a calibration kernel
   between operations (see calib.py), and compares every result with the
   checked one;
5. prints one line of raw figures and then, as the last line, the result:
   end-to-end metrics with ``--trace 0``, per-layer metrics from the traced
   run with ``--trace 1`` (spans are written to bench/out/trace-<workload>.tsv).

Exit status 0 on a finished run, whatever ``correct`` says; 2 on bad
arguments; 1 when sigzero cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 100
SETUP_SAMPLES = 21
# a calibration sample after every this much operation time
CAL_EVERY_NS = 20_000_000

SETUP_CHILD = r"""
import sys, time
src, here, builds = sys.argv[1:4]
sys.path.insert(0, src)
t0 = time.perf_counter_ns()
import sigzero, sigzero.cli
if builds == "provider":
    sigzero.BlockProvider()
elif builds == "session":
    sigzero.cli.Session()
t1 = time.perf_counter_ns()
sys.path.insert(0, here)
import calib
print(t1 - t0, sorted(calib.calibrate() for _ in range(9))[4])
"""


def _import_sigzero():
    if not os.path.isfile(os.path.join(SRC, "sigzero", "__init__.py")):
        raise SystemExit("error: no sigzero sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import sigzero

    if os.path.dirname(os.path.dirname(os.path.abspath(sigzero.__file__))) != SRC:
        raise SystemExit("error: sigzero imported from %s, not %s" % (sigzero.__file__, SRC))


def measure_setup(builds):
    """Median over fresh interpreters of the rescaled set-up time, and the
    raw median, in seconds."""
    from calib import CAL_REF_NS

    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, SRC, HERE, builds],
            capture_output=True, text=True, timeout=60, check=True,
        )
        setup_ns, cal_ns = map(int, proc.stdout.split())
        raw.append(setup_ns / 1e9)
        scaled.append(setup_ns * CAL_REF_NS / cal_ns / 1e9)
    return statistics.median(scaled), statistics.median(raw)


def run_round(thunks, tracer, first_op_id, Raised):
    """Time each operation with a calibration sample before the first one,
    after every CAL_EVERY_NS of operation time, and after the last one.
    Returns results, raw latencies (ns) and the calibration time next to
    each operation (mean of the samples before and after it)."""
    from calib import calibrate

    results, lat, before = [], [], []
    cals = [calibrate()]
    since = 0
    for k, thunk in enumerate(thunks):
        t0 = time.perf_counter_ns()
        try:
            r = tracer.run_op(first_op_id + k, thunk) if tracer else thunk()
        except Exception as exc:  # an operation that raises is a failed one
            r = Raised(exc)
        t1 = time.perf_counter_ns()
        results.append(r)
        lat.append(t1 - t0)
        before.append(len(cals) - 1)
        since += t1 - t0
        if since >= CAL_EVERY_NS:
            cals.append(calibrate())
            since = 0
    cals.append(calibrate())
    near = [(cals[b] + cals[b + 1]) / 2 for b in before]
    return results, lat, near, cals


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_sigzero()
    import workloads
    from calib import CAL_REF_NS

    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r (one of %s)" % (args.workload, ", ".join(workloads.WORKLOADS)))
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, os.path.join(OUT, "work-" + args.workload))
    Raised = workloads.Raised

    setup = None
    if not args.trace:
        setup = measure_setup(wl.setup_builds)

    # untimed round: every result against its reference
    correct = True
    expected = {}
    for i, thunk in enumerate(wl.new_round()):
        try:
            r = thunk()
        except Exception as exc:
            r = Raised(exc)
        if wl.verify(i, r):
            expected[i] = r
        elif i not in wl.faults and not isinstance(r, Raised):
            correct = False

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    gc.collect()

    n_round = len(wl.kinds)
    min_rounds = math.ceil(MIN_OPS / n_round)
    all_lat, all_near, all_cals = [], [], []
    attempted = failed = rounds = 0
    last_results = []
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < args.seconds:
        thunks = wl.new_round()
        results, lat, near, cals = run_round(thunks, tracer, rounds * n_round, Raised)
        if tracer:
            tracer.end_round()
        for i, r in enumerate(results):
            attempted += 1
            if i in expected and r == expected[i]:
                continue
            if i in wl.faults:
                if not wl.verify(i, r):
                    failed += 1
            elif isinstance(r, Raised):
                failed += 1
            else:
                correct = False
        all_lat += lat
        all_near += near
        all_cals += cals
        last_results = results
        rounds += 1
        del thunks, results
        gc.collect()
    if tracer:
        tracer.uninstall()

    scaled_ms = [t * CAL_REF_NS / c / 1e6 for t, c in zip(all_lat, all_near)]
    digest = hashlib.sha256("\n".join(repr(r) for r in last_results).encode()).hexdigest()[:16]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "ops_per_round": n_round, "digest": digest,
        "calibration_ms_median": statistics.median(all_cals) / 1e6,
        "raw_latency_p50_ms": percentile(all_lat, 0.5) / 1e6,
        "raw_latency_p90_ms": percentile(all_lat, 0.9) / 1e6,
        "raw_throughput_ops": len(all_lat) / (sum(all_lat) / 1e9),
        "latency_p50_ms": percentile(scaled_ms, 0.5),
        "latency_p90_ms": percentile(scaled_ms, 0.9),
        "throughput_ops": len(scaled_ms) / (sum(scaled_ms) / 1e3),
    }
    if args.trace:
        import spans

        scale = CAL_REF_NS / statistics.median(all_cals)
        metrics = spans.per_layer_metrics(tracer, attempted, scale)
        path = os.path.join(OUT, "trace-%s.tsv" % args.workload)
        tracer.write(path)
        info["trace_file"] = os.path.relpath(path, ROOT)
        info["spans"] = len(tracer.sp_start)
    else:
        info["raw_setup_s"] = setup[1]
        metrics = {
            "throughput_ops": {"value": info["throughput_ops"], "unit": "1/s"},
            "latency_p50_ms": {"value": info["latency_p50_ms"], "unit": "ms"},
            "latency_p90_ms": {"value": info["latency_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": setup[0], "unit": "s"},
        }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
