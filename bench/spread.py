"""Spread report and smoke test for the sigzero benchmark.

    python3 bench/spread.py --seeds 1-10 --seconds 20
    python3 bench/spread.py --workloads deep-cold --seeds 1-5 --seconds 10
    python3 bench/spread.py --smoke
    python3 bench/spread.py --compare bench/out/spread-A.json bench/out/spread-B.json

Runs bench/run.py once per (workload, seed), one run at a time, and prints
for each end-to-end metric its median, first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median, next to the bound in BENCHMARK.json.  It also prints the
share of failed operations per workload, which must be the same in every
run.  Raw records go to bench/out/spread-<time>.json; ``--compare`` reads
two of them and prints how far the second set's medians are from the
first's, against each metric's bound, as a later change is judged.

``--smoke`` runs all four workloads for one second each (one seed, every
check), each beside its traced run on the same seed, and fails unless every
run exits 0, reports ``correct``, and the traced run gives the same result
digest as the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def start(workload, seed, seconds, trace):
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    ), time.perf_counter()


def finish(started, workload, seed, trace):
    proc, t0 = started
    try:
        out, err = proc.communicate(timeout=900)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    wall = time.perf_counter() - t0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"workload": workload, "seed": seed, "trace": trace, "rc": proc.returncode,
                "wall_s": wall, "stderr": err[-2000:]}
    rec = json.loads(lines[-1])
    rec.update({"workload": workload, "seed": seed, "trace": trace, "rc": 0, "wall_s": wall,
                "info": json.loads(lines[-2])["info"]})
    return rec


def run_once(workload, seed, seconds, trace):
    return finish(start(workload, seed, seconds, trace), workload, seed, trace)


def parse_seeds(text):
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(records, config):
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    ok = True
    for workload in config_workloads(config):
        recs = [r for r in records if r["workload"] == workload]
        if not recs:
            continue
        bad = [r for r in recs if r["rc"] != 0 or not r["correct"]]
        print("== %s: %d runs, %d bad, wall %.1f s per run"
              % (workload, len(recs), len(bad), statistics.mean(r["wall_s"] for r in recs)))
        for r in bad:
            ok = False
            print("   bad run seed %s: rc %s %s" % (r["seed"], r["rc"], r.get("stderr", "")[-400:]))
        good = [r for r in recs if r not in bad]
        shares = sorted({r["failed"] / r["attempted"] for r in good})
        print("   failed share: %s" % ", ".join("%.6f" % s for s in shares))
        if len(shares) > 1:
            ok = False
        if len(good) < 2:
            continue
        names = list(good[0]["metrics"])
        for name in names + ["raw_latency_p50_ms", "raw_throughput_ops"]:
            if name in good[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in good]
            else:
                vals = [r["info"][name] for r in good]
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and rel > bound / 3:
                flag = "  <-- above a third of the bound"
            print("   %-20s median %12.5g  q1 %12.5g  q3 %12.5g  iqr/median %.4f%s%s"
                  % (name, med, q1, q3, rel,
                     "  bound %.2f" % bound if bound is not None else "", flag))
    return ok


def compare(path_a, path_b, config):
    """Median of each end-to-end metric in two sets of runs, and how much
    worse the second is, as a share of the first, against the bound."""
    sets = []
    for path in (path_a, path_b):
        with open(path) as fh:
            sets.append([r for r in json.load(fh) if r["rc"] == 0])
    ok = True
    for workload in config_workloads(config):
        a = [r for r in sets[0] if r["workload"] == workload]
        b = [r for r in sets[1] if r["workload"] == workload]
        if not a or not b:
            continue
        print("== %s: %d and %d runs" % (workload, len(a), len(b)))
        shares = {r["failed"] / r["attempted"] for r in a + b}
        print("   failed share: %s" % ", ".join("%.6f" % x for x in sorted(shares)))
        ok = ok and len(shares) == 1
        for m in config["end_to_end"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a)
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "" if worse <= m["bound"] else "  <-- worse than the bound"
            ok = ok and not flag
            print("   %-16s %12.5g  %12.5g  second worse by %+.4f  bound %.2f%s"
                  % (m["name"], ma, mb, worse, m["bound"], flag))
    return ok


def config_workloads(config):
    return [w["name"] for w in config["workloads"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10", help="a-b or a,b,c (default 1-10)")
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one-second runs of every workload")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare the medians of two spread record files")
    args = ap.parse_args(argv)
    config = load_config()
    if args.compare:
        return 0 if compare(*args.compare, config) else 1
    workloads = args.workloads.split(",") if args.workloads else config_workloads(config)
    os.makedirs(OUT, exist_ok=True)

    if args.smoke:
        ok = True
        t0 = time.perf_counter()
        for w in workloads:
            # the two runs of a workload go side by side; nothing is timed here
            both = [start(w, 1, 1, trace) for trace in (0, 1)]
            plain, traced = (finish(p, w, 1, trace) for trace, p in enumerate(both))
            for rec in (plain, traced):
                good = rec["rc"] == 0 and rec["correct"]
                same = rec["rc"] == 0 and rec["info"]["digest"] == plain.get("info", {}).get("digest")
                print("%-18s trace %d  rc %s  correct %s  attempted %s  failed %s  digest %s"
                      % (w, rec["trace"], rec["rc"], rec.get("correct"), rec.get("attempted"),
                         rec.get("failed"), "same" if same else "DIFFERS"))
                ok = ok and good and same
        print("smoke %s in %.1f s" % ("ok" if ok else "FAILED", time.perf_counter() - t0))
        return 0 if ok else 1

    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    records = []
    for w in workloads:
        for seed in parse_seeds(args.seeds):
            rec = run_once(w, seed, seconds, args.trace)
            records.append(rec)
            brief = {k: round(v["value"], 4) for k, v in rec.get("metrics", {}).items()}
            print("%s seed %d rc %s %s" % (w, seed, rec["rc"], brief), flush=True)
    path = os.path.join(OUT, "spread-%d.json" % int(time.time()))
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
    print("records: %s" % os.path.relpath(path, ROOT))
    return 0 if report(records, config) else 1


if __name__ == "__main__":
    sys.exit(main())
