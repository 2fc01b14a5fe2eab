"""simplexpoly benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The run repeats the workload's fixed op
sequence in fresh processes ("rounds", see round.py), one round per
ROUND_SECONDS[workload] of --seconds and at least MIN_ROUNDS, and takes
each op's time as the median across the rounds of its speed-scaled time
(below).  The round count depends on --seconds alone, never on how fast
the rounds ran, so the estimate is taken over the same number of samples
on every commit.

The host's speed drifts by tens of percent over seconds to minutes, the
same for every process, so each round also times a fixed calibration
computation every quarter second (round.py), and every op time is scaled
by REFERENCE_CALIBRATION_S over the median calibration time in a window
around the op.  Times are thus seconds at the reference host speed.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 rounds alternate between untraced and traced, and
it holds the per-layer metrics from the traced rounds plus the tracing
overhead.  Round records, sweep reports and spans go to perfbench/out/.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-serial", "sweep-jobs", "gram-scan")
MIN_ROUNDS = 3
# Seconds of --seconds per round: a little more than a round takes.
ROUND_SECONDS = {"sweep-serial": 10, "sweep-jobs": 8, "gram-scan": 6}
ROUND_TIMEOUT_S = 150
# calibration_unit() time on the reference host (2 cores, Python 3.11) in
# a quiet phase, and the half-width of the window around an op whose
# calibration samples set its speed factor.
REFERENCE_CALIBRATION_S = 3.5e-3
CALIBRATION_WINDOW_S = 2.0
# No float path runs on the sweep workloads: every check there is an exact
# comparison, so they lose no digits and report float64's full precision.
FLOAT64_DIGITS = -math.log10(2.0**-53)


def run_round(args, index, traced, workdir):
    out = os.path.join(workdir, f"round-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--workdir", workdir, "--out", out]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"round {index} exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    record["traced"] = traced
    record["round_wall_s"] = time.perf_counter() - started
    return record


def speed_factors(rnd):
    """Per op: reference calibration time over the median calibration time
    sampled within CALIBRATION_WINDOW_S of the op."""
    times = [t for t, _ in rnd["calibration"]]
    took = [d for _, d in rnd["calibration"]]
    factors = []
    for start, wall in zip(rnd["starts"], rnd["walls"]):
        lo = bisect.bisect_left(times, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(times, start + wall + CALIBRATION_WINDOW_S)
        factors.append(REFERENCE_CALIBRATION_S / statistics.median(took[lo:hi]))
    return factors


def per_op(rounds, key):
    """Each op's median speed-scaled time across the rounds."""
    scaled = []
    for r in rounds:
        if "factors" not in r:
            r["factors"] = speed_factors(r)
        scaled.append([v * f for v, f in zip(r[key], r["factors"])])
    return [statistics.median(values) for values in zip(*scaled)]


def end_to_end(rounds):
    walls = per_op(rounds, "walls")
    cpus = per_op(rounds, "cpus")
    setups = [r["setup_s"] * r["factors"][0] for r in rounds]
    errors = [r["details"]["worst_error"] for r in rounds if "worst_error" in r["details"]]
    digits = -math.log10(max(errors)) if errors else FLOAT64_DIGITS
    return {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (sum(walls), "s"),
        "cpu_s": (sum(cpus), "s"),
        "op_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "op_p99_ms": (statistics.quantiles(walls, n=100, method="inclusive")[98] * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "gram_digits": (digits, "digits"),
    }


LAYER_UNITS = {"calls": "count", "term_pairs": "count", "terms": "count", "max_terms": "count",
               "max_coeff_bits": "bits", "repeat_share": "share", "flops": "flop",
               "tasks": "count", "report_bytes": "bytes", "pool_calls": "count"}


def per_layer(rounds):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    layers = {}
    overhead = sum(per_op(traced, "walls")) - sum(per_op(plain, "walls"))
    for name in traced[0]["layers"]:
        unit = LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")
        if unit == "s":
            # A round's layer times, scaled by its median speed factor.
            value = statistics.median(
                r["layers"][name] * statistics.median(r["factors"]) for r in traced)
        else:
            value = traced[0]["layers"][name]
        layers[name] = (value, unit)
    layers["trace.overhead_s"] = (overhead, "s")
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "simplexpoly", "__init__.py")):
        print(f"run.py: no simplexpoly sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    # Traced runs alternate untraced and traced rounds, at least two of each.
    count = max(MIN_ROUNDS, int(args.seconds // ROUND_SECONDS[args.workload]))
    if args.trace:
        count = max(4, count + count % 2)
    rounds = [run_round(args, i, bool(args.trace) and i % 2 == 1, workdir) for i in range(count)]

    ops = len(rounds[0]["walls"])
    failed = sum(len(r["failed"]) for r in rounds)
    unexpected = any(set(r["failed"]) - set(r["known_faults"]) for r in rounds)
    details = [r["details"] for r in rounds]
    correct = not unexpected and all(
        d.get("self_check", False) and d.get("members_orthogonal", True) for d in details
    )
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    result = {
        "correct": correct,
        "attempted": ops * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, rounds=[
            {k: r[k] for k in ("traced", "round_wall_s", "setup_s", "peak_rss_mb", "failed")}
            for r in rounds]), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
