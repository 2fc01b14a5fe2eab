"""One round of a benchmark run, in a fresh process.

A round sets up one workload (imports plus seeded input generation), runs
its fixed op sequence with every op timed on its own (wall and CPU time,
the CPU time of reaped pool workers included), checks the outputs with
the benchmark's own oracles and writes a JSON record.  run.py starts the
rounds; by hand:

    python3 perfbench/round.py --workload gram-scan --seed 1 --trace 0 \\
        --workdir perfbench/out/manual --out perfbench/out/manual/round.json
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import math  # noqa: E402

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402


CALIBRATION_EVERY_S = 0.25


def _cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


_CAL_A = [(i * 2654435761 + 97) ** 3 for i in range(1, 61)]
_CAL_B = [(i * 40503 + 11) ** 4 for i in range(1, 61)]
_CAL_M = (1 << 89) - 1


def calibration_unit():
    """A fixed pure-Python big-integer convolution, independent of the
    program.  Its integers are not tracked by the garbage collector; a
    sample adds only a few dozen tracked objects (a list and the loop
    iterators), so it barely moves the program's collections."""
    out = [0] * (len(_CAL_A) + len(_CAL_B))
    for i, a in enumerate(_CAL_A):
        for j, b in enumerate(_CAL_B):
            x = out[i + j] + a * b
            out[i + j] = x // math.gcd(x, _CAL_M + i) if i & 1 else x % _CAL_M
    return out


def calibrate(samples):
    t0 = time.perf_counter()
    calibration_unit()
    t1 = time.perf_counter()
    samples.append((t0 - _START, t1 - t0))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + largest_child) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    prog = workloads.import_program()
    work = workloads.WORKLOADS[args.workload](prog, args.seed, args.workdir)
    setup_s = time.perf_counter() - _START

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(args.workdir)
        tracer.install(prog)

    walls, cpus, starts, calib = [], [], [], []
    clock = time.perf_counter
    next_cal = 0.0
    for i, op in enumerate(work.ops):
        if clock() >= next_cal:
            calibrate(calib)
            next_cal = clock() + CALIBRATION_EVERY_S
        c0 = _cpu()
        w0 = clock()
        out = op()
        w1 = clock()
        c1 = _cpu()
        starts.append(w0 - _START)
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        work.keep(i, out)

    calibrate(calib)
    record = {"setup_s": setup_s, "walls": walls, "cpus": cpus, "starts": starts,
              "calibration": calib,
              "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        tracer.write_spans(os.path.join(args.workdir, "spans.json"), _START)
    failed, known, details = work.check()
    record.update(failed=failed, known_faults=known, details=details)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
