"""Benchmark of the hexablock library, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
./src.  The seed makes the workload's inputs; one round processes all of
them once in a fixed order, and a run repeats whole rounds from a single
closed-loop caller until --seconds have passed, so every run attempts the
same operations in the same proportions.  After timing, the outputs of the
first round are checked against computations made apart from the library.

Times are normalized to a reference machine speed.  On a shared host the
speed of one core swings by up to 1.7x over seconds with the neighbours'
load, so after every CAL_EVERY_NS of operation time the benchmark times a
fixed calibration snippet of the kind of work the workload does (scalar
interpreter work, or numpy array work for the grid oracle) and scales the
following latencies by the snippet's reference duration over that timing.  An operation's latency is the median of its
normalized latencies over the rounds; throughput is the number of
operations over the sum of those medians.

--trace 0 prints the end-to-end metrics of BENCHMARK.json (throughput,
latency median and tail, set-up time, peak RSS).  --trace 1 times untraced
rounds for half of --seconds, then one round with a span around every
public library function, and prints the per-layer metrics.  The last line
of standard output is the JSON result; details and spans go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
WARMUP_OPS = 3
CAL_EVERY_NS = 20_000_000    # calibrate after this much operation time


@dataclass(frozen=True)
class _Pair:
    a: complex
    b: complex


_ARR = np.linspace(0.0, 1.0, 64)
_OFF = np.linspace(-0.1, 0.1, 11)


def _interpreter_snippet():
    """Complex scalar arithmetic, small dataclass and dict allocations and a
    small numpy call: the make-up of the library's scalar paths."""
    acc = 0.0
    for k in range(120):
        p = _Pair(complex(math.cos(k), math.sin(k)) * 0.5, 0.3 + 0.4j)
        d = {"x": p.a * p.b, "k": k}
        acc += abs((p.b - p.a) / (1.0 - p.a.conjugate() * p.b)) + d["x"].real
        if k % 20 == 0:
            acc += float(np.dot(_ARR, _ARR))
    return acc


def _array_snippet():
    """|kappa| over two 11 x 11 complex grids broadcast to 11^4 points: the
    make-up of the grid oracle."""
    acc = 0.0
    for _ in range(2):
        g1 = 0.3 + _OFF[:, None, None, None] + 1j * _OFF[None, :, None, None]
        g2 = -0.2 + _OFF[None, None, :, None] + 1j * _OFF[None, None, None, :]
        den = 1.0 - 0.4 * g1 - 0.3 * g2 + 0.1 * g1 * g2
        top = np.clip((1.0 - np.abs(g1) ** 2) * (1.0 - np.abs(g2) ** 2), 0.0, None)
        acc += float(np.max(np.sqrt(top) / np.abs(den)))
    return acc


# snippet and its reference duration in ns, by the kind of work a workload does
CALIBRATIONS = {"interpreter": (_interpreter_snippet, 200_000),
                "array": (_array_snippet, 600_000)}


def speed_scale(kind):
    """Reference duration over the median of three timings of the `kind`
    calibration snippet, with the cyclic GC paused so the library's heap
    does not change it.  Multiplying a wall time by this factor expresses
    it at the reference machine speed."""
    snippet, ref_ns = CALIBRATIONS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            snippet()
            times.append(time.perf_counter_ns() - t0)
        return ref_ns / statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def import_library():
    if not (SRC / "hexablock" / "__init__.py").is_file():
        sys.exit(f"error: no hexablock sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hexablock
    if Path(hexablock.__file__).resolve().parent != (SRC / "hexablock").resolve():
        sys.exit(f"error: imported hexablock from {hexablock.__file__}, not {SRC}")
    return hexablock


def run_round(wl, hb, ops):
    """One pass over the inputs: (results, {index: error}, wall ns,
    normalized ns).  A failed operation leaves None in its result slot.
    The machine speed is re-measured after every CAL_EVERY_NS of work."""
    results, failures, wall, norm = [], {}, [], []
    clock = time.perf_counter_ns
    since = CAL_EVERY_NS
    for i, op in enumerate(ops):
        if since >= CAL_EVERY_NS:
            scale, since = speed_scale(wl.calibration), 0
        t0 = clock()
        try:
            r = wl.run(hb, op)
        except Exception as exc:  # an operation that raises counts as failed
            r = None
            failures[i] = repr(exc)
        dt = clock() - t0
        since += dt
        wall.append(dt)
        norm.append(dt * scale)
        results.append(r)
    return results, failures, wall, norm


def timed_rounds(wl, hb, ops, seconds):
    """Whole rounds until `seconds` have passed.  Returns the first round's
    (results, failures), the set of failed indices of every round, and each
    operation's median normalized and median wall latency over the rounds
    in ns."""
    norm, wall, fail_sets, first = [], [], [], None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        results, failures, round_wall, round_norm = run_round(wl, hb, ops)
        first = first or (results, failures)
        fail_sets.append(set(failures))
        wall.append(round_wall)
        norm.append(round_norm)
    return (first, fail_sets, [statistics.median(t) for t in zip(*norm)],
            [statistics.median(t) for t in zip(*wall)])


def measure_setup(wl, spec):
    """Median normalized wall time of a fresh interpreter that imports
    hexablock and answers the workload's first operation.  Start-up and
    imports dominate it, so it is normalized by the interpreter snippet."""
    cmd = [sys.executable, str(HERE / "probe.py"), wl.name, json.dumps(spec)]
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed_scale("interpreter")
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append((time.perf_counter() - t0) * (before + speed_scale("interpreter")) / 2)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(times), times


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def check_outputs(wl, hb, specs, results, failures, fail_sets, seed):
    """The operations of a round that failed (raised, or returned an output
    the checks reject) and the errors that make the run incorrect: failures
    outside the workload's register of known faults, and exceptions that
    differ between rounds."""
    rejected = wl.check(hb, specs, results, seed)
    failed = set(failures) | set(rejected)
    why = {**{i: f"raised {e}" for i, e in failures.items()}, **rejected}
    errors = [f"op {i}: {why[i]}" for i in sorted(failed - wl.allowed_failures(specs))]
    if any(s != fail_sets[0] for s in fail_sets):
        errors.append("the operations that raise differ between rounds")
    return failed, errors


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    hb = import_library()
    wl = WORKLOADS[args.workload]

    specs = wl.specs(hb, args.seed)
    ops = [wl.prepare(hb, s) for s in specs]
    detail = {"workload": wl.name, "seed": args.seed, "ops_per_round": len(ops)}
    if not args.trace:
        setup_s, detail["setup_samples_s"] = measure_setup(wl, specs[0])
    for op in ops[:WARMUP_OPS]:
        run_round(wl, hb, [op])

    seconds = args.seconds / 2 if args.trace else args.seconds
    (results, failures), fail_sets, op_ns, wall_ns = timed_rounds(wl, hb, ops, seconds)
    detail.update(rounds=len(fail_sets), wall_ops_per_s=len(ops) / (sum(wall_ns) / 1e9))
    if args.trace:
        from tracing import TIME_METRICS, Tracer
        tracer = Tracer()
        tracer.install()
        try:
            results, failures, wall, norm = run_round(wl, hb, ops)
        finally:
            tracer.uninstall()
        fail_sets.append(set(failures))
        values = tracer.metrics(len(ops))
        scale = sum(norm) / sum(wall)
        for name in TIME_METRICS:
            values[name] *= scale
        values["trace.overhead_us_per_op"] = (sum(norm) - sum(op_ns)) / len(ops) / 1e3
        kind = "per_layer"
    else:
        op_ns.sort()
        values = {"ops_per_s": len(ops) / (sum(op_ns) / 1e9),
                  "latency_p50_us": nearest_rank(op_ns, 50) / 1e3,
                  "latency_tail_us": nearest_rank(op_ns, wl.tail_pct) / 1e3,
                  "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        detail.update(tail_percentile=wl.tail_pct)
        kind = "end_to_end"

    failed, errors = check_outputs(wl, hb, specs, results, failures, fail_sets, args.seed)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": len(fail_sets) * len(ops),
              "failed": len(fail_sets) * len(failed),
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in bench[kind]}}
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-trace{args.trace}-seed{args.seed}"
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.json")
    detail.update(result=result, check_errors=errors)
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
