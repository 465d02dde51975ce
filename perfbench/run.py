"""npshell benchmark: one seeded workload, closed loop, one thread.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``npshell`` from its
``src/``.  The next op starts when the previous one returns; BLAS and OpenMP
are pinned to one thread.  Every op's output is checked; an op that raises or
fails its check is counted as failed and the run goes on.

Set-up is timed once in this process and, in ``--trace 0`` runs, again in
fresh interpreters started at even intervals of the timed phase, whose
time is left out of it.  ``--trace 0`` prints the end-to-end metrics, with
set-up and op timings scaled to a reference host speed measured next to
them (see ``hostspeed.py``; the unscaled figures are on the ``detail``
line);
``--trace 1`` runs each op once untraced and once traced (alternating which
goes first), and prints the per-layer metrics from the traced executions'
spans.  The last line of standard output is the result as one JSON object.
Exit code 0 means the run completed; 2 means bad arguments or no
``src/npshell`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is timed in this process and in fresh interpreters started at even
# intervals over the timed phase (their time is left out of it), each sample
# scaled by the host speed measured right after it.
SETUP_SAMPLES = 11
# Inputs generated per second of run: well above today's op rates, so a run
# only cycles back to its first input once the library is several times faster.
INPUT_RATE = {"sweep": 20, "sweep-full": 20, "xcheck": 1, "xcheck-full": 1, "np-oracle": 10}


class _Discard:
    def write(self, s):
        return len(s)

    def flush(self):
        pass


def timed_setup(workload: str, seed: int, seconds: float):
    """Import npshell and generate the seeded inputs; returns (seconds, workload, inputs)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import npshell  # noqa: F401
    import npshell.cli  # noqa: F401
    import workloads

    wl = workloads.make(workload, OUT)
    inputs = wl.generate(seed, max(1, math.ceil(seconds * INPUT_RATE[workload])))
    return time.perf_counter() - t0, wl, inputs


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run_one(wl, inp, stats: dict, tracer=None, op_id: int = -1) -> float:
    """Run and check one op; returns its latency in seconds."""
    err = result = None
    with tracer.active(op_id) if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            result = wl.op(inp)
        except Exception as exc:  # an op that raises is a failure, not the end of the run
            err = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    if err is None:
        try:
            outcome = wl.check(inp, result)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
        else:
            err = outcome.error
            stats["max_rel_gap"] = max(stats["max_rel_gap"], outcome.rel_gap)
            if tracer is not None:
                stats["bytes_written"] += outcome.bytes_written
    stats["attempted"] += 1
    if err is None:
        stats["correct"] += 1
    else:
        stats["failed"] += 1
        if len(stats["errors"]) < 5:
            stats["errors"].append(f"op {op_id}: {err}")
    return t1 - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(INPUT_RATE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported, in timed_setup
        os.environ[var] = "1"
    if not (SRC / "npshell" / "__init__.py").is_file():
        print(f"error: no npshell sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    setup_s, wl, inputs = timed_setup(args.workload, args.seed, args.seconds)
    import npshell

    if Path(npshell.__file__).resolve().parent != SRC / "npshell":
        print(f"error: imported npshell from {npshell.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import metrics
    from hostspeed import HostSpeed
    from spans import Tracer

    stats = {"attempted": 0, "correct": 0, "failed": 0, "errors": [],
             "max_rel_gap": 0.0, "bytes_written": 0}
    latencies, untraced, traced = [], [], []
    tracer = Tracer() if args.trace else None
    host = HostSpeed() if tracer is None else None
    setups = [setup_s]
    setup_speeds = [host.speed()] if tracer is None else []
    paused = 0.0  # time of set-up probes inside the timed phase
    real_stdout = sys.stdout
    sys.stdout = _Discard()  # the CLI prints a line per op
    try:
        if tracer is None:
            host.sample(0.0)
        start = time.perf_counter()
        probe_at = [k * args.seconds / (SETUP_SAMPLES - 1)
                    for k in range(SETUP_SAMPLES - 1)] if tracer is None else []
        i = 0
        while i == 0 or time.perf_counter() - start - paused < args.seconds:
            inp = inputs[i % len(inputs)]
            while probe_at and time.perf_counter() - start - paused >= probe_at[0]:
                probe_at.pop(0)
                t0 = time.perf_counter()
                setups.append(setup_probe(args))
                setup_speeds.append(host.speed())
                paused += time.perf_counter() - t0
            if tracer is None:
                latencies.append(run_one(wl, inp, stats, op_id=i))
                host.sample(latencies[-1])
            else:
                first_traced = i % 2 == 1
                for traced_now in (first_traced, not first_traced):
                    if traced_now:
                        traced.append(run_one(wl, inp, stats, tracer, i))
                    else:
                        untraced.append(run_one(wl, inp, stats, op_id=i))
            i += 1
        wall = time.perf_counter() - start - paused
        for _ in probe_at:  # due after the last op started
            setups.append(setup_probe(args))
            setup_speeds.append(host.speed())
    finally:
        sys.stdout = real_stdout
        wl.cleanup()

    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op_wall = wall - sum(sum(b) for b in host.batches[1:])
        values = metrics.end_to_end(setups, setup_speeds, latencies, host.op_speeds(),
                                    stats["correct"], op_wall, peak_rss_mb)
        units = metrics.END_TO_END
        pct, tail_s, beyond = metrics.tail(latencies)
        raw = metrics.end_to_end(setups, [1.0] * len(setups), latencies, [1.0] * len(latencies),
                                 stats["correct"], op_wall, peak_rss_mb)
        detail = {"ops": len(latencies), "failed_frac": stats["failed"] / stats["attempted"],
                  "raw_setup_s": raw["setup_s"],
                  "raw_ops_per_s": raw["ops_per_s"], "raw_op_p50_ms": raw["op_p50_ms"],
                  "host_speed_median": statistics.median(host.op_speeds()),
                  "tail_percentile": None if math.isnan(pct) else pct,
                  "op_tail_ms": None if math.isnan(tail_s) else 1e3 * tail_s,
                  "tail_ops_beyond": beyond,
                  "setup_samples_s": setups, "latencies_ms": [1e3 * t for t in latencies]}
    else:
        values = metrics.per_layer(tracer, traced, untraced, stats["bytes_written"],
                                   stats["max_rel_gap"])
        units = metrics.PER_LAYER
        tracer.save(OUT / f"spans-{args.workload}.npz")
        detail = {"ops": len(traced), "failed_frac": stats["failed"] / stats["attempted"],
                  "spans_file": str((OUT / f"spans-{args.workload}.npz").relative_to(ROOT))}
    detail["errors"] = stats["errors"]
    print("detail " + json.dumps(detail))
    result = {
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
