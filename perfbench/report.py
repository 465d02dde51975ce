"""Print every benchmark metric by name and unit, or check steadiness.

    python3 perfbench/report.py                 # all workloads, end-to-end + per-layer
    python3 perfbench/report.py --full          # also the full-range workloads
    python3 perfbench/report.py --steadiness    # 2 sets x 10 seeds, against the bounds

Each measurement is a separate ``run.py`` process, as the benchmark is meant
to be run.  The steadiness mode runs every workload once per seed, in two
sets of seeds, and checks each end-to-end metric against its bound in
``BENCHMARK.json``: within a set, the distance between the first and third
quartiles, as a share of the median, must stay within the bound, and the
second set's median may not be worse than the first's by more than the
bound.  The runs are saved to ``perfbench/_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import COVERED_MIN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
FULL_WORKLOADS = ("sweep-full", "xcheck-full")
SETS, RUNS = 2, 10  # steadiness: sets of runs, seeds per set
RAW = ("setup_s", "ops_per_s", "op_p50_ms")  # also reported without host-speed scaling
SAVED = HERE / "_out" / "steadiness.json"


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = CONFIG["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(CONFIG["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(s[len("detail "):]) for s in lines if s.startswith("detail ")), {})
    return json.loads(lines[-1]), detail


def show(workload: str, result: dict, detail: dict) -> None:
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}, failed_frac {detail.get('failed_frac', 0):.4g}")
    for name, m in result["metrics"].items():
        print(f"{workload:12s} {name:34s} {m['value']:>16.6g} {m['unit']}")
    if detail.get("op_tail_ms") is not None:
        print(f"{workload:12s} {'op_tail_ms':34s} {detail['op_tail_ms']:>16.6g} ms"
              f"  (p{detail['tail_percentile']:.1f} of {detail['ops']} ops,"
              f" {detail['tail_ops_beyond']} beyond)")
    wall = result["metrics"].get("trace.wall_s", {}).get("value")
    if wall:
        shares = {n: m["value"] / wall for n, m in result["metrics"].items()
                  if m["unit"] == "s/op" and n != "trace.wall_s" and m["value"] > 0}
        print(f"{workload:12s} share of traced op time: "
              + ", ".join(f"{n} {100 * s:.1f}%" for n, s in shares.items()))
        covered = result["metrics"]["trace.covered_frac"]["value"]
        verdict = "accounted" if covered >= COVERED_MIN else "NOT ACCOUNTED"
        print(f"{workload:12s} layer self times cover {100 * covered:.3f}% of the traced op"
              f" wall time (at least {100 * COVERED_MIN:g}% needed): {verdict}")
    for err in detail.get("errors", []):
        print(f"{workload:12s} failure: {err}")


def quartile_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def analyze(results: dict) -> bool:
    """Check two sets of runs against the bounds; print one line per metric.

    The unscaled op timings from each run's detail line (``raw_*``) are
    checked against the same bounds and printed, but do not gate.
    """
    ok = True
    spec = {m["name"]: m for m in CONFIG["end_to_end"]}
    spec.update({f"raw_{n}": spec[n] for n in RAW})
    for workload, sets in results.items():
        for name, m in spec.items():
            series = [[r[name] for r in runs] for runs in sets]
            spreads = [quartile_spread(s) for s in series]
            medians = [statistics.median(s) for s in series]
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if m["better"] == "lower" else -change
            bound = m["bound"]
            passed = max(spreads) <= bound and worse <= bound
            if not name.startswith("raw_"):
                ok &= passed
            verdict = "ok" if passed else "OUT OF BOUND"
            print(f"{workload:10s} {name:16s} medians {medians[0]:.5g}, {medians[1]:.5g}"
                  f"  spreads {spreads[0]:.3f}, {spreads[1]:.3f}  drift {worse:+.3f}"
                  f"  (bound {bound}, spread/bound {max(spreads) / bound:.2f})  {verdict}"
                  + ("  [unscaled, not gated]" if name.startswith("raw_") else ""))
    print("STEADY" if ok else "NOT STEADY")
    return ok


def steadiness(names: list[str]) -> bool:
    """SETS sets of RUNS seeds per workload, each run a separate process."""
    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for k in range(RUNS):
            seed = 1 + 1000 * s + k
            for w in names:
                res, detail = run(w, seed, 0)
                if not res["correct"]:
                    raise RuntimeError(f"{w} seed {seed}: {res['failed']} failed ops")
                values = {n: m["value"] for n, m in res["metrics"].items()}
                values.update({f"raw_{n}": detail[f"raw_{n}"] for n in RAW})
                results[w][s].append(values)
                print(f"set {s} seed {seed} {w}: "
                      + ", ".join(f"{n}={v:.5g}" for n, v in values.items()), flush=True)
            SAVED.parent.mkdir(exist_ok=True)
            SAVED.write_text(json.dumps(results, indent=1))
    return analyze(results)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--full", action="store_true", help="also run the full-range workloads")
    ap.add_argument("--steadiness", action="store_true")
    args = ap.parse_args(argv)
    names = args.workloads or [w["name"] for w in CONFIG["workloads"]]

    if args.steadiness:
        return 0 if steadiness(names) else 1
    for w in names + (list(FULL_WORKLOADS) if args.full else []):
        for trace in (0, 1):
            result, detail = run(w, 1, trace)
            show(w, result, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
