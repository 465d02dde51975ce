"""Build the fixed input pool of the `xcheck` workload.

    python3 perfbench/xcheck_pool.py        # rewrites perfbench/xcheck_pool.json

`xcheck` runs only (config, delta) pairs that the default 24 x 48 rule
resolves and that keep at most XCHECK_MAX_MODES modes.  Deciding that takes
a sweep-point solve, so it is done once, here, against the library as it
was when the pool was built, and the accepted pairs are committed.  A run
then draws its inputs from the pool with its seed and never calls the
library during set-up, so set-up time and the input set do not depend on
the library under test.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
POOL = HERE / "xcheck_pool.json"
POOL_SIZE = 64
# A (config, delta) pair is kept only when the share of its modal energy
# above degree RESOLVED_DEGREE is at most TAIL_SHARE.  Measured on the
# library the pool was built with, the default rule's gap is about 3x that
# share, so kept pairs stay near 1e-7 against the 1e-6 check; pairs with
# energy near or above degree 24 are the under-resolved region.
RESOLVED_DEGREE = 24
TAIL_SHARE = 1e-8
# About a quarter of resolved pairs keep 59 or more modes (resonant sources
# in thick shells) and cost twice as much; the pool keeps only pairs with at
# most XCHECK_MAX_MODES, so that a run of a few ops has a fixed cost mix.
XCHECK_MAX_MODES = 50


def resolution(inp) -> tuple[bool, int]:
    """(resolved, modes): whether the modal energy above RESOLVED_DEGREE is
    negligible, and how many modes the sweep point keeps."""
    from npshell.kelvin import LameParams
    from npshell.transmission import ShellGeometry, mode_energy, solve_sweep_point

    cfg = inp.config
    _, sol = solve_sweep_point(inp.delta, ShellGeometry(cfg.r_i, cfg.r_e),
                               LameParams(cfg.lam, cfg.mu), cfg.r_s)
    energies = {idx.n: mode_energy(sol, idx) for idx, _ in sol.phi_i.items()}
    total = math.fsum(energies.values())
    tail = math.fsum(e for n, e in energies.items() if n > RESOLVED_DEGREE)
    return total > 0 and tail <= TAIL_SHARE * total, len(energies)


def build(size: int = POOL_SIZE) -> list[dict]:
    """The first `size` accepted candidates of the `xcheck-full` stream of seed 0."""
    import workloads

    cands = workloads.xcheck_candidates(np.random.default_rng([0, 2]), workloads.SAFE)
    pool = []
    while len(pool) < size:
        inp = next(cands)
        resolved, modes = resolution(inp)
        if resolved and modes <= XCHECK_MAX_MODES:
            pool.append(workloads.xcheck_record(inp, modes))
    return pool


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    lines = ",\n".join(json.dumps(record) for record in build())
    POOL.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {POOL_SIZE} inputs to {POOL}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
