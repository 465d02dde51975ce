#!/usr/bin/env python3
"""Print the N-P spectrum for a material pair and tabulate it to CSV.

Usage: python scripts/np_spectrum.py [lambda] [mu] [n_max]
"""

import sys

import numpy as np

from npshell.kelvin import LameParams
from npshell.potentials import np_eigenvalue, np_eigenvalue_limit


def run(lam: float, mu: float, n_max: int) -> None:
    lame = LameParams(lam, mu)
    print(f"lambda = {lam}, mu = {mu}")
    for fam in ("T", "M", "N"):
        lim = complex(np_eigenvalue_limit(fam, lame)).real
        print(f"family {fam} (accumulation point {lim:+.6f}):")
        n = np.arange(1, n_max + 1)
        for k, xi in zip(n.tolist(), np_eigenvalue(fam, n, lame).tolist()):
            print(f"  n = {k:3d}  xi = {complex(xi).real:+.12f}")


if __name__ == "__main__":
    args = sys.argv[1:]
    run(
        float(args[0]) if len(args) > 0 else 1.0,
        float(args[1]) if len(args) > 1 else 1.0,
        int(args[2]) if len(args) > 2 else 8,
    )
