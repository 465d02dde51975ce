#!/usr/bin/env python3
"""Rewrite the golden artifacts under tests/golden/ from the current code:
the resonant (r_s = 2.5) and bounded (r_s = 3.5) default `calr` sweeps, both
with the quadrature cross-check, a thin shell whose small losses reach the
degree cap and a zero source (both without the cross-check), the
`validate --suite energy` records, the
`validate --suite np --n-max 4` records (N-P quadrature of T, M and N modes),
the `validate --suite layers --n-max 4` records (scalar and elastic single
layers on T, M and N modes), a 21 x 21 `field` slice and the
`spectrum --n-max 10` eigenvalue table.
tests/test_golden.py re-runs the same commands and compares.  A change that
regenerates the files should record the largest move per file.

Usage: python scripts/regen_golden.py
"""

import os
from pathlib import Path

from npshell.cli import main as cli

# artifact name -> command; `calr` also writes the .csv next to its .jsonl
RUNS = {
    "calr_rs2.5.jsonl": ["calr", "--rs", "2.5"],
    "calr_rs3.5.jsonl": ["calr", "--rs", "3.5"],
    "calr_cap.jsonl": ["calr", "--re", "2.5", "--rs", "2.6", "--kappa", "2", "--no-quad-energy"],
    "calr_kappa0.jsonl": ["calr", "--kappa", "0", "--no-quad-energy"],
    "validate_energy.jsonl": ["validate", "--suite", "energy"],
    "validate_np4.jsonl": ["validate", "--suite", "np", "--n-max", "4"],
    "validate_layers4.jsonl": ["validate", "--suite", "layers", "--n-max", "4"],
    "field_res21.csv": ["field", "--resolution", "21"],
    "spectrum_n10.csv": ["spectrum", "--n-max", "10"],
}


def write(outdir: Path) -> None:
    """Each run of RUNS as outdir/<name>."""
    for name, argv in RUNS.items():
        rc = cli([*argv, "--out", str(outdir / name)])
        if rc != 0:
            raise SystemExit(rc)


if __name__ == "__main__":
    os.chdir(Path(__file__).resolve().parent.parent)  # the `out` echo stays repo-relative
    write(Path("tests/golden"))
