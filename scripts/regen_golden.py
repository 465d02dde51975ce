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
regenerates the files should record the largest move per file, which
`--moves` prints without touching tests/golden/.

Usage: python scripts/regen_golden.py            # rewrite tests/golden/
       python scripts/regen_golden.py --moves    # per artifact: "identical" or the largest float move
"""

import argparse
import contextlib
import io
import json
import math
import os
import tempfile
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
    """Each run of RUNS as outdir/<name>.  The CLI's own stdout lines, which
    name outdir, are dropped, so `--moves` prints the same text on every run."""
    for name, argv in RUNS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli([*argv, "--out", str(outdir / name)])
        if rc != 0:
            raise SystemExit(rc)


def records(path: Path) -> list:
    """An artifact's records with the `out` echo left out: one JSON object per
    JSONL line, or the cells of each CSV line."""
    lines = path.read_text().splitlines()
    if path.suffix == ".jsonl":
        return [{k: v for k, v in json.loads(line).items() if k != "out"} for line in lines]
    return [line.split(",") for line in lines if not line.startswith("# out = ")]


def largest_move(new, old, where: str = "") -> tuple[float, str]:
    """(the largest relative move |new - old| / |old| of a number between two
    records of the same layout, where it is); a CSV cell is the number it
    spells.  inf where anything else differs, or a number moves off 0."""
    if isinstance(old, dict) and isinstance(new, dict) and new.keys() == old.keys():
        return max((largest_move(new[k], old[k], f"{where}.{k}") for k in old), default=(0.0, where))
    if isinstance(old, list) and isinstance(new, list) and len(new) == len(old):
        return max((largest_move(a, b, f"{where}[{k}]") for k, (a, b) in enumerate(zip(new, old))), default=(0.0, where))
    if new == old and type(new) is type(old):
        return 0.0, where
    try:
        if isinstance(new, bool) or isinstance(old, bool):
            raise ValueError("a boolean moved")
        a, b = float(new), float(old)
    except (TypeError, ValueError):
        return math.inf, where
    return abs(a - b) / abs(b) if b else math.inf, where


def moves(golden: Path) -> dict:
    """Each artifact of a fresh run against its committed copy under `golden`:
    "identical" (the `out` echo aside) or its largest relative move."""
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
        out = {}
        for new in sorted(Path(tmp).iterdir()):
            new_records, old_records = records(new), records(golden / new.name)
            move, where = largest_move(new_records, old_records)
            out[new.name] = ("identical" if new_records == old_records else f"largest relative move {move:.3g} at "
                             f"{where}" if math.isfinite(move) else f"differs beyond numbers at {where}")
        return out


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Rewrite tests/golden/ from the current code.")
    ap.add_argument("--moves", action="store_true",
                    help="regenerate into a temporary directory instead and print, per artifact, "
                         "'identical' or the largest relative move of a number against tests/golden/")
    args = ap.parse_args()
    os.chdir(Path(__file__).resolve().parent.parent)  # the `out` echo stays repo-relative
    if args.moves:
        for name, move in moves(Path("tests/golden")).items():
            print(f"{name}: {move}")
    else:
        write(Path("tests/golden"))
