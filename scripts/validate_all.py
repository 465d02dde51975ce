#!/usr/bin/env python3
"""Run every oracle validation suite of `npshell.cli.SUITES` at the CLI's
default flags and stop nonzero if any check fails.

Usage: python scripts/validate_all.py [outdir]
"""

import sys
from pathlib import Path

from npshell.cli import SUITES, main as cli


def run(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    return max(cli(["validate", "--suite", suite, "--out", str(outdir / f"validate_{suite}.jsonl")])
               for suite in SUITES)


if __name__ == "__main__":
    sys.exit(run(Path(sys.argv[1]) if len(sys.argv) > 1 else Path("artifacts")))
