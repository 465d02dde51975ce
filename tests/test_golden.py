"""The committed artifacts under tests/golden/ against a fresh run of the
same commands (scripts/regen_golden.py): integers and strings exactly,
floats to rtol 1e-13, except `rel_error`, a difference of rounded numbers
near 1e-15, and the N-P `residual`, rounding noise of 1e-17 to 1e-14, to
atol 1e-13; the `out` echo is not compared."""

import contextlib
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
RTOL = 1e-13
ATOL = {"rel_error": 1e-13, "residual": 1e-13}  # per key; 0 for every other float


def _regen_module():
    spec = importlib.util.spec_from_file_location("regen_golden", ROOT / "scripts" / "regen_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cell(text: str):
    """A CSV cell as the int, float or string it spells."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _assert_same(new, old, where, atol=0.0):
    if isinstance(old, float) and isinstance(new, float):
        assert math.isclose(new, old, rel_tol=RTOL, abs_tol=atol), f"{where}: {new!r} != {old!r}"
    elif isinstance(old, list) and isinstance(new, list) and len(new) == len(old):
        for k, (a, b) in enumerate(zip(new, old)):
            _assert_same(a, b, f"{where}[{k}]", atol)
    elif isinstance(old, dict) and isinstance(new, dict) and new.keys() == old.keys():
        for key in old:
            if key != "out":
                _assert_same(new[key], old[key], f"{where}.{key}", ATOL.get(key, 0.0))
    else:
        assert type(new) is type(old) and new == old, f"{where}: {new!r} != {old!r}"


def _records(path: Path):
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text().splitlines()]
    lines = [line for line in path.read_text().splitlines() if not line.startswith("# out = ")]
    return [[_cell(c) for c in line.split(",")] for line in lines]


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """One regeneration into a fresh directory: (that directory, what the run printed)."""
    out = tmp_path_factory.mktemp("golden")
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        _regen_module().write(out)
    return out, printed.getvalue()


def test_regeneration_prints_nothing(fresh):
    # the CLI's lines name the random output directory; `--moves` prints only its own lines
    assert fresh[1] == ""


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_calr_artifacts_match_golden(fresh, name):
    new, old = _records(fresh[0] / name), _records(GOLDEN / name)
    assert len(new) == len(old)
    for k, (a, b) in enumerate(zip(new, old)):
        _assert_same(a, b, f"{name} line {k + 1}")
