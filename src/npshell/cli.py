"""Command-line front end: spectrum tables, oracle validation suites,
loss sweeps with resonance classification, and field slices for plotting.

Artifacts are plain CSV (tables, grids) or JSON lines (structured reports),
and this module alone encodes them: one value encoder, one JSONL writer, one
CSV writer.  Every artifact echoes the effective configuration, every flag
included, in its header; identical runs are byte-identical.  The parser is
built once per process; a config file does not change it.
Exit codes: 0 success, 1 validation failure (a failed record, or a mode
whose projection residual shows it is no eigenfunction of a surface
operator at the rule used), 2 bad input or a numerical failure (overflow,
exact resonance).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .harmonics import ModeIndex
from .kelvin import LameParams
from .oracle import (
    ENERGY_RULE,
    FDStencil,
    NonEigenfunctionError,
    QuadratureRule,
    ValidationRecord,
    compare,
    fd_lame_residual,
    quad_elastic_sl,
    quad_np_apply,
    quad_scalar_sl,
)
from .potentials import elastic_sl_coeff, np_eigenvalue, np_eigenvalue_limit, scalar_sl_multiplier
from .transmission import (
    PlasmonicConfig,
    ShellGeometry,
    SourceSpectrum,
    classify_calr,
    energy_reports,
    field_eval,
    solve_source,
    solve_sweep_point,
)
from . import harmonics

_JSON = json.JSONEncoder(allow_nan=False)  # every JSONL line's; `json.dumps` with an option builds one per call


def _parse_config_file(path: str) -> dict:
    """Flat `key = value` lines; # comments; arrays as comma lists."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _float_list(text: str) -> list[float]:
    return [float(s) for s in text.split(",") if s.strip()]


def _resolve(ap: argparse.ArgumentParser, argv) -> tuple[argparse.Namespace, dict]:
    """Parse argv into the config an artifact echoes: every flag of the
    subcommand but --config and --help.  CLI flags override config-file
    values override defaults.

    A config-file value becomes the default of its flag, so argparse converts
    it with that flag's own type; a key that is no value-taking option of the
    subcommand (a typo, a boolean flag, or a flag another subcommand reads)
    is rejected.
    """
    args = ap.parse_args(argv)
    options = [a for a in args.parser._actions if a.option_strings and a.dest not in ("config", "help")]
    if args.config:
        values = _parse_config_file(args.config)
        settable = [a.dest for a in options if a.nargs != 0]
        for k in values:
            if k not in settable:
                raise ValueError(f"unknown config key {k!r}")
        defaults = {k: args.parser.get_default(k) for k in values}
        args.parser.set_defaults(**values)
        try:
            args = ap.parse_args(argv)
        finally:  # the parser is shared by the process: the next call sees its own defaults
            args.parser.set_defaults(**defaults)
    return args, {a.dest: getattr(args, a.dest) for a in options}


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _encode(v):
    """One artifact value as plain JSON data: a float stays a number (its
    repr round-trips exactly), a non-finite float becomes "inf", "-inf" or
    "nan" so every line stays strict JSON, a complex value becomes
    {"re", "im"}, and a numpy scalar becomes the Python number."""
    if isinstance(v, dict):
        return {k: _encode(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_encode(x) for x in v]
    if isinstance(v, (complex, np.complexfloating)):
        return {"re": _encode(v.real), "im": _encode(v.imag)}
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else str(float(v))
    return v.item() if isinstance(v, np.generic) else v


def _cell(v) -> str:
    """CSV text of one value: floats with 17 significant digits, lists as
    comma lists, booleans as in JSON."""
    v = _encode(v)
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, list):
        return ",".join(_cell(x) for x in v)
    return json.dumps(v) if isinstance(v, bool) else str(v)


def _write_csv(path, cfg: dict, header: list[str], rows: list[list]) -> None:
    """`# key = value` echo lines, the column header, then the rows."""
    out = [f"# {k} = {_cell(cfg[k])}" for k in sorted(cfg)]
    out.append(",".join(header))
    out += [",".join(_cell(c) for c in row) for row in rows]
    Path(path).write_text("\n".join(out) + "\n")


def _write_jsonl(path, cfg: dict, records: list[dict], summary: dict) -> None:
    """A config record, one record per check or loss value, then a summary."""
    lines = [{"type": "config", **{k: cfg[k] for k in sorted(cfg)}}, *records, {"type": "summary", **summary}]
    Path(path).write_text("".join(_JSON.encode(_encode(d)) + "\n" for d in lines))


# the quantity each float flag sets, as error messages name it
_SYMBOL = {"lam": "lambda", "ri": "r_i", "re": "r_e", "rs": "r_s"}


def _lame(cfg: dict) -> LameParams:
    """The background material, built once per command after the input
    contract is checked: every float flag finite, the material regular
    (real, mu > 0 and 3 lambda + 2 mu > 0), and 8 n lambda, 8 n mu finite to n = 10^6."""
    for key, val in sorted(cfg.items()):
        for v in val if isinstance(val, list) else [val]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"non-finite input {_SYMBOL.get(key, key)}={v}")
    lame = LameParams(cfg["lam"], cfg["mu"])
    if not lame.is_regular:
        raise ValueError(f"background material needs mu > 0 and 3 lambda + 2 mu > 0, "
                         f"got lambda={lame.lam}, mu={lame.mu}")
    for key in ("lam", "mu"):
        if not math.isfinite(8 * _SPECTRUM_N_CAP * cfg[key]):
            raise ValueError(f"{_SYMBOL.get(key, key)}={cfg[key]} overflows the closed forms, "
                             f"which weigh it by up to 8 n at degrees n <= {_SPECTRUM_N_CAP}")
    return lame


def _geom(cfg: dict) -> ShellGeometry:
    return ShellGeometry(cfg["ri"], cfg["re"])


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

_SPECTRUM_N_CAP = 10**6  # highest degree `spectrum` tabulates; n^2 stays exact in int64


def cmd_spectrum(cfg: dict) -> int:
    lame = _lame(cfg)
    fams = [f.strip() for f in str(cfg["families"]).split(",") if f.strip()]
    if not fams or len(set(fams)) < len(fams):
        raise ValueError(f"--families needs at least one family and none twice, got {cfg['families']!r}")
    limits = [(fam, np_eigenvalue_limit(fam, lame)) for fam in fams]  # rejects an unknown family first
    if not cfg["n_min"] <= cfg["n_max"] <= _SPECTRUM_N_CAP:
        raise ValueError(f"need n_min <= n_max <= {_SPECTRUM_N_CAP}, got n_min={cfg['n_min']}, n_max={cfg['n_max']}")
    n = np.arange(cfg["n_min"], cfg["n_max"] + 1)
    rows = []
    for fam, lim in limits:
        with np.errstate(all="ignore"):  # an overflow is reported below, not warned
            xi = np.asarray(np_eigenvalue(fam, n, lame), dtype=complex)
        if not (np.isfinite(xi).all() and np.isfinite(lim)):
            raise ArithmeticError(f"{fam} eigenvalues overflow at lambda={lame.lam}, mu={lame.mu}")
        rows += [[fam, k, x.real, x.imag, complex(lim).real] for k, x in zip(n.tolist(), xi.tolist())]
    _write_csv(cfg["out"], cfg, ["family", "n", "eigenvalue_re", "eigenvalue_im", "limit_value"], rows)
    print(f"wrote {len(rows)} rows to {cfg['out']}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _suite_layers(lame, rule, cfg):
    """Scalar and elastic single layers of every `_suite_modes` mode at r0 = 0.5, 1 and 2,
    on the flag rule (--quad-theta x --quad-phi)."""
    records = []
    for r0 in (0.5, 1.0, 2.0):
        for idx in _suite_modes(cfg["n_max"]):
            for op, quad, closed in (
                ("scalar_single_layer", quad_scalar_sl, scalar_sl_multiplier(idx.family, idx.n, r0)),
                ("elastic_single_layer", quad_elastic_sl, r0 * elastic_sl_coeff(idx.family, idx.n, lame)),
            ):
                est, resid = quad(idx, lame, rule, r0)
                # the gap misses an error in the shape, the residual one in the multiplier
                records.append(ValidationRecord(
                    operation=op, params={**asdict(idx), "r0": r0, "residual": resid, **asdict(rule)},
                    closed_form=complex(closed), oracle=est,
                    rel_error=math.hypot(abs(closed - est), resid) / abs(closed), tol=1e-6))
    return records


def _suite_modes(n_max):
    """The modes `_suite_layers`, `_suite_np` and `_suite_lame` check: every
    family and degree up to n_max, at order 1 (0 for N_1)."""
    return [ModeIndex(fam, n, min(1, n - 1) if fam == "N" else 1) for fam in harmonics.FAMILIES
            for n in range(1, n_max + 1)]


def _suite_np(lame, rule, cfg):
    """The N-P eigenvalue of every `_suite_modes` mode, on the flag rule."""
    records = []
    for idx in _suite_modes(cfg["n_max"]):
        est, resid = quad_np_apply(idx, lame, rule)
        ref = np_eigenvalue(idx.family, idx.n, lame)
        records.append(compare("np_eigenvalue", {**asdict(idx), "residual": resid, **asdict(rule)},
                               complex(ref), est, 1e-6))
    return records


def _suite_lame(lame, rule, cfg):
    """The Lame residual of every `_suite_modes` mode by finite differences at a
    seeded random point; no quadrature, so the flag rule is not read."""
    rng = np.random.default_rng(20240811)
    stencil = FDStencil(h=1e-4, order=2)
    records = []
    for idx in _suite_modes(cfg["n_max"]):
        x = rng.normal(size=3)
        x *= (0.6 + 0.8 * rng.random()) / np.linalg.norm(x)
        res = fd_lame_residual(lambda p: harmonics.eval_solid_mode(idx, lame, p), lame, x, stencil)
        records.append(ValidationRecord(operation="lame_kernel", params=asdict(idx), closed_form=0.0,
                                        oracle=res, rel_error=float(res), tol=1e-6))
    return records


def _suite_gram(lame, rule, cfg):
    """The Gram matrix of every trace mode up to n_max: its largest off-diagonal entry
    and the T diagonal.  Its rule is sized from n_max, n_theta = max(2 n_max + 8, 24)
    and n_phi = 2 n_theta, whatever the flag rule says."""
    n_max = cfg["n_max"]
    size = max(2 * n_max + 8, 24)
    rule = QuadratureRule(size, 2 * size)
    gram, modes = harmonics.gram_matrix(n_max, lame, rule)
    diag = np.real(np.diag(gram))
    off = gram - np.diag(np.diag(gram))
    worst = float(np.max(np.abs(off)) / np.max(diag))
    return [
        ValidationRecord(operation="gram_offdiagonal", params={"n_max": n_max, **asdict(rule)},
                         closed_form=0.0, oracle=worst, rel_error=worst, tol=1e-10),
        *(compare("gram_diagonal_T", {"n": idx.n, "m": idx.m, **asdict(rule)},
                  harmonics.trace_mode_norm_sq(idx.family, idx.n, lame), diag[i], 1e-10)
          for i, idx in enumerate(modes) if idx.family == "T"),
    ]


def _suite_energy(lame, rule, cfg):
    """Modal against volume-quadrature shell energy of a resonant single-mode source
    per degree n = 2..min(n_max, 6), on `ENERGY_RULE` (24 x 48) whatever the flag rule says."""
    geom = _geom(cfg)
    records = []
    for n in range(2, min(cfg["n_max"], 6) + 1):
        plasmon = PlasmonicConfig.resonant(n, 0.01)
        src = SourceSpectrum([n], [0], [lame.mu], r_s=3.0 * geom.r_e)  # phi ~ mu, so E ~ mu
        (rep,) = energy_reports([solve_source(src, geom, plasmon, lame)], quadrature=True)
        records.append(compare("shell_energy", {"n": n, "delta": plasmon.delta, **asdict(ENERGY_RULE)},
                               rep.energy_modal, rep.energy_quadrature, 0.05))
    return records


# every oracle suite of `validate --suite`, in the order `scripts/validate_all.py` runs them
SUITES = {"layers": _suite_layers, "np": _suite_np, "lame": _suite_lame, "gram": _suite_gram,
          "energy": _suite_energy}


def _worst_error(records: list[ValidationRecord]) -> float:
    """The largest rel_error, NaN if any is NaN (max() would skip it)."""
    return float(np.max([r.rel_error for r in records], initial=0.0))


def cmd_validate(cfg: dict) -> int:
    """Run one suite of `SUITES` on (lame, the flag rule, cfg).  The flag rule is
    built, and so checked, for every suite; each suite's docstring states the
    rule it uses, and every quadrature record carries it in its params."""
    lame = _lame(cfg)
    rule = QuadratureRule(cfg["quad_theta"], cfg["quad_phi"])
    suite = cfg["suite"]
    if cfg["n_max"] < 1:
        raise ValueError("n_max must be >= 1")
    if suite not in SUITES:  # a config-file value skips argparse's choices
        raise ValueError(f"unknown suite {suite!r} ({', '.join(SUITES)})")
    records = SUITES[suite](lame, rule, cfg)
    failures = sum(not r.passed for r in records)
    _write_jsonl(cfg["out"], cfg, [{**asdict(r), "passed": r.passed} for r in records],
                 {"suite": suite, "checks": len(records), "failures": failures})
    worst = _worst_error(records)
    print(f"suite {suite}: {len(records)} checks, {failures} failures, worst rel error {worst:.3e}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# calr sweep
# ---------------------------------------------------------------------------

def cmd_calr(cfg: dict) -> int:
    lame = _lame(cfg)
    geom = _geom(cfg)
    sweep = classify_calr(
        geom, lame, cfg["rs"], cfg["delta_grid"], kappa=cfg["kappa"],
        quadrature=not cfg["no_quad_energy"],
    )
    summary = {
        "verdict": sweep.verdict,
        "energy_ratio": sweep.energy_ratio,
        "farfield_ratio": sweep.farfield_ratio,
        "critical_radius": geom.critical_radius,
        "r_s": sweep.r_s,
    }
    out = Path(cfg["out"])
    _write_jsonl(out, cfg, [vars(rep) for rep in sweep.reports], summary)
    rows = [[rep.delta, rep.n0, rep.energy_modal, rep.farfield_sample] for rep in sweep.reports]
    _write_csv(out.with_suffix(".csv"), cfg, ["delta", "n0", "energy", "farfield_sample"], rows)
    print(f"verdict: {sweep.verdict} (energy ratio {sweep.energy_ratio:.4g}, r* = {geom.critical_radius:.6g})")
    return 0


# ---------------------------------------------------------------------------
# field slice
# ---------------------------------------------------------------------------

def cmd_field(cfg: dict) -> int:
    axis = cfg["axis"].lower()
    if axis not in ("x", "y", "z"):
        raise ValueError("axis must be one of x, y, z")
    res = cfg["resolution"]
    if res < 1:
        raise ValueError(f"resolution must be >= 1, got {res}")
    lame = _lame(cfg)
    geom = _geom(cfg)
    src, sol = solve_sweep_point(cfg["delta"], geom, lame, cfg["rs"], kappa=cfg["kappa"])
    n0 = sol.cfg.n0
    ext = cfg["extent"]
    ticks = np.zeros(1) if res == 1 else np.linspace(-ext, ext, res)
    kept = dict(x=[1, 2], y=[0, 2], z=[0, 1])[axis]
    pts = np.full((len(ticks) ** 2, 3), cfg["offset"])
    pts[:, kept] = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
    r = np.linalg.norm(pts, axis=1)
    guard = cfg["guard"] * geom.r_e
    ok = (np.abs(r - geom.r_i) > guard) & (np.abs(r - geom.r_e) > guard)
    src = src if cfg["include_source"] else None
    if src is not None:
        ok &= r < 0.95 * cfg["rs"]  # source series valid strictly inside r_s
    vals = np.linalg.norm(field_eval(sol, pts[ok], src), axis=1)
    rows = [[p[kept[0]], p[kept[1]], *p, v] for p, v in zip(pts[ok], vals)]
    _write_csv(cfg["out"], {**cfg, "n0": n0}, ["u", "v", "x", "y", "z", "abs_u"], rows)
    print(f"wrote {len(rows)} samples to {cfg['out']} (n0 = {n0})")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the options it reads; the
    defaults here are the ones every artifact echoes; built once per process."""
    ap = argparse.ArgumentParser(
        prog="npshell",
        description="Neumann-Poincare spectra and anomalous localized resonance on spheres",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, out, help, shell=True, source=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--out", default=out, help="output artifact path")
        p.add_argument("--config", help="flat key = value config file (flags override)")
        p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="first Lame constant")
        p.add_argument("--mu", type=float, default=1.0, help="shear modulus")
        if shell:
            p.add_argument("--ri", type=float, default=1.0, help="core radius")
            p.add_argument("--re", type=float, default=2.0, help="shell outer radius")
        if source:
            p.add_argument("--rs", type=float, default=2.5, help="source radius")
            p.add_argument("--kappa", type=float, default=1.0, help="source amplitude")
        return p

    ps = command("spectrum", cmd_spectrum, "spectrum.csv", "tabulate N-P eigenvalues to CSV", shell=False)
    ps.add_argument("--n-min", type=int, default=1, help="minimum degree")
    ps.add_argument("--n-max", type=int, default=10, help="maximum degree")
    ps.add_argument("--families", default="T,M,N", help="comma list out of T,M,N")

    pv = command("validate", cmd_validate, "validate.jsonl", "run an oracle suite; nonzero exit on failure")
    pv.add_argument("--suite", choices=list(SUITES), default="np")
    pv.add_argument("--n-max", type=int, default=6, help="maximum degree")
    pv.add_argument("--quad-theta", type=int, default=64, help="colatitude quadrature nodes")
    pv.add_argument("--quad-phi", type=int, default=128, help="azimuth quadrature nodes")

    pc = command("calr", cmd_calr, "calr.jsonl", "loss sweep with resonance classification", source=True)
    pc.add_argument("--delta-grid", type=_float_list, default=[10.0 ** (-k) for k in range(1, 7)],
                    help="comma list of decreasing loss values")
    pc.add_argument("--no-quad-energy", action="store_true",
                    help="skip the volume-quadrature energy cross-check")

    pf = command("field", cmd_field, "field.csv", "emit a plane slice of |u| for plotting", source=True)
    pf.add_argument("--delta", type=float, default=1e-5, help="loss value")
    pf.add_argument("--axis", choices=["x", "y", "z"], default="y", help="slice plane normal")
    pf.add_argument("--offset", type=float, default=0.0, help="plane offset along the normal")
    pf.add_argument("--extent", type=float, default=5.0, help="half-width of the slice")
    pf.add_argument("--resolution", type=int, default=81, help="samples per side")
    pf.add_argument("--guard", type=float, default=0.02, help="interface guard band, relative to r_e")
    pf.add_argument("--include-source", action="store_true",
                    help="add the source potential where its series converges")
    return ap


def main(argv=None) -> int:
    try:
        args, cfg = _resolve(build_parser(), argv)
        return args.func(cfg)
    except NonEigenfunctionError as exc:  # a pole-frame check that failed before its record
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
