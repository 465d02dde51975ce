"""Command-line front end: spectrum tables, oracle validation suites,
loss sweeps with resonance classification, and field slices for plotting.

Artifacts are plain CSV (tables, grids) or JSON lines (structured reports);
every artifact echoes the effective configuration in its header and floats
are written with 17 significant digits so identical runs are byte-identical.
Exit codes: 0 success, 1 validation failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .harmonics import ModeIndex
from .kelvin import LameParams
from .oracle import (
    FDStencil,
    QuadratureRule,
    compare,
    fd_lame_residual,
    quad_np_apply,
    quad_scalar_sl,
)
from .potentials import np_eigenvalue, np_eigenvalue_limit, scalar_sl_multiplier
from .transmission import (
    PlasmonicConfig,
    ShellGeometry,
    classify_calr,
    energy,
    field_eval,
    solve_source,
    synth_source,
)
from . import harmonics


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


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


_FLOAT_KEYS = {"lam", "mu", "ri", "re", "rs", "offset", "extent", "delta", "kappa", "guard"}
_INT_KEYS = {"n_max", "n_min", "quad_theta", "quad_phi", "resolution", "n_radial"}
_LIST_KEYS = {"delta_grid"}


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """CLI flags override config-file values override defaults.

    A config-file key must be a default of the command or a flag of its
    subcommand; anything else (a typo) is rejected.
    """
    cfg = dict(defaults)
    known = (set(defaults) | set(vars(args))) - {"command", "func"}
    if getattr(args, "config", None):
        for k, v in _parse_config_file(args.config).items():
            if k not in known:
                raise ValueError(f"unknown config key {k!r}")
            if k in _FLOAT_KEYS:
                cfg[k] = float(v)
            elif k in _INT_KEYS:
                cfg[k] = int(v)
            elif k in _LIST_KEYS:
                cfg[k] = [float(s) for s in v.split(",") if s.strip()]
            else:
                cfg[k] = v
    for k in cfg:
        v = getattr(args, k, None)
        if v is not None:
            cfg[k] = v
    return cfg


def _echo_lines(cfg: dict) -> list[str]:
    lines = []
    for k in sorted(cfg):
        v = cfg[k]
        if isinstance(v, float):
            v = _fmt(v)
        elif isinstance(v, list):
            v = ",".join(_fmt(x) for x in v)
        lines.append(f"# {k} = {v}")
    return lines


def _write_csv(path: str, cfg: dict, header: list[str], rows: list[list]) -> None:
    out = _echo_lines(cfg)
    out.append(",".join(header))
    for row in rows:
        out.append(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row))
    Path(path).write_text("\n".join(out) + "\n")


def _lame(cfg: dict) -> LameParams:
    return LameParams(cfg["lam"], cfg["mu"])


def _geom(cfg: dict) -> ShellGeometry:
    return ShellGeometry(cfg["ri"], cfg["re"])


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    cfg = _merge_config(
        args,
        {"lam": 1.0, "mu": 1.0, "n_min": 1, "n_max": 10, "families": "T,M,N", "out": "spectrum.csv"},
    )
    lame = _lame(cfg)
    fams = [f.strip() for f in str(cfg["families"]).split(",") if f.strip()]
    rows = []
    for fam in fams:
        lim = np_eigenvalue_limit(fam, lame)
        for n in range(int(cfg["n_min"]), int(cfg["n_max"]) + 1):
            xi = complex(np_eigenvalue(fam, n, lame))
            rows.append([fam, n, xi.real, xi.imag, complex(lim).real])
    _write_csv(cfg["out"], cfg, ["family", "n", "eigenvalue_re", "eigenvalue_im", "limit_value"], rows)
    print(f"wrote {len(rows)} rows to {cfg['out']}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _suite_layers(lame, rule, n_max, records):
    from .oracle import ValidationRecord

    probe = np.array([0.33, -0.44, 0.83])
    probe /= np.linalg.norm(probe)
    for r0 in (0.5, 1.0, 2.0):
        for idx in [ModeIndex("T", n, min(1, n)) for n in range(1, n_max + 1)] + [
            ModeIndex("M", n, 0) for n in range(1, n_max + 1)
        ] + [ModeIndex("N", n, 0) for n in range(1, n_max + 1)]:
            x = r0 * probe
            val = quad_scalar_sl(idx, x, lame, rule, r0)
            _, t, p = harmonics._cartesian_angles(x)
            mode = harmonics.eval_trace_mode(idx, lame, t, p)
            mult = scalar_sl_multiplier(idx, r0)
            rel = float(np.linalg.norm(val - mult * mode) / np.linalg.norm(mult * mode))
            est = complex(np.vdot(mode, val) / np.vdot(mode, mode))
            records.append(
                ValidationRecord(
                    operation="scalar_single_layer",
                    params={"family": idx.family, "n": idx.n, "m": idx.m, "r0": r0},
                    closed_form=complex(mult),
                    oracle=est,
                    rel_error=rel,
                    tol=1e-6,
                )
            )


def _suite_np(lame, rule, n_max, records, inject_fault=False):
    for fam in ("T", "M", "N"):
        for n in range(1, n_max + 1):
            m = min(1, n - 1) if fam == "N" else min(1, n)
            idx = ModeIndex(fam, n, m)
            est, resid = quad_np_apply(idx, lame, rule)
            ref = np_eigenvalue(fam, n, lame)
            if inject_fault and fam == "M" and n == 2:
                ref = ref * 1.01
            records.append(
                compare(
                    "np_eigenvalue",
                    {"family": fam, "n": n, "m": m, "residual": resid},
                    complex(ref),
                    est,
                    1e-6,
                )
            )


def _suite_lame(lame, n_max, records):
    from .oracle import ValidationRecord

    rng = np.random.default_rng(20240811)
    stencil = FDStencil(h=1e-4, order=2)
    for fam in ("T", "M", "N"):
        for n in range(1, n_max + 1):
            m = min(1, n - 1) if fam == "N" else min(1, n)
            idx = ModeIndex(fam, n, m)
            x = rng.normal(size=3)
            x *= (0.6 + 0.8 * rng.random()) / np.linalg.norm(x)
            res = fd_lame_residual(lambda p: harmonics.eval_solid_mode(idx, lame, p), lame, x, stencil)
            records.append(
                ValidationRecord(
                    operation="lame_kernel",
                    params={"family": fam, "n": n, "m": m},
                    closed_form=0.0,
                    oracle=res,
                    rel_error=float(res),
                    tol=1e-6,
                )
            )


def _suite_gram(lame, rule, n_max, records):
    from .oracle import ValidationRecord

    gram, modes = harmonics.gram_matrix(n_max, lame, rule)
    diag = np.real(np.diag(gram))
    off = gram - np.diag(np.diag(gram))
    worst = float(np.max(np.abs(off)) / np.max(diag))
    records.append(
        ValidationRecord(
            operation="gram_offdiagonal",
            params={"n_max": n_max},
            closed_form=0.0,
            oracle=worst,
            rel_error=worst,
            tol=1e-10,
        )
    )
    for i, idx in enumerate(modes):
        if idx.family == "T":
            records.append(
                compare(
                    "gram_diagonal_T",
                    {"n": idx.n, "m": idx.m},
                    float(idx.n * (idx.n + 1)),
                    diag[i],
                    1e-10,
                )
            )


def _suite_energy(lame, geom, rule, n_max, records):
    for n in range(2, n_max + 1):
        cfg = PlasmonicConfig.resonant(n, 0.01)
        src = synth_source(3.0 * geom.r_e, geom, lame, n_max=n)
        src.coeffs.clear()
        src.coeffs[(n, 0)] = 1.0
        sol = solve_source(src, geom, cfg, lame)
        rep = energy(sol, src, geom, cfg, lame, quadrature=True, quad_kwargs={"rule": rule})
        records.append(
            compare(
                "shell_energy",
                {"n": n, "delta": cfg.delta},
                rep.energy_modal,
                rep.energy_quadrature,
                0.05,
            )
        )


def cmd_validate(args) -> int:
    cfg = _merge_config(
        args,
        {
            "lam": 1.0,
            "mu": 1.0,
            "ri": 1.0,
            "re": 2.0,
            "suite": "np",
            "n_max": 6,
            "quad_theta": 64,
            "quad_phi": 128,
            "out": "validate.jsonl",
        },
    )
    lame = _lame(cfg)
    rule = QuadratureRule(int(cfg["quad_theta"]), int(cfg["quad_phi"]))
    records = []
    suite = str(cfg["suite"])
    n_max = int(cfg["n_max"])
    if suite == "layers":
        _suite_layers(lame, rule, n_max, records)
    elif suite == "np":
        _suite_np(lame, rule, n_max, records, inject_fault=bool(getattr(args, "inject_fault", False)))
    elif suite == "lame":
        _suite_lame(lame, n_max, records)
    elif suite == "gram":
        _suite_gram(lame, QuadratureRule(max(2 * n_max + 8, 24), 2 * max(2 * n_max + 8, 24)), n_max, records)
    elif suite == "energy":
        _suite_energy(lame, _geom(cfg), QuadratureRule(24, 48), min(n_max, 6), records)
    else:
        print(f"unknown suite {suite!r} (layers, np, lame, gram, energy)", file=sys.stderr)
        return 2
    lines = [json.dumps({"type": "config", **{k: str(v) for k, v in sorted(cfg.items())}})]
    lines += [r.to_json() for r in records]
    failures = [r for r in records if not r.passed]
    lines.append(json.dumps({"type": "summary", "suite": suite, "checks": len(records), "failures": len(failures)}))
    Path(cfg["out"]).write_text("\n".join(lines) + "\n")
    worst = max((r.rel_error for r in records), default=0.0)
    print(f"suite {suite}: {len(records)} checks, {len(failures)} failures, worst rel error {worst:.3e}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# calr sweep
# ---------------------------------------------------------------------------

def cmd_calr(args) -> int:
    cfg = _merge_config(
        args,
        {
            "lam": 1.0,
            "mu": 1.0,
            "ri": 1.0,
            "re": 2.0,
            "rs": 2.5,
            "delta_grid": [10.0 ** (-k) for k in range(1, 7)],
            "kappa": 1.0,
            "out": "calr.jsonl",
        },
    )
    geom = _geom(cfg)
    lame = _lame(cfg)
    grid = [float(d) for d in cfg["delta_grid"]]
    sweep = classify_calr(
        geom, lame, float(cfg["rs"]), grid, kappa=float(cfg["kappa"]),
        quadrature=not getattr(args, "no_quad_energy", False),
    )
    lines = [json.dumps({"type": "config", **{k: str(v) for k, v in sorted(cfg.items())}})]
    for rep in sweep.reports:
        d = rep.to_json_dict()
        lines.append(json.dumps({k: (_fmt(v) if isinstance(v, float) else v) for k, v in d.items()}))
    lines.append(
        json.dumps(
            {
                "type": "summary",
                "verdict": sweep.verdict,
                "energy_ratio": _fmt(sweep.energy_ratio),
                "farfield_ratio": _fmt(sweep.farfield_ratio),
                "critical_radius": _fmt(geom.critical_radius),
                "r_s": _fmt(sweep.r_s),
            }
        )
    )
    out = Path(cfg["out"])
    out.write_text("\n".join(lines) + "\n")
    rows = [
        [rep.delta, rep.n0, rep.energy_modal, rep.farfield_sample] for rep in sweep.reports
    ]
    _write_csv(str(out.with_suffix(".csv")), cfg, ["delta", "n0", "energy", "farfield_sample"], rows)
    print(f"verdict: {sweep.verdict} (energy ratio {sweep.energy_ratio:.4g}, r* = {geom.critical_radius:.6g})")
    return 0


# ---------------------------------------------------------------------------
# field slice
# ---------------------------------------------------------------------------

def cmd_field(args) -> int:
    cfg = _merge_config(
        args,
        {
            "lam": 1.0,
            "mu": 1.0,
            "ri": 1.0,
            "re": 2.0,
            "rs": 2.5,
            "delta": 1e-5,
            "axis": "y",
            "offset": 0.0,
            "extent": 5.0,
            "resolution": 81,
            "guard": 0.02,
            "kappa": 1.0,
            "out": "field.csv",
        },
    )
    geom = _geom(cfg)
    lame = _lame(cfg)
    delta = float(cfg["delta"])
    from .transmission import solve_sweep_point

    src, sol = solve_sweep_point(delta, geom, lame, float(cfg["rs"]), kappa=float(cfg["kappa"]))
    n0 = sol.cfg.n0

    axis = str(cfg["axis"]).lower()
    if axis not in ("x", "y", "z"):
        print("axis must be one of x, y, z", file=sys.stderr)
        return 2
    res = int(cfg["resolution"])
    ext = float(cfg["extent"])
    ticks = [0.0] if res == 1 else list(np.linspace(-ext, ext, res))
    kept = dict(x=(1, 2), y=(0, 2), z=(0, 1))[axis]
    normal = dict(x=0, y=1, z=2)[axis]
    pts = []
    for u in ticks:
        for v in ticks:
            p = [0.0, 0.0, 0.0]
            p[kept[0]], p[kept[1]], p[normal] = u, v, float(cfg["offset"])
            pts.append(p)
    pts = np.array(pts)
    r = np.linalg.norm(pts, axis=1)
    guard = float(cfg["guard"]) * geom.r_e
    keep = (np.abs(r - geom.r_i) > guard) & (np.abs(r - geom.r_e) > guard)
    include = bool(getattr(args, "include_source", False))
    vals = np.zeros(len(pts))
    ok = keep.copy()
    if include:
        ok &= r < 0.95 * float(cfg["rs"])  # source series valid strictly inside r_s
    vals[ok] = np.linalg.norm(
        field_eval(sol, src, geom, lame, pts[ok], include_source=include), axis=1
    )
    rows = []
    for i, p in enumerate(pts):
        if not ok[i]:
            continue
        rows.append([float(p[kept[0]]), float(p[kept[1]]), float(p[0]), float(p[1]), float(p[2]), float(vals[i])])
    _write_csv(cfg["out"], {**cfg, "n0": n0}, ["u", "v", "x", "y", "z", "abs_u"], rows)
    print(f"wrote {len(rows)} samples to {cfg['out']} (n0 = {n0})")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, help="first Lame constant")
    p.add_argument("--mu", type=float, help="shear modulus")
    p.add_argument("--ri", type=float, help="core radius")
    p.add_argument("--re", type=float, help="shell outer radius")
    p.add_argument("--rs", type=float, help="source radius")
    p.add_argument("--delta-grid", dest="delta_grid", type=lambda s: [float(x) for x in s.split(",")],
                   help="comma list of decreasing loss values")
    p.add_argument("--n-max", dest="n_max", type=int, help="maximum degree")
    p.add_argument("--quad-theta", dest="quad_theta", type=int, help="colatitude quadrature nodes")
    p.add_argument("--quad-phi", dest="quad_phi", type=int, help="azimuth quadrature nodes")
    p.add_argument("--out", help="output artifact path")
    p.add_argument("--config", help="flat key = value config file (flags override)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="npshell",
        description="Neumann-Poincare spectra and anomalous localized resonance on spheres",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("spectrum", help="tabulate N-P eigenvalues to CSV")
    _add_common(ps)
    ps.add_argument("--n-min", dest="n_min", type=int)
    ps.add_argument("--families", help="comma list out of T,M,N")
    ps.set_defaults(func=cmd_spectrum)

    pv = sub.add_parser("validate", help="run an oracle suite; nonzero exit on failure")
    _add_common(pv)
    pv.add_argument("--suite", choices=["layers", "np", "lame", "gram", "energy"])
    pv.add_argument("--inject-fault", action="store_true",
                    help="testing hook: corrupt one reference eigenvalue")
    pv.set_defaults(func=cmd_validate)

    pc = sub.add_parser("calr", help="loss sweep with resonance classification")
    _add_common(pc)
    pc.add_argument("--kappa", type=float, help="source amplitude")
    pc.add_argument("--no-quad-energy", action="store_true",
                    help="skip the volume-quadrature energy cross-check")
    pc.set_defaults(func=cmd_calr)

    pf = sub.add_parser("field", help="emit a plane slice of |u| for plotting")
    _add_common(pf)
    pf.add_argument("--delta", type=float, help="loss value")
    pf.add_argument("--axis", choices=["x", "y", "z"], help="slice plane normal")
    pf.add_argument("--offset", type=float, help="plane offset along the normal")
    pf.add_argument("--extent", type=float, help="half-width of the slice")
    pf.add_argument("--resolution", type=int, help="samples per side")
    pf.add_argument("--guard", type=float, help="interface guard band, relative to r_e")
    pf.add_argument("--kappa", type=float, help="source amplitude")
    pf.add_argument("--include-source", action="store_true",
                    help="add the source potential where its series converges")
    pf.set_defaults(func=cmd_field)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
