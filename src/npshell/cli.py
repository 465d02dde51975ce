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
    SourceSpectrum,
    classify_calr,
    energy,
    field_eval,
    solve_source,
    solve_sweep_point,
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


def _float_list(text: str) -> list[float]:
    return [float(s) for s in text.split(",") if s.strip()]


def _options(parser: argparse.ArgumentParser) -> list[str]:
    """Dests of the subcommand options that take a value: the keys a config
    file may set and the artifact header echoes."""
    return [a.dest for a in parser._actions if a.option_strings and a.nargs != 0 and a.dest != "config"]


def _resolve(ap: argparse.ArgumentParser, argv) -> tuple[argparse.Namespace, dict]:
    """Parse argv: CLI flags override config-file values override defaults.

    A config-file value becomes the default of its flag, so argparse converts
    it with that flag's own type; a key that is no option of the subcommand
    (a typo, or a flag another subcommand reads) is rejected.
    """
    args = ap.parse_args(argv)
    options = _options(args.parser)
    if args.config:
        values = _parse_config_file(args.config)
        for k in values:
            if k not in options:
                raise ValueError(f"unknown config key {k!r}")
        args.parser.set_defaults(**values)
        args = ap.parse_args(argv)
    return args, {k: getattr(args, k) for k in options}


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

def cmd_spectrum(args, cfg: dict) -> int:
    lame = _lame(cfg)
    fams = [f.strip() for f in str(cfg["families"]).split(",") if f.strip()]
    rows = []
    for fam in fams:
        lim = np_eigenvalue_limit(fam, lame)
        for n in range(cfg["n_min"], cfg["n_max"] + 1):
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
        src = SourceSpectrum({(n, 0): 1.0}, r_s=3.0 * geom.r_e)
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


def cmd_validate(args, cfg: dict) -> int:
    lame = _lame(cfg)
    rule = QuadratureRule(cfg["quad_theta"], cfg["quad_phi"])
    records = []
    suite = cfg["suite"]
    n_max = cfg["n_max"]
    if suite == "layers":
        _suite_layers(lame, rule, n_max, records)
    elif suite == "np":
        _suite_np(lame, rule, n_max, records, inject_fault=args.inject_fault)
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

def cmd_calr(args, cfg: dict) -> int:
    geom = _geom(cfg)
    lame = _lame(cfg)
    sweep = classify_calr(
        geom, lame, cfg["rs"], cfg["delta_grid"], kappa=cfg["kappa"],
        quadrature=not args.no_quad_energy,
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

def cmd_field(args, cfg: dict) -> int:
    geom = _geom(cfg)
    lame = _lame(cfg)
    src, sol = solve_sweep_point(cfg["delta"], geom, lame, cfg["rs"], kappa=cfg["kappa"])
    n0 = sol.cfg.n0

    axis = cfg["axis"].lower()
    if axis not in ("x", "y", "z"):
        print("axis must be one of x, y, z", file=sys.stderr)
        return 2
    res = cfg["resolution"]
    ext = cfg["extent"]
    ticks = [0.0] if res == 1 else list(np.linspace(-ext, ext, res))
    kept = dict(x=(1, 2), y=(0, 2), z=(0, 1))[axis]
    normal = dict(x=0, y=1, z=2)[axis]
    pts = []
    for u in ticks:
        for v in ticks:
            p = [0.0, 0.0, 0.0]
            p[kept[0]], p[kept[1]], p[normal] = u, v, cfg["offset"]
            pts.append(p)
    pts = np.array(pts)
    r = np.linalg.norm(pts, axis=1)
    guard = cfg["guard"] * geom.r_e
    keep = (np.abs(r - geom.r_i) > guard) & (np.abs(r - geom.r_e) > guard)
    include = args.include_source
    vals = np.zeros(len(pts))
    ok = keep.copy()
    if include:
        ok &= r < 0.95 * cfg["rs"]  # source series valid strictly inside r_s
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

def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the options it reads; the
    defaults here are the ones every artifact echoes."""
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
    pv.add_argument("--suite", choices=["layers", "np", "lame", "gram", "energy"], default="np")
    pv.add_argument("--n-max", type=int, default=6, help="maximum degree")
    pv.add_argument("--quad-theta", type=int, default=64, help="colatitude quadrature nodes")
    pv.add_argument("--quad-phi", type=int, default=128, help="azimuth quadrature nodes")
    pv.add_argument("--inject-fault", action="store_true",
                    help="testing hook: corrupt one reference eigenvalue")

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
    ap = build_parser()
    try:
        args, cfg = _resolve(ap, argv)
        return args.func(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
