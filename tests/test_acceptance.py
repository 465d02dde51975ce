"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from npshell.harmonics import ModeIndex, eval_solid_mode, gram_matrix, mode_indices
from npshell.kelvin import LameParams
from npshell.oracle import (
    FDStencil,
    QuadratureRule,
    fd_lame_residual,
    quad_np_apply,
    quad_scalar_sl,
)
from npshell.potentials import (
    np_decomposed_multiplier,
    np_eigenvalue,
    scalar_sl_multiplier,
)
from npshell.transmission import (
    DensitySolution,
    PlasmonicConfig,
    ShellGeometry,
    a_delta,
    choose_n0,
    classify_calr,
    energy,
    mode_denominator,
    solve_mode_direct,
    transfer_factors,
)

GEOM = ShellGeometry(1.0, 2.0)
LAME = LameParams(1.0, 1.0)
MATERIALS = (LameParams(1.0, 1.0), LameParams(2.0, 1.0))


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_criterion_01_eigenvalue_spectrum():
    """Quadrature reproduces the closed-form spectrum, n <= 6, two materials."""
    rule = QuadratureRule(64, 128)
    tol = 1e-6
    worst = 0.0
    for lame in MATERIALS:
        for fam in ("T", "M", "N"):
            for n in range(1, 7):
                m = min(1, n - 1) if fam == "N" else 1
                est, _ = quad_np_apply(ModeIndex(fam, n, m), lame, rule)
                ref = np_eigenvalue(fam, n, lame)
                worst = max(worst, abs(est - ref) / abs(ref))
    spot = {
        "xi_T2": np_eigenvalue("T", 2, LAME),
        "xi_M2": np_eigenvalue("M", 2, LAME),
        "xi_N2": np_eigenvalue("N", 2, LAME),
    }
    spot_ok = (
        spot["xi_T2"] == pytest.approx(0.3)
        and spot["xi_M2"] == pytest.approx(1 / 90)
        and spot["xi_N2"] == pytest.approx(1 / 6)
    )
    ok = worst <= tol and spot_ok
    _report(1, "closed-form spectrum vs quadrature", ok,
            f"worst rel error {worst:.3e} (tol {tol:.0e}); spot values 0.3, 1/90, 1/6 ok={spot_ok}")
    assert ok


def test_criterion_02_decomposition_equals_direct():
    """Single-layer decomposition route coincides with the spectrum, n <= 12."""
    tol = 1e-10
    worst = 0.0
    count = 0
    for lame in MATERIALS:
        for idx in mode_indices(12):
            direct = np_eigenvalue(idx.family, idx.n, lame)
            decomposed = np_decomposed_multiplier(idx.family, idx.n, lame, 1.0)
            worst = max(worst, abs(decomposed - direct) / abs(direct))
            count += 1
    ok = worst <= tol
    _report(2, "N-P decomposition route", ok,
            f"{count} modes, worst rel disagreement {worst:.3e} (tol {tol:.0e})")
    assert ok


def test_criterion_03_scalar_layer_actions():
    """Componentwise single layer: -r0/(2n+1), -r0/(2n-1), -r0/(2n+3)."""
    rule = QuadratureRule(64, 128)
    tol = 1e-6
    x0 = np.array([0.36, -0.48, 0.8])
    worst = 0.0
    from npshell.harmonics import eval_trace_mode, _cartesian_angles

    for r0 in (0.5, 1.0, 2.0):
        for fam, subs in (("T", range(1, 9)), ("M", range(1, 9)), ("N", range(2, 10))):
            for n in subs:
                idx = ModeIndex(fam, n, min(1, idx_mmax(fam, n)))
                val = quad_scalar_sl(idx, r0 * x0, LAME, rule, r0)
                _, t, p = _cartesian_angles(r0 * x0)
                ref = scalar_sl_multiplier(idx.family, idx.n, r0) * eval_trace_mode(idx, LAME, t, p)
                worst = max(worst, float(np.linalg.norm(val - ref) / np.linalg.norm(ref)))
    ok = worst <= tol
    _report(3, "scalar single-layer multipliers", ok,
            f"families T/M/N, n <= 8, r0 in (0.5, 1, 2); worst rel error {worst:.3e} (tol {tol:.0e})")
    assert ok


def idx_mmax(fam, n):
    return n - 1 if fam == "N" else n


def test_criterion_04_lame_kernel_and_gram():
    """Solid modes solve the Lame system; trace modes are orthogonal."""
    rng = np.random.default_rng(20240812)
    tol_fd = 1e-6
    worst_fd = 0.0
    for fam in ("T", "M", "N"):
        for n in range(1, 7):
            idx = ModeIndex(fam, n, min(1, idx_mmax(fam, n)))
            for _ in range(20):
                x = rng.normal(size=3)
                x *= rng.uniform(0.5, 1.5) / np.linalg.norm(x)
                res = fd_lame_residual(
                    lambda p: eval_solid_mode(idx, LAME, p), LAME, x,
                    FDStencil(h=1e-4 * np.linalg.norm(x)),
                )
                worst_fd = max(worst_fd, res)
    rule = QuadratureRule(24, 48)
    gram, _ = gram_matrix(8, LAME, rule)
    diag = np.real(np.diag(gram))
    off = np.max(np.abs(gram - np.diag(np.diag(gram)))) / np.max(diag)
    ok = worst_fd <= tol_fd and off <= 1e-10
    _report(4, "Lame kernel + orthogonal basis", ok,
            f"worst FD residual {worst_fd:.3e} (tol {tol_fd:.0e}); "
            f"gram off-diagonal {off:.3e} (tol 1e-10) at n_max=8")
    assert ok


def test_criterion_05_resonant_identity():
    """a1(0) = a2(0) = 3/(4 n0 + 2) for the tuned parameters."""
    tol = 1e-12
    worst = 0.0
    for n0 in range(2, 51):
        pair = a_delta(PlasmonicConfig.resonant(n0, 0.0))
        xi = 3 / (4 * n0 + 2)
        worst = max(worst, abs(pair.a1 - xi), abs(pair.a2 - xi))
    ok = worst <= tol
    _report(5, "resonant parameter identity", ok,
            f"n0 in [2, 50], worst deviation {worst:.3e} (tol {tol:.0e})")
    assert ok


def test_criterion_06_mode_solve_oracle():
    """Closed-form densities match the assembled 2x2 interface system."""
    rng = np.random.default_rng(20240813)
    tol = 1e-10
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        geom = ShellGeometry(*np.sort(rng.uniform(0.5, 3.0, size=2)))
        cfg = PlasmonicConfig(
            n0=n,
            c_n=float(rng.uniform(1.5, 20.0)),
            eps_n=float(rng.uniform(-8.0, -1.1)),
            delta=float(10 ** rng.uniform(-8, -1)),
        )
        lame = LameParams(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0)))
        g = complex(rng.normal(), rng.normal())
        a = [g * t for t in transfer_factors(n, geom, cfg, lame)]
        b = solve_mode_direct(n, 0, g, geom, cfg, lame)
        scale = max(abs(a[0]), abs(a[1]), 1e-30)
        worst = max(worst, abs(a[0] - b[0]) / scale, abs(a[1] - b[1]) / scale)
    cfg0 = PlasmonicConfig.resonant(2, 0.0)
    w_closed = transfer_factors(2, GEOM, cfg0, LAME)
    w_direct = solve_mode_direct(2, 0, 1.0, GEOM, cfg0, LAME)
    point_ok = (
        abs(w_closed[0] + 20) < 1e-10 * 20
        and abs(w_closed[1] - 5) < 1e-10 * 5
        and abs(w_direct[0] + 20) < 1e-10 * 20
        and abs(w_direct[1] - 5) < 1e-10 * 5
    )
    ok = worst <= tol and point_ok
    _report(6, "mode-solve oracle equivalence", ok,
            f"100 draws, worst rel {worst:.3e} (tol {tol:.0e}); "
            f"worked point (-20, 5): {w_closed[0].real:.12g}, {w_closed[1].real:.12g}")
    assert ok


def test_criterion_07_calr_blowup():
    """Inside the critical radius the dissipated energy blows up as loss -> 0."""
    grid = [10.0 ** (-k) for k in range(1, 7)]
    sweep = classify_calr(GEOM, LAME, 2.5, grid)
    energies = [r.energy_modal for r in sweep.reports]
    growth = energies[-1] / energies[0]
    rho = GEOM.rho
    mono_energies = []
    for k in range(2, 11):
        delta = rho ** (k + 0.5)
        from npshell.transmission import solve_sweep_point

        src, sol = solve_sweep_point(delta, GEOM, LAME, 2.5)
        mono_energies.append(energy(sol, src, GEOM, sol.cfg, LAME).energy_modal)
    monotone = all(b > a for a, b in zip(mono_energies, mono_energies[1:]))
    ok = growth > 1e3 and monotone and sweep.verdict == "resonant"
    _report(7, "CALR blowup (source inside r*)", ok,
            f"E(1e-6)/E(1e-1) = {growth:.4g} (required > 1e3); "
            f"monotone along rho^(k+1/2), k=2..10: {monotone}; verdict {sweep.verdict}")
    assert ok


def test_criterion_08_calr_boundedness():
    """Outside the critical radius the energy stays confined; far fields are
    tame in both regimes.

    Outside r* the theory bounds the dissipated energy from above only: with
    g_e ~ (r_e/r_s)^n and n0 ~ log(delta)/log(rho) the leading order is
    E ~ delta^(-1 + 2 log(r_s/r_e)/log(r_e/r_i)) = delta^0.615 at r_s = 3.5,
    so E peaks and then decays to 0.  The energy clause is therefore
    one-sided: max_k E(delta_k) / E(1e-1) < 10 (measured 1.086) and
    E(1e-6) <= E(1e-1) (measured ratio 0.091).  A two-sided max/min band
    cannot hold for any correct program: it is 11.98 on this grid, 244.5 if
    the grid runs to 1e-9 and 7192 to 1e-12, while max/E(1e-1) stays 1.086.
    The same clause must fail on the resonant r_s = 2.5 sweep (measured
    2209), so it separates the two regimes.
    """
    grid = [10.0 ** (-k) for k in range(1, 7)]
    bounded = classify_calr(GEOM, LAME, 3.5, grid)
    resonant = classify_calr(GEOM, LAME, 2.5, grid)
    energies = [r.energy_modal for r in bounded.reports]
    e_growth = max(energies) / energies[0]
    e_last = energies[-1] / energies[0]
    energies_r = [r.energy_modal for r in resonant.reports]
    e_growth_r = max(energies_r) / energies_r[0]
    ff_bounded = [r.farfield_sample for r in bounded.reports]
    ff_resonant = [r.farfield_sample for r in resonant.reports]
    ff_b = max(ff_bounded) / min(ff_bounded)
    ff_r = max(ff_resonant) / min(ff_resonant)
    ff_ok = ff_b < 10 and ff_r < 10
    e_ok = e_growth < 10 and e_last <= 1
    control_ok = e_growth_r >= 10
    _report(8, "CALR boundedness (source outside r*)", e_ok and control_ok and ff_ok,
            f"energy max/E(1e-1) = {e_growth:.4g} (required < 10), "
            f"E(1e-6)/E(1e-1) = {e_last:.3g} (required <= 1); resonant control "
            f"max/E(1e-1) = {e_growth_r:.4g} (required >= 10); far-field variation "
            f"bounded {ff_b:.3g}, resonant {ff_r:.3g} (required < 10); "
            f"verdict {bounded.verdict}")
    assert bounded.verdict == "bounded"
    assert ff_ok
    assert e_ok, (
        f"energy outside r* grows to {e_growth:.4g} x E(1e-1) (must stay < 10) "
        f"or ends at {e_last:.3g} x E(1e-1) (must be <= 1)"
    )
    assert control_ok, (
        f"resonant sweep grows only {e_growth_r:.4g} x E(1e-1): the energy "
        "clause does not separate the two regimes"
    )


def test_criterion_09_energy_cross_check():
    """Closed-form mode energy vs shell volume quadrature, single modes."""
    tol = 0.05
    worst = 0.0
    for n in range(2, 7):
        cfg = PlasmonicConfig.resonant(n, 0.005)
        phi_i, phi_e = transfer_factors(n, GEOM, cfg, LAME)
        sol = DensitySolution(
            n=np.array([n]),
            m=np.array([0]),
            phi_i=np.array([phi_i]),
            phi_e=np.array([phi_e]),
            geom=GEOM,
            cfg=cfg,
            lame=LAME,
        )
        rep = energy(sol, None, GEOM, cfg, LAME, quadrature=True)
        worst = max(worst, abs(rep.energy_quadrature - rep.energy_modal) / rep.energy_modal)
    ok = worst <= tol
    _report(9, "energy closed form vs quadrature", ok,
            f"single modes n = 2..6, worst rel gap {worst:.3e} (tol {tol})")
    assert ok


def test_criterion_10_denominator_band():
    """|D| / (delta^2 + rho^(2 n0)) confined to a narrow two-sided band."""
    ratios = []
    per_rho = {}
    for rho in (0.3, 0.5, 0.7):
        geom = ShellGeometry(rho, 1.0)
        vals = []
        for delta in np.logspace(-8, -1, 60):
            n0 = max(choose_n0(float(delta), geom), 2)
            cfg = PlasmonicConfig.resonant(n0, float(delta))
            D = mode_denominator(n0, cfg, geom, LAME)
            vals.append(abs(D) / (delta**2 + rho ** (2 * n0)))
        per_rho[rho] = (min(vals), max(vals))
        ratios += vals
    band = max(ratios) / min(ratios)
    ok = band <= 100.0
    detail = "; ".join(
        f"rho={r}: [{lo:.4g}, {hi:.4g}]" for r, (lo, hi) in per_rho.items()
    )
    _report(10, "denominator two-sided band", ok,
            f"overall band ratio {band:.4g} (required <= 100); {detail}")
    assert ok
