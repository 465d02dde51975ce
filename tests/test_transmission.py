"""Core-shell-matrix solver: mode solves, fields, energy, classification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import assert_pointwise, random_surface_angles
from npshell.harmonics import (
    ModeIndex,
    _unit_vectors,
    eval_solid_mode,
    grad_irregular_solid_harmonic,
    grad_solid_harmonic,
    hess_irregular_solid_harmonic,
    hess_solid_harmonic,
)
from npshell.kelvin import LameParams
from npshell.oracle import QuadratureRule, quad_energy_shell
from npshell.potentials import CoefficientSpectrum, np_eigenvalue
from npshell.potentials import elastic_sl_t_coeff
from npshell.transmission import (
    CalrSweep,
    DensitySolution,
    PlasmonicConfig,
    ShellGeometry,
    SourceSpectrum,
    a_delta,
    choose_n0,
    classify_calr,
    critical_radius,
    energy,
    field_eval,
    g_i_from_g_e,
    mode_denominator,
    mode_energy,
    plasmonic_params,
    resonant_energy_envelope,
    scattered_gradient_factory,
    solve_mode,
    solve_mode_direct,
    solve_source,
    solve_sweep_point,
    source_field,
    synth_source,
    truncation_degree,
)


GEOM = ShellGeometry(1.0, 2.0)
LAME = LameParams(1.0, 1.0)


class TestGeometry:
    def test_invalid(self):
        with pytest.raises(ValueError):
            ShellGeometry(2.0, 1.0)
        with pytest.raises(ValueError):
            ShellGeometry(0.0, 1.0)

    def test_critical_radius(self):
        assert_allclose(critical_radius(GEOM), 2 * math.sqrt(2))
        assert_allclose(critical_radius(GEOM), 2.828427, rtol=1e-6)

    def test_degenerate_shell_limit(self):
        assert_allclose(critical_radius(ShellGeometry(2.0 - 1e-12, 2.0)), 2.0, rtol=1e-9)

    def test_monotone_in_core_radius(self):
        vals = [critical_radius(ShellGeometry(ri, 2.0)) for ri in (0.5, 1.0, 1.5)]
        assert vals[0] > vals[1] > vals[2]


class TestPlasmonicParams:
    def test_worked_values(self):
        assert plasmonic_params(2) == (16.0, -4.0)
        assert plasmonic_params(4) == (4.0, -2.0)

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            plasmonic_params(1)

    def test_resonant_identity(self):
        # at zero loss both interface parameters hit the T eigenvalue exactly
        for n0 in range(2, 51):
            cfg = PlasmonicConfig.resonant(n0, 0.0)
            pair = a_delta(cfg)
            xi = 3 / (4 * n0 + 2)
            assert abs(pair.a1 - xi) <= 1e-12
            assert abs(pair.a2 - xi) <= 1e-12


class TestADelta:
    def test_zero_loss_values(self):
        pair = a_delta(PlasmonicConfig(2, 16.0, -4.0, 0.0))
        assert_allclose([pair.a1, pair.a2], [0.3, 0.3], atol=1e-15)

    def test_large_loss_limits(self):
        pair = a_delta(PlasmonicConfig(2, 16.0, -4.0, 1e9))
        assert_allclose(pair.a1, -0.5, atol=1e-7)
        assert_allclose(pair.a2, 0.5, atol=1e-7)

    @settings(deadline=None, max_examples=30)
    @given(
        c=st.floats(0.5, 30.0),
        eps=st.floats(-10.0, -1.01),
        delta=st.floats(1e-8, 0.5),
    )
    def test_conjugation(self, c, eps, delta):
        plus = a_delta(PlasmonicConfig(2, c, eps, delta))
        minus = a_delta(PlasmonicConfig(2, c, eps, -delta))
        assert_allclose(minus.a1, np.conj(plus.a1), rtol=1e-12)
        assert_allclose(minus.a2, np.conj(plus.a2), rtol=1e-12)


class TestSourceRelation:
    def test_worked_value(self):
        assert_allclose(g_i_from_g_e(3, 1.0, GEOM), 0.25)

    def test_degree_one_identity(self):
        assert g_i_from_g_e(1, 0.7 + 0.1j, GEOM) == 0.7 + 0.1j

    @settings(deadline=None, max_examples=20)
    @given(
        g=st.complex_numbers(min_magnitude=1e-6, max_magnitude=10.0),
        scale=st.floats(0.1, 5.0),
    )
    def test_linearity(self, g, scale):
        assert_allclose(
            g_i_from_g_e(4, scale * g, GEOM), scale * g_i_from_g_e(4, g, GEOM), rtol=1e-14
        )


class TestSolveMode:
    def test_worked_point(self):
        cfg = PlasmonicConfig.resonant(2, 0.0)
        phi_i, phi_e = solve_mode(2, 0, 1.0, GEOM, cfg, LAME)
        assert_allclose(phi_i, -20.0, rtol=1e-12)
        assert_allclose(phi_e, 5.0, rtol=1e-12)

    def test_zero_source(self):
        cfg = PlasmonicConfig.resonant(3, 0.01)
        assert solve_mode(5, 0, 0.0, GEOM, cfg, LAME) == (0.0, 0.0)

    def test_offresonant_denominator(self):
        cfg = PlasmonicConfig.resonant(2, 0.0)
        D = mode_denominator(3, cfg, GEOM, LAME)
        assert_allclose(D, 0.008941326530612245, rtol=1e-12)
        phi_i, phi_e = solve_mode(3, 0, 1.0, GEOM, cfg, LAME)
        assert np.isfinite(phi_i) and np.isfinite(phi_e)

    def test_degree_one_excluded(self):
        cfg = PlasmonicConfig.resonant(2, 0.01)
        with pytest.raises(ValueError):
            solve_mode(1, 0, 1.0, GEOM, cfg, LAME)

    def test_matches_direct_2x2(self, rng):
        # oracle equivalence over random parameter draws
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
            closed = solve_mode(n, 0, g, geom, cfg, lame)
            direct = solve_mode_direct(n, 0, g, geom, cfg, lame)
            scale = max(abs(closed[0]), abs(closed[1]), 1e-30)
            worst = max(worst, abs(closed[0] - direct[0]) / scale, abs(closed[1] - direct[1]) / scale)
        assert worst <= 1e-10


def _single_mode_solution(n, m, delta, g=1.0, geom=GEOM, lame=LAME):
    cfg = PlasmonicConfig.resonant(n, delta)
    phi_i, phi_e = solve_mode(n, m, g, geom, cfg, lame)
    idx = ModeIndex("T", n, m)
    return (
        DensitySolution(
            phi_i=CoefficientSpectrum({idx: phi_i}),
            phi_e=CoefficientSpectrum({idx: phi_e}),
            geom=geom,
            cfg=cfg,
            lame=lame,
        ),
        cfg,
    )


class TestFieldEval:
    def test_continuity_across_interfaces(self, rng):
        sol, _ = _single_mode_solution(3, 1, 0.01)
        theta, phi = random_surface_angles(rng, 6)
        nu = _unit_vectors(theta, phi)
        for radius in (GEOM.r_i, GEOM.r_e):
            inner = field_eval(sol, None, GEOM, LAME, radius * (1 - 1e-11) * nu)
            outer = field_eval(sol, None, GEOM, LAME, radius * (1 + 1e-11) * nu)
            assert_allclose(inner, outer, rtol=1e-8, atol=1e-12)

    def test_farfield_decay_pure_n2(self):
        sol, _ = _single_mode_solution(2, 0, 0.01)
        d = np.array([0.3, 0.5, 0.81])
        d /= np.linalg.norm(d)
        v1 = np.linalg.norm(field_eval(sol, None, GEOM, LAME, 6.0 * d))
        v2 = np.linalg.norm(field_eval(sol, None, GEOM, LAME, 12.0 * d))
        assert_allclose(v2 / v1, 2.0**-3, rtol=1e-12)

    def test_zero_densities_leave_source_only(self):
        src = synth_source(2.5, GEOM, LAME, n_max=6)
        cfg = PlasmonicConfig.resonant(2, 0.01)
        empty = DensitySolution(
            phi_i=CoefficientSpectrum({ModeIndex("T", n, 0): 0.0 for n in range(2, 7)}),
            phi_e=CoefficientSpectrum({ModeIndex("T", n, 0): 0.0 for n in range(2, 7)}),
            geom=GEOM,
            cfg=cfg,
            lame=LAME,
        )
        pts = np.array([[0.4, 0.2, 0.3], [1.2, -0.4, 0.9]])
        total = field_eval(empty, src, GEOM, LAME, pts, include_source=True)
        assert_allclose(total, source_field(src, GEOM, LAME, pts), rtol=1e-14)

    def test_source_series_guard(self):
        src = synth_source(2.5, GEOM, LAME, n_max=6)
        with pytest.raises(ValueError):
            source_field(src, GEOM, LAME, np.array([[3.0, 0.0, 0.0]]))


def _shell_amplitudes(sol, idx):
    """(decaying, regular) amplitudes of one mode in the shell: the inner layer
    in its exterior form, the outer layer in its interior form."""
    d1 = elastic_sl_t_coeff(idx.n, sol.lame)
    return d1 * sol.geom.r_i ** (idx.n + 2) * sol.phi_i[idx], d1 * sol.phi_e[idx] / sol.geom.r_e ** (idx.n - 1)


def _per_mode_field(sol, geom, lame, xyz):
    """Scattered field summed mode by mode from the single-mode ladders."""
    r = np.linalg.norm(xyz, axis=-1)
    out = np.zeros(xyz.shape, dtype=complex)
    core, outer = r <= geom.r_i, r > geom.r_e
    shell = ~core & ~outer
    for idx, _ in sol.phi_i.items():
        n, m = idx.n, idx.m
        d1 = elastic_sl_t_coeff(n, lame)
        c = d1 * (sol.phi_i[idx] / geom.r_i ** (n - 1) + sol.phi_e[idx] / geom.r_e ** (n - 1))
        out[core] += c * eval_solid_mode(idx, lame, xyz[core])
        a, b = _shell_amplitudes(sol, idx)
        pts = xyz[shell]
        out[shell] += a * np.cross(grad_irregular_solid_harmonic(n, m, pts), pts)
        out[shell] += b * eval_solid_mode(idx, lame, pts)
        pts = xyz[outer]
        amp = d1 * (geom.r_i ** (n + 2) * sol.phi_i[idx] + geom.r_e ** (n + 2) * sol.phi_e[idx])
        out[outer] += amp * np.cross(grad_irregular_solid_harmonic(n, m, pts), pts)
    return out


def _per_mode_u_grad(sol, xyz):
    """(u, grad u) in the shell summed mode by mode from the single-mode ladders."""
    u = np.zeros(xyz.shape, dtype=complex)
    grad = np.zeros(xyz.shape + (3,), dtype=complex)
    eye = np.eye(3)
    for idx, _ in sol.phi_i.items():
        n, m = idx.n, idx.m
        a, b = _shell_amplitudes(sol, idx)
        gr, hr = grad_solid_harmonic(n, m, xyz), hess_solid_harmonic(n, m, xyz)
        gi, hi = grad_irregular_solid_harmonic(n, m, xyz), hess_irregular_solid_harmonic(n, m, xyz)
        u += b * np.cross(gr, xyz) + a * np.cross(gi, xyz)
        for l in range(3):
            grad[..., l] += b * (np.cross(hr[..., l], xyz) + np.cross(gr, eye[l]))
            grad[..., l] += a * (np.cross(hi[..., l], xyz) + np.cross(gi, eye[l]))
    return u, grad


def _per_mode_source(src, geom, lame, xyz):
    out = np.zeros(xyz.shape, dtype=complex)
    for (n, m), g in src.items():
        coeff = g / (lame.mu * (n - 1) * geom.r_e ** (n - 1))
        out += coeff * eval_solid_mode(ModeIndex("T", n, m), lame, xyz)
    return out


class TestBatchedFields:
    """T fields from one scalar potential per region against per-mode sums."""

    @pytest.mark.parametrize("spread_m", [False, True], ids=["m0-sweep", "spread-m"])
    def test_matches_per_mode_sums(self, spread_m, rng):
        if spread_m:
            src = synth_source(2.5, GEOM, LAME, n_max=12, spread_m=True)
            sol = solve_source(src, GEOM, PlasmonicConfig.resonant(4, 1e-3), LAME)
            assert any(m < 0 and m % 2 for (_n, m) in src.coeffs)
        else:
            src, sol = solve_sweep_point(1e-3, GEOM, LAME, 2.5)
        radii = np.concatenate([rng.uniform(0.05, 0.95, 20), rng.uniform(1.05, 1.95, 20),
                                rng.uniform(2.05, 6.0, 20)])
        pts = _unit_vectors(*random_surface_angles(rng, 60)) * radii[:, None]
        axis = [[0.0, 0.0, s * h] for h in (0.5, 1.5, 3.0) for s in (1.0, -1.0)]
        pts = np.vstack([np.zeros((1, 3)), axis, pts])
        assert_pointwise(field_eval(sol, None, GEOM, LAME, pts), _per_mode_field(sol, GEOM, LAME, pts))

        r = np.linalg.norm(pts, axis=1)
        shell = pts[(r > GEOM.r_i) & (r <= GEOM.r_e)]
        u, grad = scattered_gradient_factory(sol)(shell)
        u_ref, grad_ref = _per_mode_u_grad(sol, shell)
        assert_pointwise(u, u_ref)
        assert_pointwise(grad, grad_ref)

        inside = pts[r < 0.95 * src.r_s]
        assert_pointwise(source_field(src, GEOM, LAME, inside),
                         _per_mode_source(src, GEOM, LAME, inside))


class TestDegreeArrays:
    """The elementwise closed forms on arrays of n against per-mode loops."""

    def test_solve_source_matches_solve_mode(self):
        src = synth_source(2.5, GEOM, LAME, n_max=30, spread_m=True)
        cfg = PlasmonicConfig.resonant(5, 1e-4)
        sol = solve_source(src, GEOM, cfg, LAME)
        for (n, m), g in src.items():
            idx = ModeIndex("T", n, m)
            assert_allclose((sol.phi_i[idx], sol.phi_e[idx]), solve_mode(n, m, g, GEOM, cfg, LAME), rtol=1e-14)

    def test_energy_matches_boundary_term_form(self):
        # the scale-free E_n against P = mu n(n+1) [(n+2)|a|^2 (r_i^-(2n+1) -
        # r_e^-(2n+1)) + (n-1)|b|^2 (r_e^(2n+1) - r_i^(2n+1))], mode by mode
        src, sol = solve_sweep_point(1e-4, GEOM, LAME, 2.5)
        rep = energy(sol, src, GEOM, sol.cfg, LAME)
        ri, re = GEOM.r_i, GEOM.r_e
        per_mode = {}
        for idx, _ in sol.phi_i.items():
            n = idx.n
            a, b = _shell_amplitudes(sol, idx)
            p = LAME.mu * n * (n + 1) * (
                (n + 2) * abs(a) ** 2 * (ri ** -(2 * n + 1) - re ** -(2 * n + 1))
                + (n - 1) * abs(b) ** 2 * (re ** (2 * n + 1) - ri ** (2 * n + 1))
            )
            per_mode[n] = 0.5 * sol.cfg.delta * p
            assert_allclose(mode_energy(sol, idx), per_mode[n], rtol=1e-13)
        assert_allclose(rep.energy_modal, math.fsum(per_mode.values()), rtol=1e-13)
        assert rep.dominant_n == max(per_mode, key=per_mode.get)
        assert rep.n_trunc == max(per_mode) == src.n_max


class TestSynthSource:
    def test_decay_ratio(self):
        src = synth_source(2.5, GEOM, LAME, n_max=40)
        g = dict(src.items())
        ratios = [abs(g[(n + 1, 0)]) / abs(g[(n, 0)]) for n in range(30, 39)]
        assert_allclose(ratios[-1], GEOM.r_e / 2.5, rtol=0.05)

    def test_root_test_matches_radius(self):
        r_s = 2.5
        src = synth_source(r_s, GEOM, LAME, n_max=220)
        vals = []
        for (n, _m), g in src.items():
            if n >= 200:
                vals.append((abs(g) / (n * GEOM.r_e ** (n - 1))) ** (1.0 / n))
        assert_allclose(vals[-1], 1 / r_s, rtol=1e-2)

    def test_zero_amplitude(self):
        src = synth_source(2.5, GEOM, LAME, kappa=0.0, n_max=10)
        assert len(src.coeffs) == 0

    def test_inside_shell_rejected(self):
        with pytest.raises(ValueError):
            synth_source(1.5, GEOM, LAME)

    def test_spread_m(self):
        src = synth_source(2.5, GEOM, LAME, n_max=3, spread_m=True)
        assert (2, -2) in src.coeffs and (3, 3) in src.coeffs

    def test_degree_one_rejected_in_spectrum(self):
        with pytest.raises(ValueError):
            SourceSpectrum(coeffs={(1, 0): 1.0})


class TestChooseN0:
    def test_worked_values(self):
        assert choose_n0(0.1, GEOM) == 4
        assert choose_n0(0.3, GEOM) == 2

    def test_exact_power_convention(self):
        for k in (2, 3, 5):
            assert choose_n0(0.5**k, GEOM) == k + 1

    def test_invalid_loss(self):
        with pytest.raises(ValueError):
            choose_n0(1.0, GEOM)

    @settings(deadline=None, max_examples=50)
    @given(delta=st.floats(1e-12, 0.99), rho=st.floats(0.05, 0.95))
    def test_defining_inequality(self, delta, rho):
        geom = ShellGeometry(rho, 1.0)
        n0 = choose_n0(delta, geom)
        assert rho**n0 < delta <= rho ** (n0 - 1)


class TestEnergy:
    def test_envelope_worked_value(self):
        cfg = PlasmonicConfig.resonant(2, 0.005)
        src = SourceSpectrum(coeffs={(2, 0): 1.0})
        env = resonant_energy_envelope(src, cfg, GEOM)
        assert_allclose(env, 0.005 / (2 * (0.005**2 + 0.5**4)), rtol=1e-14)
        assert_allclose(env, 0.03998, rtol=1e-3)

    def test_envelope_inverse_loss_scaling(self):
        # with delta >> rho^n0 the envelope scales like 1/delta
        src = SourceSpectrum(coeffs={(8, 0): 1.0})
        vals = []
        for delta in (0.2, 0.4):
            cfg = PlasmonicConfig.resonant(8, delta)
            vals.append(resonant_energy_envelope(src, cfg, GEOM))
        assert_allclose(vals[0] / vals[1], 2.0, rtol=1e-3)

    def test_zero_source_zero_energy(self):
        cfg = PlasmonicConfig.resonant(2, 0.01)
        src = SourceSpectrum(coeffs={})
        sol = solve_source(src, GEOM, cfg, LAME)
        rep = energy(sol, src, GEOM, cfg, LAME)
        assert rep.energy_modal == 0.0

    def test_modal_vs_quadrature_single_modes(self):
        # closed-form mode sum against the volume integral of the strain density
        for n in (2, 4, 6):
            sol, cfg = _single_mode_solution(n, 0, 0.005)
            rep = energy(sol, None, GEOM, cfg, LAME, quadrature=True)
            assert rep.energy_quadrature is not None
            assert abs(rep.energy_quadrature - rep.energy_modal) < 5e-3 * rep.energy_modal

    def test_energy_nonnegative_and_dominant_mode(self):
        delta = 1e-3
        n0 = choose_n0(delta, GEOM)
        cfg = PlasmonicConfig.resonant(n0, delta)
        src = synth_source(2.5, GEOM, LAME, n_max=truncation_degree(n0))
        sol = solve_source(src, GEOM, cfg, LAME)
        rep = energy(sol, src, GEOM, cfg, LAME)
        assert rep.energy_modal > 0
        assert rep.dominant_n == n0
        assert np.isfinite(rep.farfield_sample)

    def test_report_json_fields(self):
        sol, cfg = _single_mode_solution(2, 0, 0.01)
        rep = energy(sol, None, GEOM, cfg, LAME)
        d = rep.to_json_dict()
        assert set(d) == {
            "delta", "n0", "c_n", "eps_n", "energy_modal",
            "energy_quadrature", "farfield_sample", "dominant_n", "n_trunc", "verdict",
        }
        assert (d["dominant_n"], d["n_trunc"]) == (2, 2)


class TestDenominatorBand:
    def test_two_sided_band(self):
        # |D| / (delta^2 + rho^(2 n0)) stays in a narrow band under retuning
        ratios = []
        for rho in (0.3, 0.5, 0.7):
            geom = ShellGeometry(rho, 1.0)
            for delta in np.logspace(-8, -1, 40):
                n0 = max(choose_n0(delta, geom), 2)
                cfg = PlasmonicConfig.resonant(n0, delta)
                D = mode_denominator(n0, cfg, geom, LAME)
                ratios.append(abs(D) / (delta**2 + rho ** (2 * n0)))
        band = max(ratios) / min(ratios)
        assert band <= 100.0

    def test_material_independence(self):
        cfg = PlasmonicConfig.resonant(4, 1e-3)
        d_a = mode_denominator(4, cfg, GEOM, LameParams(1.0, 1.0))
        d_b = mode_denominator(4, cfg, GEOM, LameParams(5.0, 0.3))
        assert_allclose(d_a, d_b, rtol=1e-14)


class TestClassify:
    def test_resonant_inside_critical_radius(self):
        grid = [10.0 ** (-k) for k in range(1, 7)]
        sweep = classify_calr(GEOM, LAME, 2.5, grid)
        assert sweep.verdict == "resonant"
        energies = [r.energy_modal for r in sweep.reports]
        assert energies[-1] / energies[0] > 1e3

    def test_bounded_outside_critical_radius(self):
        grid = [10.0 ** (-k) for k in range(1, 6)]
        sweep = classify_calr(GEOM, LAME, 3.5, grid)
        assert sweep.verdict == "bounded"

    def test_boundary_verdict(self):
        grid = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
        sweep = classify_calr(GEOM, LAME, GEOM.critical_radius, grid)
        assert sweep.verdict == "boundary"

    def test_insufficient_grid(self):
        sweep = classify_calr(GEOM, LAME, 2.5, [1e-3])
        assert sweep.verdict == "insufficient-grid"
        assert len(sweep.reports) == 1

    def test_grid_must_decrease(self):
        with pytest.raises(ValueError):
            classify_calr(GEOM, LAME, 2.5, [1e-3, 1e-2])

    def test_fixed_config_mode(self):
        cfg = PlasmonicConfig.resonant(4, 0.1)
        sweep = classify_calr(
            GEOM, LAME, 2.5, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], fixed_cfg=cfg
        )
        assert all(r.n0 == 4 for r in sweep.reports)

    def test_reports_carry_verdict(self):
        grid = [10.0 ** (-k) for k in range(1, 7)]
        sweep = classify_calr(GEOM, LAME, 2.5, grid)
        assert all(r.verdict == "resonant" for r in sweep.reports)


class TestExactResonanceGuard:
    def test_zero_denominator_raises(self, monkeypatch):
        import npshell.transmission as tr

        monkeypatch.setattr(tr, "mode_denominator", lambda *a, **k: 0j)
        with pytest.raises(tr.ExactResonanceError):
            solve_mode(2, 0, 1.0, GEOM, PlasmonicConfig.resonant(2, 0.0), LAME)


class TestTruncationAudit:
    def test_adaptive_cut_is_converged(self):
        # the sweep extends past the baseline cut until the tail mode falls
        # under the energy floor; doubling further is then a no-op
        from npshell.transmission import solve_source, solve_sweep_point, synth_source

        delta = 1e-3
        src, sol = solve_sweep_point(delta, GEOM, LAME, 2.5)
        e_adaptive = energy(sol, src, GEOM, sol.cfg, LAME).energy_modal
        n_cut = src.n_max
        assert n_cut > truncation_degree(choose_n0(delta, GEOM))
        src2 = synth_source(2.5, GEOM, LAME, n_max=2 * n_cut)
        sol2 = solve_source(src2, GEOM, sol.cfg, LAME)
        e_double = energy(sol2, src2, GEOM, sol.cfg, LAME).energy_modal
        assert abs(e_double - e_adaptive) <= 1e-12 * e_adaptive


_SWEEP_GRID = [10.0 ** (-k) for k in range(1, 7)]


class TestScaleInvariance:
    """Rescaling all lengths by s keeps the verdict and the cut, multiplies
    the shell energy by s and leaves the far field unchanged."""

    @settings(deadline=None, max_examples=12)
    @given(log_s=st.floats(-2.0, 2.0))
    @example(log_s=2.0)  # ShellGeometry(100, 200), r_s = 250 overflowed r_e^(2n+1)
    @example(log_s=-2.0)  # ShellGeometry(0.01, 0.02), r_s = 0.025 likewise
    def test_rescaled_sweep(self, log_s):
        s = 10.0**log_s
        for ratio in (2.5, 3.5):
            unit = classify_calr(GEOM, LAME, ratio, _SWEEP_GRID)
            sweep = classify_calr(ShellGeometry(s, 2 * s), LAME, ratio * s, _SWEEP_GRID)
            assert sweep.verdict == unit.verdict
            for rep, ref in zip(sweep.reports, unit.reports):
                assert rep.n_trunc == ref.n_trunc
                assert_allclose(rep.energy_modal / s, ref.energy_modal, rtol=1e-12)
                assert_allclose(rep.farfield_sample, ref.farfield_sample, rtol=1e-12)


class TestTruncationRule:
    @pytest.mark.parametrize("r_s", [2.5, 3.5])
    @pytest.mark.parametrize("delta", [1e-1, 1e-3, 1e-6])
    def test_cut_matches_growing_spectrum(self, r_s, delta):
        # the one-pass cut is the first of max(n0 + 20, 40), +20, ... whose
        # last mode, solved and integrated on its own, is under 1e-14 of the
        # spectrum's total
        src, sol = solve_sweep_point(delta, GEOM, LAME, r_s)
        n_max = truncation_degree(sol.cfg.n0)
        while n_max < 400:
            per_mode = []
            for (n, m), g in synth_source(r_s, GEOM, LAME, n_max=n_max).items():
                idx = ModeIndex("T", n, m)
                phi_i, phi_e = solve_mode_direct(n, m, g, GEOM, sol.cfg, LAME)
                one = DensitySolution(CoefficientSpectrum({idx: phi_i}), CoefficientSpectrum({idx: phi_e}),
                                      GEOM, sol.cfg, LAME)
                per_mode.append(mode_energy(one, idx))
            if per_mode[-1] < 1e-14 * math.fsum(per_mode):
                break
            n_max += 20
        assert src.n_max == n_max
        assert len(sol.phi_i) == n_max - 1
