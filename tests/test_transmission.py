"""Core-shell-matrix solver: mode solves, fields, energy, classification."""

import functools
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import npshell.oracle as oracle
import npshell.transmission as tr
from conftest import assert_pointwise, pointwise_shells, random_surface_angles, shell_fields
from npshell.harmonics import (
    ModeIndex,
    _unit_vectors,
    eval_solid_mode,
    grad_irregular_solid_harmonic,
    grad_solid_harmonic,
    hess_irregular_solid_harmonic,
    hess_solid_harmonic,
    solid_harmonic_series,
    solid_harmonic_shells,
)
from npshell.kelvin import LameParams
from npshell.oracle import QuadratureRule, quad_energy_shell
from npshell.potentials import np_eigenvalue
from npshell.potentials import elastic_sl_coeff
from npshell.transmission import (
    CalrSweep,
    DensitySolution,
    PlasmonicConfig,
    ShellGeometry,
    SourceSpectrum,
    a_delta,
    choose_n0,
    classify_calr,
    energy,
    energy_reports,
    farfield_sample,
    field_eval,
    g_i_from_g_e,
    mode_denominator,
    plasmonic_params,
    region_coefficients,
    scattered_gradient_factory,
    shell_energy,
    solve_mode_direct,
    solve_source,
    solve_sweep_point,
    source_coefficient,
    source_field,
    synth_source,
    transfer_factors,
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
        assert_allclose(GEOM.critical_radius, 2 * math.sqrt(2))
        assert_allclose(GEOM.critical_radius, 2.828427, rtol=1e-6)

    def test_degenerate_shell_limit(self):
        assert_allclose(ShellGeometry(2.0 - 1e-12, 2.0).critical_radius, 2.0, rtol=1e-9)

    def test_monotone_in_core_radius(self):
        vals = [ShellGeometry(ri, 2.0).critical_radius for ri in (0.5, 1.0, 1.5)]
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


class TestSourceCoefficient:
    @pytest.mark.parametrize("r_s", [float("nan"), 2.0, 1.5], ids=["nan", "on-shell", "inside"])
    def test_source_radius_must_exceed_r_e(self, r_s):
        # r_s <= r_e let a NaN radius through, to a "bounded" verdict
        with pytest.raises(ValueError, match=r"r_s > r_e\), got r_s="):
            source_coefficient(np.arange(2, 5), r_s, GEOM, LAME)


class TestSolveMode:
    """transfer_factors on one degree, and its 2x2 oracle solve_mode_direct."""

    def test_worked_point(self):
        cfg = PlasmonicConfig.resonant(2, 0.0)
        phi_i, phi_e = transfer_factors(2, GEOM, cfg, LAME)
        assert_allclose(phi_i, -20.0, rtol=1e-12)
        assert_allclose(phi_e, 5.0, rtol=1e-12)

    def test_zero_source(self):
        cfg = PlasmonicConfig.resonant(3, 0.01)
        assert [0.0 * t for t in transfer_factors(5, GEOM, cfg, LAME)] == [0.0, 0.0]
        assert solve_mode_direct(5, 0, 0.0, GEOM, cfg, LAME) == (0.0, 0.0)

    def test_offresonant_denominator(self):
        cfg = PlasmonicConfig.resonant(2, 0.0)
        D = mode_denominator(3, cfg, GEOM, LAME)
        assert_allclose(D, 0.008941326530612245, rtol=1e-12)
        phi_i, phi_e = transfer_factors(3, GEOM, cfg, LAME)
        assert np.isfinite(phi_i) and np.isfinite(phi_e)

    def test_degree_one_excluded(self):
        cfg = PlasmonicConfig.resonant(2, 0.01)
        with pytest.raises(ValueError):
            solve_mode_direct(1, 0, 1.0, GEOM, cfg, LAME)

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
            closed = [g * t for t in transfer_factors(n, geom, cfg, lame)]
            direct = solve_mode_direct(n, 0, g, geom, cfg, lame)
            scale = max(abs(closed[0]), abs(closed[1]), 1e-30)
            worst = max(worst, abs(closed[0] - direct[0]) / scale, abs(closed[1] - direct[1]) / scale)
        assert worst <= 1e-10


def _single_mode_solution(n, m, delta, g=1.0, geom=GEOM, lame=LAME):
    cfg = PlasmonicConfig.resonant(n, delta)
    phi_i, phi_e = (g * t for t in transfer_factors(n, geom, cfg, lame))
    return (
        DensitySolution(
            n=np.array([n]),
            m=np.array([m]),
            phi_i=np.array([phi_i]),
            phi_e=np.array([phi_e]),
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
            inner = field_eval(sol, radius * (1 - 1e-11) * nu)
            outer = field_eval(sol, radius * (1 + 1e-11) * nu)
            assert_allclose(inner, outer, rtol=1e-8, atol=1e-12)

    def test_farfield_decay_pure_n2(self):
        sol, _ = _single_mode_solution(2, 0, 0.01)
        d = np.array([0.3, 0.5, 0.81])
        d /= np.linalg.norm(d)
        v1 = np.linalg.norm(field_eval(sol, 6.0 * d))
        v2 = np.linalg.norm(field_eval(sol, 12.0 * d))
        assert_allclose(v2 / v1, 2.0**-3, rtol=1e-12)

    def test_zero_densities_leave_source_only(self):
        src = synth_source(2.5, GEOM, LAME, n_max=6)
        cfg = PlasmonicConfig.resonant(2, 0.01)
        n = np.arange(2, 7)
        empty = DensitySolution(
            n=n,
            m=np.zeros_like(n),
            phi_i=np.zeros(n.shape, dtype=complex),
            phi_e=np.zeros(n.shape, dtype=complex),
            geom=GEOM,
            cfg=cfg,
            lame=LAME,
        )
        pts = np.array([[0.4, 0.2, 0.3], [1.2, -0.4, 0.9]])
        total = field_eval(empty, pts, src)
        assert_allclose(total, source_field(src, GEOM, LAME, pts), rtol=1e-14)

    def test_source_series_guard(self):
        src = synth_source(2.5, GEOM, LAME, n_max=6)
        with pytest.raises(ValueError):
            source_field(src, GEOM, LAME, np.array([[3.0, 0.0, 0.0]]))


def _modes(spec):
    """(position, ModeIndex) of every T mode of a source spectrum or solution."""
    return [(k, ModeIndex("T", n, m)) for k, (n, m) in enumerate(zip(spec.n.tolist(), spec.m.tolist()))]


def _shell_amplitudes(sol, k, idx):
    """(decaying, regular) amplitudes of one mode in the shell: the inner layer
    in its exterior form, the outer layer in its interior form."""
    d1 = elastic_sl_coeff("T", idx.n, sol.lame)
    return d1 * sol.geom.r_i ** (idx.n + 2) * sol.phi_i[k], d1 * sol.phi_e[k] / sol.geom.r_e ** (idx.n - 1)


def _per_mode_field(sol, geom, lame, xyz):
    """Scattered field summed mode by mode from the single-mode ladders."""
    r = np.linalg.norm(xyz, axis=-1)
    out = np.zeros(xyz.shape, dtype=complex)
    core, outer = r <= geom.r_i, r > geom.r_e
    shell = ~core & ~outer
    for k, idx in _modes(sol):
        n, m = idx.n, idx.m
        d1 = elastic_sl_coeff("T", n, lame)
        c = d1 * (sol.phi_i[k] / geom.r_i ** (n - 1) + sol.phi_e[k] / geom.r_e ** (n - 1))
        out[core] += c * eval_solid_mode(idx, lame, xyz[core])
        a, b = _shell_amplitudes(sol, k, idx)
        pts = xyz[shell]
        out[shell] += a * np.cross(grad_irregular_solid_harmonic(n, m, pts), pts)
        out[shell] += b * eval_solid_mode(idx, lame, pts)
        pts = xyz[outer]
        amp = d1 * (geom.r_i ** (n + 2) * sol.phi_i[k] + geom.r_e ** (n + 2) * sol.phi_e[k])
        out[outer] += amp * np.cross(grad_irregular_solid_harmonic(n, m, pts), pts)
    return out


def _per_mode_u_grad(sol, xyz):
    """(u, grad u) in the shell summed mode by mode from the single-mode ladders."""
    u = np.zeros(xyz.shape, dtype=complex)
    grad = np.zeros(xyz.shape + (3,), dtype=complex)
    eye = np.eye(3)
    for k, idx in _modes(sol):
        n, m = idx.n, idx.m
        a, b = _shell_amplitudes(sol, k, idx)
        gr, hr = grad_solid_harmonic(n, m, xyz), hess_solid_harmonic(n, m, xyz)
        gi, hi = grad_irregular_solid_harmonic(n, m, xyz), hess_irregular_solid_harmonic(n, m, xyz)
        u += b * np.cross(gr, xyz) + a * np.cross(gi, xyz)
        for l in range(3):
            grad[..., l] += b * (np.cross(hr[..., l], xyz) + np.cross(gr, eye[l]))
            grad[..., l] += a * (np.cross(hi[..., l], xyz) + np.cross(gi, eye[l]))
    return u, grad


def _per_mode_source(src, geom, lame, xyz):
    out = np.zeros(xyz.shape, dtype=complex)
    for k, idx in _modes(src):
        coeff = src.g[k] / (lame.mu * (idx.n - 1) * geom.r_e ** (idx.n - 1))
        out += coeff * eval_solid_mode(idx, lame, xyz)
    return out


class TestBatchedFields:
    """T fields from one scalar potential per region against per-mode sums."""

    @pytest.mark.parametrize("spread_m", [False, True], ids=["m0-sweep", "spread-m"])
    def test_matches_per_mode_sums(self, spread_m, rng):
        if spread_m:
            src = synth_source(2.5, GEOM, LAME, n_max=12, spread_m=True)
            sol = solve_source(src, GEOM, PlasmonicConfig.resonant(4, 1e-3), LAME)
            assert any(m < 0 and m % 2 for m in src.m.tolist())
        else:
            src, sol = solve_sweep_point(1e-3, GEOM, LAME, 2.5)
        radii = np.concatenate([rng.uniform(0.05, 0.95, 20), rng.uniform(1.05, 1.95, 20),
                                rng.uniform(2.05, 6.0, 20)])
        pts = _unit_vectors(*random_surface_angles(rng, 60)) * radii[:, None]
        axis = [[0.0, 0.0, s * h] for h in (0.5, 1.5, 3.0) for s in (1.0, -1.0)]
        pts = np.vstack([np.zeros((1, 3)), axis, pts])
        # the m = 0 field vanishes on the z axis: exactly from the angle-free
        # table, to roundoff from the arccos-based ladders of the reference
        on_axis = np.all(pts[:, :2] == 0, axis=1) & (not spread_m)

        def check(actual, reference, axis):
            assert not actual[axis].any()
            assert np.max(np.abs(reference[axis]), initial=0.0) <= 1e-13 * np.max(np.abs(actual))
            assert_pointwise(actual[~axis], reference[~axis])

        check(field_eval(sol, pts), _per_mode_field(sol, GEOM, LAME, pts), on_axis)

        r = np.linalg.norm(pts, axis=1)
        # each shell point is its own one-point shell of radius |x|, a 1 x 1
        # grid; the factory takes radii and gives gradients in units of r_e
        in_shell = (r > GEOM.r_i) & (r <= GEOM.r_e)
        shell = r[in_shell]
        unit = pts[in_shell] / shell[:, None]
        u_grad = scattered_gradient_factory(sol)
        shells = (shell_fields(*u_grad([s / GEOM.r_e], d[None, None]))[0] for s, d in zip(shell, unit))
        u, grad = (np.concatenate(f)[:, 0] for f in zip(*shells))
        u_ref, grad_ref = _per_mode_u_grad(sol, shell[:, None] * unit)
        check(u, u_ref, on_axis[in_shell])
        assert_pointwise(grad, GEOM.r_e * grad_ref)

        inside = pts[r < 0.95 * src.r_s]
        assert_pointwise(source_field(src, GEOM, LAME, inside),
                         _per_mode_source(src, GEOM, LAME, inside))


def _spread_m_solution():
    # orders -12..12, so negative odd m and q_max >= 2
    src = synth_source(2.5, GEOM, LAME, n_max=12, spread_m=True)
    return solve_source(src, GEOM, PlasmonicConfig.resonant(4, 1e-3), LAME)


class TestShellGrid:
    """(u, grad u) on concentric shells from one angular table per call."""

    @pytest.fixture(params=["m0-sweep", "spread-m"])
    def sol(self, request):
        if request.param == "spread-m":
            return _spread_m_solution()
        return solve_sweep_point(1e-3, GEOM, LAME, 2.5)[1]

    def test_product_grid_matches_per_mode_sums(self, sol):
        # radii and gradients in units of r_e
        unit, _ = QuadratureRule(6, 12).surface_nodes()
        radii = np.array([1.0, 1.37, 2.0])
        shells = shell_fields(*scattered_gradient_factory(sol)(radii / GEOM.r_e, unit.reshape(6, 12, 3)))
        assert len(shells) == len(radii)
        for r, (u, grad) in zip(radii, shells):
            u_ref, grad_ref = _per_mode_u_grad(sol, r * unit)
            assert_pointwise(u.reshape(-1, 3), u_ref)
            assert_pointwise(grad.reshape(-1, 3, 3), GEOM.r_e * grad_ref)

    def test_quadrature_matches_per_shell_series(self, sol):
        # the same strain integral with every shell evaluated on its own
        _, regular, decaying, _ = region_coefficients(sol.n, sol.phi_i, sol.phi_e, GEOM, LAME)

        def per_shell(r, unit):
            return solid_harmonic_series(sol.n, sol.m, regular, decaying, r * unit, gradient=True)

        args = (LAME, sol.cfg.delta, GEOM, QuadratureRule(24, 48))
        assert_allclose(quad_energy_shell(scattered_gradient_factory(sol), *args),
                        quad_energy_shell(pointwise_shells(per_shell), *args), rtol=1e-13)

    def test_legendre_columns_independent_of_radial_nodes(self, sol, legendre_builds, monkeypatch):
        energy(sol, None, GEOM, sol.cfg, LAME)  # the far-field probe table, kept from here on
        q_max = int(np.abs(sol.m).max())
        rings = oracle._unit_nodes(QuadratureRule(24, 48), polar=False)[0][:, 0, 2]
        for n_radial, built in ((4, 1), (16, 0)):  # one shell table for a first cross-check, none for a repeat
            monkeypatch.setattr(oracle, "quad_energy_shell", functools.partial(quad_energy_shell, n_radial=n_radial))
            legendre_builds.clear()
            energy(sol, None, GEOM, sol.cfg, LAME, quadrature=True)
            assert len(legendre_builds) == built
            assert all(np.array_equal(z, rings) and len(orders) <= q_max + 3 for _, orders, z in legendre_builds)


def _node_by_node_energy(sol, rule, n_radial=16):
    """The cross-check's shell energy summed node by node: (u, grad u) expanded to every node of
    every shell (values @ trig), lam |div u|^2 + 2 mu |sym grad u|^2 at each node times its
    weight r^2 w, then `fsum_c` over the nodes and `math.fsum` over the radial Gauss-Legendre rule."""
    rho, (xg, wg) = sol.geom.rho, np.polynomial.legendre.leggauss(n_radial)
    radii, wr = 0.5 * (1 - rho) * xg + 0.5 * (1 + rho), 0.5 * (1 - rho) * wg
    unit, w = rule.surface_nodes()
    shells = shell_fields(*scattered_gradient_factory(sol)(radii, unit.reshape(rule.n_theta, rule.n_phi, 3)))
    dens = np.empty((n_radial, len(unit)))
    for row, r, (_, grad) in zip(dens, radii, shells):
        grad = grad.reshape(-1, 3, 3)
        div = np.einsum("pii->p", grad)
        sym = 0.5 * (grad + grad.swapaxes(1, 2))
        row[:] = (sol.lame.lam * np.abs(div) ** 2 + 2 * sol.lame.mu * np.sum(np.abs(sym) ** 2, axis=(1, 2))) * w * r**2
    return 0.5 * sol.cfg.delta * sol.geom.r_e * math.fsum(wr * oracle.fsum_c(dens).real)


class TestGramSum:
    """The cross-check's azimuth sums as one Gram quadratic form against the sum node by node."""

    @pytest.mark.parametrize("case", ["spread-m-6x12", "m0-sweep-24x48", "calr-re2.5-rs2.6-kappa2"])
    def test_matches_node_by_node_sum(self, case):
        if case == "spread-m-6x12":
            sol, rule = _spread_m_solution(), QuadratureRule(6, 12)
        elif case == "m0-sweep-24x48":
            sol, rule = solve_sweep_point(1e-3, GEOM, LAME, 2.5)[1], QuadratureRule(24, 48)
        else:  # `npshell calr --re 2.5 --rs 2.6 --kappa 2`, its smallest loss
            sol, rule = tr.solve_sweep(_SWEEP_GRID, ShellGeometry(1.0, 2.5), LAME, 2.6, 2.0, [None] * 6)[0][-1], \
                QuadratureRule(24, 48)
        quad = quad_energy_shell(scattered_gradient_factory(sol), sol.lame, sol.cfg.delta, sol.geom, rule)
        ref = _node_by_node_energy(sol, rule)
        assert ref > 0
        assert abs(quad - ref) <= 1e-14 * ref

    def test_gram_not_diagonal_where_the_rule_aliases(self):
        # orders up to 14 on 12 azimuths: (cos phi + i sin phi)^a and ^(a + 12) agree at every node
        unit = QuadratureRule(6, 12).surface_nodes()[0].reshape(6, 12, 3)
        values, trig = scattered_gradient_factory(_spread_m_solution())([0.6, 0.9], unit)
        gram = (2 * np.pi / 12) * trig @ trig.T
        assert np.abs(gram - np.diag(np.diag(gram))).max() > 0.1 * np.diag(gram).max()
        nodes = (2 * np.pi / 12) * np.sum(np.abs(values @ trig) ** 2)
        full = np.sum(values.conj() * (values @ gram)).real
        diagonal = np.sum(np.abs(values) ** 2 * np.diag(gram))
        assert abs(full - nodes) <= 1e-13 * nodes
        assert abs(diagonal - nodes) > 1e-3 * nodes  # a diagonal shortcut misses the aliased pairs


class TestCoefficientSets:
    """Coefficient arrays (sets, modes) against one call per set."""

    @pytest.mark.parametrize("gradient", [False, True], ids=["u", "grad"])
    @pytest.mark.parametrize("kinds", ["regular", "decaying", "both"])
    @pytest.mark.parametrize("spread_m", [False, True], ids=["m0-sweep", "spread-m"])
    def test_sets_match_single_set_calls(self, gradient, kinds, spread_m, rng):
        sol = _spread_m_solution() if spread_m else solve_sweep_point(1e-3, GEOM, LAME, 2.5)[1]
        _, regular, decaying, _ = region_coefficients(sol.n, sol.phi_i, sol.phi_e, GEOM, LAME)
        weights = rng.normal(size=(2, 3, len(sol.n))) + 1j * rng.normal(size=(2, 3, len(sol.n)))
        reg = regular * weights[0] if kinds != "decaying" else None
        dec = decaying * weights[1] if kinds != "regular" else None
        unit = QuadratureRule(6, 12).surface_nodes()[0].reshape(6, 12, 3)
        radii = [1.0, 1.37, 2.0]
        shells = shell_fields(*solid_harmonic_shells(sol.n, sol.m, reg, dec, radii, unit, gradient), gradient)
        for k in range(3):
            one = shell_fields(*solid_harmonic_shells(sol.n, sol.m, None if reg is None else reg[k],
                                                      None if dec is None else dec[k], radii, unit, gradient), gradient)
            for (u, grad), (u_k, grad_k) in zip(shells, one):
                assert u.shape == (3,) + u_k.shape
                assert np.max(np.abs(u[k] - u_k)) <= 1e-14 * np.max(np.abs(u_k))
                if gradient:
                    assert np.max(np.abs(grad[k] - grad_k)) <= 1e-14 * np.max(np.abs(grad_k))
                else:
                    assert grad is None and grad_k is None


def _probes(geom):
    """The far-field probes as documented: a golden-angle spiral of 24
    directions at radius 1.05 r_e^2 / r_i."""
    k = np.arange(24)
    theta, phi = np.arccos(1 - 2 * (k + 0.5) / 24), k * math.pi * (3 - math.sqrt(5))
    return 1.05 * geom.r_e**2 / geom.r_i * _unit_vectors(theta, phi)


class TestFarfieldSample:
    """The one-pass far field of a sweep against field_eval at the probes."""

    @pytest.mark.parametrize("geom, lame, r_s, kappa, fixed", [
        (GEOM, LAME, 2.5, 1.0, False),
        (GEOM, LAME, 3.5, 1.0, False),
        (GEOM, LAME, 2.5, 1.0, True),
        (GEOM, LAME, 2.5, 0.0, False),
        (ShellGeometry(0.55, 1.0), LameParams(0.3, 2.0), 1.2, 1.0, False),
    ], ids=["resonant", "bounded", "fixed-cfg", "kappa-0", "rho-0.55"])
    def test_matches_field_eval_at_the_probes(self, geom, lame, r_s, kappa, fixed):
        fixed_cfg = PlasmonicConfig.resonant(4, 0.1) if fixed else None
        sweep = classify_calr(geom, lame, r_s, _SWEEP_GRID, kappa=kappa, fixed_cfg=fixed_cfg)
        for rep in sweep.reports:
            cfg = None if fixed_cfg is None else replace(fixed_cfg, delta=rep.delta)
            _, sol = solve_sweep_point(rep.delta, geom, lame, r_s, kappa, cfg)
            ref = np.max(np.linalg.norm(field_eval(sol, _probes(geom)), axis=-1))
            assert_allclose(rep.farfield_sample, ref, rtol=1e-13)
            assert (ref == 0) == (kappa == 0)

    def test_one_table_for_the_whole_grid(self, legendre_builds):
        # r_s = 2.5 keeps degrees up to 100 at every loss, r_s = 2.05 up to the cap of 400; a table
        # holds orders 0 and 1 (the m = 0 spectra) and is built only when a sweep needs more degrees
        for r_s, grid, built in ((2.5, [1e-1], True), (2.5, _SWEEP_GRID, False), (2.05, _SWEEP_GRID, True),
                                 (2.5, [1e-1], False), (2.05, _SWEEP_GRID, False)):
            legendre_builds.clear()
            classify_calr(GEOM, LAME, r_s, grid)
            assert [orders for _, orders, _ in legendre_builds] == [range(2)] * built

    def test_spectra_must_share_one_mode_list(self):
        _, sweep_sol = solve_sweep_point(1e-3, GEOM, LAME, 2.5)
        with pytest.raises(ValueError, match="prefixes of one mode list"):
            farfield_sample([sweep_sol, _spread_m_solution()])

    @pytest.mark.parametrize("other", [{"geom": ShellGeometry(1.0, 2.2)}, {"lame": LameParams(2.0, 1.0)}])
    def test_solutions_must_share_one_shell_and_material(self, other):
        # one matrix_coefficient call reads every row at the first shell's R
        _, sol = solve_sweep_point(1e-3, GEOM, LAME, 2.5)
        with pytest.raises(ValueError, match="share one shell and material"):
            farfield_sample([sol, replace(sol, **other)])


class TestDegreeArrays:
    """The elementwise closed forms on arrays of n against per-mode loops."""

    def test_solve_source_matches_solve_mode(self):
        # the array solve against transfer_factors on one int degree at a time
        src = synth_source(2.5, GEOM, LAME, n_max=30, spread_m=True)
        cfg = PlasmonicConfig.resonant(5, 1e-4)
        sol = solve_source(src, GEOM, cfg, LAME)
        for k, idx in _modes(src):
            t_i, t_e = transfer_factors(idx.n, GEOM, cfg, LAME)
            assert_allclose((sol.phi_i[k], sol.phi_e[k]), (src.g[k] * t_i, src.g[k] * t_e), rtol=1e-14)

    def test_energy_matches_boundary_term_form(self):
        # the scale-free E_n against P = mu n(n+1) [(n+2)|a|^2 (r_i^-(2n+1) -
        # r_e^-(2n+1)) + (n-1)|b|^2 (r_e^(2n+1) - r_i^(2n+1))], mode by mode
        src, sol = solve_sweep_point(1e-4, GEOM, LAME, 2.5)
        rep = energy(sol, src, GEOM, sol.cfg, LAME)
        ri, re = GEOM.r_i, GEOM.r_e
        per_mode = {}
        for k, idx in _modes(sol):
            n = idx.n
            a, b = _shell_amplitudes(sol, k, idx)
            p = LAME.mu * n * (n + 1) * (
                (n + 2) * abs(a) ** 2 * (ri ** -(2 * n + 1) - re ** -(2 * n + 1))
                + (n - 1) * abs(b) ** 2 * (re ** (2 * n + 1) - ri ** (2 * n + 1))
            )
            per_mode[n] = 0.5 * sol.cfg.delta * p
            e_n = shell_energy(n, sol.phi_i[k], sol.phi_e[k], sol.geom, sol.cfg.delta, sol.lame)
            assert_allclose(e_n, per_mode[n], rtol=1e-13)
        assert_allclose(rep.energy_modal, math.fsum(per_mode.values()), rtol=1e-13)
        assert rep.dominant_n == max(per_mode, key=per_mode.get)
        assert rep.n_trunc == max(per_mode) == src.n_max


class TestSynthSource:
    def test_decay_ratio(self):
        src = synth_source(2.5, GEOM, LAME, n_max=40)
        g = {(idx.n, idx.m): src.g[k] for k, idx in _modes(src)}
        ratios = [abs(g[(n + 1, 0)]) / abs(g[(n, 0)]) for n in range(30, 39)]
        assert_allclose(ratios[-1], GEOM.r_e / 2.5, rtol=0.05)

    def test_root_test_matches_radius(self):
        r_s = 2.5
        src = synth_source(r_s, GEOM, LAME, n_max=220)
        vals = []
        for n, g in zip(src.n.tolist(), src.g.tolist()):
            if n >= 200:
                vals.append((abs(g) / (n * GEOM.r_e ** (n - 1))) ** (1.0 / n))
        assert_allclose(vals[-1], 1 / r_s, rtol=1e-2)

    def test_zero_amplitude(self):
        src = synth_source(2.5, GEOM, LAME, kappa=0.0, n_max=10)
        assert len(src.n) == len(src.m) == len(src.g) == 0

    def test_inside_shell_rejected(self):
        with pytest.raises(ValueError):
            synth_source(1.5, GEOM, LAME)

    def test_spread_m(self):
        src = synth_source(2.5, GEOM, LAME, n_max=3, spread_m=True)
        modes = [(idx.n, idx.m) for _, idx in _modes(src)]
        assert (2, -2) in modes and (3, 3) in modes

    def test_degree_one_rejected_in_spectrum(self):
        with pytest.raises(ValueError):
            SourceSpectrum([1], [0], [1.0])

    @pytest.mark.parametrize(
        "n, m, g",
        [([2, 3], [0], [1.0, 1.0]), ([2], [0, 1], [1.0]), ([2, 3], [0, 0], [1.0]), ([[2]], [[0]], [[1.0]])],
        ids=["short-m", "long-m", "short-g", "two-d"],
    )
    def test_misaligned_arrays_rejected(self, n, m, g):
        with pytest.raises(ValueError, match="aligned"):
            SourceSpectrum(n, m, g)

    @pytest.mark.parametrize("m", [3, -3, 7])
    def test_order_above_degree_rejected(self, m):
        with pytest.raises(ValueError, match=r"\|m\| <= n"):
            SourceSpectrum([2, 3], [m, 0], [1.0, 1.0])

    def test_repeated_mode_rejected(self):
        with pytest.raises(ValueError, match="once"):
            SourceSpectrum([3, 2, 3], [1, 0, 1], [1.0, 2.0, 3.0])

    def test_input_sorted_by_degree_then_order(self):
        src = SourceSpectrum([4, 2, 3, 2, 4], [0, 1, -2, -1, -4], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert src.n.tolist() == [2, 2, 3, 4, 4]
        assert src.m.tolist() == [-1, 1, -2, -4, 0]
        assert src.g.tolist() == [4.0, 2.0, 3.0, 5.0, 1.0]
        assert src.n_max == 4

    def test_arrays_read_only(self):
        g = np.array([1.0, 2.0])
        src = SourceSpectrum(np.array([3, 2]), np.array([0, 0]), g)
        for column in (src.n, src.m, src.g):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        g[0] = 9.0  # the caller's array is copied, not frozen or aliased
        assert src.g.tolist() == [2.0, 1.0]

    def test_spread_m_covers_every_order_once(self):
        n_max = 7
        src = synth_source(2.5, GEOM, LAME, n_max=n_max, spread_m=True)
        assert [(idx.n, idx.m) for _, idx in _modes(src)] == [
            (n, m) for n in range(2, n_max + 1) for m in range(-n, n + 1)
        ]
        for n in range(2, n_max + 1):
            assert_allclose(src.g[src.n == n], source_coefficient(n, 2.5, GEOM, LAME), rtol=1e-15)


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
    def test_zero_source_zero_energy(self):
        cfg = PlasmonicConfig.resonant(2, 0.01)
        src = SourceSpectrum([], [], [])
        sol = solve_source(src, GEOM, cfg, LAME)
        rep = energy(sol, src, GEOM, cfg, LAME)
        assert rep.energy_modal == 0.0

    def test_zero_source_sweep_has_zero_quadrature_energy(self):
        # kappa = 0 keeps no degree, so every shell evaluates an empty spectrum
        sols = [solve_sweep_point(delta, GEOM, LAME, 2.5, kappa=0.0)[1] for delta in _SWEEP_GRID]
        assert [rep.energy_quadrature for rep in energy_reports(sols, quadrature=True)] == [0.0] * len(sols)

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

    @pytest.mark.parametrize("field, value", [
        ("geom", ShellGeometry(1.0, 2.2)),
        ("cfg", PlasmonicConfig.resonant(3, 1e-2)),
        ("lame", LameParams(2.0, 1.0)),
    ])
    def test_arguments_must_match_the_solution(self, field, value):
        # a shell other than the solved one once gave modal 2778.55 and
        # quadrature 6915.22 side by side, without complaint
        src, sol = solve_sweep_point(1e-2, GEOM, LAME, 2.5)
        args = {"geom": GEOM, "cfg": sol.cfg, "lame": LAME}
        rep = energy(sol, src, **args)
        with pytest.raises(ValueError, match=f"^energy: {field} "):
            energy(sol, src, **{**args, field: value}, quadrature=True)
        assert energy(sol, None, **args).energy_modal == rep.energy_modal

    def test_report_json_fields(self):
        sol, cfg = _single_mode_solution(2, 0, 0.01)
        rep = energy(sol, None, GEOM, cfg, LAME)
        d = asdict(rep)
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
            transfer_factors(2, GEOM, PlasmonicConfig.resonant(2, 0.0), LAME)


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
    """Rescaling all lengths by s and (lambda, mu) by t keeps the verdict and
    the cut, multiplies the shell energy by s t and leaves the far field
    unchanged; the field at s x is the unscaled field at x."""

    @settings(deadline=None, max_examples=12)
    @given(log_s=st.floats(-3.0, 3.0), log_t=st.floats(-150.0, 150.0), quadrature=st.just(False))
    @example(log_s=3.0, log_t=0.0, quadrature=False)  # ShellGeometry(1000, 2000): r_e^(n+2) at the probes overflowed
    @example(log_s=2.0, log_t=0.0, quadrature=False)  # ShellGeometry(100, 200), r_s = 250 overflowed r_e^(2n+1)
    @example(log_s=-2.0, log_t=0.0, quadrature=False)  # ShellGeometry(0.01, 0.02), r_s = 0.025 likewise
    @example(log_s=-3.0, log_t=150.0, quadrature=False)  # |phi|^2 ~ mu^2 overflowed the shell energy
    @example(log_s=3.0, log_t=-150.0, quadrature=False)
    @example(log_s=-3.0, log_t=-150.0, quadrature=True)  # the shell coefficients over r_e^(n-1) overflowed
    @example(log_s=3.0, log_t=150.0, quadrature=True)
    def test_rescaled_sweep(self, log_s, log_t, quadrature):
        s, t = 10.0**log_s, 10.0**log_t
        lame = LameParams(t * LAME.lam, t * LAME.mu)
        for ratio in (2.5, 3.5):
            unit = classify_calr(GEOM, LAME, ratio, _SWEEP_GRID, quadrature=quadrature)
            sweep = classify_calr(ShellGeometry(s, 2 * s), lame, ratio * s, _SWEEP_GRID, quadrature=quadrature)
            assert sweep.verdict == unit.verdict
            for rep, ref in zip(sweep.reports, unit.reports, strict=True):
                assert rep.n_trunc == ref.n_trunc
                assert_allclose(rep.energy_modal / (s * t), ref.energy_modal, rtol=1e-13)
                if quadrature:
                    assert_allclose(rep.energy_quadrature / (s * t), ref.energy_quadrature, rtol=1e-13)
                assert_allclose(rep.farfield_sample, ref.farfield_sample, rtol=1e-12)
        src, sol = solve_sweep_point(1e-3, GEOM, LAME, 2.5)
        scaled_src, scaled = solve_sweep_point(1e-3, ShellGeometry(s, 2 * s), lame, 2.5 * s)
        radii = np.array([0.5, 1.5, 2.3, 6.0])  # core, shell, matrix, and past r_s without the source
        pts = _unit_vectors(*random_surface_angles(np.random.default_rng(5), 4)) * radii[:, None]
        assert_pointwise(field_eval(scaled, s * pts), field_eval(sol, pts), rtol=1e-12)
        assert_pointwise(field_eval(scaled, s * pts[:3], scaled_src), field_eval(sol, pts[:3], src), rtol=1e-12)


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
            grown = synth_source(r_s, GEOM, LAME, n_max=n_max)
            for n, m, g in zip(grown.n.tolist(), grown.m.tolist(), grown.g.tolist()):
                phi_i, phi_e = solve_mode_direct(n, m, g, GEOM, sol.cfg, LAME)
                per_mode.append(float(shell_energy(n, phi_i, phi_e, GEOM, sol.cfg.delta, LAME)))
            if per_mode[-1] < 1e-14 * math.fsum(per_mode):
                break
            n_max += 20
        assert src.n_max == n_max
        assert len(sol.phi_i) == n_max - 1

    @pytest.mark.parametrize("r_s", [2.5, 3.5])
    @pytest.mark.parametrize("delta", [1e-1, 1e-6])
    def test_cut_is_synthesis_and_solve_to_its_degree(self, r_s, delta):
        # the sweep point's prefix of its one pass is bit for bit the source
        # synthesized up to the cut and solved
        src, sol = solve_sweep_point(delta, GEOM, LAME, r_s)
        ref_src = synth_source(r_s, GEOM, LAME, n_max=src.n_max)
        ref_sol = solve_source(ref_src, GEOM, sol.cfg, LAME)
        for a, b in ((src.n, ref_src.n), (src.m, ref_src.m), (src.g, ref_src.g),
                     (sol.phi_i, ref_sol.phi_i), (sol.phi_e, ref_sol.phi_e)):
            assert np.array_equal(a, b)
        assert src.r_s == r_s

    @pytest.mark.parametrize("delta", [1e-1, 1e-4])
    def test_degree_cap_raises_before_any_degree_array(self, delta, monkeypatch):
        # rho = 0.999 resonates at n0 = 2302 (delta 1e-1) and 9206 (1e-4), far
        # past the cap; the sweep point once solved to n_trunc 2322..9226
        def built(*args, **kwargs):
            raise AssertionError("a degree array was built past the cap")

        for name in ("source_coefficient", "transfer_factors", "shell_energy"):
            monkeypatch.setattr(tr, name, built)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n0=\d+ \(rho=0\.999, delta=.*cap of 400"):
                solve_sweep_point(delta, ShellGeometry(0.999, 1.0), LAME, 1.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    def test_degree_cap_boundary(self):
        # n0 = 380 reaches exactly degree 400; n0 = 381 would pass it
        src, _ = solve_sweep_point(1e-2, GEOM, LAME, 2.5, cfg=PlasmonicConfig.resonant(380, 1e-2))
        assert src.n_max <= 400
        with pytest.raises(ValueError, match="n0=381"):
            solve_sweep_point(1e-2, GEOM, LAME, 2.5, cfg=PlasmonicConfig.resonant(381, 1e-2))

    def test_zero_source_keeps_no_degree(self):
        src, sol = solve_sweep_point(1e-3, GEOM, LAME, 2.5, kappa=0.0)
        for column in (src.n, src.m, src.g, sol.n, sol.m, sol.phi_i, sol.phi_e):
            assert column.size == 0


_CAP_GEOM = ShellGeometry(1.0, 2.5)  # r_s = 2.6, kappa = 2: cuts 400, 400, 400, 360, 300, 240


class TestLossGrid:
    """`classify_calr` solves its whole loss grid in one (loss x degree) pass."""

    @pytest.mark.parametrize("geom, r_s, kappa, fixed", [
        (GEOM, 2.5, 1.0, False),
        (GEOM, 3.5, 1.0, False),
        (GEOM, 2.5, 1.0, True),
        (GEOM, 2.5, 0.0, False),
        (_CAP_GEOM, 2.6, 2.0, False),
    ], ids=["resonant", "bounded", "fixed-cfg", "kappa-0", "cap"])
    def test_rows_equal_the_one_loss_solve(self, geom, r_s, kappa, fixed, monkeypatch):
        fixed_cfg = PlasmonicConfig.resonant(4, 0.1) if fixed else None
        seen = {}

        def reports(sols, quadrature=False, rule=None, per_mode=None):
            seen.update(sols=sols, per_mode=per_mode)
            return energy_reports(sols, quadrature, rule, per_mode)

        monkeypatch.setattr(tr, "energy_reports", reports)
        sweep = classify_calr(geom, LAME, r_s, _SWEEP_GRID, kappa=kappa, fixed_cfg=fixed_cfg)
        for rep, sol, e in zip(sweep.reports, seen["sols"], seen["per_mode"], strict=True):
            cfg = None if fixed_cfg is None else replace(fixed_cfg, delta=rep.delta)
            src, ref = solve_sweep_point(rep.delta, geom, LAME, r_s, kappa, cfg)
            for name in ("n", "m", "phi_i", "phi_e"):
                assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
            assert sol.cfg == ref.cfg
            ref_rep = energy(ref, src, geom, ref.cfg, LAME)
            assert (rep.energy_modal, rep.dominant_n, rep.n_trunc) == (
                ref_rep.energy_modal, ref_rep.dominant_n, ref_rep.n_trunc)
            # the energy grid row: the kept degrees' energies, zero past the cut
            assert math.fsum(e) == rep.energy_modal
            assert not e[sol.n.size:].any() and (e[: sol.n.size] > 0).all()
        if geom is _CAP_GEOM:
            assert [rep.n_trunc for rep in sweep.reports] == [400, 400, 400, 360, 300, 240]

    @pytest.mark.parametrize("geom, r_s, kappa, fixed", [
        (GEOM, 2.5, 1.0, False),
        (GEOM, 2.5, 1.0, True),
        (GEOM, 2.5, 0.0, False),
        (_CAP_GEOM, 2.6, 2.0, False),
    ], ids=["resonant", "fixed-cfg", "kappa-0", "cap"])
    def test_solve_sweep_returns(self, geom, r_s, kappa, fixed):
        # g is source_coefficient over n = 2..400, each energy row is the
        # shell_energy of its solution up to the cut and 0 past it, and each
        # solution is the one-loss solve's, all bit for bit
        fixed_cfg = PlasmonicConfig.resonant(4, 0.1) if fixed else None
        cfgs = [None if fixed_cfg is None else replace(fixed_cfg, delta=d) for d in _SWEEP_GRID]
        sols, g, e = tr.solve_sweep(_SWEEP_GRID, geom, LAME, r_s, kappa, cfgs)
        n = np.arange(2, 401)
        assert g.tolist() == source_coefficient(n, r_s, geom, LAME, kappa).tolist()
        assert e.shape == (len(_SWEEP_GRID), n.size) and len(sols) == len(_SWEEP_GRID)
        for row, (delta, cfg, sol) in enumerate(zip(_SWEEP_GRID, cfgs, sols)):
            k = sol.n.size
            assert sol.n.tolist() == n[:k].tolist() and sol.cfg.delta == delta
            assert e[row, :k].tolist() == shell_energy(sol.n, sol.phi_i, sol.phi_e, geom, delta, LAME).tolist()
            assert not e[row, k:].any()
            _, ref = tr.solve_sweep_point(delta, geom, LAME, r_s, kappa, cfg)
            for name in ("n", "m", "phi_i", "phi_e"):
                assert getattr(sol, name).tolist() == getattr(ref, name).tolist(), name
            assert (sol.cfg, sol.geom, sol.lame) == (ref.cfg, ref.geom, ref.lame)
        sizes = [sol.n.size for sol in sols]
        assert (max(sizes) == 0) if kappa == 0 else (min(sizes) > 0)
        if geom is _CAP_GEOM:
            assert sizes == [399, 399, 399, 359, 299, 239]

    @pytest.mark.parametrize("grid", [[1e-1], _SWEEP_GRID], ids=["one-loss", "six-losses"])
    def test_closed_forms_run_once_per_sweep(self, grid, monkeypatch):
        calls = []

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return wrapper

        for name in ("source_coefficient", "transfer_factors", "shell_energy"):
            monkeypatch.setattr(tr, name, counted(name, getattr(tr, name)))
        classify_calr(GEOM, LAME, 2.5, grid)
        assert sorted(calls) == ["shell_energy", "source_coefficient", "transfer_factors"]

    def test_cap_of_the_last_loss_raises_before_any_closed_form(self, monkeypatch):
        # rho = 0.5 resonates at n0 = 432 for delta = 1e-130; the losses
        # before it reach degree 100 at most
        def built(*args, **kwargs):
            raise AssertionError("a closed form ran before the cap check")

        for name in ("source_coefficient", "transfer_factors", "shell_energy", "region_coefficients"):
            monkeypatch.setattr(tr, name, built)
        with pytest.raises(ValueError, match=r"n0=432 \(rho=0\.5, delta=1e-130\).*cap of 400"):
            classify_calr(GEOM, LAME, 2.5, [1e-1, 1e-2, 1e-130])
