"""Layer-potential closed forms and the N-P spectrum, both routes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_surface_angles
from npshell.harmonics import (
    ModeIndex,
    a_coeff,
    eval_trace_mode,
    solid_harmonic_series,
    trace_mode_norm_sq,
    _unit_vectors,
)
from npshell.kelvin import LameParams
from npshell.oracle import FDStencil, fd_traction
from npshell.potentials import (
    curl_grad_limits,
    elastic_sl_coeff,
    np_decomposed_multiplier,
    np_eigenvalue,
    np_eigenvalue_limit,
    scalar_sl_multiplier,
)


class TestEigenvalues:
    def test_t_family(self, lame):
        assert_allclose(np_eigenvalue("T", 1, lame), 0.5)
        assert_allclose(np_eigenvalue("T", 2, lame), 0.3)
        assert_allclose(np_eigenvalue("T", 3, lame), 3 / 14)

    def test_m_n_families(self, lame):
        assert_allclose(np_eigenvalue("M", 2, lame), 1 / 90)
        assert_allclose(np_eigenvalue("N", 2, lame), 1 / 6)
        assert_allclose(np_eigenvalue("N", 3, lame), 13 / 70)

    def test_limits(self, lame):
        assert np_eigenvalue_limit("T", lame) == 0.0
        assert_allclose(np_eigenvalue_limit("M", lame), -1 / 6)
        assert_allclose(np_eigenvalue_limit("N", lame), 1 / 6)
        assert_allclose(np_eigenvalue("M", 400, lame), -1 / 6, atol=1e-3)
        assert_allclose(np_eigenvalue("N", 400, lame), 1 / 6, atol=1e-3)

    @pytest.mark.parametrize("family", ["X", "t", ""])
    def test_unknown_family_rejected(self, lame, family):
        # as np_eigenvalue does; no family silently gets the N limit
        with pytest.raises(ValueError, match="unknown family"):
            np_eigenvalue_limit(family, lame)
        with pytest.raises(ValueError, match="unknown family"):
            np_eigenvalue(family, 2, lame)

    def test_radius_independent_signature(self, lame):
        # eigenvalues carry no radius argument at all
        assert np_eigenvalue("T", 5, lame) == 3 / 22

    def test_only_t_accumulates_at_zero(self, lame, lame21):
        # the M and N sequences stay away from 0; T tends to 0
        for lp in (lame, lame21):
            lim = abs(np_eigenvalue_limit("M", lp))
            for n in range(30, 101, 10):
                assert abs(np_eigenvalue("T", n, lp)) < 0.03
                assert abs(np_eigenvalue("M", n, lp)) > 0.5 * lim
                assert abs(np_eigenvalue("N", n, lp)) > 0.5 * lim

    def test_noncompactness_decay_rate(self, lame, lame21):
        # |xi_M^n - limit| <= C / n with a fitted constant; n * dev tends to |limit|
        for lp in (lame, lame21):
            lim = np_eigenvalue_limit("M", lp)
            devs = [abs(np_eigenvalue("M", n, lp) - lim) * n for n in range(1, 101)]
            fitted_c = max(devs)
            assert all(d <= fitted_c + 1e-15 for d in devs)
            assert fitted_c <= 6 * abs(lim)
            assert_allclose(devs[99], abs(lim), rtol=0.05)


class TestScalarSLMultipliers:
    def test_worked_values(self):
        assert_allclose(scalar_sl_multiplier("T", 2, 1.0), -0.2)
        assert_allclose(scalar_sl_multiplier("M", 2, 1.0), -1 / 3)
        assert_allclose(scalar_sl_multiplier("N", 3, 1.0), -1 / 7)

    @settings(deadline=None)
    @given(r0=st.floats(0.1, 10.0), n=st.integers(1, 20))
    def test_radius_linearity(self, r0, n):
        for fam in ("T", "M", "N"):
            assert_allclose(
                scalar_sl_multiplier(fam, n, r0), r0 * scalar_sl_multiplier(fam, n, 1.0), rtol=1e-15
            )

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            scalar_sl_multiplier("T", 1, 0.0)


def _t_layer_coeffs(n, r0, lame):
    """(interior, exterior) coefficients of the elastic single layer of a T
    trace density of degree n on the sphere of radius r0: d1 / r0^(n-1) on
    T-solid(x) inside, d1 r0^(n+2) on grad(r^-(n+1) Y_n^m) x x outside
    (`elastic_sl_coeff` by homogeneity)."""
    d1 = elastic_sl_coeff("T", n, lame)
    return d1 / r0 ** (n - 1), d1 * r0 ** (n + 2)


def _t_layer(n, m, r0, lame, xyz):
    """Pointwise elastic single layer of a T density, both forms
    (`solid_harmonic_series`); the two agree on |x| = r0."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    interior, exterior = _t_layer_coeffs(n, r0, lame)
    inside = np.linalg.norm(xyz, axis=-1) <= r0
    out = np.zeros(xyz.shape, dtype=complex)
    for mask, regular, decaying in ((inside, [interior], None), (~inside, None, [exterior])):
        if np.any(mask):
            out[mask], _ = solid_harmonic_series([n], [m], regular, decaying, xyz[mask])
    return out


class TestElasticSLOnT:
    def test_interior_coefficient(self, lame):
        assert_allclose(_t_layer_coeffs(2, 1.0, lame), (-0.2, -0.2))
        assert_allclose(_t_layer_coeffs(2, 2.0, lame), (-0.1, -3.2))

    def test_continuity_at_boundary(self, lame, rng):
        theta, phi = random_surface_angles(rng, 8)
        for n, m, r0 in [(2, 0, 1.0), (3, 2, 0.7), (5, -1, 2.0)]:
            nu = _unit_vectors(theta, phi)
            inner = _t_layer(n, m, r0, lame, r0 * (1 - 1e-12) * nu)
            outer = _t_layer(n, m, r0, lame, r0 * (1 + 1e-12) * nu)
            assert_allclose(inner, outer, rtol=1e-9, atol=1e-12)

    def test_exterior_decay(self, lame):
        n, m = 2, 0
        direction = np.array([0.3, 0.5, 0.81])
        direction /= np.linalg.norm(direction)
        v1 = _t_layer(n, m, 1.0, lame, 2.0 * direction)
        v2 = _t_layer(n, m, 1.0, lame, 4.0 * direction)
        ratio = np.linalg.norm(v2) / np.linalg.norm(v1)
        assert_allclose(ratio, 2.0 ** -(n + 1), rtol=1e-12)

    def test_traction_jump_equals_density(self, lame, lame21, rng):
        # exterior minus interior traction of the single layer is the density;
        # each one-sided limit is the FD traction of the smooth representation
        from npshell.harmonics import eval_solid_mode, grad_irregular_solid_harmonic

        theta, phi = random_surface_angles(rng, 1)
        for lp in (lame, lame21):
            for n, m, r0 in [(2, 1, 1.0), (4, 0, 0.8)]:
                x = r0 * _unit_vectors(theta, phi)[0]
                interior, exterior = _t_layer_coeffs(n, r0, lp)
                idx = ModeIndex("T", n, m)
                f_in = lambda p: interior * eval_solid_mode(idx, lp, p)
                f_out = lambda p: exterior * np.cross(
                    grad_irregular_solid_harmonic(n, m, p), p
                )
                stencil = FDStencil(h=1e-5 * r0, order=2)
                t_in = fd_traction(f_in, lp, x, stencil=stencil)
                t_out = fd_traction(f_out, lp, x, stencil=stencil)
                dens = eval_trace_mode(idx, lp, theta, phi)[0]
                assert_allclose(t_out - t_in, dens, rtol=5e-6, atol=1e-8)


class TestElasticSLOnMN:
    def test_m_worked_value(self, lame):
        assert_allclose(elastic_sl_coeff("M", 2, lame), -11 / 45)

    def test_m_eigen_consistency(self, lame, lame21):
        # replay of the jump algebra: 2 c mu (n-1) + 1/2 reproduces the eigenvalue
        for lp in (lame, lame21, LameParams(3.3, 0.7)):
            for n in range(1, 9):
                c = elastic_sl_coeff("M", n, lp)
                assert_allclose(2 * c * lp.mu * (n - 1) + 0.5, np_eigenvalue("M", n, lp), rtol=1e-13)

    def test_m_large_lambda_limit(self):
        lp = LameParams(1e12, 1.0)
        for n in (2, 4):
            expect = -(0.5 + 3 / (2 * (2 * n - 1))) / (lp.mu * (2 * n + 1))
            assert_allclose(elastic_sl_coeff("M", n, lp), expect, rtol=1e-9)

    def test_n_worked_value(self, lame):
        assert_allclose(elastic_sl_coeff("N", 3, lame), -3 / 35)

    def test_n_eigen_consistency(self, lame, lame21):
        # traction factor mu (2(2k+1)/a_{k+1} - 3) feeds the jump relation
        for lp in (lame, lame21, LameParams(0.4, 1.9)):
            for n_mode in range(2, 9):
                k = n_mode - 1
                c = elastic_sl_coeff("N", n_mode, lp)
                a = a_coeff(n_mode, lp)
                xi = c * lp.mu * (2 * (2 * k + 1) / a - 3) + 0.5
                assert_allclose(xi, np_eigenvalue("N", n_mode, lp), rtol=1e-13)

    def test_n_small_mu_limit(self):
        for mu in (1e-4, 1e-6):
            lp = LameParams(1.0, mu)
            k = 2  # mode N_3
            val = elastic_sl_coeff("N", 3, lp) * lp.mu
            assert_allclose(val, -k / ((2 * k + 3) * (2 * k + 1)), rtol=1e-3)


class TestNPApply:
    """The closed forms applied elementwise: np_eigenvalue and every other
    family-keyed form over arrays of n."""

    def test_single_mode(self, lame):
        assert_allclose(np_eigenvalue("T", np.array([2]), lame), [0.3])

    def test_empty(self, lame):
        for fam in "TMN":
            assert np_eigenvalue(fam, np.arange(1, 1), lame).shape == (0,)

    def test_no_cross_coupling(self, lame21):
        # each degree of an array gets exactly its own scalar value, in the
        # trailing axis for the curl/grad limits
        n = np.array([7, 2, 2, 12, 1])
        forms = [
            lambda fam, k: np_eigenvalue(fam, k, lame21),
            lambda fam, k: scalar_sl_multiplier(fam, k, 0.7),
            lambda fam, k: elastic_sl_coeff(fam, k, lame21),
            lambda fam, k: curl_grad_limits(fam, k, lame21),
            lambda fam, k: np_decomposed_multiplier(fam, k, lame21, 0.7),
            lambda fam, k: a_coeff(k, lame21),
            lambda fam, k: trace_mode_norm_sq(fam, k, lame21),
        ]
        for form in forms:
            for fam in "TMN":
                out = np.asarray(form(fam, n))
                assert out.shape[-1:] == n.shape
                assert out.tolist() == np.stack([form(fam, k) for k in n.tolist()], axis=-1).tolist()


class TestDecomposedRoute:
    def test_t_coefficient_form(self, lame):
        # the decomposition reproduces 3/(2(2n+1)) on the rotational family
        for n in range(1, 8):
            mult = np_decomposed_multiplier("T", n, lame)
            assert_allclose(mult, 3 / (2 * (2 * n + 1)), rtol=1e-14)

    def test_matches_direct_route(self, lame, lame21):
        for lp in (lame, lame21, LameParams(2.7, 0.4), LameParams(-4 + 0.01j, -4 + 0.01j)):
            for fam in ("T", "M", "N"):
                n = np.arange(1, 13)
                d = np_decomposed_multiplier(fam, n, lp)
                e = np_eigenvalue(fam, n, lp)
                assert np.all(abs(d - e) <= 1e-10 * abs(e))

    def test_radius_drops_out(self, lame21):
        vals = [np_decomposed_multiplier("M", 4, lame21, r0) for r0 in (0.5, 1.0, 2.0)]
        assert_allclose(vals, vals[0], rtol=1e-14)


class TestJumpRelations:
    """The tabulated one-sided limits reproduce the classical jump formulas:
    the tangential part of curl S[psi] jumps by -psi across the surface, and
    grad S[g] jumps by g nu."""

    def _nu_cross(self, pair, n):
        # nu x (a grad_S Y + b Y nu) = -a T_n: tangential pair -> T coefficient
        return -pair[0]

    def test_curl_jump_is_minus_density(self, lame, lame21):
        for lp in (lame, lame21):
            for fam, n in (("M", 2), ("M", 5), ("N", 3), ("N", 6)):
                curl = curl_grad_limits(fam, n, lp)[0]
                jump = curl[1] - curl[0]
                # density of the curl layer is nu x mode
                if fam == "M":
                    psi_t_coeff = -1.0  # nu x M_n = -T_n
                else:
                    k = n - 1
                    psi_t_coeff = a_coeff(n, lp) / (2 * k + 1)  # nu x N_n = beta T_k
                # nu x (jump of curl) must equal -psi
                assert abs(self._nu_cross(jump, n) - (-psi_t_coeff)) < 1e-14
                # the normal component of the curl is continuous
                assert abs(jump[1]) < 1e-14

    def test_grad_jump_is_normal_times_density(self, lame, lame21):
        for lp in (lame, lame21):
            for fam, n in (("M", 2), ("M", 5), ("N", 3), ("N", 6)):
                grad = curl_grad_limits(fam, n, lp)[1]
                jump = grad[1] - grad[0]
                # scalar density is nu . mode
                if fam == "M":
                    g_coeff = float(n)
                else:
                    k = n - 1
                    g_coeff = a_coeff(n, lp) * (k + 1) / (2 * k + 1)
                assert abs(jump[1] - g_coeff) < 1e-14  # normal part jumps by g
                assert abs(jump[0]) < 1e-14  # tangential part continuous

    def test_t_family_curl_jump(self, lame):
        # density nu x T_n = grad_S Y_n; the curl limits live on T itself and
        # nu x (jump) = -grad_S Y requires jump coefficient -1 on T... the
        # tangential T-coefficient jump equals -1 exactly:
        for n in (1, 4, 8):
            curl = curl_grad_limits("T", n, lame)[0]
            assert abs((curl[1] - curl[0])[0] - (-1.0)) < 1e-14
