"""Scalar/vector spherical harmonics: normalization, gradients, trace modes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import sph_harm_y

from conftest import assert_pointwise, random_surface_angles, shell_fields
from npshell import harmonics, oracle, transmission
from npshell.harmonics import (
    ModeIndex,
    a_coeff,
    eval_solid_mode,
    eval_trace_mode,
    eval_ylm,
    grad_irregular_solid_harmonic,
    grad_solid_harmonic,
    gram_matrix,
    hess_irregular_solid_harmonic,
    hess_solid_harmonic,
    irregular_solid_harmonic,
    mode_indices,
    solid_harmonic,
    solid_harmonic_series,
    solid_harmonic_shells,
    trace_mode_norm_sq,
    vector_modes,
    _legendre_table,
    _norm_legendre,
    _unit_vectors,
)
from npshell.kelvin import LameParams
from npshell.oracle import QuadratureRule, quad_surface_integral


class TestModeIndex:
    def test_valid_ranges(self):
        ModeIndex("T", 1, -1)
        ModeIndex("M", 3, 3)
        ModeIndex("N", 2, 1)
        ModeIndex("N", 1, 0)

    @pytest.mark.parametrize(
        "fam,n,m",
        [("T", 1, 2), ("M", 2, -3), ("N", 2, 2), ("N", 3, -3), ("T", 0, 0), ("X", 1, 0)],
    )
    def test_invalid(self, fam, n, m):
        with pytest.raises(ValueError):
            ModeIndex(fam, n, m)

    def test_scalar_degree(self):
        assert ModeIndex("T", 4, 0).scalar_degree == 4
        assert ModeIndex("N", 4, 0).scalar_degree == 3


class TestScalarHarmonics:
    def test_y00_constant(self):
        assert_allclose(eval_ylm(0, 0, 0.7, 1.3), 1 / math.sqrt(4 * math.pi), rtol=1e-14)
        assert_allclose(abs(eval_ylm(0, 0, 2.6, 5.0)), 0.2820948, rtol=1e-6)

    def test_y10_pole(self):
        assert_allclose(eval_ylm(1, 0, 0.0, 0.0).real, math.sqrt(3 / (4 * math.pi)), rtol=1e-14)
        assert_allclose(eval_ylm(1, 0, 0.0, 0.0).real, 0.4886025, rtol=1e-6)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            eval_ylm(2, 3, 0.1, 0.1)

    def test_against_scipy(self, rng):
        theta, phi = random_surface_angles(rng, 20)
        for n in range(0, 9):
            for m in range(-n, n + 1):
                assert_allclose(
                    eval_ylm(n, m, theta, phi),
                    sph_harm_y(n, m, theta, phi),
                    rtol=1e-12,
                    atol=1e-13,
                )

    def test_orthonormal_gram(self, rule):
        pairs = [(0, 0), (1, 0), (2, 1), (3, -2), (5, 4)]
        for n1, m1 in pairs:
            for n2, m2 in pairs:
                val = quad_surface_integral(
                    lambda p: _ylm_at(n1, m1, p) * np.conj(_ylm_at(n2, m2, p)), rule
                )
                expect = 1.0 if (n1, m1) == (n2, m2) else 0.0
                assert abs(val - expect) < 1e-12

    def test_conjugation_symmetry(self, rng):
        theta, phi = random_surface_angles(rng, 8)
        y = eval_ylm(4, 3, theta, phi)
        ym = eval_ylm(4, -3, theta, phi)
        assert_allclose(ym, (-1) ** 3 * np.conj(y), rtol=1e-13)


def _ylm_at(n, m, pts):
    r = np.linalg.norm(pts, axis=-1)
    theta = np.arccos(pts[..., 2] / r)
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    return eval_ylm(n, m, theta, phi)


def surface_gradient_ylm(n, m, theta, phi):
    """Surface gradient of Y_n^m on the unit sphere from the single-mode
    ladder: grad(r^n Y_n^m) - n Y_n^m nu at r = 1, finite on the polar axis."""
    nu = _unit_vectors(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    return grad_solid_harmonic(n, m, nu) - n * eval_ylm(n, m, theta, phi)[..., None] * nu


class TestSurfaceGradient:
    def test_constant_mode_zero(self):
        g = surface_gradient_ylm(0, 0, 0.4, 1.1)
        assert_allclose(g, 0.0, atol=1e-15)

    def test_tangential(self, rng):
        theta, phi = random_surface_angles(rng, 30)
        nu = _unit_vectors(theta, phi)
        for n, m in [(1, 0), (3, 2), (6, -5)]:
            g = surface_gradient_ylm(n, m, theta, phi)
            assert np.max(np.abs(np.sum(g * nu, axis=-1))) < 1e-13

    def test_norm_is_laplace_beltrami_eigenvalue(self, rule):
        # quadrature oracle: integral of |grad_S Y|^2 equals n(n+1)
        for n, m in [(1, 0), (2, 1), (4, -3), (7, 7)]:
            val = quad_surface_integral(
                lambda p: np.sum(np.abs(_grad_s_at(n, m, p)) ** 2, axis=-1), rule
            )
            assert_allclose(val.real, n * (n + 1), rtol=1e-12)

    def test_matches_colatitude_formula(self, rng):
        # independent spherical-coordinate route, away from the poles
        theta, phi = random_surface_angles(rng, 12)
        n, m = 5, 2
        h = 1e-6
        dth = (eval_ylm(n, m, theta + h, phi) - eval_ylm(n, m, theta - h, phi)) / (2 * h)
        dph = (eval_ylm(n, m, theta, phi + h) - eval_ylm(n, m, theta, phi - h)) / (2 * h)
        that = np.stack(
            [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)], axis=-1
        )
        phat = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
        expected = dth[..., None] * that + (dph / np.sin(theta))[..., None] * phat
        assert_allclose(surface_gradient_ylm(n, m, theta, phi), expected, atol=1e-8)

    def test_finite_on_axis(self):
        g = surface_gradient_ylm(3, 1, 0.0, 0.0)
        assert np.all(np.isfinite(g))
        assert np.linalg.norm(g) > 0.1  # |m| = 1 gradients do not vanish at the pole


class TestGradientLadders:
    """Pin the Cartesian ladder coefficients against finite differences."""

    def test_regular_gradient_fd(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(-n, n + 1))
            x = rng.normal(size=3)
            lad = grad_solid_harmonic(n, m, x)
            fd = _fd_grad(lambda p: solid_harmonic(n, m, p), x)
            scale = max(np.max(np.abs(lad)), 1.0)
            assert_allclose(lad, fd, rtol=2e-6, atol=1e-7 * scale)

    def test_irregular_gradient_fd(self, rng):
        for _ in range(25):
            n = int(rng.integers(0, 7))
            m = int(rng.integers(-n, n + 1))
            x = rng.normal(size=3)
            x /= np.linalg.norm(x) * rng.uniform(0.4, 1.6)
            lad = grad_irregular_solid_harmonic(n, m, x)
            fd = _fd_grad(lambda p: irregular_solid_harmonic(n, m, p), x)
            scale = max(np.max(np.abs(lad)), 1.0)
            assert_allclose(lad, fd, rtol=5e-6, atol=1e-6 * scale)

    def test_hessians_fd(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(-n, n + 1))
            x = rng.normal(size=3)
            x /= np.linalg.norm(x) * rng.uniform(0.7, 1.4)
            hr = hess_solid_harmonic(n, m, x)
            fd = _fd_grad_vec(lambda p: grad_solid_harmonic(n, m, p), x)
            assert_allclose(hr, fd, rtol=5e-6, atol=1e-6 * max(np.max(np.abs(hr)), 1.0))
            hi = hess_irregular_solid_harmonic(n, m, x)
            fdi = _fd_grad_vec(lambda p: grad_irregular_solid_harmonic(n, m, p), x)
            assert_allclose(hi, fdi, rtol=5e-6, atol=1e-6 * max(np.max(np.abs(hi)), 1.0))

    def test_gradient_entire_at_origin(self):
        g = grad_solid_harmonic(1, 0, np.zeros(3))
        assert_allclose(g[2], math.sqrt(3 / (4 * math.pi)), rtol=1e-14)


def _fd_grad(f, x, h=1e-6):
    out = np.zeros(3, dtype=complex)
    for d in range(3):
        e = np.zeros(3)
        e[d] = h
        out[d] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def _fd_grad_vec(f, x, h=1e-6):
    out = np.zeros((3, 3), dtype=complex)
    for d in range(3):
        e = np.zeros(3)
        e[d] = h
        out[:, d] = (f(x + e) - f(x - e)) / (2 * h)
    return out


class TestACoeff:
    def test_worked_values(self, lame):
        assert_allclose(a_coeff(1, lame), 0.25, rtol=1e-15)
        assert_allclose(a_coeff(2, lame), 1.0, rtol=1e-15)

    def test_large_lambda_limit(self):
        big = LameParams(1e12, 1.0)
        for n in (1, 2, 5):
            assert_allclose(a_coeff(n, big), 2 * (n - 1) / (n + 2), atol=1e-9)

    def test_m_independent_signature(self, lame):
        # only a function of n; no m argument exists
        assert a_coeff(3, lame) == a_coeff(3, lame)


class TestModes:
    def test_m_mode_degree1_constant(self, lame, rng):
        pts = rng.normal(size=(6, 3))
        vals = eval_solid_mode(ModeIndex("M", 1, 0), lame, pts)
        expect = np.array([0.0, 0.0, math.sqrt(3 / (4 * math.pi))])
        assert_allclose(vals, np.broadcast_to(expect, vals.shape), atol=1e-14)

    def test_t1_is_rigid_rotation(self, lame, rng):
        # symmetric gradient of the degree-1 rotational mode vanishes
        idx = ModeIndex("T", 1, 0)
        x = rng.normal(size=3)
        h = 1e-5
        g = _fd_grad_vec(lambda p: eval_solid_mode(idx, lame, p), x, h)
        assert np.max(np.abs(g + g.T)) < 1e-9 * max(1.0, np.max(np.abs(g)))

    def test_t_trace_tangential(self, lame, rng):
        theta, phi = random_surface_angles(rng, 40)
        nu = _unit_vectors(theta, phi)
        for n, m in [(1, 1), (3, -2), (6, 4)]:
            tr = eval_trace_mode(ModeIndex("T", n, m), lame, theta, phi)
            assert np.max(np.abs(np.sum(tr * nu, axis=-1))) < 1e-13

    def test_t_trace_norm(self, lame, rule):
        # |T x nu| = |T| for tangential fields: norm integral equals n(n+1)
        for n, m in [(2, 0), (4, 3)]:
            idx = ModeIndex("T", n, m)
            val = quad_surface_integral(
                lambda p: np.sum(np.abs(_trace_at(idx, lame, p)) ** 2, axis=-1), rule
            )
            assert_allclose(val.real, n * (n + 1), rtol=1e-12)
            assert_allclose(trace_mode_norm_sq(idx.family, idx.n, lame), n * (n + 1))

    def test_real_combination_gives_real_field(self, lame, rng):
        # conjugate-symmetric amplitudes produce a real vector field
        theta, phi = random_surface_angles(rng, 10)
        for fam, n, m in [("T", 3, 2), ("M", 2, 1), ("N", 4, 2)]:
            plus = eval_trace_mode(ModeIndex(fam, n, m), lame, theta, phi)
            minus = eval_trace_mode(ModeIndex(fam, n, -m), lame, theta, phi)
            c = 0.37 - 0.81j
            field = c * plus + (-1) ** m * np.conj(c) * minus
            assert np.max(np.abs(field.imag)) < 1e-13


def _ladder_trace_mode(idx, lame, theta, phi):
    """The single-mode ladder path: one gradient ladder per mode, each shifted
    harmonic from its own Legendre recurrence at the point's angles."""
    nu = _unit_vectors(theta, phi)
    n, m = idx.n, idx.m
    if idx.family == "T":
        return np.cross(grad_solid_harmonic(n, m, nu), nu)
    if idx.family == "M":
        return grad_solid_harmonic(n, m, nu)
    a = a_coeff(n, lame)
    y = eval_ylm(n - 1, m, theta, phi)
    g = grad_solid_harmonic(n - 1, m, nu)
    return (a / (2 * n - 1)) * (-g + (2 * n - 1) * y[..., None] * nu)


class TestTraceModes:
    """vector_modes (one harmonic table for all orders of a degree) at unit
    points and off the sphere, as (N, 1) grids, against the single-mode
    ladder paths."""

    @pytest.mark.parametrize("fam", ["T", "M", "N"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_ladder_path(self, fam, n, rng):
        theta = np.concatenate([np.arccos(rng.uniform(-1, 1, 40)), [0.0, np.pi]])
        phi = np.concatenate([rng.uniform(0, 2 * np.pi, 40), [0.0, 0.0]])  # both poles
        unit = _unit_vectors(theta, phi)
        lp = LameParams(1.5 + 0.25j, 0.5 + 0.25j)
        mmax = n - 1 if fam == "N" else n
        orders = range(-mmax, mmax + 1)
        for m, mode in zip(orders, vector_modes(fam, n, orders, lp, unit[:, None]), strict=True):
            ref = _ladder_trace_mode(ModeIndex(fam, n, m), lp, theta, phi)
            assert mode.shape == (3, len(theta))
            assert np.max(np.abs(mode.T - ref)) <= 1e-13 * np.max(np.abs(ref))
        for r in (0.5, 2.0):
            for m, mode in zip(orders, vector_modes(fam, n, orders, lp, unit[:, None], r), strict=True):
                ref = _ladder_solid_mode(ModeIndex(fam, n, m), lp, r * unit)
                assert mode.shape == (3, len(theta))
                assert np.max(np.abs(mode.T - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_orders_stream_in_request_order(self, lame, rng):
        unit = _unit_vectors(*random_surface_angles(rng, 5))[:, None]
        modes = vector_modes("T", 3, [2, -3, 2], lame, unit)
        assert isinstance(modes, np.ndarray) and modes.shape == (3, 3, len(unit))
        first, second, third = modes
        (alone,) = vector_modes("T", 3, [-3], lame, unit)
        assert np.array_equal(first, third) and np.array_equal(second, alone)

    @pytest.mark.parametrize("fam", ["T", "M", "N"])
    def test_grid_matches_scattered_points(self, fam):
        # a rule's grid (the widest ring's azimuths, Legendre columns seeded
        # with sin theta) against its nodes as an (N, 1) grid (each point its
        # own (x + i y)^a), on the sphere and with one radius per ring; the
        # gap grows like the degree in ulps (8 ulps of the largest value at n = 8)
        lp = LameParams(1.5 + 0.25j, 0.5 + 0.25j)
        for grid in (oracle._unit_nodes(QuadratureRule(64, 128), polar=True)[0],
                     oracle._unit_nodes(QuadratureRule(16, 32), polar=False)[0]):
            rings, azimuths, _ = grid.shape
            r = np.linspace(0.5, 2.0, rings)[:, None]
            for n in range(1, 5):
                orders = range(-n, n + 1) if fam != "N" else range(1 - n, n)
                for radius, per_point in ((1.0, 1.0), (r, np.repeat(r, azimuths)[:, None])):
                    modes = vector_modes(fam, n, orders, lp, grid, radius)
                    points = vector_modes(fam, n, orders, lp, grid.reshape(-1, 1, 3), per_point)
                    for mode, ref in zip(modes, points, strict=True):
                        assert mode.shape == ref.shape == (3, rings * azimuths)
                        assert np.max(np.abs(mode - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("fam, n", [("T", 3), ("M", 1), ("N", 1), ("N", 5)])
    def test_mode_rows_multiply_out(self, fam, n, rng):
        # the factored rows the pole-frame oracle reads: g @ trig is the mode
        # (N: its gradient part), y @ trig is r^l Y_l^m (no rows for T and M),
        # on a rule's grid and on scattered points as an (N, 1) grid, r one
        # radius per ring
        lp = LameParams(1.5 + 0.25j, 0.5 + 0.25j)
        l = n - 1 if fam == "N" else n
        orders = list(range(-l, l + 1))
        scattered = _unit_vectors(*random_surface_angles(rng, 30))[:, None]
        for grid in (oracle._unit_nodes(QuadratureRule(8, 16), polar=True)[0], scattered):
            r = np.linspace(0.5, 2.0, len(grid))[:, None]
            g, y, trig = harmonics._mode_rows(fam, n, orders, grid, r)
            modes = vector_modes(fam, n, orders, lp, grid, r)
            if fam != "N":
                assert y.shape == (len(orders), len(grid), 0)
                assert_allclose((g @ trig).reshape(modes.shape), modes, rtol=0, atol=1e-15 * np.abs(modes).max())
                continue
            theta, phi = harmonics._cartesian_angles(grid)[1:]
            ylm = np.stack([r**l * eval_ylm(l, m, theta, phi) for m in orders])
            assert_allclose(y @ trig[:y.shape[-1]], ylm, rtol=0, atol=1e-14 * 2.0**l)
            a = a_coeff(n, lp)
            nu = np.moveaxis(grid, -1, 0)
            radial = 1 - a / (2 * n - 1) - r * r
            values = a * r * (y @ trig[:y.shape[-1]])[:, None] * nu + radial * (g @ trig[:g.shape[-1]])
            assert_allclose(values.reshape(modes.shape), modes, rtol=0, atol=1e-13 * np.abs(modes).max())

    @pytest.mark.parametrize("fam, n", [("T", 3), ("M", 4), ("N", 5)])
    def test_pole_grids(self, fam, n):
        # the pole as one point (its own azimuth, (x + i y)^a = 0 for a > 0)
        # and as one ring of four azimuths at sin theta = 0 (phi = 0 there)
        lp = LameParams(1.5 + 0.25j, 0.5 + 0.25j)
        orders = range(-n, n + 1) if fam != "N" else range(1 - n, n)
        for grid in (np.array([[[0.0, 0.0, 1.0]]]), np.tile([0.0, 0.0, 1.0], (1, 4, 1))):
            modes = list(vector_modes(fam, n, orders, lp, grid))
            for m, mode in zip(orders, modes, strict=True):
                ref = _ladder_trace_mode(ModeIndex(fam, n, m), lp, 0.0, 0.0)
                assert mode.shape == (3, grid.shape[1])
                assert np.max(np.abs(mode - ref[:, None])) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)
            assert np.min(np.abs(modes[orders.index(1)]).max(axis=0)) > 0.1  # m = 1 is nonzero there

    @pytest.mark.parametrize("l", range(9))
    def test_scalar_harmonics_match_eval_ylm(self, l, rng):
        # every order of degree l from the rows of the one real table vector_modes reads
        theta = np.concatenate([np.arccos(rng.uniform(-1, 1, 40)), [0.0, np.pi]])
        phi = np.concatenate([rng.uniform(0, 2 * np.pi, 40), [0.0, 0.0]])
        legendre, trig = harmonics._harmonic_columns(l, _unit_vectors(theta, phi).T, l + 1)
        table = (legendre[:, l, None] * trig).reshape(2 * l + 2, -1)
        ylm = np.stack([harmonics._row_weights(l, k) @ table for k in range(-l, l + 1)])
        ref = np.stack([eval_ylm(l, k, theta, phi) for k in range(-l, l + 1)])
        assert_allclose(ylm, ref, rtol=0, atol=1e-14)


def _ladder_solid_mode(idx, lame, xyz):
    """The single-mode ladder path of the solid modes: per-mode gradient
    ladders of solid harmonics evaluated at the points' angles."""
    n, m = idx.n, idx.m
    if idx.family == "T":
        return np.cross(grad_solid_harmonic(n, m, xyz), xyz)
    if idx.family == "M":
        return grad_solid_harmonic(n, m, xyz)
    a = a_coeff(n, lame)
    r2 = np.sum(xyz * xyz, axis=-1)
    y = solid_harmonic(n - 1, m, xyz)
    g = grad_solid_harmonic(n - 1, m, xyz)
    return a * y[..., None] * xyz + (1.0 - a / (2 * n - 1) - r2)[..., None] * g


class TestSolidModes:
    """eval_solid_mode (one harmonic table at x / r, scaled by homogeneity)
    against the single-mode ladder path."""

    @pytest.mark.parametrize("fam", ["T", "M", "N"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_ladder_path(self, fam, n, rng):
        theta = np.concatenate([np.arccos(rng.uniform(-1, 1, 40)), [0.0, np.pi]])
        phi = np.concatenate([rng.uniform(0, 2 * np.pi, 40), [0.0, 0.0]])  # both poles
        unit = _unit_vectors(theta, phi)
        lp = LameParams(1.5 + 0.25j, 0.5 + 0.25j)
        mmax = n - 1 if fam == "N" else n
        for m in range(-mmax, mmax + 1):
            idx = ModeIndex(fam, n, m)
            for r in (0.3, 0.8, 1.0, 1.7, 3.0):
                mode, ref = eval_solid_mode(idx, lp, r * unit), _ladder_solid_mode(idx, lp, r * unit)
                assert mode.shape == ref.shape
                assert np.max(np.abs(mode - ref)) <= 1e-13 * np.max(np.abs(ref))
            origin = np.zeros((1, 3))
            assert_allclose(eval_solid_mode(idx, lp, origin), _ladder_solid_mode(idx, lp, origin),
                            rtol=0, atol=1e-15)


# Exact polynomials in x, y, z: {(i, j, k): (re, im)} with Fraction parts.

def _poly_mul(p, q):
    out = {}
    for (e1, (a, b)) in p.items():
        for (e2, (c, d)) in q.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            re, im = out.get(e, (0, 0))
            out[e] = (re + a * c - b * d, im + a * d + b * c)
    return out


def _poly_add(p, q, scale=(1, 0)):
    out = dict(p)
    for e, (a, b) in q.items():
        re, im = out.get(e, (0, 0))
        out[e] = (re + a * scale[0] - b * scale[1], im + a * scale[1] + b * scale[0])
    return out


def _poly_diff(p, d):
    out = {}
    for e, (a, b) in p.items():
        if e[d]:
            f = tuple(v - (i == d) for i, v in enumerate(e))
            out[f] = (a * e[d], b * e[d])
    return out


def _poly_eval(p, point):
    x = [Fraction(float(v)) for v in point]
    re = im = Fraction(0)
    for (i, j, k), (a, b) in p.items():
        mono = x[0] ** i * x[1] ** j * x[2] ** k
        re, im = re + a * mono, im + b * mono
    return re, im


_X = [{(1, 0, 0): (1, 0)}, {(0, 1, 0): (1, 0)}, {(0, 0, 1): (1, 0)}]
_RHO = {(2, 0, 0): (1, 0), (0, 2, 0): (1, 0), (0, 0, 2): (1, 0)}  # x^2 + y^2 + z^2


def _solid_poly(n, m):
    """(r^n Y_n^m as an exact polynomial p without its normalization K, K):
    (-1)^m (x + i y)^m sum_k c_k z^(n-m-2k) rho^k for m >= 0, from
    P_n = 2^-n sum_k (-1)^k C(n, k) C(2n - 2k, n) t^(n-2k) and
    P_n^m = (-1)^m (1 - t^2)^(m/2) d^m P_n / dt^m; (x - i y)^|m| times the
    same sum for m < 0 (Y_n^-m = (-1)^m conj Y_n^m).  No angle anywhere."""
    a = abs(m)
    q = {}
    for k in range((n - a) // 2 + 1):
        c = Fraction((-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n)
                     * math.factorial(n - 2 * k), 2 ** n * math.factorial(n - 2 * k - a))
        term = {(0, 0, n - 2 * k - a): (c, 0)}
        for _ in range(k):
            term = _poly_mul(term, _RHO)
        q = _poly_add(q, term)
    w = {(1, 0, 0): (1, 0), (0, 1, 0): (0, 1 if m >= 0 else -1)}
    p = {(0, 0, 0): ((-1) ** a if m >= 0 else 1, 0)}
    for _ in range(a):
        p = _poly_mul(p, w)
    norm = math.sqrt((2 * n + 1) / (4 * math.pi) * math.factorial(n - a) / math.factorial(n + a))
    return _poly_mul(p, q), norm


def _poly_cross(g, x):
    """g x x for polynomial vectors g and x."""
    return [_poly_add(_poly_mul(g[(i + 1) % 3], x[(i + 2) % 3]),
                      _poly_mul(g[(i + 2) % 3], x[(i + 1) % 3]), (-1, 0)) for i in range(3)]


def _value(p, point, scale):
    re, im = _poly_eval(p, point)
    return complex(float(re), float(im)) * scale


def _near_pole_points():
    """Points at colatitude 1e-2..1e-4 from both poles, radius 1.3."""
    theta = np.array([1e-2, 1e-3, 1e-4])
    theta = np.concatenate([theta, np.pi - theta])
    return 1.3 * _unit_vectors(theta, np.full_like(theta, 0.7))


def assert_componentwise(actual, reference, rtol=1e-14):
    """Every component within rtol of its own magnitude; components that are
    exactly 0 stay within rtol of the largest component."""
    scale = np.where(reference != 0, np.abs(reference), np.max(np.abs(reference)))
    err = np.abs(actual - reference) / scale
    assert np.all(err <= rtol), float(err.max())


class TestNearPole:
    """The angle-free table next to the poles against exact Cartesian
    polynomials of the solid harmonics: no colatitude is formed, so the
    components of size sin(theta) keep their full relative accuracy.  What
    is left is the rounding of z / r, which moves P_n near a pole by about
    n(n+1)/2 ulps (5.8e-15 worst over all orders at n = 8, 1.4e-14 at
    n = 12), hence degrees up to 8 at 1e-14."""

    @pytest.mark.parametrize("n,m", [(8, 0), (8, 1), (7, -3), (5, 2), (1, 0)])
    def test_series_against_exact_polynomials(self, n, m):
        pts = _near_pole_points()
        p, norm = _solid_poly(n, m)
        grad = [_poly_diff(p, d) for d in range(3)]
        u = _poly_cross(grad, _X)
        du = [[_poly_diff(u[i], j) for j in range(3)] for i in range(3)]
        c = 0.6 - 0.3j
        regular, grad_u = solid_harmonic_series([n], [m], [c], None, pts, gradient=True)
        decaying, _ = solid_harmonic_series([n], [m], None, [c], pts)
        for k, x in enumerate(pts):
            rho = float(sum(Fraction(float(v)) ** 2 for v in x))
            ref = np.array([_value(u[i], x, norm) for i in range(3)])
            assert_componentwise(regular[k], c * ref)
            # Y_n^m / r^(n+1) = p / r^(2n+1), whose radial factor drops out of u
            assert_componentwise(decaying[k], c * ref / (rho ** n * math.sqrt(rho)))
            ref_grad = np.array([[_value(du[i][j], x, norm) for j in range(3)] for i in range(3)])
            assert_componentwise(grad_u[k], c * ref_grad)

    @pytest.mark.parametrize("fam,n,m", [("T", 8, 0), ("T", 6, -2), ("M", 8, 0), ("M", 7, 3),
                                         ("N", 8, 0), ("N", 6, 1)])
    def test_solid_modes_against_exact_polynomials(self, fam, n, m):
        pts = _near_pole_points()
        lp = LameParams(1.5 + 0.25j, 0.5 + 0.25j)
        l = n - 1 if fam == "N" else n
        p, norm = _solid_poly(l, m)
        field = [_poly_diff(p, d) for d in range(3)]
        if fam == "T":
            field = _poly_cross(field, _X)
        elif fam == "N":
            a = complex(a_coeff(n, lp))
            a_frac = (Fraction(a.real), Fraction(a.imag))
            b = _poly_add({(0, 0, 0): (1, 0)}, {(0, 0, 0): a_frac}, (Fraction(-1, 2 * n - 1), 0))
            b = _poly_add(b, _RHO, (-1, 0))  # 1 - a / (2n - 1) - r^2
            field = [_poly_add(_poly_mul(_poly_mul(p, _X[d]), {(0, 0, 0): a_frac}),
                               _poly_mul(b, field[d])) for d in range(3)]
        mode = eval_solid_mode(ModeIndex(fam, n, m), lp, pts)
        for k, x in enumerate(pts):
            assert_componentwise(mode[k], np.array([_value(field[d], x, norm) for d in range(3)]))


def _grad_s_at(n, m, pts):
    r = np.linalg.norm(pts, axis=-1)
    theta = np.arccos(pts[..., 2] / r)
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    return surface_gradient_ylm(n, m, theta, phi)


def _trace_at(idx, lame, pts):
    r = np.linalg.norm(pts, axis=-1)
    theta = np.arccos(pts[..., 2] / r)
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    return eval_trace_mode(idx, lame, theta, phi)


class TestGram:
    def test_orthogonality_and_diagonal(self, lame):
        rule = QuadratureRule(24, 48)
        gram, modes = gram_matrix(4, lame, rule)
        diag = np.real(np.diag(gram))
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-10 * np.max(diag)
        for i, idx in enumerate(modes):
            assert_allclose(diag[i], trace_mode_norm_sq(idx.family, idx.n, lame), rtol=1e-12)

    def test_hermitian(self, lame):
        rule = QuadratureRule(16, 32)
        gram, _ = gram_matrix(2, lame, rule)
        assert_allclose(gram, gram.conj().T, atol=1e-14)

    def test_mode_count(self):
        modes = mode_indices(3)
        # T and M: 3+5+7 each; N: 1+3+5
        assert len(modes) == 15 + 15 + 9


@settings(deadline=None, max_examples=25)
@given(
    theta=st.floats(0.01, math.pi - 0.01),
    phi=st.floats(0.0, 2 * math.pi),
    n=st.integers(1, 8),
)
def test_tangentiality_property(theta, phi, n):
    """nu . (grad_S Y x nu) = 0 at arbitrary surface points."""
    lame = LameParams(1.0, 1.0)
    m = n - 1
    tr = eval_trace_mode(ModeIndex("T", n, m), lame, theta, phi)
    nu = _unit_vectors(np.asarray(theta), np.asarray(phi))
    assert abs(np.sum(tr * nu)) < 1e-12


class TestEdgeCases:
    def test_a_coeff_singular_denominator(self):
        # (n+2) lam + (n+4) mu = 0 at n = 1 for lam = -5, mu = 3
        from npshell.harmonics import SingularParameterError

        lp = LameParams(-5.0, 3.0)
        with pytest.raises(SingularParameterError):
            a_coeff(1, lp)

    def test_high_degree_recurrence_stable(self, rng):
        # prenormalized recurrence keeps working at degree 200
        theta, phi = random_surface_angles(rng, 6)
        for m in (0, 1, 57, 199, 200):
            mine = eval_ylm(200, m, theta, phi)
            ref = sph_harm_y(200, m, theta, phi)
            assert_allclose(mine, ref, rtol=1e-10, atol=1e-12)


def _legendre_reference(n, m, ct, st):
    """P~_k^m for k = m..n, one scalar-coefficient recurrence step per
    degree: the per-(n, m) recurrence that the table routine replaced."""
    rows = [np.full_like(ct, 1.0 / math.sqrt(4.0 * math.pi))]
    for k in range(1, m + 1):
        rows[0] = -math.sqrt((2 * k + 1) / (2.0 * k)) * st * rows[0]
    if n > m:
        rows.append(math.sqrt(2 * m + 3.0) * ct * rows[0])
    for k in range(m + 2, n + 1):
        a = math.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
        b = math.sqrt(((k - 1.0) ** 2 - m * m) / (4.0 * (k - 1.0) ** 2 - 1.0))
        rows.append(a * (ct * rows[-1] - b * rows[-2]))
    return np.array(rows)


def _per_mode_series(regular, decaying, xyz):
    """The T field u = grad F x x of the series and grad u ([..., i, l] =
    d_l u_i = (Hess F[..., l] x x)_i + (grad F x e_l)_i), summed mode by mode
    from the single-mode ladders."""
    grad = sum(c * grad_solid_harmonic(n, m, xyz) for (n, m), c in regular.items())
    grad = grad + sum(c * grad_irregular_solid_harmonic(n, m, xyz) for (n, m), c in decaying.items())
    hess = sum(c * hess_solid_harmonic(n, m, xyz) for (n, m), c in regular.items())
    hess = hess + sum(c * hess_irregular_solid_harmonic(n, m, xyz) for (n, m), c in decaying.items())
    grad_u = [np.cross(hess[..., l], xyz) + np.cross(grad, np.eye(3)[l]) for l in range(3)]
    return np.cross(grad, xyz), np.stack(grad_u, axis=-1)


class TestLegendreColumn:
    """The columns of `_legendre_table`, one per order, against the
    per-degree recurrence."""

    def test_rows_equal_per_degree_recurrence(self, rng):
        # every (a, k) entry bit for bit, k = a and k = a + 1 among them,
        # exact zeros below the diagonal, and _norm_legendre as the (m, n) entry
        theta = np.concatenate([[0.0, np.pi / 2, np.pi], rng.uniform(0, np.pi, 40)])
        ct, st = np.cos(theta), np.sin(theta)
        # orders 0..m; at (60, 60) the steps of the high orders run furthest past degree n
        for n, m in [(0, 0), (1, 1), (2, 2), (3, 3), (7, 7), (9, 9), (10, 9), (11, 9), (30, 9), (60, 60), (400, 9)]:
            table = _legendre_table(n, range(m + 1), ct, st)
            assert table.shape == (m + 1, n + 1, len(theta))
            for a in range(m + 1):
                assert not table[a, :a].any()
                assert np.array_equal(table[a, a:], _legendre_reference(n, a, ct, st)), (n, a)
                assert np.array_equal(_norm_legendre(n, a, ct, st), table[a, n])
            # the orders lo..m alone are the rows lo.. of the table
            assert np.array_equal(_legendre_table(n, range(m // 2, m + 1), ct, st), table[m // 2:])
        ct, st = math.cos(0.3), math.sin(0.3)  # one angle, as eval_ylm passes a scalar
        assert np.array_equal(_legendre_table(5, range(3), ct, st)[2, 2:], _legendre_reference(5, 2, ct, st))

    def test_matches_scipy_to_degree_200(self, rng):
        theta = np.concatenate([[0.0, np.pi], rng.uniform(0, np.pi, 8)])
        table = _legendre_table(200, range(201), np.cos(theta), np.sin(theta))
        for m in (0, 1, 2, 57, 199, 200):
            degrees = np.arange(m, 201)[:, None]
            ref = sph_harm_y(degrees, m, theta[None, :], 0.0).real
            assert_allclose(table[m, m:], ref, rtol=1e-10, atol=1e-12)


def _aligned(regular, decaying):
    """solid_harmonic_series' (n, m, c, d) from (n, m) -> coefficient maps
    over the same modes; an empty map becomes None."""
    keys = list(regular or decaying)
    n, m = np.array(keys, dtype=int).T

    def column(coeffs):
        return np.array([coeffs[k] for k in keys]) if coeffs else None

    return n, m, column(regular), column(decaying)


class TestSolidHarmonicSeries:
    def test_matches_per_mode_ladders(self, rng):
        def coeffs():
            return {(n, m): complex(*rng.normal(size=2)) for n in range(9) for m in range(-n, n + 1)}

        regular, decaying = coeffs(), coeffs()
        pts = rng.normal(size=(300, 3))
        pts[:4] = [[0.0, 0.0, 1.3], [0.0, 0.0, -0.8], [0.0, 0.0, 2.0], [0.6, 0.0, 0.0]]
        u, grad_u = solid_harmonic_series(*_aligned(regular, decaying), pts, gradient=True)
        u_ref, grad_u_ref = _per_mode_series(regular, decaying, pts)
        assert_pointwise(u, u_ref)
        assert_pointwise(grad_u, grad_u_ref)
        only_u, none = solid_harmonic_series(*_aligned(regular, decaying), pts)
        assert none is None
        assert_pointwise(only_u, u_ref)

    def test_regular_series_at_origin(self, rng):
        regular = {(n, m): complex(*rng.normal(size=2)) for n in range(5) for m in range(-n, n + 1)}
        origin = np.zeros((1, 3))
        u, grad_u = solid_harmonic_series(*_aligned(regular, {}), origin, gradient=True)
        u_ref, grad_u_ref = _per_mode_series(regular, {}, origin)
        assert not u.any()
        assert_pointwise(grad_u, grad_u_ref)

    def test_one_legendre_column_per_order_and_block(self, rng, monkeypatch):
        builds = []
        table = harmonics._legendre_table

        def counted(n, orders, z, st):
            builds.append(orders)
            return table(n, orders, z, st)

        monkeypatch.setattr(harmonics, "_legendre_table", counted)
        pts = rng.normal(size=(2 * harmonics._BLOCK + 5, 3))
        blocks, max_m = 3, 2
        for n_max in (3, 40):
            builds.clear()
            coeffs = {(n, m): 1.0 for n in range(2, n_max + 1) for m in (-max_m, 0, 1)}
            solid_harmonic_series(*_aligned(coeffs, coeffs), pts, gradient=True)
            assert builds == [range(max_m + 3)] * blocks


class TestWeightArrays:
    """The closed-form weights over int arrays n, m against their scalar calls."""

    N, M = np.array([(n, m) for n in range(13) for m in range(-n - 1, n + 2)]).T

    @pytest.mark.parametrize("name,weights", [
        ("rotation", harmonics._rotation_weights),
        ("regular", lambda n, m: harmonics._ladder_weights(n, m, False)),
        ("decaying", lambda n, m: harmonics._ladder_weights(n, m, True)),
    ])
    def test_arrays_equal_scalar_calls(self, name, weights):
        w = weights(self.N, self.M)
        assert w.shape == (3, 3, self.N.size)
        assert np.isfinite(w).all()
        for k, (n, m) in enumerate(zip(self.N.tolist(), self.M.tolist())):
            assert np.array_equal(w[..., k], weights(n, m)), (n, m)

    def test_regular_degree_zero_has_no_weights(self):
        # the gradient of a constant; no degree-0 harmonic has |m| = 1
        assert not harmonics._ladder_weights(0, np.array([-1, 0, 1]), False).any()


def _per_mode_series_orders(n, m, regular, decaying, gradient):
    """`_series_orders` one mode and one nonzero weight at a time: each weight
    w of u (component i) or d_j u_i (3 + 3 i + j) on the harmonic of order q
    and degree k goes straight into the matrix of order a = |q|, as w on the
    Re (x + i y)^a part and i w on the Im part (q > 0), (-1)^a w and
    -i (-1)^a w (q < 0)."""
    ncomp, step = (12, 2) if gradient else (3, 1)
    coeffs = [(kind, np.reshape(c, (-1, len(n)))) for kind, c in enumerate((regular, decaying)) if c is not None]
    sets = coeffs[0][1].shape[0]
    top = max(n) + step - 1
    orders = min(max(map(abs, m)) + step, top) + 1
    out = np.zeros((orders, 2, sets, ncomp, len(coeffs), top + 1), dtype=complex)

    def add(pos, q, comp, k, w):
        a = abs(q)
        sign = (-1) ** a if q < 0 else 1
        for part, phase in enumerate([1, 1j if q > 0 else -1j][:1 + bool(a)]):
            out[a, part, :, comp, pos, k] += phase * sign * w

    for pos, (kind, c) in enumerate(coeffs):
        for mode, (nk, mk) in enumerate(zip(n, m)):
            rot = harmonics._rotation_weights(nk, mk)
            for i, k1 in np.argwhere(rot).tolist():
                add(pos, mk + k1 - 1, i, nk, c[:, mode] * rot[i, k1])
                if not gradient:
                    continue
                lad = harmonics._ladder_weights(nk, mk + k1 - 1, bool(kind))
                for j, k2 in np.argwhere(lad).tolist():
                    w = c[:, mode] * (rot[i, k1] * lad[j, k2])
                    add(pos, mk + k1 + k2 - 2, 3 + 3 * i + j, nk + (1 if kind else -1), w)
    return np.stack([out.real, out.imag], axis=2).reshape(orders, 2, 2, sets * ncomp, len(coeffs), top + 1)


class TestSeriesOrders:
    """The all-modes scatter of `_series_orders` against the per-mode sums."""

    SPECTRA = {
        "zonal-2..400": [(n, 0) for n in range(2, 401)],
        "all-to-12": [(n, m) for n in range(13) for m in range(-n, n + 1)],
    }

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    @pytest.mark.parametrize("gradient", [False, True])
    def test_matches_per_mode_sums(self, name, gradient, rng):
        n, m = np.array(self.SPECTRA[name]).T
        regular, decaying = (rng.normal(size=(2, n.size)) + 1j * rng.normal(size=(2, n.size)) for _ in range(2))
        kinds, top, sets, coef = harmonics._series_orders(n, m, regular, decaying, gradient)
        ref = _per_mode_series_orders(n.tolist(), m.tolist(), regular, decaying, gradient)
        assert (kinds, top, sets) == ([0, 1], n.max() + gradient, (2,))
        assert coef.shape == ref.shape
        for new, old in zip(coef, ref):  # per order
            assert_allclose(new, old, rtol=1e-14, atol=1e-14 * np.abs(old).max())

    # the calls the workloads make: the far field (decaying only, one set per loss, no gradient)
    # and one kind with the gradient, its coefficients one set of shape (modes,)
    SHAPES = {"far-field": (False, True, (6,), False), "regular-gradient": (True, False, (), True),
              "decaying-gradient": (False, True, (), True)}

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_call_shapes_match_per_mode_sums(self, name, shape, rng):
        n, m = np.array(self.SPECTRA[name]).T
        has_regular, has_decaying, sets, gradient = self.SHAPES[shape]
        regular, decaying = (rng.normal(size=sets + (n.size,)) + 1j * rng.normal(size=sets + (n.size,)) if on
                             else None for on in (has_regular, has_decaying))
        kinds, top, got_sets, coef = harmonics._series_orders(n, m, regular, decaying, gradient)
        ref = _per_mode_series_orders(n.tolist(), m.tolist(), regular, decaying, gradient)
        assert (kinds, top, got_sets) == ([int(has_decaying)], n.max() + gradient, sets)
        assert coef.shape == ref.shape
        for new, old in zip(coef, ref):  # per order
            assert_allclose(new, old, rtol=1e-14, atol=1e-14 * np.abs(old).max())

    @pytest.mark.parametrize("grown", ["fresh", "all-to-12-then-zonal", "largest-first"])
    def test_a_grown_weight_table_gives_the_empty_table_results(self, grown, rng, monkeypatch):
        # each weight is a closed form in (n, q): a slice of a larger table equals a fresh one
        calls = [(name, gradient) for name in ("all-to-12", "zonal-2..400") for gradient in (False, True)]
        args = {}
        for name, gradient in calls:
            n, m = np.array(self.SPECTRA[name]).T
            args[name, gradient] = n, m, *(rng.normal(size=(2, n.size)) + 1j * rng.normal(size=(2, n.size))
                                           for _ in range(2)), gradient
        empty = {}
        for call in calls:
            monkeypatch.setattr(harmonics, "_weights", [-1, -1, 0, None, None])
            empty[call] = harmonics._series_orders(*args[call])[3]
        monkeypatch.setattr(harmonics, "_weights", [-1, -1, 0, None, None])
        if grown == "largest-first":  # every order of all-to-12 and every degree of zonal-2..400
            harmonics._weight_table(12, 400, True)
        for call in calls if grown != "fresh" else ():
            harmonics._series_orders(*args[call])
        assert harmonics._weights[:3] == ([-1, -1, 0] if grown == "fresh" else [12, 400, 2])
        for call in reversed(calls):  # each after a larger call, or on the empty table
            assert np.array_equal(harmonics._series_orders(*args[call])[3], empty[call])
        assert not any(t.flags.writeable for t in (*harmonics._weights[3:], *harmonics._weight_table(3, 5, True)))

    def test_weights_are_evaluated_once(self, empty_grid_tables, monkeypatch):
        # the table is evaluated by a first call, its gradient half by a first gradient call,
        # and a repeat evaluates no weight
        calls = []
        for name in ("_rotation_weights", "_ladder_weights"):
            monkeypatch.setattr(harmonics, name, lambda *a, f=getattr(harmonics, name), name=name:
                                calls.append(name) or f(*a))
        n, m = np.array(self.SPECTRA["zonal-2..400"]).T
        coeffs = np.ones(n.size)
        counts = []
        for regular, gradient in [(None, False), (None, False), (coeffs, True), (coeffs, True), (None, False)]:
            harmonics._series_orders(n, m, regular, coeffs, gradient)
            counts.append((calls.count("_rotation_weights"), calls.count("_ladder_weights")))
        assert counts == [(1, 0), (1, 0), (2, 2), (2, 2), (2, 2)]


def _ring_sets():
    """Product grids of unit directions (rings, azimuths, 3), the input of
    `solid_harmonic_shells`: the default rule (24 rings of 48), a 6x12 rule,
    one ring of 48, a rule with an odd azimuth count (5x11) and the rule with
    one node in theta (1x2)."""
    def rule(n_theta, n_phi):
        return QuadratureRule(n_theta, n_phi).surface_nodes()[0].reshape(n_theta, n_phi, 3)

    ring = _unit_vectors(np.full((1, 48), 1.1), 2 * np.pi * np.arange(48) / 48)
    return {"rule-24x48": rule(24, 48), "rule-6x12": rule(6, 12), "one-ring": ring,
            "rule-5x11": rule(5, 11), "rule-1x2": rule(1, 2)}


def _scattered_sets():
    """Unit point sets (N, 3) that are no product grid: the 24-direction
    far-field spiral (no z repeats) and the 24x48 rule rotated 0.3 rad about y
    (rings no longer at constant z)."""
    k = np.arange(24)
    ct, phi = 1 - (2 * k + 1) / 24, k * math.pi * (3 - math.sqrt(5.0))
    st = np.sqrt(1 - ct * ct)
    spiral = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)
    c, s = math.cos(0.3), math.sin(0.3)
    rotated = QuadratureRule(24, 48).surface_nodes()[0] @ np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    return {"spiral-24": spiral, "rotated-rule": rotated}


def _series_modes(sets, rng):
    """Degrees 1..8, every order, and random complex (regular, decaying)
    coefficients, of shape (modes,) or (sets, modes)."""
    n, m = np.array([(n, m) for n in range(1, 9) for m in range(-n, n + 1)]).T
    shape = (n.size,) if sets is None else (sets, n.size)
    regular, decaying = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    return n, m, regular, decaying


class TestSolidHarmonicShells:
    """The product-grid shell evaluator (Legendre columns at the ring
    cosines, azimuth rows of one ring) against the scattered-point series at
    r * unit."""

    RADII = (0.8, 1.3, 2.0)

    @pytest.mark.parametrize("name", sorted(_ring_sets()))
    @pytest.mark.parametrize("sets", [None, 2], ids=["one-set", "two-sets"])
    def test_matches_series_at_the_shell_points(self, name, sets, rng):
        unit = _ring_sets()[name]
        n, m, regular, decaying = _series_modes(sets, rng)
        for gradient in (False, True):
            shells = shell_fields(*solid_harmonic_shells(n, m, regular, decaying, self.RADII, unit, gradient), gradient)
            for r, (u, grad) in zip(self.RADII, shells):
                u_ref, grad_ref = solid_harmonic_series(n, m, regular, decaying, r * unit, gradient)
                assert u.shape == u_ref.shape
                for k in np.ndindex(u.shape[:-3]):  # per set, one row per point
                    assert_pointwise(u[k].reshape(-1, 3), u_ref[k].reshape(-1, 3))
                    if gradient:
                        assert_pointwise(grad[k].reshape(-1, 9), grad_ref[k].reshape(-1, 9))
                assert (grad is None) == (grad_ref is None) == (not gradient)

    def test_one_legendre_column_per_ring(self, legendre_builds):
        # one table at the 24 ring cosines for a first call, none for a repeat
        unit = _ring_sets()["rule-24x48"]
        assert unit.shape == (24, 48, 3)
        n, m = np.arange(2, 30), np.zeros(28, dtype=int)
        for built in (1, 0):
            legendre_builds.clear()
            solid_harmonic_shells(n, m, np.ones(28), np.ones(28), [1.2, 1.7], unit, gradient=True)
            assert [(orders, z.shape) for _, orders, z in legendre_builds] == [(range(3), (24,))] * built


class TestGridColumns:
    """The one table `_grid_columns` keeps per grid, for the last few grids."""

    @pytest.fixture
    def builds(self, monkeypatch, empty_grid_tables):
        builds, table = [], harmonics._grid_table

        def counted(top, unit, count):
            builds.append((top, count))
            return table(top, unit, count)

        monkeypatch.setattr(harmonics, "_grid_table", counted)
        return builds

    @pytest.mark.parametrize("grid", ["rule-24x48", "probes-24x1"])
    @pytest.mark.parametrize("first", [[], [(2, 2), (40, 5)], [(400, 5)]], ids=["fresh", "grown", "largest-first"])
    def test_slices_are_the_fresh_table(self, grid, first, builds):
        # slices of the kept table, however it grew, equal fresh tables bit for bit and are read-only;
        # a table is built only for a request past every earlier one
        unit = _ring_sets()[grid] if grid in _ring_sets() else transmission._PROBES
        assert unit.shape == ((24, 48, 3) if grid in _ring_sets() else (24, 1, 3))
        held = (-1, 0)
        for size in first:
            harmonics._grid_columns(size[0], unit, size[1])
            held = max(held[0], size[0]), max(held[1], size[1])
        for top in (2, 40, 400):
            for count in (2, 5):
                fresh = harmonics._grid_table(top, unit, count)
                builds.clear()
                for got, want in zip(harmonics._grid_columns(top, unit, count), fresh):
                    assert got.shape == want.shape and np.array_equal(got, want) and not got.flags.writeable
                grown = max(held[0], top), max(held[1], count)
                assert builds == ([grown] if grown != held else [])
                held = grown

    def test_keeps_the_last_grids(self, builds):
        grids = [QuadratureRule(k, 2 * k).surface_nodes()[0].reshape(k, 2 * k, 3)
                 for k in range(2, harmonics._GRID_TABLES + 3)]
        for unit in grids:
            harmonics._grid_columns(3, unit, 2)
        assert len(builds) == len(grids) == harmonics._GRID_TABLES + 1
        for k, built in ((1, False), (0, True), (1, False), (2, True)):  # the first grid was dropped, then the third
            builds.clear()
            harmonics._grid_columns(3, grids[k], 2)
            assert builds == [(3, 2)] * built


class TestSolidHarmonicSeriesSets:
    """The scattered-point series with coefficient sets (sets, modes) against
    one call per set, at point sets that are no product grid."""

    @pytest.mark.parametrize("name", sorted(_scattered_sets()))
    @pytest.mark.parametrize("gradient", [False, True], ids=["u", "grad"])
    def test_sets_match_single_set_calls(self, name, gradient, rng):
        n, m, regular, decaying = _series_modes(2, rng)
        for r in (0.8, 1.3, 2.0):
            xyz = r * _scattered_sets()[name]
            u, grad = solid_harmonic_series(n, m, regular, decaying, xyz, gradient)
            assert u.shape == (2,) + xyz.shape
            for k in range(2):
                u_k, grad_k = solid_harmonic_series(n, m, regular[k], decaying[k], xyz, gradient)
                assert_pointwise(u[k], u_k)
                if gradient:
                    assert_pointwise(grad[k], grad_k)
                else:
                    assert grad is None and grad_k is None
