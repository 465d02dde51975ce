"""Brute-force oracles: quadrature rules, singular layer quadrature,
finite-difference operators, and the shell energy integral."""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_surface_angles
from npshell import harmonics, oracle
from npshell.harmonics import (
    ModeIndex,
    _cartesian_angles,
    _unit_vectors,
    eval_solid_mode,
    eval_trace_mode,
    eval_ylm,
    vector_modes,
)
from npshell.kelvin import KernelCoeffs, LameParams, gamma_laplace, k1_kernel, k2_kernel, kelvin_matrix
from npshell.oracle import (
    FDStencil,
    NonEigenfunctionError,
    QuadratureRule,
    compare,
    fd_gradient,
    fd_lame_apply,
    fd_lame_residual,
    fd_traction,
    fsum_c,
    quad_elastic_sl,
    quad_energy_shell,
    quad_np_apply,
    quad_scalar_sl,
    quad_surface_integral,
)
from npshell.potentials import elastic_sl_coeff, np_eigenvalue, scalar_sl_multiplier
from npshell.transmission import ShellGeometry


class TestQuadratureRule:
    def test_weights_sum_to_area(self):
        for radius in (1.0, 2.5):
            for nodes in (lambda r: r.surface_nodes(radius), lambda r: r.polar_nodes(radius)):
                rule = QuadratureRule(16, 32)
                pts, w = nodes(rule)
                assert np.all(w > 0)
                assert_allclose(math.fsum(w.tolist()), 4 * math.pi * radius**2, rtol=1e-13)
                assert_allclose(np.linalg.norm(pts, axis=1), radius, rtol=1e-13)

    def test_azimuth_floor(self):
        with pytest.raises(ValueError):
            QuadratureRule(16, 24)

    @pytest.mark.parametrize("n_theta", [0, -3])
    def test_colatitude_floor(self, n_theta):
        with pytest.raises(ValueError, match=f"n_theta={n_theta}"):
            QuadratureRule(n_theta, 128)


def _rotation_to_pole_one(x):
    """Rodrigues rotation of one point to z-hat, the special cases +-z-hat apart."""
    xh = x / np.linalg.norm(x)
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(xh, z)
    s2 = v @ v
    c = xh @ z
    if s2 < 1e-28:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx * ((1 - c) / s2)


class TestSurfaceIntegral:
    def test_area(self, rule):
        val = quad_surface_integral(lambda p: np.ones(len(p)), rule)
        assert_allclose(val.real, 4 * math.pi, rtol=1e-14)
        assert_allclose(val.real, 12.566371, rtol=1e-7)

    def test_harmonic_norm(self, rule):
        val = quad_surface_integral(lambda p: np.abs(_ylm_at(3, 1, p)) ** 2, rule)
        assert_allclose(val.real, 1.0, rtol=1e-13)

    def test_harmonic_mean_zero(self, rule):
        val = quad_surface_integral(lambda p: _ylm_at(2, 0, p), rule)
        assert abs(val) < 1e-14

    def test_determinism(self, rule):
        vals = {
            complex(quad_surface_integral(lambda p: np.abs(_ylm_at(5, 3, p)) ** 2, rule))
            for _ in range(3)
        }
        assert len(vals) == 1


def _ylm_at(n, m, pts):
    r = np.linalg.norm(pts, axis=-1)
    theta = np.arccos(pts[..., 2] / r)
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    return eval_ylm(n, m, theta, phi)


def _assert_multiplier(est, resid, ref, rtol=1e-6):
    """The L2 distance of the action from ref phi over the sphere of targets,
    hypot(|est - ref|, resid) relative to |ref phi|, within rtol."""
    assert math.hypot(abs(est - ref), resid) < rtol * abs(ref), (est, resid, ref)


class TestScalarSLQuadrature:
    def test_m_mode(self, lame, rule):
        _assert_multiplier(*quad_scalar_sl(ModeIndex("M", 2, 0), lame, rule), -1 / 3)

    def test_t_mode(self, lame, rule):
        _assert_multiplier(*quad_scalar_sl(ModeIndex("T", 2, 0), lame, rule), -0.2)

    def test_linearity(self, lame, rule):
        # the multiplier scales with the radius
        idx = ModeIndex("N", 3, 1)
        for r0 in (0.5, 2.0):
            _assert_multiplier(*quad_scalar_sl(idx, lame, rule, r0), scalar_sl_multiplier(idx.family, idx.n, r0))

    def test_convergence_with_order(self, lame):
        # doubling the rule reduces the error by far more than 4x until the floor
        idx = ModeIndex("M", 4, 2)
        ref = scalar_sl_multiplier(idx.family, idx.n, 1.0)
        errs = []
        for n_theta in (8, 16, 32):
            est, resid = quad_scalar_sl(idx, lame, QuadratureRule(n_theta, 2 * n_theta))
            errs.append(math.hypot(abs(est - ref), resid) / abs(ref))
        assert errs[1] < errs[0] / 4 or errs[1] < 1e-8
        assert errs[2] < errs[1] / 4 or errs[2] < 1e-8


class TestElasticSLQuadrature:
    def test_t_density_interior_coeff(self, lame, rule):
        # quadrature reproduces d1 * r0 * T on the boundary
        n, m, r0 = 2, 1, 1.0
        d1 = -1 / (lame.mu * (2 * n + 1))
        _assert_multiplier(*quad_elastic_sl(ModeIndex("T", n, m), lame, rule, r0), d1 * r0)

    def test_m_density_boundary_value(self, lame, rule):
        n, m = 2, 0
        _assert_multiplier(*quad_elastic_sl(ModeIndex("M", n, m), lame, rule, 1.0), elastic_sl_coeff("M", n, lame))

    def test_mn_general_radius_rescaling(self, lame, rule):
        # boundary value scales like r0 for the M and N families as well
        for fam, n in (("M", 3), ("N", 3)):
            idx = ModeIndex(fam, n, 0)
            for r0 in (0.5, 1.0, 2.0):
                _assert_multiplier(*quad_elastic_sl(idx, lame, rule, r0), elastic_sl_coeff(fam, n, lame) * r0)


class TestNPQuadrature:
    def test_t2_eigenvalue(self, lame):
        est, resid = quad_np_apply(ModeIndex("T", 2, 0), lame, QuadratureRule(48, 96))
        assert abs(est - 0.3) < 1e-6 * 0.3
        assert resid < 1e-6

    def test_m2_eigenvalue(self, lame):
        est, resid = quad_np_apply(ModeIndex("M", 2, 0), lame, QuadratureRule(48, 96))
        assert abs(est - 1 / 90) < 1e-6 / 90
        assert resid < 1e-6

    def test_n3_eigenvalue_index_map(self, lame):
        # the N mode with subscript 3 reproduces the closed form at the same index
        est, _ = quad_np_apply(ModeIndex("N", 3, 0), lame, QuadratureRule(48, 96))
        ref = np_eigenvalue("N", 3, lame)
        assert abs(est - ref) < 1e-6 * abs(ref)
        assert_allclose(ref, 13 / 70)

    def test_radius_independence(self, lame21):
        idx = ModeIndex("T", 3, 1)
        for r0 in (0.5, 2.0):
            est, _ = quad_np_apply(idx, lame21, QuadratureRule(48, 96), r0=r0)
            assert abs(est - np_eigenvalue("T", 3, lame21)) < 1e-6

    def test_under_resolved_raises(self, lame):
        # residual 0.145, above the default tolerance 1e-4
        with pytest.raises(NonEigenfunctionError):
            quad_np_apply(ModeIndex("M", 6, 3), lame, QuadratureRule(4, 8))

    def test_residual_sees_mixing_not_resolution(self, lame):
        # on 8x16 the M mode mixes with N and the default tolerance catches it;
        # the T mode keeps its shape, so it passes with a tiny residual while
        # its eigenvalue is off by ~2e-3
        rule = QuadratureRule(8, 16)
        with pytest.raises(NonEigenfunctionError, match=r"M n=6 m=3: projection residual 4\.\d+e-04"):
            quad_np_apply(ModeIndex("M", 6, 3), lame, rule)
        est, resid = quad_np_apply(ModeIndex("T", 6, 3), lame, rule)
        assert resid < 1e-14
        assert abs(est - np_eigenvalue("T", 6, lame)) > 1e-3 * np_eigenvalue("T", 6, lame)

    @pytest.mark.parametrize("idx", [ModeIndex("T", 3, 1), ModeIndex("M", 2, 1), ModeIndex("N", 4, 1)],
                             ids=lambda i: f"{i.family}{i.n}^{i.m}")
    def test_k1_subtraction_on_a_tilted_rule(self, idx, lame, tilted_polar_nodes, monkeypatch):
        # Tilted 0.2 rad about y, the nodes no longer cancel sum K1 w against
        # constants by symmetry, so the p.v. needs phi(y) - phi(x): without
        # the subtraction the residual is 0.10-0.13, with it 0.8e-3 to
        # 2.0e-3; xi is the same either way, so only the residual pins it.
        monkeypatch.setattr(oracle, "_RESIDUAL_TOL", 1.0)
        _, resid = quad_np_apply(idx, lame, QuadratureRule(64, 128))
        assert resid <= 5e-3

    def test_tilted_blocks_reach_no_later_call(self, lame, monkeypatch):
        # the pole blocks are cached per (rule, r0): blocks built from the
        # tilted nodes must be gone once the tilt is undone
        idx, rule = ModeIndex("T", 3, 1), QuadratureRule(64, 128)
        monkeypatch.setattr(oracle, "_RESIDUAL_TOL", 1.0)
        with _tilted_polar_nodes():
            _, tilted_resid = quad_np_apply(idx, lame, rule)
        after = quad_np_apply(idx, lame, rule)
        oracle._pole_blocks.cache_clear()
        assert tilted_resid > 1e-4
        assert after == quad_np_apply(idx, lame, rule)


@contextmanager
def _tilted_polar_nodes():
    """The rule's polar nodes tilted 0.2 rad about y, as an (N, 1) grid from
    `oracle._unit_nodes`, so that the pole blocks and the modes tilt
    together; the pole-block cache is emptied on entry and on exit."""
    unit_nodes = oracle._unit_nodes
    c, s = math.cos(0.2), math.sin(0.2)
    tilt = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])

    def tilted(rule, polar):
        pts, w = unit_nodes(rule, polar)
        return ((pts.reshape(-1, 3) @ tilt)[:, None] if polar else pts), w

    oracle._pole_blocks.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_unit_nodes", tilted)
            yield
    finally:
        oracle._pole_blocks.cache_clear()


@pytest.fixture
def tilted_polar_nodes():
    with _tilted_polar_nodes():
        yield


@pytest.fixture
def fresh_pole_blocks():
    """An empty pole-block cache before and after the test, so that blocks
    built by patched kernels reach no other test."""
    oracle._pole_blocks.cache_clear()
    yield
    oracle._pole_blocks.cache_clear()


class TestPoleFrame:
    """quad_scalar_sl, quad_elastic_sl and quad_np_apply read (multiplier,
    residual) off the pole integrals; the reference assembles the kernel at
    every target of an outer grid, as the oracles once did, and projects
    onto the mode there."""

    # Eigenvalues 0.21, 0.5 and 0.13-0.19: both routes round at ~1e-14 of the
    # integrand, so a mode with a small K*[phi] (M_2: 1/90) would measure that
    # rounding rather than the frame.
    MODES = (ModeIndex("T", 3, 1), ModeIndex("M", 1, 1), ModeIndex("N", 3, -1))
    MATERIALS = [LameParams(2.0, 1.0), LameParams(-4 + 0.05j, -4 + 0.05j)]

    @pytest.mark.parametrize("lp", MATERIALS)
    def test_matches_kernel_assembled_at_the_target(self, lp):
        rule, r0 = QuadratureRule(24, 48), 1.5
        for idx in self.MODES:
            est, _ = quad_np_apply(idx, lp, rule, r0)
            ref, _ = _projection_at_targets(idx, lp, rule, r0, "np")
            assert abs(est - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("lp", MATERIALS)
    @pytest.mark.parametrize("op", ["scalar", "elastic"])
    def test_single_layers_match_kernels_assembled_at_the_target(self, op, lp):
        # the per-target rotated quadrature these oracles replace
        rule, r0 = QuadratureRule(24, 48), 1.5
        for idx in self.MODES:
            est, _ = _TARGET_KERNELS[op][0](idx, lp, rule, r0)
            ref, _ = _projection_at_targets(idx, lp, rule, r0, op)
            assert abs(est - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("idx", [ModeIndex("M", 6, 3), ModeIndex("N", 5, 2)],
                             ids=lambda i: f"{i.family}{i.n}^{i.m}")
    def test_residual_matches_kernel_assembled_at_the_targets(self, idx, lame, monkeypatch):
        # on 8x16 both modes mix with others, so the residual is far from rounding
        rule = QuadratureRule(8, 16)
        monkeypatch.setattr(oracle, "_RESIDUAL_TOL", 1.0)
        est, resid = quad_np_apply(idx, lame, rule)
        ref, ref_resid = _projection_at_targets(idx, lame, rule, 1.0, "np")
        assert resid > 1e-6
        assert abs(resid - ref_resid) <= 1e-9 * ref_resid
        assert abs(est - ref) <= 1e-12 * abs(ref)

    def test_orders_aliased_by_the_rule_are_kept(self, lame, monkeypatch):
        # on 4x8, orders +-7 and +-8 of M_8 alias to 1, 0 and -1, so they are
        # evaluated, and (multiplier, residual) match the reference
        idx, rule = ModeIndex("M", 8, 0), QuadratureRule(4, 8)
        orders = _count_orders(rule, monkeypatch)
        monkeypatch.setattr(oracle, "_RESIDUAL_TOL", 1.0)
        est, resid = quad_np_apply(idx, lame, rule)
        assert orders == [-8, -7, -1, 0, 1, 7, 8]
        ref, ref_resid = _projection_at_targets(idx, lame, rule, 1.0, "np")
        assert resid > 1e-6
        assert abs(resid - ref_resid) <= 1e-9 * ref_resid
        assert abs(est - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("fam, n", [("T", 4), ("M", 3), ("N", 4)])
    def test_every_order_gives_the_same_pair(self, fam, n, monkeypatch):
        lp, rule = LameParams(-4 + 0.05j, -4 + 0.05j), QuadratureRule(8, 16)
        l = n - 1 if fam == "N" else n
        monkeypatch.setattr(oracle, "_RESIDUAL_TOL", 1.0)
        pairs = {quad_np_apply(ModeIndex(fam, n, m), lp, rule) for m in range(-l, l + 1)}
        assert len(pairs) == 1

    def test_kernels_assembled_once_per_rule_and_radius(self, lame, monkeypatch, fresh_pole_blocks):
        # the kernel and the material enter per mode, so the scalar, elastic
        # and N-P oracles, for a real and a lossy material, share the blocks
        calls = []
        for name in ("k1_kernel", "k2_parts"):
            kernel = getattr(oracle, name)
            monkeypatch.setattr(
                oracle, name, lambda *a, _k=kernel, _n=name: calls.append(_n) or _k(*a)
            )
        idx, rule = ModeIndex("T", 3, 2), QuadratureRule(16, 32)
        for lp in (lame, LameParams(-4 + 0.05j, -4 + 0.05j)):
            for quad in (quad_scalar_sl, quad_elastic_sl, quad_np_apply):
                quad(idx, lp, rule)
        assert sorted(calls) == ["k1_kernel", "k2_parts"]
        quad_scalar_sl(idx, lame, rule, r0=2.0)
        assert sorted(calls) == ["k1_kernel", "k1_kernel", "k2_parts", "k2_parts"]

    def test_cached_blocks_are_read_only(self):
        for block in oracle._pole_blocks(QuadratureRule(8, 16), 1.0):
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 0.0

    @pytest.mark.parametrize("idx", [ModeIndex("T", 3, 0), ModeIndex("T", 3, 3),
                                     ModeIndex("N", 4, -2), ModeIndex("M", 1, 1)],
                             ids=lambda i: f"{i.family}{i.n}^{i.m}")
    def test_modes_evaluated_once_per_order_per_call(self, idx, lame, monkeypatch):
        # each order k of -l..l with k mod n_phi in {0, 1, n_phi - 1} meets
        # the rule's nodes once, whatever m is; on 16x32 those are -1, 0, 1
        rule = QuadratureRule(16, 32)
        orders = _count_orders(rule, monkeypatch)
        quad_np_apply(idx, lame, rule)
        assert orders == [-1, 0, 1]

    def test_one_legendre_column_per_ring(self, lame, monkeypatch):
        # the pole, then the 64 ring cosines of the rule's grid, as they are
        builds = []
        table = harmonics._legendre_table

        def counted(n, orders, z, st):
            builds.append(np.array(z))
            return table(n, orders, z, st)

        monkeypatch.setattr(harmonics, "_legendre_table", counted)
        rule = QuadratureRule(64, 128)
        quad_np_apply(ModeIndex("T", 3, 1), lame, rule)
        pole, rings = builds
        assert pole.tolist() == [1.0]
        assert np.array_equal(rings, oracle._unit_nodes(rule, polar=True)[0][:, 0, 2])


def _count_orders(rule, monkeypatch):
    """The list that collects, in call order, the orders `vector_modes` is
    asked for on the rule's grid."""
    orders = []

    def counted(family, n, js, lame, unit, r=1.0):
        js = list(js)
        if np.shape(unit)[:2] == (rule.n_theta, rule.n_phi):
            orders.extend(js)
        return vector_modes(family, n, js, lame, unit, r)

    monkeypatch.setattr(oracle, "vector_modes", counted)
    return orders


# operator -> (pole-frame oracle, kernel(x, y, lame) -> (N, 3, 3), K1 weight)
_TARGET_KERNELS = {
    "scalar": (quad_scalar_sl, lambda x, y, lp: gamma_laplace(x - y)[:, None, None] * np.eye(3), lambda lp: 0.0),
    "elastic": (quad_elastic_sl, lambda x, y, lp: kelvin_matrix(x - y, lp), lambda lp: 0.0),
    "np": (quad_np_apply, k2_kernel, lambda lp: -KernelCoeffs.from_lame(lp).b1),
}


def _pointwise_at_target(idx, x, lame, rule, r0, op):
    """K[phi](x) with the kernel of op assembled at x on the nodes rotated
    to x, and math.fsum per component; for the N-P operator K2 and
    -b1 K1 against phi(y) - phi(x)."""
    _, kernel, k1_weight = _TARGET_KERNELS[op]
    pts, w = rule.polar_nodes(r0)
    y = pts @ _rotation_to_pole_one(x)
    dens = eval_trace_mode(idx, lame, *_cartesian_angles(y)[1:])
    vals = np.einsum("aij,aj->ai", kernel(x[None, :], y, lame), dens)
    if k1 := k1_weight(lame):
        dens_x = eval_trace_mode(idx, lame, *_cartesian_angles(x)[1:])
        k1_block = k1_kernel(x[None, :], y, x[None, :] / np.linalg.norm(x))
        vals += k1 * np.einsum("aij,aj->ai", k1_block, dens - dens_x[None, :])
    vals *= w[:, None]
    return np.array(
        [complex(math.fsum(v.real.tolist()), math.fsum(v.imag.tolist())) for v in vals.T]
    )


def _projection_at_targets(idx, lame, rule, r0, op):
    """(multiplier, residual) of K[phi] projected onto phi over an outer
    (l + 2) x (4l + 4) Gauss grid of targets on the sphere of radius r0, with
    K[phi] from `_pointwise_at_target` at each.  The rule integrates
    the projection integrands, harmonics of degree <= 2l and order <= 2l in
    the target, exactly."""
    l = idx.scalar_degree
    pts, w = QuadratureRule(l + 2, 4 * l + 4).surface_nodes(r0)
    vals = np.stack([_pointwise_at_target(idx, x, lame, rule, r0, op) for x in pts])
    modes = eval_trace_mode(idx, lame, *_cartesian_angles(pts)[1:])
    w = w[:, None]
    den = np.sum(np.abs(modes) ** 2 * w)
    xi = np.sum(vals * modes.conj() * w) / den
    return xi, math.sqrt(np.sum(np.abs(vals - xi * modes) ** 2 * w) / den)


# Summands over 120 binary orders of magnitude, half of them cancelling
# larger ones exactly or up to a small remainder.
_SUMMANDS = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.integers(-60, 60), st.booleans()), max_size=40
).map(
    lambda terms: [m * 2.0**e for m, e, _ in terms]
    + [-m * 2.0**e * (1 + 2.0**-40) for m, e, cancel in terms if cancel]
)


class TestFsum:
    @settings(deadline=None, max_examples=200)
    @given(xs=_SUMMANDS)
    @example(xs=[])
    @example(xs=[0.1])
    @example(xs=[1e16, 1.0, -1e16])
    def test_within_twice_working_precision_of_fsum(self, xs):
        exact = math.fsum(xs)
        eps = np.finfo(float).eps
        bound = 2 * eps * abs(exact) + len(xs) ** 2 * eps**2 * math.fsum(map(abs, xs))
        got = fsum_c(np.array(xs, dtype=float))
        assert isinstance(got, complex) and got.imag == 0.0
        assert abs(got.real - exact) <= bound

    @settings(deadline=None, max_examples=50)
    @given(rows=st.lists(_SUMMANDS, min_size=1, max_size=4), imag=_SUMMANDS)
    def test_rows_parts_and_layout(self, rows, imag):
        n = max(len(r) for r in rows)
        a = np.array([r + [0.0] * (n - len(r)) for r in rows])
        sums = fsum_c(a)
        assert sums.shape == (len(rows),)
        assert [complex(v) for v in sums] == [fsum_c(row) for row in a]
        # real and imaginary parts are summed apart
        z = np.zeros(max(len(imag), n), dtype=complex)
        z.real[:n] = a[0]
        z.imag[: len(imag)] = imag
        assert fsum_c(z) == complex(fsum_c(z.real).real, fsum_c(z.imag).real)
        # bit-identical on a repeat and on a strided, transposed view
        buf = np.zeros((2 * n, 2 * len(rows)))
        buf[::2, ::2] = a.T
        view = buf[::2, ::2].T
        assert not view.flags.c_contiguous or n < 2
        assert np.array_equal(fsum_c(view), sums) and np.array_equal(fsum_c(a), sums)


def _polynomial_field(degree, rng):
    """A random complex polynomial field of total degree `degree`, mapping
    points (S, 3) to values (S, 3), and its exact derivative at a point x for
    a multi-index d (the number of d/dx, d/dy, d/dz), shape (3,)."""
    powers = np.array([p for p in itertools.product(range(degree + 1), repeat=3)
                       if sum(p) <= degree])
    coef = rng.normal(size=(len(powers), 3)) + 1j * rng.normal(size=(len(powers), 3))

    def field(pts):
        return np.prod(pts[:, None, :] ** powers, axis=-1) @ coef

    def derivative(x, d):
        falling = [math.prod(math.perm(int(a), b) for a, b in zip(p, d)) for p in powers]
        return (np.array(falling) * np.prod(x ** np.maximum(powers - d, 0), axis=-1)) @ coef

    return field, derivative


class TestFiniteDifferences:
    @pytest.mark.parametrize("order", [2, 4])
    def test_polynomials_of_the_stencil_degree_are_exact(self, order, rng):
        # degree `order` is differentiated exactly, mixed derivatives included,
        # up to rounding / h^2; one degree more is not (its gradient misses by
        # ~h^order), so the tolerance discriminates
        x, stencil = np.array([0.3, -0.6, 0.45]), FDStencil(h=0.1, order=order)
        e = np.eye(3, dtype=int)
        for degree, exact in ((order, True), (order + 1, False)):
            field, derivative = _polynomial_field(degree, rng)
            grad, d2 = oracle._fd_derivatives(field, x, stencil)
            grad_ref = np.array([derivative(x, e[j]) for j in range(3)]).T
            d2_ref = np.array([[derivative(x, e[j] + e[k]) for k in range(3)] for j in range(3)])
            d2_ref = np.moveaxis(d2_ref, -1, 0)
            err = max(np.max(np.abs(grad - grad_ref)), np.max(np.abs(d2 - d2_ref)))
            assert (err < 1e-10) == exact, (degree, err)

    @pytest.mark.parametrize("entry", ["apply", "residual", "gradient", "traction"])
    def test_field_is_called_once(self, entry, lame):
        idx, x, shapes = ModeIndex("N", 3, 1), np.array([0.4, -0.7, 0.5]), []

        def field(pts):
            shapes.append(pts.shape)
            return eval_solid_mode(idx, lame, pts)

        for stencil in (FDStencil(1e-3, 2), FDStencil(1e-3, 4)):
            shapes.clear()
            {"apply": lambda: fd_lame_apply(field, lame, x, stencil),
             "residual": lambda: fd_lame_residual(field, lame, x, stencil),
             "gradient": lambda: fd_gradient(field, x, stencil),
             "traction": lambda: fd_traction(field, lame, x, stencil=stencil)}[entry]()
            assert shapes == [((stencil.order + 1) ** 3, 3)]

    def test_solid_modes_are_lame_harmonic(self, lame):
        for fam, n, m in [("T", 3, 1), ("N", 3, 0), ("M", 5, -2)]:
            idx = ModeIndex(fam, n, m)
            x = np.array([0.4, -0.7, 0.5])
            res = fd_lame_residual(lambda p: eval_solid_mode(idx, lame, p), lame, x)
            assert res < 1e-6

    def test_quadratic_counterexample(self, lame):
        # u = (x1^2, 0, 0): L u = (2 mu + 2(lam + mu), 0, 0) everywhere
        def u(p):
            out = np.zeros(p.shape, dtype=complex)
            out[..., 0] = p[..., 0] ** 2
            return out

        x = np.array([0.3, 1.2, -0.4])
        val = fd_lame_apply(u, lame, x)
        expect = 2 * lame.mu + 2 * (lame.lam + lame.mu)
        assert_allclose(val, [expect, 0, 0], atol=1e-6)
        assert fd_lame_residual(u, lame, x) > 0.1

    def test_fd_order(self, lame):
        # order-2 truncation error drops ~4x when h is halved (until roundoff);
        # needs a non-polynomial exact solution, so use a decaying exterior field
        from npshell.harmonics import grad_irregular_solid_harmonic

        f = lambda p: np.cross(grad_irregular_solid_harmonic(3, 1, p), p)
        x = np.array([0.9, 0.1, 0.42])
        r1 = fd_lame_residual(f, lame, x, FDStencil(2e-2))
        r2 = fd_lame_residual(f, lame, x, FDStencil(1e-2))
        assert 3.5 < r1 / r2 < 4.5

    def test_order4_sharper(self, lame):
        from npshell.harmonics import grad_irregular_solid_harmonic

        f = lambda p: np.cross(grad_irregular_solid_harmonic(3, 1, p), p)
        x = np.array([0.9, 0.1, 0.42])
        r2 = fd_lame_residual(f, lame, x, FDStencil(1e-2, 2))
        r4 = fd_lame_residual(f, lame, x, FDStencil(1e-2, 4))
        assert r4 < r2 / 50

    def test_traction_of_degree1_rotation_vanishes(self, lame, rng):
        idx = ModeIndex("T", 1, 0)
        for r0 in (0.7, 1.0, 1.9):
            theta, phi = random_surface_angles(rng, 1)
            x = r0 * _unit_vectors(theta, phi)[0]
            t = fd_traction(lambda p: eval_solid_mode(idx, lame, p), lame, x)
            assert np.linalg.norm(t) < 1e-9

    def test_traction_of_t_solid(self, lame, rng):
        # traction of grad(r^n Y) x x on the unit sphere is mu (n-1) T_n
        theta, phi = random_surface_angles(rng, 1)
        x = _unit_vectors(theta, phi)[0]
        for n, m in [(2, 0), (4, 2)]:
            idx = ModeIndex("T", n, m)
            t = fd_traction(lambda p: eval_solid_mode(idx, lame, p), lame, x)
            ref = lame.mu * (n - 1) * eval_trace_mode(idx, lame, theta, phi)[0]
            assert_allclose(t, ref, rtol=1e-6, atol=1e-9)


class TestShellEnergyQuadrature:
    def test_rigid_rotation_zero(self, lame):
        geom = ShellGeometry(1.0, 2.0)
        idx = ModeIndex("T", 1, 0)

        def u_grad(radii, unit):
            for r in radii:
                pts = r * unit
                u = eval_solid_mode(idx, lame, pts)
                grad = np.zeros(pts.shape + (3,), dtype=complex)
                h = 1e-6
                for d in range(3):
                    e = np.zeros(3)
                    e[d] = h
                    grad[..., d] = (
                        eval_solid_mode(idx, lame, pts + e) - eval_solid_mode(idx, lame, pts - e)
                    ) / (2 * h)
                yield u, grad

        val = quad_energy_shell(u_grad, lame, 0.01, geom, QuadratureRule(8, 16), n_radial=4)
        assert abs(val) < 1e-12

    def test_constant_field_zero(self, lame):
        geom = ShellGeometry(1.0, 2.0)

        def u_grad(radii, unit):
            for _ in radii:
                yield np.ones(unit.shape, dtype=complex), np.zeros(unit.shape + (3,), dtype=complex)

        val = quad_energy_shell(u_grad, lame, 0.3, geom, QuadratureRule(8, 16), n_radial=4)
        assert val == 0.0


class TestValidationRecord:
    def test_compare(self):
        rec = compare("demo", {"n": 2}, 1.0, 1.0 + 1e-9, 1e-6)
        assert rec.passed
        bad = compare("demo", {"n": 2}, 1.0, 1.1, 1e-6)
        assert not bad.passed


class TestResolutionWarnings:
    def test_gram_warns_when_under_resolved(self, lame):
        from npshell.harmonics import gram_matrix

        with pytest.warns(RuntimeWarning):
            gram_matrix(8, lame, QuadratureRule(8, 16))

    def test_high_degree_quadrature_agreement(self, lame):
        # principal-value route keeps 1e-6 accuracy out to degree 8 modes
        for fam in ("T", "M", "N"):
            n = 8
            idx = ModeIndex(fam, n, 2)
            est, resid = quad_np_apply(idx, lame, QuadratureRule(64, 128))
            ref = np_eigenvalue(fam, n, lame)
            assert abs(est - ref) <= 1e-6 * abs(ref)
            assert resid <= 1e-6


class TestStencilValidation:
    def test_invalid_order(self):
        with pytest.raises(ValueError):
            FDStencil(1e-4, 3)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            FDStencil(-1e-4, 2)
