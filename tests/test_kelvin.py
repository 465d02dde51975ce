"""Fundamental solutions and the traction-kernel decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from npshell.harmonics import SingularParameterError
from npshell.kelvin import (
    KernelCoeffs,
    LameParams,
    gamma_laplace,
    k1_kernel,
    k2_kernel,
    kelvin_matrix,
)
from npshell.oracle import FDStencil, fd_lame_residual


class TestLameParams:
    def test_regular(self):
        assert LameParams(1.0, 1.0).is_regular
        assert LameParams(-0.5, 1.0).is_regular  # 3 lam + 2 mu = 0.5 > 0
        assert not LameParams(-1.0, 1.0).is_regular
        assert not LameParams(1 + 0.1j, 1 + 0.1j).is_regular

    @pytest.mark.parametrize("lam", [1.0, -1.0 + 0.1j])
    def test_zero_shear_modulus_rejected(self, lam):
        # mu = 0 once reached the T eigenvalue and ran a sweep to "bounded"
        with pytest.raises(SingularParameterError, match="mu = 0"):
            LameParams(lam, 0.0)

    def test_singular_pair_rejected(self):
        with pytest.raises(SingularParameterError):
            LameParams(-2.0, 1.0)  # 2 mu + lam = 0

    def test_kernel_coeffs_ordering(self):
        co = KernelCoeffs.from_lame(LameParams(1.0, 1.0))
        assert_allclose(co.alpha1, 2 / 3)
        assert_allclose(co.alpha2, 1 / 3)
        assert co.alpha1 > co.alpha2 > 0
        assert_allclose(co.b1, 1 / 3)
        assert_allclose(co.b2, 2.0)


class TestGammaLaplace:
    def test_worked_values(self):
        assert_allclose(gamma_laplace(np.array([1.0, 0, 0])), -1 / (4 * math.pi))
        assert_allclose(gamma_laplace(np.array([1.0, 0, 0])), -0.07957747, rtol=1e-7)
        assert_allclose(gamma_laplace(np.array([0, 2.0, 0])), -1 / (8 * math.pi))
        assert_allclose(gamma_laplace(np.array([0, 2.0, 0])), -0.03978874, rtol=1e-6)

    def test_singularity(self):
        with pytest.raises(ValueError):
            gamma_laplace(np.zeros(3))

    @settings(deadline=None)
    @given(t=st.floats(0.1, 50.0))
    def test_scaling(self, t):
        x = np.array([0.3, -1.2, 0.5])
        assert_allclose(gamma_laplace(t * x), gamma_laplace(x) / t, rtol=1e-12)


class TestKelvinMatrix:
    def test_worked_values(self, lame):
        g = kelvin_matrix(np.array([1.0, 0, 0]), lame)
        assert_allclose(g[0, 0], -1 / (4 * math.pi), rtol=1e-14)
        assert_allclose(g[0, 0], -0.0795775, rtol=1e-5)
        assert_allclose(g[1, 1], -(2 / 3) / (4 * math.pi), rtol=1e-14)
        assert_allclose(g[1, 1], -0.0530516, rtol=1e-5)
        assert_allclose(g[2, 2], g[1, 1])
        assert abs(g[0, 1]) == 0.0

    def test_even_and_symmetric(self, lame, rng):
        x = rng.normal(size=3)
        g = kelvin_matrix(x, lame)
        assert_allclose(g, kelvin_matrix(-x, lame))
        assert_allclose(g, g.T)

    def test_homogeneity(self, lame, rng):
        x = rng.normal(size=3)
        for t in (0.5, 2.0, 7.3):
            assert_allclose(kelvin_matrix(t * x, lame), kelvin_matrix(x, lame) / t, rtol=1e-12)

    def test_incompressible_limit(self):
        co = KernelCoeffs.from_lame(LameParams(1e14, 1.0))
        assert_allclose(co.alpha2, co.alpha1, rtol=1e-12)

    def test_columns_solve_lame(self, lame, lame21, rng):
        # Kelvin columns are Lame-harmonic away from the origin (FD oracle)
        for lp in (lame, lame21):
            for _ in range(4):
                x = rng.normal(size=3)
                x *= rng.uniform(0.5, 3.0) / np.linalg.norm(x)
                stencil = FDStencil(h=1e-4 * np.linalg.norm(x), order=2)
                for col in range(3):
                    res = fd_lame_residual(
                        lambda p: kelvin_matrix(p, lp)[..., :, col], lp, x, stencil
                    )
                    assert res < 1e-6


class TestTractionKernel:
    def test_k1_antisymmetric(self, rng):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        nu = x / np.linalg.norm(x)
        k1 = k1_kernel(x, y, nu)
        assert_allclose(k1, -k1.T, atol=1e-16)

    def test_sphere_identity(self, rng):
        # (x - y) . nu_y / |x - y|^3 = -1/(2 r0 |x - y|) on a common sphere
        for r0 in (0.5, 1.0, 2.0):
            for _ in range(20):
                x = rng.normal(size=3)
                y = rng.normal(size=3)
                x *= r0 / np.linalg.norm(x)
                y *= r0 / np.linalg.norm(y)
                d = x - y
                nd = np.linalg.norm(d)
                lhs = d @ (y / r0) / nd**3
                rhs = -1.0 / (2 * r0 * nd)
                assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_k1_symmetrization_on_sphere(self, rng):
        # on a common sphere the nu_x form equals the nu_y form
        for _ in range(10):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            kx = k1_kernel(x, y, x)
            ky = k1_kernel(x, y, y)
            assert_allclose(kx, ky, atol=1e-13)

    def test_decomposition_matches_fd_traction(self, lame, lame21, rng):
        # -b1 K1 + K2 equals the conormal derivative of the Kelvin matrix
        h = 1e-6
        for lp in (lame, lame21):
            for _ in range(6):
                x = rng.normal(size=3)
                x /= np.linalg.norm(x)  # unit sphere, nu_x = x
                y = rng.normal(size=3)
                y /= np.linalg.norm(y)
                if np.linalg.norm(x - y) < 0.3:
                    continue
                kernel = _traction(x, y, lp)
                fd = _fd_conormal_of_kelvin(x, y, lp, h)
                assert_allclose(kernel, fd, rtol=2e-6, atol=1e-8)

    def test_coincident_rejected(self, lame):
        x = np.array([1.0, 0, 0])
        with pytest.raises(ValueError):
            _traction(x, x, lame)

    def test_complex_parameters_flow_through(self):
        lp = LameParams(-4 + 0.05j, -4 + 0.05j)
        x = np.array([1.0, 0, 0])
        y = np.array([0.0, 1.0, 0])
        k = _traction(x, y, lp)
        assert np.iscomplexobj(k) and np.all(np.isfinite(k))


def _traction(x, y, lame):
    """d/dnu_x G(x - y) at x on the unit sphere (nu_x = x), split as the
    N-P oracle assembles it: -b1 K1 + K2."""
    return -KernelCoeffs.from_lame(lame).b1 * k1_kernel(x, y, x) + k2_kernel(x, y, lame)


def _fd_conormal_of_kelvin(x, y, lame, h):
    """lam (div_x col) nu + mu (grad_x col + grad^t) nu for each Kelvin column."""
    nu = x / np.linalg.norm(x)
    grad = np.zeros((3, 3, 3), dtype=complex)  # grad[i, col, j] = d_j G[i, col]
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        grad[:, :, j] = (kelvin_matrix(x + e - y, lame) - kelvin_matrix(x - e - y, lame)) / (2 * h)
    out = np.zeros((3, 3), dtype=complex)
    for col in range(3):
        g = grad[:, col, :]
        div = g[0, 0] + g[1, 1] + g[2, 2]
        out[:, col] = lame.lam * div * nu + lame.mu * (g + g.T) @ nu
    return out


class TestRotationEquivariance:
    """K(Qx, Qy, Q nu) = Q K(x, y, nu) Q^T for every proper rotation Q: the
    identity that lets the N-P oracle assemble its kernels once at the pole."""

    @pytest.mark.parametrize("r0", [0.5, 1.0, 2.0])
    def test_kernels_rotate_with_the_sphere(self, r0, rng):
        materials = (LameParams(2.0, 1.0), LameParams(-4 + 0.05j, -4 + 0.05j))
        for _ in range(20):
            q = _random_rotation(rng)
            x, y = (r0 * v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
            nu = x / r0
            _assert_rotated(k1_kernel(q @ x, q @ y, q @ nu), q, k1_kernel(x, y, nu))
            for lp in materials:
                rotated = k2_kernel(q @ x, q @ y, lp)
                _assert_rotated(rotated, q, k2_kernel(x, y, lp))
                _assert_rotated(kelvin_matrix(q @ (x - y), lp), q, kelvin_matrix(x - y, lp))


def _random_rotation(rng) -> np.ndarray:
    """A random proper rotation: QR of a Gaussian matrix, signs fixed, det +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _assert_rotated(rotated, q, kernel, rtol=1e-13):
    expected = q @ kernel @ q.T
    assert np.linalg.norm(rotated - expected) <= rtol * np.linalg.norm(expected)
