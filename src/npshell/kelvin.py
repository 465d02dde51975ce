"""Fundamental solutions of the Laplace and Lame operators and the two parts of the traction kernel.

Sign conventions carry the leading minus of the Newtonian potential
(gamma = -1/(4 pi |x|)) throughout; the jump relations of the layer
potentials pin them in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harmonics import SingularParameterError


@dataclass(frozen=True)
class LameParams:
    """Lame pair (lambda, mu); complex in a lossy (plasmonic) material.

    Regular materials are real with mu > 0 and 3 lambda + 2 mu > 0; a
    plasmonic shell carries a common positive imaginary part.  2 mu + lambda
    must not vanish (it appears in every kernel constant), nor may mu.
    """

    lam: complex = 1.0
    mu: complex = 1.0

    def __post_init__(self):
        if self.mu == 0:
            raise SingularParameterError(f"mu = 0 (lambda = {self.lam}) makes the Lame operator singular")
        if self.lam + 2 * self.mu == 0:
            raise SingularParameterError("lambda + 2 mu = 0 is outside the admissible set")

    @property
    def is_regular(self) -> bool:
        """Real-valued and strongly convex."""
        real = (
            complex(self.lam).imag == 0.0 and complex(self.mu).imag == 0.0
        )
        if not real:
            return False
        lam, mu = complex(self.lam).real, complex(self.mu).real
        return mu > 0 and 3 * lam + 2 * mu > 0


@dataclass(frozen=True)
class KernelCoeffs:
    """Scalar constants entering the Kelvin matrix and traction kernel."""

    alpha1: complex
    alpha2: complex
    b1: complex
    b2: complex

    @classmethod
    def from_lame(cls, lame: LameParams) -> "KernelCoeffs":
        mu, lam = lame.mu, lame.lam
        k = 2 * mu + lam
        return cls(
            alpha1=0.5 * (1.0 / mu + 1.0 / k),
            alpha2=0.5 * (1.0 / mu - 1.0 / k),
            b1=mu / k,
            b2=3 * (mu + lam) / k,
        )


def _norms(x: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(x, axis=-1)
    if np.any(r == 0):
        raise ValueError("kernel evaluated at a coincident / zero point")
    return r


def gamma_laplace(x) -> np.ndarray:
    """Fundamental solution of the Laplacian, -1/(4 pi |x|)."""
    x = np.asarray(x, dtype=float)
    return -1.0 / (4.0 * np.pi * _norms(x))


def kelvin_matrix(x, lame: LameParams) -> np.ndarray:
    """Kelvin matrix G(x) of the Lame operator, shape (..., 3, 3).

    G_jk = -(alpha1/4pi) delta_jk / |x| - (alpha2/4pi) x_j x_k / |x|^3.
    Symmetric, even in x, homogeneous of degree -1.
    """
    x = np.asarray(x, dtype=float)
    r = _norms(x)
    co = KernelCoeffs.from_lame(lame)
    eye = np.broadcast_to(np.eye(3), x.shape + (3,))
    outer = x[..., :, None] * x[..., None, :]
    return (
        -(co.alpha1 / (4 * np.pi)) * eye / r[..., None, None]
        - (co.alpha2 / (4 * np.pi)) * outer / (r**3)[..., None, None]
    )


def k1_kernel(x, y, nu_x) -> np.ndarray:
    """Antisymmetric part K1(x, y) of the traction kernel, shape (..., 3, 3).

    K1 = (nu_x d^t - d nu_x^t) / (4 pi |d|^3) with d = x - y.  On a common
    origin-centered sphere this equals the same expression built with nu_y.
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    nu_x = np.asarray(nu_x, dtype=float)
    r3 = _norms(d) ** 3
    num = nu_x[..., :, None] * d[..., None, :] - d[..., :, None] * nu_x[..., None, :]
    return num / (4 * np.pi * r3[..., None, None])


def k2_parts(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Material-free parts (a, B) of K2 = b1 a I + b2 B for x, y on a common
    origin-centered sphere of radius r0 = |x|, shapes (...,) and (..., 3, 3):
    a = 1/(8 pi r0 |d|) and B = a d d^t / |d|^2, d = x - y.  On the sphere
    (d . nu_x)/(4 pi |d|^3) equals a; written so, a does not cancel at y next
    to x, where d . nu_x = r0 - y . nu_x does."""
    x = np.asarray(x, dtype=float)
    d = x - np.asarray(y, dtype=float)
    r = _norms(d)
    a = 1.0 / (8 * np.pi * np.linalg.norm(x, axis=-1) * r)
    return a, (a / r**2)[..., None, None] * (d[..., :, None] * d[..., None, :])


def k2_kernel(x, y, lame: LameParams) -> np.ndarray:
    """Weakly singular part K2(x, y) of the traction kernel on a common
    sphere, b1 a I + b2 B of `k2_parts`, shape (..., 3, 3)."""
    co = KernelCoeffs.from_lame(lame)
    a, b = k2_parts(x, y)
    return co.b1 * a[..., None, None] * np.eye(3) + co.b2 * b
