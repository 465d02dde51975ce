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

    @property
    def loss(self) -> float:
        """Common imaginary part of a lossy pair (0 for regular materials)."""
        li, mi = complex(self.lam).imag, complex(self.mu).imag
        if not np.isclose(li, mi, rtol=0, atol=1e-12 * (1 + abs(mi))):
            raise ValueError("lambda and mu do not share a common imaginary part")
        return mi


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nu_x = np.asarray(nu_x, dtype=float)
    d = x - y
    r3 = _norms(d) ** 3
    num = nu_x[..., :, None] * d[..., None, :] - d[..., :, None] * nu_x[..., None, :]
    return num / (4 * np.pi * r3[..., None, None])


def k2_kernel(x, y, nu_x, lame: LameParams) -> np.ndarray:
    """Weakly singular part K2(x, y) of the traction kernel, shape (..., 3, 3).

    K2 = b1 (d . nu_x)/(4 pi |d|^3) I + b2 (d . nu_x)/(4 pi |d|^5) d d^t.
    For x, y on a common origin-centered sphere of radius r0 the factor
    (d . nu_x)/|d|^3 equals 1/(2 r0 |d|), so both terms are 1/|d| kernels.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nu_x = np.asarray(nu_x, dtype=float)
    co = KernelCoeffs.from_lame(lame)
    d = x - y
    r = _norms(d)
    dn = np.sum(d * nu_x, axis=-1)
    eye = np.broadcast_to(np.eye(3), d.shape + (3,))
    outer = d[..., :, None] * d[..., None, :]
    return (
        co.b1 * (dn / (4 * np.pi * r**3))[..., None, None] * eye
        + co.b2 * (dn / (4 * np.pi * r**5))[..., None, None] * outer
    )

