"""Closed-form layer-potential actions and the Neumann-Poincare spectrum on spheres.

Each function is keyed by the family ("T", "M" or "N", an N mode by its own
subscript) and is elementwise over an int or int array degree n.  The scalar
and elastic single layers act on each family by a constant; together they
give the N-P spectrum two independent ways: directly (np_eigenvalue) and
through the single-layer decomposition (np_decomposed_multiplier).
"""

from __future__ import annotations

import numpy as np

from .harmonics import FAMILIES, SingularParameterError, a_coeff
from .kelvin import LameParams


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def np_eigenvalue(family: str, n: int, lame: LameParams) -> complex:
    """Eigenvalue of the N-P operator on the given family and degree.

    T: 3/(4n+2)
    M: (3 lam - 2 mu (2n^2 - 2n - 3)) / (2 (lam + 2 mu)(4n^2 - 1))
    N: (-3 lam + 2 mu (2n^2 + 2n - 3)) / (2 (lam + 2 mu)(4n^2 - 1))

    For family N the degree n is the mode's own subscript (trace built from
    Y_{n-1}); with that convention the same formula index applies.  The
    result is independent of m and of the sphere radius.  Elementwise in n.
    """
    if (np.asarray(n) < 1).any():
        raise ValueError("n must be >= 1")
    if family == "T":
        return 3.0 / (4 * n + 2)
    den = 2 * (lame.lam + 2 * lame.mu) * (4 * n * n - 1)
    if np.any(den == 0):
        raise SingularParameterError("lambda + 2 mu vanishes")
    if family == "M":
        return (3 * lame.lam - 2 * lame.mu * (2 * n * n - 2 * n - 3)) / den
    if family == "N":
        return (-3 * lame.lam + 2 * lame.mu * (2 * n * n + 2 * n - 3)) / den
    raise ValueError(f"unknown family {family!r}")


def np_eigenvalue_limit(family: str, lame: LameParams) -> complex:
    """Accumulation point of the eigenvalue sequence as n -> infinity."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "T":
        return 0.0
    half = lame.mu / (2 * (lame.lam + 2 * lame.mu))
    return -half if family == "M" else half


# ---------------------------------------------------------------------------
# single layers on trace modes
# ---------------------------------------------------------------------------

def scalar_sl_multiplier(family: str, n, r0: float):
    """Multiplier of the componentwise scalar single layer on the trace modes
    (family, n) on the sphere of radius r0:

    S_D[T_n] = -r0/(2n+1) T_n,  S_D[M_n] = -r0/(2n-1) M_n,
    S_D[N_n] = -r0/(2n+1) N_n   (-r0/(2k+3) at N_{k+1}).
    """
    if not r0 > 0:
        raise ValueError("radius must be positive")
    if family in ("T", "N"):
        return -r0 / (2 * n + 1)
    if family == "M":
        return -r0 / (2 * n - 1)
    raise ValueError(f"unknown family {family!r}")


def elastic_sl_coeff(family: str, n, lame: LameParams):
    """Elastic single layer of the trace modes (family, n) on the unit sphere:
    c times the solid mode inside (the boundary multiplier), and for T
    c grad(r^-(n+1) Y_n^m) x x outside.

    T: c = d1 = -1/(mu (2n+1))
    M: c mu (2n+1) = -(1/2 + 3/(2(2n-1)) + mu n / ((2 mu + lam)(2n-1)))
    N: c mu = -(k lam + (3k+1) mu) / ((2k+3)(2k+1)(2 mu + lam)),  k = n - 1
    On radius r0 the layer is r0 times this one at x / r0 (homogeneity).
    """
    if (np.asarray(n) < 1).any():
        raise ValueError("n must be >= 1")
    mu, lam = lame.mu, lame.lam
    if family == "T":
        return -1.0 / (mu * (2 * n + 1))
    if family == "M":
        return -(0.5 + 3.0 / (2 * (2 * n - 1)) + mu * n / ((2 * mu + lam) * (2 * n - 1))) / (mu * (2 * n + 1))
    if family == "N":
        k = n - 1
        return -(k * lam + (3 * k + 1) * mu) / ((2 * k + 3) * (2 * k + 1) * (2 * mu + lam) * mu)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# N-P operator: the decomposed route
# ---------------------------------------------------------------------------

def _trace_pair(family: str, n, lame: LameParams):
    """(l, t, g) of the M or N modes of degree n: scalar degree l, nu x mode
    = t T_l, nu . mode = g Y_l, i.e. (-t, g) in the (grad_S Y_l, Y_l nu)
    basis.  M: t = -1, g = n.  N: t = beta, g = beta n, beta = a_n/(2n-1)."""
    if family == "M":
        return n, -1.0, n
    if family == "N":
        beta = a_coeff(n, lame) / (2 * n - 1)
        return n - 1, beta, beta * n
    raise ValueError(f"unknown family {family!r}")


def curl_grad_limits(family: str, n, lame: LameParams) -> np.ndarray:
    """One-sided boundary limits of curl S_D[nu x phi] and grad S_D[nu . phi]
    on the trace modes (family, n), as lim[op (curl, grad), side (interior,
    exterior), slot, *n.shape]; the slots are coefficients of (grad_S Y_l,
    Y_l nu).  For T (nu . T = 0) slot 0 holds the T coefficient of the curl
    term and the rest is 0.  M and N share one form in their `_trace_pair`
    (l, t, g), with s = 2l + 1:

    curl  interior -t (l+1)/s (1, l),  exterior t l/s (1, -(l+1))
    grad  interior -g/s (1, l),        exterior g/s (-1, l+1)
    """
    n = np.asarray(n)
    if family == "T":
        zero = np.zeros(n.shape)
        return np.array([[[n / (2.0 * n + 1), zero], [-(n + 1.0) / (2 * n + 1), zero]],
                         [[zero, zero], [zero, zero]]])
    l, t, g = _trace_pair(family, n, lame)
    s = 2.0 * l + 1
    return np.array([[[-t * (l + 1) / s, -t * (l + 1) * l / s], [t * l / s, -t * l * (l + 1) / s]],
                     [[-g / s, -g * l / s], [-g / s, g * (l + 1) / s]]])


def np_decomposed_multiplier(family: str, n, lame: LameParams, r0: float = 1.0):
    """Eigen-multiplier recomputed through the single-layer decomposition.

    K* = -3 (mu/r0) S_elastic + (3/2 + mu/(2(2mu+lam))) (1/r0) S_scalar
         - (mu/(2mu+lam)) (curl S[nu x .] - grad S[nu . .])
    with the last two terms taken as principal values, the averages of the
    one-sided limits.  The three terms are assembled from independent closed
    forms; the result must be proportional to the input mode, which is
    asserted.
    """
    mu, lam = lame.mu, lame.lam
    b1 = mu / (2 * mu + lam)
    mid = 1.5 + mu / (2 * (2 * mu + lam))

    t_elastic = -3.0 * (mu / r0) * (elastic_sl_coeff(family, n, lame) * r0)
    t_scalar = (mid / r0) * scalar_sl_multiplier(family, n, r0)
    pv = curl_grad_limits(family, n, lame).mean(axis=1)
    kt, kn = pv[0] - pv[1]
    if family == "T":
        return t_elastic + t_scalar - b1 * kt

    # tangential and normal components must load the mode identically
    _, t, g = _trace_pair(family, n, lame)
    mult_t, mult_n = kt / -t, kn / g
    if np.any(abs(mult_t - mult_n) > 1e-12 * np.maximum(1.0, abs(mult_t))):
        raise AssertionError(f"decomposed curl/grad action is not proportional to the {family} modes of "
                             f"degree {n}: {mult_t} vs {mult_n}")
    return t_elastic + t_scalar - b1 * mult_t
