"""Closed-form layer-potential actions and the Neumann-Poincare spectrum on spheres.

The componentwise scalar single layer multiplies each trace family by a
rational constant; the elastic single layer maps each family onto the
matching solid field with a material-dependent coefficient.  Putting these
together gives the point spectrum of the N-P operator in two independent
ways: directly (np_eigenvalue, elementwise in the degree) and through the
split of the operator into elastic/scalar single layers plus curl and
gradient terms (np_decomposed_multiplier, one mode at a time).
"""

from __future__ import annotations

import numpy as np

from .harmonics import (
    FAMILIES,
    ModeIndex,
    SingularParameterError,
    a_coeff,
    solid_harmonic_series,
)
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
# scalar single layer (componentwise) on trace modes
# ---------------------------------------------------------------------------

def scalar_sl_multiplier(idx: ModeIndex, r0: float) -> float:
    """Scalar multiplier of the componentwise single layer on a trace mode.

    S_D[T_n] = -r0/(2n+1) T_n,  S_D[M_n] = -r0/(2n-1) M_n, and for the N
    family indexed by its own subscript S_D[N_n] = -r0/(2n+1) N_n
    (equivalently -r0/(2k+3) at N_{k+1}).  Linear in the radius.
    """
    if r0 <= 0:
        raise ValueError("radius must be positive")
    n = idx.n
    if idx.family == "T":
        return -r0 / (2 * n + 1)
    if idx.family == "M":
        return -r0 / (2 * n - 1)
    return -r0 / (2 * n + 1)


# ---------------------------------------------------------------------------
# elastic single layer on trace modes
# ---------------------------------------------------------------------------

def elastic_sl_t_coeff(n: int, lame: LameParams) -> complex:
    """d1 = -1/(mu (2n+1)), the T-family single-layer strength."""
    return -1.0 / (lame.mu * (2 * n + 1))


def elastic_sl_on_T(n: int, r0: float, lame: LameParams) -> tuple[complex, complex]:
    """(interior, exterior) coefficients of the elastic single layer of a T
    trace density of degree n on the sphere of radius r0, for every order m:

    Interior (|x| <= r0):  (d1 / r0^(n-1)) T-solid(x)
    Exterior (|x| >  r0):  d1 r0^(n+2) grad(r^-(n+1) Y_n^m) x x
    Both expressions agree on |x| = r0 (single layers are continuous).
    """
    d1 = elastic_sl_t_coeff(n, lame)
    return d1 / r0 ** (n - 1), d1 * r0 ** (n + 2)


def eval_elastic_sl_T(n: int, m: int, r0: float, lame: LameParams, xyz) -> np.ndarray:
    """Pointwise elastic single layer of a T density, valid everywhere: the T
    field of d1 r^n Y_n^m / r0^(n-1) inside, d1 r0^(n+2) Y_n^m / r^(n+1)
    outside (`solid_harmonic_series`)."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    interior, exterior = elastic_sl_on_T(n, r0, lame)
    inside = np.linalg.norm(xyz, axis=-1) <= r0
    out = np.zeros(xyz.shape, dtype=complex)
    for mask, regular, decaying in ((inside, [interior], None), (~inside, None, [exterior])):
        if np.any(mask):
            out[mask], _ = solid_harmonic_series([n], [m], regular, decaying, xyz[mask])
    return out


def elastic_sl_on_M(n: int, r0: float, lame: LameParams) -> complex:
    """Interior coefficient of the elastic single layer on an M trace density.

    On the unit sphere the potential is c * grad(r^n Y_n^m) inside with
    c mu (2n+1) = -(1/2 + 3/(2(2n-1)) + mu n /((2 mu + lam)(2n-1))).
    For radius r0 the potential is r0 * c * M-solid(x / r0); the returned
    value is the coefficient of M-solid(x), i.e. c * r0^(2-n).
    """
    mu, lam = lame.mu, lame.lam
    c_unit = -(0.5 + 3.0 / (2 * (2 * n - 1)) + mu * n / ((2 * mu + lam) * (2 * n - 1))) / (
        mu * (2 * n + 1)
    )
    return c_unit * r0 ** (2 - n)


def elastic_sl_on_N(n_mode: int, lame: LameParams) -> complex:
    """Interior coefficient c of the elastic single layer on an N trace
    density on the unit sphere.

    The mode is indexed by its own subscript n_mode = k + 1 (trace built
    from Y_k); the potential inside the unit sphere is c * N-solid with
    c mu = -(k lam + (3k+1) mu) / ((2k+3)(2k+1)(2 mu + lam)).
    On a sphere of radius r0 the potential is r0 * c * N-solid(x / r0).
    """
    if n_mode < 1:
        raise ValueError("N-family subscript must be >= 1")
    k = n_mode - 1
    mu, lam = lame.mu, lame.lam
    return -(k * lam + (3 * k + 1) * mu) / ((2 * k + 3) * (2 * k + 1) * (2 * mu + lam) * mu)


def elastic_sl_boundary_coeff(idx: ModeIndex, r0: float, lame: LameParams) -> complex:
    """Multiplier of the trace mode in the boundary value of the elastic layer."""
    if idx.family == "T":
        return elastic_sl_t_coeff(idx.n, lame) * r0
    if idx.family == "M":
        # r0 * c_unit by the kernel/mode homogeneity
        return elastic_sl_on_M(idx.n, 1.0, lame) * r0
    return elastic_sl_on_N(idx.n, lame) * r0


# ---------------------------------------------------------------------------
# N-P operator: the decomposed route
# ---------------------------------------------------------------------------

def curl_grad_limits(idx: ModeIndex, lame: LameParams) -> dict[str, np.ndarray]:
    """One-sided boundary limits of curl S_D[nu x phi] and grad S_D[nu . phi].

    Coefficient pairs in the angular basis (grad_S Y_k, Y_k nu) of the mode's
    scalar degree k (for family T, where everything stays proportional to the
    mode itself, the first slot holds the T coefficient and the second is 0).
    Derived from the componentwise single-layer action on the solid fields
    and their decaying Kelvin counterparts; the limits reproduce the classic
    jump relations, which the tests assert family by family.
    """
    n = idx.n
    if idx.family == "T":
        # nu . T = 0, nu x T = grad_S Y_n; only the curl term survives and it
        # is again proportional to T.
        return {
            "curl_in": np.array([n / (2.0 * n + 1), 0.0]),
            "curl_ex": np.array([-(n + 1.0) / (2 * n + 1), 0.0]),
            "grad_in": np.zeros(2),
            "grad_ex": np.zeros(2),
        }
    if idx.family == "M":
        # nu x M = -T_n, nu . M = n Y_n
        return {
            "curl_in": np.array([(n + 1.0) / (2 * n + 1), (n + 1.0) * n / (2 * n + 1)]),
            "curl_ex": np.array([-n / (2.0 * n + 1), n * (n + 1.0) / (2 * n + 1)]),
            "grad_in": np.array([-n / (2.0 * n + 1), -n * n / (2.0 * n + 1)]),
            "grad_ex": np.array([-n / (2.0 * n + 1), n * (n + 1.0) / (2 * n + 1)]),
        }
    # family N, own subscript n; scalar degree k = n - 1
    k = n - 1
    beta = a_coeff(n, lame) / (2 * k + 1)
    return {
        "curl_in": beta * np.array([-(k + 1.0) / (2 * k + 1), -(k + 1.0) * k / (2 * k + 1)]),
        "curl_ex": beta * np.array([k / (2.0 * k + 1), -k * (k + 1.0) / (2 * k + 1)]),
        "grad_in": beta * (k + 1.0) * np.array([-1.0 / (2 * k + 1), -float(k) / (2 * k + 1)]),
        "grad_ex": beta * (k + 1.0) * np.array([-1.0 / (2 * k + 1), (k + 1.0) / (2 * k + 1)]),
    }


def _pv_curl_grad_pair(idx: ModeIndex, lame: LameParams) -> tuple[complex, complex]:
    """Principal value of curl S_D[nu x phi] - grad S_D[nu . phi] on a mode.

    The principal value of each derivative layer is the average of its
    one-sided limits.
    """
    lim = curl_grad_limits(idx, lame)
    pair = 0.5 * (lim["curl_in"] + lim["curl_ex"]) - 0.5 * (lim["grad_in"] + lim["grad_ex"])
    return complex(pair[0]), complex(pair[1])


def _mode_basis_pair(idx: ModeIndex, lame: LameParams) -> tuple[complex, complex]:
    """Trace mode in the (grad_S Y_k, Y_k nu) basis of its scalar degree."""
    n = idx.n
    if idx.family == "T":
        return 1.0, 0.0  # convention: first slot multiplies T itself
    if idx.family == "M":
        return 1.0, float(n)
    k = n - 1
    beta = a_coeff(n, lame) / (2 * k + 1)
    return -beta, beta * (k + 1)


def np_decomposed_multiplier(idx: ModeIndex, lame: LameParams, r0: float = 1.0) -> complex:
    """Eigen-multiplier recomputed through the single-layer decomposition.

    K* = -3 (mu/r0) S_elastic + (3/2 + mu/(2(2mu+lam))) (1/r0) S_scalar
         - (mu/(2mu+lam)) (curl S[nu x .] - grad S[nu . .])
    with the last two terms taken as principal values.  The three terms are
    assembled from independent closed forms; the result must be proportional
    to the input mode, which is asserted.
    """
    mu, lam = lame.mu, lame.lam
    b1 = mu / (2 * mu + lam)
    mid = 1.5 + mu / (2 * (2 * mu + lam))

    t_elastic = -3.0 * (mu / r0) * elastic_sl_boundary_coeff(idx, r0, lame)
    t_scalar = (mid / r0) * scalar_sl_multiplier(idx, r0)
    kt, kn = _pv_curl_grad_pair(idx, lame)
    bt, bn = _mode_basis_pair(idx, lame)

    if idx.family == "T":
        return t_elastic + t_scalar - b1 * kt

    # tangential and normal components must load the mode identically
    mult_t = kt / bt
    mult_n = kn / bn
    if abs(mult_t - mult_n) > 1e-12 * max(1.0, abs(mult_t)):
        raise AssertionError(
            f"decomposed curl/grad action is not proportional to {idx}: "
            f"{mult_t} vs {mult_n}"
        )
    return t_elastic + t_scalar - b1 * mult_t

