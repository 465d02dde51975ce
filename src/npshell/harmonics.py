"""Scalar and vector spherical harmonics on spheres.

Provides orthonormal complex spherical harmonics (Condon-Shortley phase),
their surface gradients, and the three orthogonal vector-harmonic families
T/M/N that diagonalize the elastostatic Neumann-Poincare operator, in both
solid (volume) and trace (surface) form.

All evaluation is Cartesian-ladder based so it is well defined on the polar
axis; no 1/sin(theta) formulas are used on the hot paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .kelvin import LameParams

FAMILIES = ("T", "M", "N")
_FAMILY_RANK = {"T": 0, "M": 1, "N": 2}


class SingularParameterError(ValueError):
    """Material parameters make a required denominator vanish."""


@dataclass(frozen=True)
class ModeIndex:
    """Address of one vector spherical harmonic: (family, degree n, order m).

    Families T and M use Y_n (|m| <= n).  Family N is indexed by its own
    subscript n but its trace involves Y_{n-1}, so |m| <= n - 1.
    """

    family: str
    n: int
    m: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.n < 1:
            raise ValueError(f"degree must be >= 1, got n={self.n}")
        mmax = self.n - 1 if self.family == "N" else self.n
        if abs(self.m) > mmax:
            raise ValueError(
                f"order m={self.m} out of range for family {self.family}, n={self.n} "
                f"(|m| <= {mmax})"
            )

    @property
    def sort_key(self) -> tuple:
        return (_FAMILY_RANK[self.family], self.n, self.m)

    @property
    def scalar_degree(self) -> int:
        """Degree of the scalar harmonic appearing in the trace."""
        return self.n - 1 if self.family == "N" else self.n


@dataclass(frozen=True)
class SurfacePoint:
    """Point on an origin-centered sphere, colatitude/azimuth plus radius."""

    theta: float
    phi: float
    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def unit_normal(self) -> np.ndarray:
        st, ct = math.sin(self.theta), math.cos(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), ct])

    @property
    def position(self) -> np.ndarray:
        return self.radius * self.unit_normal


def mode_indices(n_max: int, families: Iterable[str] = FAMILIES) -> list[ModeIndex]:
    """All valid modes up to degree n_max, in deterministic (family, n, m) order."""
    out = []
    for fam in families:
        for n in range(1, n_max + 1):
            mmax = n - 1 if fam == "N" else n
            for m in range(-mmax, mmax + 1):
                out.append(ModeIndex(fam, n, m))
    return out


# ---------------------------------------------------------------------------
# scalar harmonics
# ---------------------------------------------------------------------------

def _legendre_column(n: int, m: int, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre P~_k^m for k = m..n, m >= 0.

    Returns shape (n - m + 1,) + ct.shape; row k - m holds degree k.
    Normalized so that Y_k^m = P~_k^m(cos theta) exp(i m phi) is orthonormal
    on the sphere; Condon-Shortley phase included.  Sectoral seed, then the
    upward three-term recurrence in the degree with prenormalized
    coefficients (the column recurrence of Holmes & Featherstone, J. Geodesy
    2002, without their underflow scaling; stable to n of a few hundred).
    """
    out = np.empty((n - m + 1,) + np.shape(ct))
    pmm = np.full_like(ct, 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(1, m + 1):
        pmm = -math.sqrt((2 * k + 1) / (2.0 * k)) * st * pmm
    out[0] = pmm
    if n > m:
        out[1] = math.sqrt(2 * m + 3.0) * ct * pmm
    for k in range(m + 2, n + 1):
        a = math.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
        b = math.sqrt(((k - 1.0) ** 2 - m * m) / (4.0 * (k - 1.0) ** 2 - 1.0))
        out[k - m] = a * (ct * out[k - m - 1] - b * out[k - m - 2])
    return out


def _norm_legendre(n: int, m: int, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre P~_n^m for m >= 0: the last row
    of `_legendre_column`."""
    return _legendre_column(n, m, ct, st)[-1]


def eval_ylm(n: int, m: int, theta, phi) -> np.ndarray:
    """Orthonormal complex spherical harmonic Y_n^m(theta, phi).

    Condon-Shortley phase; Y_n^{-m} = (-1)^m conj(Y_n^m).
    """
    if n < 0 or abs(m) > n:
        raise ValueError(f"invalid spherical-harmonic index (n={n}, m={m})")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    p = _norm_legendre(n, abs(m), np.cos(theta), np.sin(theta))
    val = p * np.exp(1j * m * phi)
    if m < 0 and m % 2:
        val = -val
    return val


def _cartesian_angles(xyz: np.ndarray):
    """(r, theta, phi) from points of shape (..., 3); phi = 0 on the axis."""
    xyz = np.asarray(xyz, dtype=float)
    r = np.linalg.norm(xyz, axis=-1)
    safe = np.where(r > 0, r, 1.0)
    ct = np.clip(xyz[..., 2] / safe, -1.0, 1.0)
    theta = np.arccos(ct)
    phi = np.arctan2(xyz[..., 1], xyz[..., 0])
    return r, theta, phi


def solid_harmonic(n: int, m: int, xyz) -> np.ndarray:
    """Regular solid harmonic r^n Y_n^m at Cartesian points (..., 3)."""
    r, theta, phi = _cartesian_angles(xyz)
    return r**n * eval_ylm(n, m, theta, phi)


def irregular_solid_harmonic(n: int, m: int, xyz) -> np.ndarray:
    """Decaying solid harmonic Y_n^m / r^(n+1); requires r > 0."""
    r, theta, phi = _cartesian_angles(xyz)
    if np.any(r == 0):
        raise ValueError("irregular solid harmonic is singular at the origin")
    return eval_ylm(n, m, theta, phi) / r ** (n + 1)


def _harmonic_table(l: int, nu: np.ndarray, abs_orders=None) -> np.ndarray:
    """Real rows t of the degree-l harmonics at unit points given as
    coordinate rows nu = (x, y, z) of shape (3, N); shape (2l + 1, N):
    Y_l^a = t[l + a] + i t[l - a] (t[l] alone for a = 0) and
    Y_l^-a = (-1)^a conj(Y_l^a), for a = 0..l, or only for the a in
    `abs_orders` (the other rows zero); an empty table for l < 0.  No angles:
    Y_l^a = (P~_l^a(z) / sin^a theta) (x + i y)^a, where the first factor is
    the Legendre column seeded without its sin theta factors."""
    x, y, z = nu
    table = np.zeros((max(2 * l + 1, 0), len(z)))
    re, im = np.ones_like(z), np.zeros_like(z)
    for a in range(l + 1):
        if abs_orders is None or a in abs_orders:
            p = _legendre_column(l, a, z, 1.0)[-1]
            table[l + a] = p * re
            if a:
                table[l - a] = p * im
        re, im = re * x - im * y, re * y + im * x
    return table


def _row_weights(l: int, q: int) -> np.ndarray:
    """Complex weights c with Y_l^q = c @ `_harmonic_table`(l, .)."""
    c = np.zeros(2 * l + 1, dtype=complex)
    a = abs(q)
    sign = (-1) ** a if q < 0 else 1
    c[l + a] = sign
    if a:
        c[l - a] = sign * (1j if q > 0 else -1j)
    return c


def _combine(c: np.ndarray, table: np.ndarray) -> np.ndarray:
    """c @ table for complex weights c (..., rows) and a real table
    (rows, N), without a complex copy of the table."""
    out = np.empty(c.shape[:-1] + table.shape[1:], dtype=complex)
    out.real = c.real @ table
    out.imag = c.imag @ table
    return out


def _ylm(l: int, orders: Iterable[int], unit) -> np.ndarray:
    """Y_l^q for each q of `orders` at unit points (N, 3), complex
    (len(orders), N), from one `_harmonic_table`."""
    orders = list(orders)
    table = _harmonic_table(l, np.asarray(unit, dtype=float).T, {abs(q) for q in orders})
    return _combine(np.stack([_row_weights(l, q) for q in orders]), table)


# ---------------------------------------------------------------------------
# Cartesian gradient ladders (pole-safe)
# ---------------------------------------------------------------------------
# d/dx_d (r^n Y_n^m) is a combination of r^{n-1} Y_{n-1}^{m'} with m' in
# {m-1, m, m+1}; the coefficients below are the standard ladder weights for
# the orthonormal Condon-Shortley convention.  They are pinned against finite
# differences in the test suite.

def _ladder_weights_regular(n: int, m: int) -> dict:
    if n < 1:
        return {0: {}, 1: {}, 2: {}}
    c = math.sqrt((2 * n + 1) / (2 * n - 1.0))
    a = c * math.sqrt(max((n - m) * (n + m), 0))
    b = c * math.sqrt(max((n - m) * (n - m - 1), 0))
    cc = -c * math.sqrt(max((n + m) * (n + m - 1), 0))
    return {
        0: {+1: b / 2.0, -1: cc / 2.0},
        1: {+1: -0.5j * b, -1: 0.5j * cc},
        2: {0: a},
    }


def _ladder_weights_irregular(n: int, m: int) -> dict:
    c = math.sqrt((2 * n + 1) / (2 * n + 3.0))
    a = -c * math.sqrt((n + 1 - m) * (n + 1 + m))
    b = c * math.sqrt((n + m + 1) * (n + m + 2))
    cc = -c * math.sqrt((n - m + 1) * (n - m + 2))
    return {
        0: {+1: b / 2.0, -1: cc / 2.0},
        1: {+1: -0.5j * b, -1: 0.5j * cc},
        2: {0: a},
    }


def grad_solid_harmonic(n: int, m: int, xyz) -> np.ndarray:
    """Cartesian gradient of r^n Y_n^m, shape (..., 3); entire in x."""
    xyz = np.asarray(xyz, dtype=float)
    out = np.zeros(xyz.shape, dtype=complex)
    if n < 1:
        return out
    w = _ladder_weights_regular(n, m)
    cache = {}
    for d in range(3):
        for shift, coeff in w[d].items():
            if coeff == 0 or abs(m + shift) > n - 1:
                continue
            if shift not in cache:
                cache[shift] = solid_harmonic(n - 1, m + shift, xyz)
            out[..., d] += coeff * cache[shift]
    return out


def grad_irregular_solid_harmonic(n: int, m: int, xyz) -> np.ndarray:
    """Cartesian gradient of Y_n^m / r^(n+1), shape (..., 3); r > 0."""
    xyz = np.asarray(xyz, dtype=float)
    out = np.zeros(xyz.shape, dtype=complex)
    w = _ladder_weights_irregular(n, m)
    cache = {}
    for d in range(3):
        for shift, coeff in w[d].items():
            if coeff == 0:
                continue
            if shift not in cache:
                cache[shift] = irregular_solid_harmonic(n + 1, m + shift, xyz)
            out[..., d] += coeff * cache[shift]
    return out


def hess_solid_harmonic(n: int, m: int, xyz) -> np.ndarray:
    """Hessian of r^n Y_n^m, shape (..., 3, 3); traceless and symmetric."""
    xyz = np.asarray(xyz, dtype=float)
    out = np.zeros(xyz.shape + (3,), dtype=complex)
    if n < 2:
        return out
    w1 = _ladder_weights_regular(n, m)
    cache = {}
    for j in range(3):
        for s1, c1 in w1[j].items():
            if c1 == 0 or abs(m + s1) > n - 1:
                continue
            w2 = _ladder_weights_regular(n - 1, m + s1)
            for i in range(3):
                for s2, c2 in w2[i].items():
                    mm = m + s1 + s2
                    if c2 == 0 or abs(mm) > n - 2:
                        continue
                    key = mm
                    if key not in cache:
                        cache[key] = solid_harmonic(n - 2, mm, xyz)
                    out[..., i, j] += c1 * c2 * cache[key]
    return out


def hess_irregular_solid_harmonic(n: int, m: int, xyz) -> np.ndarray:
    """Hessian of Y_n^m / r^(n+1), shape (..., 3, 3); r > 0."""
    xyz = np.asarray(xyz, dtype=float)
    out = np.zeros(xyz.shape + (3,), dtype=complex)
    w1 = _ladder_weights_irregular(n, m)
    cache = {}
    for j in range(3):
        for s1, c1 in w1[j].items():
            w2 = _ladder_weights_irregular(n + 1, m + s1)
            for i in range(3):
                for s2, c2 in w2[i].items():
                    mm = m + s1 + s2
                    if mm not in cache:
                        cache[mm] = irregular_solid_harmonic(n + 2, mm, xyz)
                    out[..., i, j] += c1 * c2 * cache[mm]
    return out


# ---------------------------------------------------------------------------
# batched derivatives of a solid-harmonic series
# ---------------------------------------------------------------------------

# Points per Legendre block: large enough for BLAS, small enough that the
# real (degrees x points) blocks stay a few hundred kB.
_BLOCK = 256


@lru_cache(maxsize=256)
def _ladder_block(decaying: bool, n: int, m: int, hessian: bool) -> np.ndarray:
    """Read-only weights of grad (component 0-2) and Hess[i, j] (3 + 3 i + j)
    of one solid harmonic on the harmonics of order m-2..m+2 (axis 0) and
    degree n-2, n-1 (regular) or n+1, n+2 (decaying) (axis 2): the ladders
    of grad_/hess_[ir]regular_solid_harmonic."""
    weights = _ladder_weights_irregular if decaying else _ladder_weights_regular
    step = 1 if decaying else -1
    block = np.zeros((5, 12 if hessian else 3, 2), dtype=complex)
    for j, w1 in weights(n, m).items():
        for s1, c1 in w1.items():
            if c1 == 0 or abs(m + s1) > n + step:
                continue
            block[2 + s1, j, int(not decaying)] += c1
            for i, w2 in weights(n + step, m + s1).items() if hessian else ():
                for s2, c2 in w2.items():
                    if c2 != 0 and abs(m + s1 + s2) <= n + 2 * step:
                        block[2 + s1 + s2, 3 + 3 * i + j, int(decaying)] += c1 * c2
    block.setflags(write=False)
    return block


def _series_orders(n, m, regular, decaying, hessian: bool):
    """Coefficient stages of a solid-harmonic series: the ladder weights of
    every mode summed into one row per (kind, degree, order), then the orders
    +-a recombined into one real matrix per order a = 0..q_max + 1 (+ 2 with
    the Hessian).  Matrix a has shape (cos/sin part, re/im, kind, derivative
    component, degree k = a..top); returns (kinds present, top, matrices)."""
    ncomp, step = (12, 2) if hessian else (3, 1)
    n, m = np.asarray(n, dtype=int), np.asarray(m, dtype=int)
    coeffs = (regular, decaying)
    kinds = [kind for kind in (0, 1) if coeffs[kind] is not None and n.size]
    q_max = int(np.abs(m).max(initial=0))
    n_max = int(n.max(initial=0))
    top = n_max + step  # highest degree a derivative reaches
    # rows[kind, q + q_max + 2, comp, k + 2]: weight of the solid harmonic of
    # degree k and order q in derivative component comp
    rows = np.zeros((2, 2 * q_max + 5, ncomp, n_max + 5), dtype=complex)
    for kind in kinds:
        for nk, mk, c in zip(n.tolist(), m.tolist(), coeffs[kind]):
            lo = nk + 3 if kind else nk
            rows[kind, mk + q_max:mk + q_max + 5, :, lo:lo + 2] += c * _ladder_block(
                bool(kind), nk, mk, hessian)
    orders = []
    for a in range(q_max + step + 1) if kinds else ():
        # Orders +-a share P~_k^a (Y_k^-a = (-1)^a P~_k^a exp(-i a phi)) and
        # combine into real matrices for the cos(a phi) and sin(a phi) parts.
        plus = rows[kinds, q_max + 2 + a, :, a + 2:top + 3]
        minus = (-1) ** a * rows[kinds, q_max + 2 - a, :, a + 2:top + 3]
        coef = np.stack([plus + minus, 1j * (plus - minus)] if a else [plus])
        orders.append(np.stack([coef.real, coef.imag], axis=1))
    return kinds, top, orders


def _angular_table(top: int, n_orders: int, pts: np.ndarray):
    """|x| of points (N, 3), and per order a < n_orders the angular part of
    their harmonics: P~_k^a(cos theta) for k = a..top, cos(a phi), sin(a phi)."""
    r, theta, phi = _cartesian_angles(pts)
    ct, st = np.cos(theta), np.sin(theta)
    return r, [(_legendre_column(top, a, ct, st), (np.cos(a * phi), np.sin(a * phi)))
               for a in range(n_orders)]


def _series_eval(kinds, orders, table, powers: np.ndarray, out: np.ndarray) -> None:
    """Add the series at the table's points to out (re/im, comp, point).

    powers holds r^0..r^(top + 1): shape (top + 2, points) for scattered
    points, or (top + 2,) when every point has the same radius, which then
    folds r^k (regular) and r^-(k+1) (decaying) into the coefficient rows.
    """
    for a, (coef, (col, trig)) in enumerate(zip(orders, table)):
        if powers.ndim == 1:
            f = np.stack([1.0 / powers[a + 1:] if kind else powers[a:-1] for kind in kinds])
            val = np.matmul((coef * f[:, None]).sum(axis=2), col)
        else:
            radial = np.stack([col / powers[a + 1:] if kind else col * powers[a:-1] for kind in kinds])
            # (cos/sin part, re/im, comp, point) by one real BLAS contraction
            val = np.tensordot(coef, radial, ([2, 4], [0, 1]))
        for part, t in zip(val, trig):
            out += part * t


def _grad_hess(out: np.ndarray, shape: tuple, hessian: bool):
    out = (out[0] + 1j * out[1]).T
    grad = out[:, :3].reshape(shape)
    hess = out[:, 3:].reshape(shape + (3,)) if hessian else None
    return grad, hess


def solid_harmonic_series(n, m, regular, decaying, xyz, hessian: bool = False):
    """grad F, and Hess F if asked, of the scalar potential
    F = sum c_n^m r^n Y_n^m + sum d_n^m Y_n^m / r^(n+1) at points (..., 3).

    `regular` and `decaying` are the coefficient arrays c and d, aligned with
    the integer arrays of degrees `n` and orders `m`; None drops that kind.
    Three stages: the ladder weights of every mode are summed into one
    coefficient row per (kind, degree, order) and recombined into one real
    matrix per order |m| (`_series_orders`); per block of points each order
    then needs one real Legendre column and cos/sin(|m| phi)
    (`_angular_table`), which meet the per-point r^k or r^-(k+1) in one
    contraction (`_series_eval`).  `solid_harmonic_shells` shares the stages
    on concentric shells.  Returns (grad (..., 3), Hess (..., 3, 3) or None),
    complex.  Decaying terms need r > 0.
    """
    xyz = np.asarray(xyz, dtype=float)
    pts = xyz.reshape(-1, 3)
    kinds, top, orders = _series_orders(n, m, regular, decaying, hessian)
    out = np.zeros((2, 12 if hessian else 3, len(pts)))
    for lo in range(0, len(pts), _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        r, table = _angular_table(top, len(orders), pts[blk])
        _series_eval(kinds, orders, table, r ** np.arange(top + 2.0)[:, None], out[:, :, blk])
    return _grad_hess(out, xyz.shape, hessian)


def solid_harmonic_shells(n, m, regular, decaying, radii, unit, hessian: bool = False):
    """The (grad F, Hess F or None) of `solid_harmonic_series` at the points
    r * unit, one shell at a time, for each radius r of `radii`.

    `unit` holds unit directions (N, 3).  Their angular table (one Legendre
    column and cos/sin(a phi) per order a) is built once for all shells; each
    shell folds its r^k and r^-(k+1) into the per-order coefficient rows and
    costs one (rows x degrees) by (degrees x N) product per order.
    """
    unit = np.asarray(unit, dtype=float)
    kinds, top, orders = _series_orders(n, m, regular, decaying, hessian)
    _, table = _angular_table(top, len(orders), unit)
    for r in radii:
        out = np.zeros((2, 12 if hessian else 3, len(unit)))
        _series_eval(kinds, orders, table, r ** np.arange(top + 2.0), out)
        yield _grad_hess(out, unit.shape, hessian)


def surface_gradient_ylm(n: int, m: int, theta, phi) -> np.ndarray:
    """Surface gradient of Y_n^m on the unit sphere, tangential (..., 3).

    Computed as grad(r^n Y_n^m) - n Y_n^m nu restricted to r = 1, which is
    finite on the polar axis.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    nu = _unit_vectors(theta, phi)
    g = grad_solid_harmonic(n, m, nu)
    y = eval_ylm(n, m, theta, phi)
    return g - n * y[..., None] * nu


def _unit_vectors(theta, phi) -> np.ndarray:
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)


# ---------------------------------------------------------------------------
# vector harmonic families
# ---------------------------------------------------------------------------

def a_coeff(n: int, lame: "LameParams") -> complex:
    """Radial-mixing coefficient of the N family.

    (2(n-1) lam + 2(3n-2) mu) / ((n+2) lam + (n+4) mu); independent of the
    order m.  Complex Lame parameters pass through unchanged.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    den = (n + 2) * lame.lam + (n + 4) * lame.mu
    if den == 0:
        raise SingularParameterError(f"a_coeff denominator vanishes at n={n}")
    num = 2 * (n - 1) * lame.lam + 2 * (3 * n - 2) * lame.mu
    val = num / den
    return complex(val) if isinstance(val, complex) else float(val)


def eval_solid_mode(idx: ModeIndex, lame: "LameParams", xyz) -> np.ndarray:
    """Solid (volume) vector harmonic at Cartesian points (..., 3).

    T_n^m = grad(r^n Y_n^m) x x        (rotational, divergence free)
    M_n^m = grad(r^n Y_n^m)            (irrotational, divergence free)
    N_n^m = a_n r^{n-1} Y_{n-1}^m x + (1 - a_n/(2n-1) - r^2) grad(r^{n-1} Y_{n-1}^m)

    All three solve the homogeneous Lame system; T and M do not depend on
    the material.
    """
    xyz = np.asarray(xyz, dtype=float)
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


def eval_trace_mode(idx: ModeIndex, lame: "LameParams", theta, phi) -> np.ndarray:
    """Unit-sphere trace of the vector harmonic, as an angular field (..., 3):
    the one-order call of `trace_modes`.

    T_n^m = grad_S Y_n^m x nu
    M_n^m = grad_S Y_n^m + n Y_n^m nu
    N_n^m = (a_n/(2n-1)) (-grad_S Y_{n-1}^m + n Y_{n-1}^m nu)
    """
    nu = _unit_vectors(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    (mode,) = trace_modes(idx.family, idx.n, [idx.m], lame, nu.reshape(-1, 3))
    return mode.T.reshape(nu.shape)


def trace_modes(family: str, n: int, orders: Iterable[int], lame: "LameParams", unit) -> Iterator[np.ndarray]:
    """The traces of `eval_trace_mode` for (family, n, m) at unit points
    (N, 3), one complex (3, N) array per order m of `orders`, in turn.

    With l the scalar degree (n, or n - 1 for N), grad(r^l Y_l^m) at nu is a
    ladder combination (`_ladder_weights_regular`) of Y_{l-1}^{m-1..m+1}, so
    every order is one (3 x rows) by (rows x N) product with one real table of
    degree l - 1 (`_harmonic_table`), built once per call from the points
    themselves; it is crossed with nu for T.  For N, Y_l^m itself is
    nu . grad(r^l Y_l^m) / l on the sphere (Euler).  The modes are made one
    at a time, as the returned iterator is advanced, and only the consumer
    holds one.
    """
    nu = np.asarray(unit, dtype=float).T
    x, y, z = nu
    l = n - 1 if family == "N" else n
    table = _harmonic_table(l - 1, nu)
    a = a_coeff(n, lame) / (2 * n - 1) if family == "N" else None

    def mode(m: int) -> np.ndarray:
        w = np.zeros((3, len(table)), dtype=complex)
        for d, row in _ladder_weights_regular(l, m).items():
            for shift, c in row.items():
                if c != 0 and abs(m + shift) <= l - 1:
                    w[d] += c * _row_weights(l - 1, m + shift)
        g = _combine(w, table)  # grad(r^l Y_l^m) at nu
        if family == "T":
            return np.stack([g[1] * z - g[2] * y, g[2] * x - g[0] * z, g[0] * y - g[1] * x])
        if family == "M":
            return g
        ylm = (x * g[0] + y * g[1] + z * g[2]) / l if l else 1 / math.sqrt(4 * math.pi)
        return a * ((2 * n - 1) * ylm * nu - g)

    return map(mode, orders)


def trace_mode_norm_sq(idx: ModeIndex, lame: "LameParams") -> float:
    """Exact L^2(S)^3 norm squared of a trace mode on the unit sphere."""
    n = idx.n
    if idx.family == "T":
        return float(n * (n + 1))
    if idx.family == "M":
        return float(n * (2 * n + 1))
    a = a_coeff(n, lame)
    return abs(a) ** 2 * n / (2 * n - 1)


def gram_matrix(n_max: int, lame: "LameParams", rule) -> tuple[np.ndarray, list[ModeIndex]]:
    """Gram matrix of all trace modes up to degree n_max, by surface quadrature.

    `rule` must provide surface_nodes(radius) -> (points, weights); the rule
    should integrate polynomial products of degree 2*n_max exactly (warns
    otherwise).  Returns (G, modes) with the Hermitian matrix G ordered like
    `modes`.
    """
    if getattr(rule, "n_theta", n_max + 1) <= n_max:
        import warnings

        warnings.warn(
            f"quadrature rule with n_theta={rule.n_theta} is not exact for "
            f"mode products up to degree {2 * n_max}",
            RuntimeWarning,
            stacklevel=2,
        )
    modes = mode_indices(n_max)
    pts, w = rule.surface_nodes(1.0)
    vals = np.stack([mode for (fam, n), group in groupby(modes, key=lambda i: (i.family, i.n))
                     for mode in trace_modes(fam, n, [i.m for i in group], lame, pts)])
    # G[a, b] = sum_k w_k <mode_a(k), conj mode_b(k)>
    gram = np.einsum("aik,bik,k->ab", vals, vals.conj(), w)
    return gram, modes
