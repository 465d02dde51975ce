"""Scalar and vector spherical harmonics on spheres.

Provides orthonormal complex spherical harmonics (Condon-Shortley phase),
their surface gradients, and the three orthogonal vector-harmonic families
T/M/N that diagonalize the elastostatic Neumann-Poincare operator, from one
evaluator (`vector_modes`): the solid (volume) modes, whose values at unit
points are the trace (surface) modes.

Every evaluator reads one angle-free harmonic table (`_harmonic_columns`):
the (order x degree) Legendre table in z = cos theta, one degree recurrence
for all orders (`_legendre_table`), and the Re/Im (x + i y)^a rows; no angle
is formed, so it is exact on the polar axis and accurate next to it.
`solid_harmonic_series` builds a table per block of scattered points; `solid_harmonic_shells`
(every shell in one call, values at the rings times trig rows at the azimuths) and
`vector_modes` read the one table kept per product grid (rings, azimuths, 3), scattered points
as (N, 1) (`_grid_columns`); the series' weights, one kept (order x degree) `_weight_table`.
The seed's ladders through arccos/arctan2 (`eval_ylm`, `solid_harmonic`,
`grad_`/`hess_[ir]regular_solid_harmonic`) stay as the tests' reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .kelvin import LameParams

FAMILIES = ("T", "M", "N")


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
    def scalar_degree(self) -> int:
        """Degree of the scalar harmonic appearing in the trace."""
        return self.n - 1 if self.family == "N" else self.n


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

def _legendre_table(n: int, orders: range, z, st) -> np.ndarray:
    """Fully normalized associated Legendre P~_k^a(z), Condon-Shortley phase
    included, for the orders a of `orders` (a range in 0..n) and the degrees
    k = 0..n: shape (len(orders), n + 1) + z.shape, entry [a - orders.start,
    k], zero below the diagonal (k < a).  The sectoral seeds P~_a^a are one
    running product in st, then the upward three-term recurrence in the
    degree with prenormalized coefficients (the column recurrence of Holmes &
    Featherstone, J. Geodesy 2002, without their underflow scaling; stable to
    n of a few hundred) steps every order at once: step j gives the degree
    a + j of each order a."""
    shape = np.shape(z)
    z = np.reshape(z, (1, -1)).astype(float, copy=False)
    lo = orders.start
    count = len(orders)
    a = np.arange(lo, orders.stop, dtype=float)[:, None]
    k = np.arange(1.0, orders.stop)[:, None]
    seed = np.empty((orders.stop, z.size))
    seed[:1] = 1.0 / math.sqrt(4.0 * math.pi)
    seed[1:] = -np.sqrt((2 * k + 1) / (2 * k)) * np.reshape(st, -1)
    # Order row i holds the degrees 0..n + count, and skew[i, j] (rows one longer) is its
    # degree lo + i + j: the steps past degree n stay in the row, and k < a stays zero
    width = n + count + 1
    buf = np.zeros((lo + count * (width + 1)) * z.size)
    skew = buf[lo * z.size:].reshape(count, width + 1, z.size)
    # the degrees k = a + j of the steps j = 1..n - lo + 1: a_k at j, and b_(k + 1) for step j + 1
    k = a + np.arange(1.0, n - lo + 2)[:, None, None]
    num = 4 * k * k - 1
    den = k * k - a * a
    ak = np.sqrt(num / den)  # sqrt(2a + 3) exactly at j = 1
    bk = np.sqrt(den / num)
    skew[:, 0] = np.cumprod(seed, axis=0)[lo:]
    skew[:, 1] = ak[0] * z * skew[:, 0]
    cols = list(skew.swapaxes(0, 1))
    for p, p1, p2, a, b in zip(cols[2:n - lo + 1], cols[1:], cols, ak[1:], bk):  # step j: columns j, j - 1, j - 2
        np.multiply(z, p1, p)
        p -= b * p2
        p *= a
    out = buf[:count * width * z.size].reshape(count, width, z.size)[:, :n + 1]
    return out.reshape((count, n + 1) + shape)


def _norm_legendre(n: int, m: int, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre P~_n^m for m >= 0: the (m, n)
    entry of `_legendre_table`, with the recurrence run for order m alone."""
    return _legendre_table(n, range(m, m + 1), ct, st)[0, n]


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


def _harmonic_columns(top: int, nu, count: int, st=1.0):
    """The harmonic table at unit points nu = (x, y, z) of shape (3, N) for
    the orders a < count (<= top + 1): (legendre, trig) with Y_k^a =
    legendre[a, k] (trig[a, 0] + i trig[a, 1]), k = a..top.  No angles:
    legendre[a, k] = P~_k^a(z) / sin^a theta (`_legendre_table` seeded with
    st = 1) and trig[a] = Re/Im (x + i y)^a, a running product; seeded with
    st = sin theta, legendre is P~_k^a(z) and x, y are cos phi, sin phi."""
    x, y, z = nu
    trig = np.zeros((count, 2, len(x)))
    trig[:1, 0] = 1.0  # no rows for count = 0
    for a in range(1, count):
        re, im = trig[a - 1]
        trig[a] = re * x - im * y, re * y + im * x
    return _legendre_table(top, range(count), z, st), trig


def _row_weights(l: int, q) -> np.ndarray:
    """Complex weights c, shape q.shape + (2l + 2,), with Y_l^q = c @ rows for
    each order of the int array q, where rows[2a] + i rows[2a + 1] = P~_l^a
    (x + i y)^a / sin^a theta, a = 0..l (as `vector_modes` builds them); zero for |q| > l."""
    q = np.asarray(q)[..., None]
    a, row = np.abs(q), np.arange(2 * l + 2)
    sign = np.where(q < 0, (-1.0) ** a, 1.0)
    return sign * ((row == 2 * a) + 1j * np.sign(q) * (row == 2 * a + 1))


# ---------------------------------------------------------------------------
# Cartesian gradient ladders (pole-safe)
# ---------------------------------------------------------------------------
# Both weight sets are closed forms in (n, m), evaluated elementwise over int
# arrays n and m as W[component, s + 1] (+ n.shape): the weight of the
# harmonic of order m + s, s = -1, 0, 1.  The square roots are of integer
# products that go negative only where that harmonic does not exist; `_root`
# makes their weight 0, never NaN.

def _root(v):
    return np.sqrt(np.maximum(v, 0))


def _ladder_weights(n, m, decaying: bool) -> np.ndarray:
    """d/dx_d (r^n Y_n^m) (regular) or d/dx_d (Y_n^m / r^(n+1)) (decaying)
    as W[d, s + 1] on the solid harmonics of degree n - 1 or n + 1 and order
    m + s: the standard ladder weights of the orthonormal Condon-Shortley
    convention, pinned against finite differences in the test suite.  A
    decaying term is r^N Y_n^m at N = -(n + 1), and its weights are the
    regular ones at degree N, the z weight negated; regular n = 0 has none."""
    N = -(n + 1) if decaying else n
    c = _root((2 * N + 1) / (2 * N - 1.0))
    z = c * _root((N - m) * (N + m))
    up = c * _root((N - m) * (N - m - 1))
    down = -c * _root((N + m) * (N + m - 1))
    w = np.zeros((3, 3) + z.shape, dtype=complex)
    w[0, 0], w[0, 2] = down / 2.0, up / 2.0
    w[1, 0], w[1, 2] = 0.5j * down, -0.5j * up
    w[2, 1] = -z if decaying else z
    return w


def _rotation_weights(n, m) -> np.ndarray:
    """grad(f) x x = -i L f for f = r^n Y_n^m or Y_n^m / r^(n+1), as
    W[component, s + 1] on f's radial factor times Y_n^(m+s) (angular
    momentum: L_z Y_n^m = m Y_n^m, L_+- Y_n^m = sqrt((n -+ m)(n +- m + 1))
    Y_n^(m+-1))."""
    up, down = _root((n - m) * (n + m + 1)), _root((n + m) * (n - m + 1))
    w = np.zeros((3, 3) + up.shape, dtype=complex)
    w[0, 0], w[0, 2] = -0.5j * down, -0.5j * up
    w[1, 0], w[1, 2] = 0.5 * down, -0.5 * up
    w[2, 1] = -1j * m
    return w


def _ladder(n: int, m: int, decaying: bool):
    """(d, shift, weight) of the nonzero `_ladder_weights` of one mode."""
    w = _ladder_weights(n, m, decaying)
    return [(d, k - 1, w[d, k]) for d, k in np.argwhere(w).tolist()]


def grad_solid_harmonic(n: int, m: int, xyz) -> np.ndarray:
    """Cartesian gradient of r^n Y_n^m, shape (..., 3); entire in x."""
    xyz = np.asarray(xyz, dtype=float)
    out = np.zeros(xyz.shape, dtype=complex)
    cache = {}
    for d, shift, coeff in _ladder(n, m, False):
        if abs(m + shift) > n - 1:
            continue
        if shift not in cache:
            cache[shift] = solid_harmonic(n - 1, m + shift, xyz)
        out[..., d] += coeff * cache[shift]
    return out


def grad_irregular_solid_harmonic(n: int, m: int, xyz) -> np.ndarray:
    """Cartesian gradient of Y_n^m / r^(n+1), shape (..., 3); r > 0."""
    xyz = np.asarray(xyz, dtype=float)
    out = np.zeros(xyz.shape, dtype=complex)
    cache = {}
    for d, shift, coeff in _ladder(n, m, True):
        if shift not in cache:
            cache[shift] = irregular_solid_harmonic(n + 1, m + shift, xyz)
        out[..., d] += coeff * cache[shift]
    return out


def hess_solid_harmonic(n: int, m: int, xyz) -> np.ndarray:
    """Hessian of r^n Y_n^m, shape (..., 3, 3); traceless and symmetric."""
    xyz = np.asarray(xyz, dtype=float)
    out = np.zeros(xyz.shape + (3,), dtype=complex)
    cache = {}
    for j, s1, c1 in _ladder(n, m, False):
        if abs(m + s1) > n - 1:
            continue
        for i, s2, c2 in _ladder(n - 1, m + s1, False):
            mm = m + s1 + s2
            if abs(mm) > n - 2:
                continue
            if mm not in cache:
                cache[mm] = solid_harmonic(n - 2, mm, xyz)
            out[..., i, j] += c1 * c2 * cache[mm]
    return out


def hess_irregular_solid_harmonic(n: int, m: int, xyz) -> np.ndarray:
    """Hessian of Y_n^m / r^(n+1), shape (..., 3, 3); r > 0."""
    xyz = np.asarray(xyz, dtype=float)
    out = np.zeros(xyz.shape + (3,), dtype=complex)
    cache = {}
    for j, s1, c1 in _ladder(n, m, True):
        for i, s2, c2 in _ladder(n + 1, m + s1, True):
            mm = m + s1 + s2
            if mm not in cache:
                cache[mm] = irregular_solid_harmonic(n + 2, mm, xyz)
            out[..., i, j] += c1 * c2 * cache[mm]
    return out


# ---------------------------------------------------------------------------
# batched T field of a solid-harmonic series
# ---------------------------------------------------------------------------

# Points per Legendre block: large enough for BLAS, small enough that the
# real (degrees x points) blocks stay a few hundred kB.
_BLOCK = 256
_weights = [-1, -1, 0, None, None]  # `_weight_table`'s (orders, degrees, kinds) held, rot, grad


def _weight_table(q_max: int, n_max: int, gradient: bool):
    """`_series_orders`' weights on the dense grid of orders q = -q_max..q_max and degrees 0..n_max:
    rot [s1 + 1, q, i, n] of u_i on order q + s1 (`_rotation_weights`) and grad [kind, s + 2, q,
    3 i + j, n] of d_j u_i on order q + s (the paths s1 + s2 = s of rot times `_ladder_weights`
    summed; no kinds before a gradient call).  One table is kept, rebuilt only for more than it
    holds: each weight is a closed form in (n, q), so its read-only slices equal a fresh one."""
    held = np.maximum(_weights[:3], (q_max, n_max, 2 * gradient)).tolist()
    if held != _weights[:3]:
        n, q = np.arange(held[1] + 1), np.arange(-held[0], held[0] + 1)[:, None]
        w = _rotation_weights(n, q)  # [i, s1 + 1, q, n]
        g = np.zeros((held[2], 3, 3, 5) + w.shape[2:], dtype=complex)  # [kind, i, j, s + 2, q, n]
        for kind in range(held[2]):
            ladder = _ladder_weights(n, q + np.arange(-1, 2)[:, None, None], bool(kind))  # [j, s2 + 1, s1 + 1, q, n]
            for s1 in (-1, 0, 1):
                g[kind, :, :, s1 + 1:s1 + 4] += w[:, None, s1 + 1, None] * ladder[:, :, s1 + 1]
        w.flags.writeable = g.flags.writeable = False  # and so every view of them handed out
        _weights[:] = *held, w.transpose(1, 2, 0, 3), g.reshape((len(g), 9) + g.shape[3:]).transpose(0, 2, 3, 1, 4)
    return tuple(t[..., held[0] - q_max:held[0] + q_max + 1, :, :n_max + 1] for t in _weights[3:])


def _series_orders(n, m, regular, decaying, gradient: bool):
    """Coefficient stages of a solid-harmonic series: the weights of u on the
    harmonics of degree n and order m + s1 and of grad u on degree n -+ 1 and
    order m + s1 + s2 (`_weight_table`) times the coefficients of each kind on
    a dense (order, degree) grid (the (n, m) of a spectrum are distinct), added
    into one row per (kind, degree, order) one shift at a time; then the orders
    +-a recombined into the real rows of order a <= q_max + 1 (+ 2 with the
    gradient) and <= top.  Coefficients of shape (sets, modes) give each set its
    own components, set-major along the component axis, so one table and one
    contraction serve every set.  Returns (kinds present, top, sets shape, coef)
    with coef of shape (order a, Re/Im (x + i y)^a part, re/im, set x component,
    kind, degree k = 0..top), zero for k < a and for the Im part of order 0."""
    ncomp, step = (12, 2) if gradient else (3, 1)
    n, m = np.asarray(n, dtype=int), np.asarray(m, dtype=int)
    coeffs = (regular, decaying)
    kinds = [kind for kind in (0, 1) if coeffs[kind] is not None and n.size]
    sets = next((np.shape(c)[:-1] for c in coeffs if c is not None), ())
    q_max = int(np.abs(m).max(initial=0))
    n_max = int(n.max(initial=0))
    top = n_max + step - 1  # highest degree reached (grad u of a decaying term)
    # rows[kind, q + q_max + 2, set, comp, k + 2]: weight of the solid
    # harmonic of degree k and order q in component comp of one set
    rows = np.zeros((2, 2 * q_max + 5, math.prod(sets), ncomp, n_max + 5), dtype=complex)
    rot, grad = _weight_table(q_max, n_max, gradient)
    for kind in kinds:
        c = np.zeros((2 * q_max + 1, math.prod(sets), 1, n_max + 1), dtype=complex)  # [q + q_max, set, 1, n]
        c[m + q_max, :, 0, n] = np.reshape(coeffs[kind], (-1, n.size)).T
        for s1, w in enumerate(c * rot[:, :, None], -1):  # w[q + q_max, set, i, n], onto order q + s1
            rows[kind, s1 + 2:s1 + 2 * q_max + 3, :, :3, 2:n_max + 3] += w
        for s, w in enumerate(c * grad[kind][:, :, None] if gradient else (), -2):  # onto degree n -+ 1
            rows[kind, s + 2:s + 2 * q_max + 3, :, 3:, 1 + 2 * kind:n_max + 2 + 2 * kind] += w
    # Orders +-a share P~_k^a (Y_k^-a = (-1)^a P~_k^a exp(-i a phi)) and
    # combine into real rows for the Re and Im (x + i y)^a parts.
    a = np.arange(min(q_max + step, top) + 1 if kinds else 0)
    rows = rows.reshape(rows.shape[:2] + (-1, n_max + 5))[  # (kind, order +a or -a, comp, degree)
        np.array(kinds, dtype=int)[:, None, None], q_max + 2 + np.stack([a, -a]), :, 2:top + 3]
    plus = rows[:, 0]
    minus = np.where(a > 0, (-1.0) ** a, 0.0)[:, None, None] * rows[:, 1]
    coef = np.stack([plus + minus, 1j * (plus - minus)], axis=2)  # (kind, order, part, comp, degree)
    coef[:, :1, 1] = 0.0
    coef = np.stack([coef.real, coef.imag], axis=3).transpose(1, 2, 3, 4, 0, 5)
    return kinds, top, sets, np.ascontiguousarray(coef)


def _radial(kinds: list, coef: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(kind, degree k, radius) factors r^k (regular) and (1/r)^(k+1) (decaying,
    underflowing where r^(k+1) overflows), formed only at the (kind, degree)
    rows of `coef` that hold a coefficient: zero rows past the float range stay 0."""
    live = coef.any(axis=tuple(range(coef.ndim - 2)))
    out = np.zeros(live.shape + r.shape)
    for f, kind, on in zip(out, kinds, live):
        np.power(1 / r if kind else r, np.arange(live.shape[1])[:, None] + kind, out=f, where=on[:, None])
    return out


def _unit_and_radius(pts: np.ndarray):
    """(x / |x| as coordinate rows (3, N), |x|) of points (N, 3); the origin
    gets the unit vector z-hat, where every term a regular series keeps
    (r^0 Y_0^0) is constant."""
    x, y, z = pts.T
    r = np.sqrt(x * x + y * y + z * z)  # np.linalg.norm(pts, axis=-1) bit for bit, ~4x faster
    unit = np.divide(pts.T, r, out=np.zeros((3, len(r))), where=r > 0)
    unit[2, r == 0] = 1.0
    return unit, r


def solid_harmonic_series(n, m, regular, decaying, xyz, gradient: bool = False):
    """The T field u = grad F x x of the scalar potential
    F = sum c_n^m r^n Y_n^m + sum d_n^m Y_n^m / r^(n+1) at points (..., 3),
    and grad u ([..., i, j] = d_j u_i) if asked.

    `regular` and `decaying` are the coefficient arrays c and d, aligned with
    the integer arrays of degrees `n` and orders `m`; None drops that kind.
    u = -i L F is read off harmonics of the same degrees (`_rotation_weights`);
    a cross product would cancel the radial part of grad F in the last
    digits.  The weights of every mode are summed into real rows per order
    |m| (`_series_orders`); per block of points they meet the uncached
    `_harmonic_columns` at x / r in one contraction over (kind, degree).
    Returns (u (..., 3), grad u (..., 3, 3) or None), complex.  Decaying
    terms need r > 0.
    """
    xyz = np.asarray(xyz, dtype=float)
    pts = xyz.reshape(-1, 3)
    kinds, top, sets, coef = _series_orders(n, m, regular, decaying, gradient)
    out = np.zeros((2, math.prod(sets) * (12 if gradient else 3), len(pts)))
    for lo in range(0, len(pts) if kinds else 0, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        unit, r = _unit_and_radius(pts[blk])
        legendre, trig = _harmonic_columns(top, unit, len(coef))
        radial = legendre[:, None] * _radial(kinds, coef, r)
        orders, nkinds, degrees, points = radial.shape
        val = np.matmul(coef.reshape(orders, -1, nkinds * degrees), radial.reshape(orders, -1, points))
        out[:, :, blk] = np.einsum("apicn,apn->icn", val.reshape(orders, 2, 2, -1, points), trig)
    out = np.moveaxis((out[0] + 1j * out[1]).reshape(math.prod(sets), -1, len(pts)), 1, -1)
    return out[..., :3].reshape(sets + xyz.shape), out[..., 3:].reshape(sets + xyz.shape + (3,)) if gradient else None


_GRID_TABLES = 4  # grids whose tables `_grid_columns` keeps, the last used; a workload reads two at most
_grid_tables = {}  # key -> ((top, count), legendre, trig)


def _grid_table(top: int, unit: np.ndarray, count: int):
    """The table of `_grid_columns`, built anew."""
    if unit.shape[1] == 1:
        legendre, trig = _harmonic_columns(top, unit[:, 0].T, count)
        return (legendre[:, None] * trig[:, :, None]).reshape(2 * count, top + 1, len(unit)), np.ones((2 * count, 1))
    st = np.hypot(unit[:, 0, 0], unit[:, 0, 1])
    w = np.argmax(st)
    phi = unit[w, :, :2] / st[w] if st[w] else np.tile([1.0, 0.0], (unit.shape[1], 1))
    legendre, trig = _harmonic_columns(top, (*phi.T, unit[:, 0, 2]), count, st)
    return np.repeat(legendre, 2, axis=0), trig.reshape(2 * count, unit.shape[1])


def _grid_columns(top: int, unit: np.ndarray, count: int):
    """`_harmonic_columns` on a product grid `unit` (rings, azimuths, 3), each ring
    at one z: (legendre, trig) of shapes (2 count, top + 1, rings) and (2 count,
    azimuths), Y_k^a at (ring i, azimuth j) the sum over the Re/Im parts p of
    (1, i)[p] legendre[2a + p, k, i] trig[2a + p, j]; seeded with each ring's
    sin theta, at the widest ring's azimuths (phi = 0 on the axis, where P~_k^a
    = 0 for a > 0).  An (N, 1) grid keeps each point's own azimuth: legendre is
    P~_k^a / sin^a theta times Re/Im (x + i y)^a, trig 1.

    One table per grid, keyed on the nodes it reads (each ring's first, the widest ring), kept for
    the last `_GRID_TABLES` grids and rebuilt only for more degrees or orders than it holds: the
    recurrences run upward in both, so its read-only slices equal a fresh table bit for bit."""
    w = np.argmax(np.hypot(unit[:, 0, 0], unit[:, 0, 1])) if unit.size else 0  # the widest ring
    key = unit.shape, unit[:, 0].tobytes(), unit[w].tobytes() if unit.size else b""
    held, legendre, trig = _grid_tables.pop(key, ((-1, 0), None, None))
    if top > held[0] or count > held[1]:
        held = max(top, held[0]), max(count, held[1])
        legendre, trig = _grid_table(held[0], unit, held[1])
        legendre.setflags(write=False)
        trig.setflags(write=False)
    _grid_tables[key] = held, legendre, trig
    if len(_grid_tables) > _GRID_TABLES:
        del _grid_tables[next(iter(_grid_tables))]
    return legendre[:2 * count, :top + 1], trig[:2 * count]


def solid_harmonic_shells(n, m, regular, decaying, radii, unit, gradient: bool = False, combine=None):
    """The field of `solid_harmonic_series` at r * unit, one shell per radius r of `radii`, on a
    product grid `unit` (rings, azimuths, 3), each ring at one z, factored as (values, trig):
    component c at (shell, ring, azimuth) is values[..., c, shell, ring, :] @ trig[:, azimuth],
    values complex of shape sets + (components, shells, rings, parts) and trig the Re/Im
    (cos phi + i sin phi)^a rows (parts, azimuths) of `_grid_columns`.  The components are u,
    then grad u ([3 + 3 i + j] = d_j u_i) if asked, or the rows of a real (K, components)
    `combine`, applied to the coefficients.  Coefficients (sets, modes) give the sets axis."""
    unit, radii = np.asarray(unit, dtype=float), np.asarray(radii, dtype=float)
    kinds, top, sets, coef = _series_orders(n, m, regular, decaying, gradient)
    part = np.arange(2 * len(coef)) != 1  # the Re/Im (cos phi + i sin phi)^a parts but Im of a = 0, which is 0
    legendre, trig = (t[part] for t in _grid_columns(top, unit, len(coef)))
    coef = coef.reshape((2 * len(coef), 2, math.prod(sets), 12 if gradient else 3) + coef.shape[-2:])[part]
    coef = coef if combine is None else np.einsum("kc,prscnd->prsknd", combine, coef)
    parts, _, nsets, comps, _, degrees = coef.shape  # every size explicit: an empty spectrum has no parts
    rows = nsets * comps * len(radii)  # set x component x shell
    radial = _radial(kinds, coef, radii).transpose(1, 0, 2)  # (degree, kind, shell)
    val = np.moveaxis(coef, -1, 0).reshape(degrees, 2 * parts * nsets * comps, len(kinds))
    val = val * radial if len(kinds) == 1 else val @ radial  # one kind: the same products, no matmul per degree
    out = legendre.swapaxes(1, 2) @ val.reshape(degrees, parts, 2 * rows).swapaxes(0, 1)  # (part, ring, re/im x rows)
    out = np.ascontiguousarray(out.reshape(parts, len(unit), 2, rows).transpose(3, 1, 0, 2)).view(complex)
    return out.reshape(sets + (comps, len(radii), len(unit), parts)), trig


def _unit_vectors(theta, phi) -> np.ndarray:
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)


# ---------------------------------------------------------------------------
# vector harmonic families
# ---------------------------------------------------------------------------

def a_coeff(n, lame: "LameParams"):
    """Radial-mixing coefficient of the N family, elementwise in n.

    (2(n-1) lam + 2(3n-2) mu) / ((n+2) lam + (n+4) mu); independent of the
    order m.  It is formed in t = lam / mu, so it depends on the material's
    ratio alone, to the last bit.  Complex Lame parameters pass through
    unchanged; an int n gives a Python float (complex for a complex pair).
    """
    if (np.asarray(n) < 1).any():
        raise ValueError("n must be >= 1")
    t = lame.lam / lame.mu
    den = (n + 2) * t + (n + 4)
    if np.any(den == 0):
        raise SingularParameterError(f"a_coeff denominator vanishes at n={np.extract(den == 0, n)}")
    val = (2 * (n - 1) * t + 2 * (3 * n - 2)) / den
    if np.ndim(n):
        return val
    return complex(val) if np.iscomplexobj(val) else float(val)


def _mode_rows(family: str, n: int, orders: Iterable[int], unit, r=1.0):
    """`vector_modes` factored on one table (`_grid_columns`): (g, y, trig), g (orders, 3, rings,
    rows) the rows of T_n^m, M_n^m or N's grad(r^l Y_l^m), a value g[k, c, ring] @ trig[:rows,
    azimuth]; y those of r^l Y_l^m for N (no rows for T, M); trig the Re/Im (cos phi + i sin phi)^a rows."""
    l = n - 1 if family == "N" else n
    orders = np.array(list(orders), dtype=int)
    shifted = orders[:, None] + np.arange(-1, 2)  # the orders m + s the weights reach
    if family == "T":
        degree, weights = n, _rotation_weights(n, orders)
    else:
        degree, weights = l - 1, _ladder_weights(l, orders, False)
    count = min(int(np.abs(shifted).max(initial=0)), degree) + 1  # the orders the weights reach
    # w[mode, component, 1, row]: the weights on the rows of the table
    w = np.einsum("dsk,ksr->kdr", weights, _row_weights(degree, shifted)[..., :2 * count])[:, :, None]
    ycount = int(np.abs(orders).max(initial=0)) + 1 if family == "N" else 0
    legendre, trig = _grid_columns(l if family == "N" else max(degree, 0), unit, max(count, ycount))
    g = w * (legendre[:2 * count, degree].T * r ** max(degree, 0))  # (ring, row) factor of that degree
    return g, _row_weights(l, orders)[:, None, :2 * ycount] * (legendre[:2 * ycount, -1].T * r ** l), trig


def vector_modes(family: str, n: int, orders: Iterable[int], lame: "LameParams", unit, r=1.0) -> np.ndarray:
    """The solid vector harmonics (family, n, m) at the points r * unit, on a
    product grid `unit` of unit vectors (rings, azimuths, 3), each ring at one
    z, and r one radius per ring (a scalar or shape (rings, 1)): complex of
    shape (orders, 3, rings x azimuths), the orders m of `orders` in request
    order.  At r = 1 they are the traces on the unit sphere.

    T_n^m = grad(r^n Y_n^m) x x        (rotational, divergence free)
    M_n^m = grad(r^n Y_n^m)            (irrotational, divergence free)
    N_n^m = a_n r^{n-1} Y_{n-1}^m x + (1 - a_n/(2n-1) - r^2) grad(r^{n-1} Y_{n-1}^m)

    All three solve the homogeneous Lame system; T and M do not depend on
    the material.  T_n^m = -i L (r^n Y_n^m) is `_rotation_weights` on degree
    n; with l the scalar degree (n, or n - 1 for N), grad(r^l Y_l^m) is
    `_ladder_weights` on degree l - 1, and r^l Y_l^m = x . grad(r^l Y_l^m) / l
    (Euler).  Each mode is one product of `_mode_rows`' (component x ring,
    row) coefficients by its (row, azimuth) trig rows, from one table."""
    unit = np.asarray(unit, dtype=float)
    rings, azimuths, _ = unit.shape
    g, _, trig = _mode_rows(family, n, orders, unit, r)
    g = np.array([(c.reshape(3 * rings, -1) @ trig[:c.shape[-1]]) for c in g]).reshape(len(g), 3, rings, azimuths)
    if family == "N":
        l, a, nu = n - 1, a_coeff(n, lame), np.moveaxis(unit, -1, 0)
        y = r * np.sum(nu * g, axis=1, keepdims=True) / l if l else 1 / math.sqrt(4 * math.pi)  # r^l Y_l^m
        g = a * r * y * nu + (1.0 - a / (2 * n - 1) - r * r) * g
    return g.reshape(len(g), 3, rings * azimuths)


def eval_solid_mode(idx: ModeIndex, lame: "LameParams", xyz) -> np.ndarray:
    """Solid vector harmonic at points (..., 3): `vector_modes` on the (N, 1) grid x / |x|, r per ring."""
    xyz = np.asarray(xyz, dtype=float)
    unit, r = _unit_and_radius(xyz.reshape(-1, 3))
    (mode,) = vector_modes(idx.family, idx.n, [idx.m], lame, unit.T[:, None], r[:, None])
    return mode.T.reshape(xyz.shape)


def eval_trace_mode(idx: ModeIndex, lame: "LameParams", theta, phi) -> np.ndarray:
    """Unit-sphere trace of the vector harmonic, as an angular field (..., 3):
    the solid mode at the unit vectors.

    T_n^m = grad_S Y_n^m x nu
    M_n^m = grad_S Y_n^m + n Y_n^m nu
    N_n^m = (a_n/(2n-1)) (-grad_S Y_{n-1}^m + n Y_{n-1}^m nu)
    """
    nu = _unit_vectors(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    return eval_solid_mode(idx, lame, nu)


def trace_mode_norm_sq(family: str, n, lame: "LameParams"):
    """Exact L^2(S)^3 norm squared of the trace modes (family, n) on the unit
    sphere, any order; elementwise in n (a float for an int n)."""
    if family == "T":
        val = n * (n + 1.0)
    elif family == "M":
        val = n * (2.0 * n + 1)
    elif family == "N":
        val = abs(a_coeff(n, lame)) ** 2 * n / (2 * n - 1)
    else:
        raise ValueError(f"unknown family {family!r}")
    return val if np.ndim(n) else float(val)


def gram_matrix(n_max: int, lame: "LameParams", rule) -> tuple[np.ndarray, list[ModeIndex]]:
    """Gram matrix of all trace modes up to degree n_max, by surface quadrature.

    `rule` is an `oracle.QuadratureRule`, its surface nodes the (n_theta, n_phi)
    grid; it should integrate polynomial products of degree 2*n_max exactly
    (warns otherwise).  Returns (G, modes), the Hermitian G ordered like `modes`.
    """
    if rule.n_theta <= n_max:
        warnings.warn(f"quadrature rule with n_theta={rule.n_theta} is not exact for mode products up to "
                      f"degree {2 * n_max}", RuntimeWarning, stacklevel=2)
    modes = mode_indices(n_max)
    pts, w = rule.surface_nodes(1.0)
    vals = np.concatenate([vector_modes(fam, n, [i.m for i in group], lame, pts.reshape(rule.n_theta, -1, 3))
                           for (fam, n), group in groupby(modes, key=lambda i: (i.family, i.n))])
    # G[a, b] = sum_k w_k <mode_a(k), conj mode_b(k)>
    gram = np.einsum("aik,bik,k->ab", vals, vals.conj(), w)
    return gram, modes
