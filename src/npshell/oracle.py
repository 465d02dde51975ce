"""Independent brute-force checks: sphere quadrature of the single layers
and the principal-value Neumann-Poincare action, finite-difference Lame
residuals and tractions, and shell-volume energy quadrature.

Nothing here reuses the closed forms it is meant to check: layer potentials
are integrated from the raw kernels, differential operators are applied by
central differences (one product stencil, one call of a field mapping
points (S, 3) to values (S, 3) per derivative), and energies come from
strain densities on a volume grid.  Reductions are correctly rounded sums
(`math.fsum`), so repeated runs are bit-identical.

The scalar and elastic single layers and the N-P operator share one
routine (`_pole_frame`): on the sphere each kernel is a combination of
material-free blocks built once per rule and radius with the target at the
pole, and the multiplier and its projection residual are read off the pole
integrals of the modes of one degree, summed ring by ring on the blocks'
azimuth moments.  The residual sees modes mixed in by the rule (N-P, M_6^3
on an 8x16 rule: 4.4e-4), not an error that keeps the mode's shape (N-P,
T_6^3 on 8x16: eigenvalue off by 2.3e-3, residual 1.6e-17).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .harmonics import ModeIndex, _grid_columns, _mode_rows, a_coeff
from .kelvin import KernelCoeffs, LameParams, k1_kernel, k2_parts
from .transmission import ShellGeometry


class NonEigenfunctionError(RuntimeError):
    """The projection residual of a supposed eigenfunction is too large."""


def fsum_c(values: np.ndarray) -> complex | np.ndarray:
    """Correctly rounded sum over the last axis, real and imaginary parts
    apart: `math.fsum` (Shewchuk's algorithm) row by row, so independent of
    the order and the memory layout.  1-D input gives a complex."""
    a = np.asarray(values)
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
    re, im = (np.array([math.fsum(row.tolist()) for row in part]) for part in (rows.real, rows.imag))
    out = (re + 1j * im).reshape(a.shape[:-1])
    return complex(out) if out.ndim == 0 else out


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = np.polynomial.legendre.leggauss(n)
    return tuple(x.tolist()), tuple(w.tolist())


@dataclass(frozen=True)
class QuadratureRule:
    """Product rule on the sphere: n_theta Gauss-Legendre colatitude nodes
    times n_phi uniform azimuth nodes (n_phi >= 2 n_theta).

    surface_nodes places the Gauss nodes in cos(theta), which integrates
    spherical polynomials of degree <= 2 n_theta - 1 exactly.  polar_nodes
    places them in theta itself, which is the right variable once a weak
    |x-y|^-1 singularity has been rotated to the pole (the integrand is then
    analytic in theta).
    """

    n_theta: int = 64
    n_phi: int = 128

    def __post_init__(self):
        if self.n_theta < 1:
            raise ValueError(f"need n_theta >= 1 colatitude nodes, got n_theta={self.n_theta}")
        if self.n_phi < 2 * self.n_theta:
            raise ValueError("need n_phi >= 2 n_theta for azimuthal resolution")

    def surface_nodes(self, radius: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        pts, w = _unit_nodes(self, polar=False)
        return (radius * pts).reshape(-1, 3), w * radius**2

    def polar_nodes(self, radius: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        pts, w = _unit_nodes(self, polar=True)
        return (radius * pts).reshape(-1, 3), w * radius**2


@lru_cache(maxsize=32)
def _unit_nodes(rule: QuadratureRule, polar: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only unit-sphere nodes of one rule and kind, as the product grid
    (n_theta rings, n_phi azimuths, 3), and their weights, flattened (N,).

    Cached per rule, not per radius: callers scale by the radius, in the
    order that keeps the scaled nodes bit-identical to building them anew.
    """
    x, w = _leggauss(rule.n_theta)
    if polar:
        theta = (np.asarray(x) + 1.0) * (np.pi / 2)
        wtheta = np.asarray(w) * (np.pi / 2) * np.sin(theta)
    else:
        theta, wtheta = np.arccos(np.asarray(x)), np.asarray(w)
    phi = 2 * np.pi * np.arange(rule.n_phi) / rule.n_phi
    T, P = np.meshgrid(theta, phi, indexing="ij")
    weights = np.repeat(wtheta, rule.n_phi) * (2 * np.pi / rule.n_phi)
    st, ct = np.sin(T), np.cos(T)
    pts = np.stack([st * np.cos(P), st * np.sin(P), ct], axis=-1)
    pts.setflags(write=False)
    weights.setflags(write=False)
    return pts, weights


def quad_surface_integral(f: Callable, rule: QuadratureRule, radius: float = 1.0) -> complex:
    """Integrate f(points (N,3)) -> (N,) over the sphere of given radius."""
    pts, w = rule.surface_nodes(radius)
    return fsum_c(np.asarray(f(pts)) * w)


_POLE = np.array([0.0, 0.0, 1.0])
_RESIDUAL_TOL = 1e-4  # projection residual above which a pole-frame check raises


@lru_cache(maxsize=4)
def _pole_blocks(rule: QuadratureRule, r0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only material-free kernel blocks of `_pole_frame`, target at the pole r0 z-hat,
    weighted on the rule's polar nodes: K1 w and B w as (3, 3, N), and a w as (N,)."""
    p, w = rule.polar_nodes(r0)
    a, b = k2_parts(r0 * _POLE, p)
    blocks = (*(np.moveaxis(k * w[:, None, None], 0, -1).copy() for k in (k1_kernel(r0 * _POLE, p, _POLE), b)), a * w)
    for block in blocks:
        block.setflags(write=False)
    return blocks


@lru_cache(maxsize=16)
def _pole_moments(rule: QuadratureRule, r0: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sums over each ring's azimuths of the `_pole_blocks` K1 w, a w I and B w, [i, j] with
    j = 3 the block times nu, against the Re/Im (cos phi + i sin phi)^a rows a < count of the rule's
    polar grid, as (kernel, i, j, ring, row), one block row at a time; and s = sum K1 w (nu - z-hat)."""
    unit = _unit_nodes(rule, polar=True)[0]
    nu, trig = unit.reshape(-1, 3).T, _grid_columns(count - 1, unit, count)[1].T  # the table's trig rows alone
    k1w, bw, aw = _pole_blocks(rule, r0)
    moments = np.array([[np.concatenate([x, np.sum(x * nu, axis=0)[None]]).reshape((4,) + unit.shape[:2]) @ trig
                         for x in (k1w[i], np.eye(3)[i, :, None] * aw, bw[i])] for i in range(3)]).swapaxes(0, 1)
    s = fsum_c(np.einsum("ijn,jn->in", k1w, nu - _POLE[:, None])).real
    for out in (moments, s):
        out.setflags(write=False)
    return moments, s


def _pole_frame(idx: ModeIndex, lame: LameParams, rule: QuadratureRule, r0: float, k1: complex, ka: complex,
                kb: complex, operator: str) -> tuple[complex, float]:
    """Multiplier of the surface operator with kernel k1 K1 + ka a I + kb B on
    the sphere of radius r0, estimated on one trace mode, and the relative L2
    residual of its action orthogonal to the mode.

    K1, a and B are the material-free blocks of `_pole_blocks`, with the
    target at the pole r0 z-hat and d = r0 z-hat - p for the rule's polar
    nodes p: a = 1/(8 pi r0 |d|), B = a d d^t / |d|^2, and K1 the
    antisymmetric part of the traction kernel.  On the sphere every kernel
    the oracles integrate is such a combination: gamma = -2 r0 a, the Kelvin
    matrix -2 r0 (alpha1 a I + alpha2 B), and the traction kernel
    -b1 K1 + b1 a I + b2 B (Graham & Sloan, Numer. Math. 2002; Ganesh &
    Graham, J. Comput. Phys. 2004).  The a and B parts are weakly singular
    as they stand.  K1 is strongly singular, but has vanishing principal
    value against constants on a sphere, so its p.v. action equals the
    absolutely convergent integral of K1(x, y)(phi(y) - phi(x)); that term
    runs only when k1 != 0.  Summed against each phi_k of the scalar degree
    l, the blocks give the pole integrals I_k = K[phi_k](r0 z-hat), with no
    mode formed on the nodes: phi_k is (ring, row) coefficients times trig
    rows (`harmonics._mode_rows`; N's y nu as y's, on the blocks times nu),
    each ring's sum a (j, row) product with the blocks' azimuth moments
    (`_pole_moments`), phi(x) off its constant row; `fsum_c` sums the rings.

    The kernels are isotropic, K(Qx, Qy) = Q K(x, y) Q^T, and the modes
    rotation covariant, Q phi_m(Q^T p) = sum_k D^l_km(Q) phi_k(p), so
    K[phi_m](x) = Q^T sum_k D^l_km(Q) I_k and phi_m(x) is the same sum of
    the pole values phi_k(z-hat), with Q = R_z(phi) R_y(-theta) R_z(-phi)
    the rotation of x to the pole.  Over the sphere of targets,
    int D^l_km(Q) conj(D^l_jm(Q)) = 4 pi / (2l + 1) delta_kj, so projecting
    K[phi_m] onto phi_m gives
        xi = sum_k I_k . conj(phi_k(z-hat)) / sum_k |phi_k(z-hat)|^2,
    and the residual is sum_k |I_k - xi phi_k(z-hat)|^2 over the same
    denominator, square-rooted.  Neither reads the order m: every order of
    a (family, n) gives the same pair.

    Only the orders k with k mod n_phi in {0, 1, n_phi - 1} are evaluated.
    The polar nodes are invariant under the rotation R by alpha = 2 pi / n_phi
    about the axis, and phi_k(R p) = e^(i k alpha) R phi_k(p), so
    I_k = e^(i k alpha) R I_k: I_k vanishes unless e^(-i k alpha) is an
    eigenvalue of R, that is 1 or e^(+-i alpha).  The other orders also have
    phi_k(z-hat) = 0, so leaving them out leaves xi as it is and takes only
    rounding noise out of the residual; orders aliased by the rule
    (k = +-7, +-8 for l = 8 on n_phi = 8) are kept and seen.

    A residual above `_RESIDUAL_TOL` raises NonEigenfunctionError.  The
    residual is the part of K[phi] outside the mode, so it catches an input
    that is not an eigenfunction and a quadrature error that mixes in other
    modes, not one that keeps the mode's shape (see the module docstring):
    only the gap to the closed form or to a finer rule shows that the rule
    resolves the mode.
    """
    l = idx.scalar_degree
    orders = [k for k in range(-l, l + 1) if k % rule.n_phi in (0, 1, rule.n_phi - 1)]
    (gp, yp, _), (g, y, trig) = (_mode_rows(idx.family, idx.n, orders, grid)
                                 for grid in (_POLE[None, None], _unit_nodes(rule, polar=True)[0]))
    moments, s = _pole_moments(rule, r0, len(trig) // 2)
    a = a_coeff(idx.n, lame) if idx.family == "N" else 0.0  # N = a y nu + (1 - a/(2n-1) - r^2) g at r = 1
    mix = np.array([-a / (2 * idx.n - 1) if idx.family == "N" else 1.0] * 3 + [a])  # on the channels j: g, y
    coef = np.zeros((len(orders), 4) + moments.shape[-2:], dtype=complex)  # (order, j, ring, row)
    coef[:, :3, :, :g.shape[-1]], coef[:, 3, :, :y.shape[-1]] = g, y
    coef *= mix[:, None, None]
    pole = mix * np.concatenate([gp.sum(axis=-1)[..., 0], yp.sum(axis=-1)], axis=1)  # every trig row is 1 there
    vals = np.einsum("ijrq,kjrq->kir", ka * moments[1] + kb * moments[2], coef)  # (order, i, ring)
    if k1:
        coef[..., 0] -= pole[:, :, None]  # phi(y) - phi(x) on each ring's constant row, trig row 0 = 1
        vals += k1 * np.einsum("ijrq,kjrq->kir", moments[0], coef)
    integrals = fsum_c(vals) + k1 * pole[:, 3:] * s  # with a y(z-hat) K1 (nu - z-hat), the rest of phi(x)
    pole = pole[:, :3] + pole[:, 3:] * _POLE  # phi_k(z-hat)
    den = fsum_c(np.ravel(np.abs(pole) ** 2)).real
    xi = fsum_c(np.ravel(integrals * pole.conj())) / den
    resid = math.sqrt(fsum_c(np.ravel(np.abs(integrals - xi * pole) ** 2)).real / den)
    if resid > _RESIDUAL_TOL:
        raise NonEigenfunctionError(
            f"{operator} mode {idx.family} n={idx.n} m={idx.m}: projection residual "
            f"{resid:.3e} exceeds {_RESIDUAL_TOL:.1e}"
        )
    return xi, resid


def quad_scalar_sl(idx: ModeIndex, lame: LameParams, rule: QuadratureRule, r0: float = 1.0) -> tuple[complex, float]:
    """Multiplier of the componentwise scalar single layer, kernel
    gamma(x - y) = -1/(4 pi |x - y|), on one trace mode on the sphere of
    radius r0, and its projection residual (`_pole_frame`)."""
    return _pole_frame(idx, lame, rule, r0, 0.0, -2 * r0, 0.0, "scalar single-layer")


def quad_elastic_sl(idx: ModeIndex, lame: LameParams, rule: QuadratureRule, r0: float = 1.0) -> tuple[complex, float]:
    """Multiplier of the elastic single layer, the Kelvin matrix G(x - y),
    on one trace mode on the sphere of radius r0, and its projection
    residual (`_pole_frame`)."""
    co = KernelCoeffs.from_lame(lame)
    return _pole_frame(idx, lame, rule, r0, 0.0, -2 * r0 * co.alpha1, -2 * r0 * co.alpha2, "elastic single-layer")


def quad_np_apply(idx: ModeIndex, lame: LameParams, rule: QuadratureRule, r0: float = 1.0) -> tuple[complex, float]:
    """Eigenvalue of the N-P operator K*, the principal-value action of the
    traction kernel d/dnu_x G = -b1 K1 + K2 with K2 = b1 a I + b2 B, on one
    trace mode on the sphere of radius r0, and its projection residual
    (`_pole_frame`)."""
    co = KernelCoeffs.from_lame(lame)
    return _pole_frame(idx, lame, rule, r0, -co.b1, co.b1, co.b2, "N-P")


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FDStencil:
    """Central difference stencil: step h, order 2 or 4."""

    h: float = 1e-4
    order: int = 2

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("step must be positive")
        if self.order not in (2, 4):
            raise ValueError("only orders 2 and 4 are provided")


# 1-D central weights on the offsets -q..q, per order: the rows give f, h f'
# and h^2 f''.  A mixed derivative is the product of two first differences.
_CENTRAL_WEIGHTS = {
    2: np.array([[0, 1, 0], [-0.5, 0, 0.5], [1, -2, 1]]),
    4: np.array([[0, 0, 12, 0, 0], [1, -8, 0, 8, -1], [-1, 16, -30, 16, -1]]) / 12,
}


def _fd_derivatives(field: Callable, x: np.ndarray, stencil: FDStencil) -> tuple[np.ndarray, np.ndarray]:
    """(G, D2) at x with G[i, j] = d u_i / dx_j and D2[i, j, k] = d^2 u_i / dx_j dx_k.

    One call of field, which maps points (S, 3) to values (S, 3), on the
    product grid x + h (a, b, c), a, b, c in -q..q, and one contraction of
    the grid values with the 1-D weights along each axis.
    """
    w = _CENTRAL_WEIGHTS[stencil.order]
    q = w.shape[1] // 2
    steps = stencil.h * np.arange(-q, q + 1.0)
    grid = np.asarray(x, dtype=float) + np.stack(np.meshgrid(steps, steps, steps, indexing="ij"), -1)
    u = np.asarray(field(grid.reshape(-1, 3))).reshape(grid.shape)
    d = np.einsum("pa,qb,rc,abci->pqri", w, w, w, u)  # h^(p+q+r) d^(p+q+r) u / dx^p dy^q dz^r
    e = np.eye(3, dtype=int)
    grad = d[e[:, 0], e[:, 1], e[:, 2]].T / stencil.h  # row j of the index: e_j
    s = e[:, None] + e  # s[j, k] = e_j + e_k
    d2 = np.moveaxis(d[s[..., 0], s[..., 1], s[..., 2]], -1, 0) / stencil.h**2
    return grad, d2


def _lame_operator(d2: np.ndarray, lame: LameParams) -> np.ndarray:
    """mu Lap u + (lam + mu) grad div u from the second derivatives D2[i, j, k]."""
    return lame.mu * np.einsum("ijj->i", d2) + (lame.lam + lame.mu) * np.einsum("jij->i", d2)


def fd_lame_apply(
    field: Callable, lame: LameParams, x: np.ndarray, stencil: FDStencil = FDStencil()
) -> np.ndarray:
    """mu Lap u + (lam + mu) grad div u at x, by central differences; field
    maps points (S, 3) to values (S, 3) and is called once."""
    return _lame_operator(_fd_derivatives(field, x, stencil)[1], lame)


def fd_lame_residual(
    field: Callable, lame: LameParams, x: np.ndarray, stencil: FDStencil = FDStencil()
) -> float:
    """|L u| normalized by the field's local derivative scale.

    Zero (to FD accuracy) exactly when the field solves the homogeneous
    Lame system near x.  The scale combines the second- and first-derivative
    magnitudes so that locally affine solutions (whose Hessians vanish) are
    still judged relative to something finite.  The material scale
    |mu| + |lam + mu| is divided out before the norm, so a huge material
    does not overflow it.  field maps points (S, 3) to values (S, 3) and is
    called once.
    """
    grad, d2 = _fd_derivatives(field, x, stencil)
    res = np.linalg.norm(_lame_operator(d2, lame) / (abs(lame.mu) + abs(lame.lam + lame.mu)))
    hess_scale = max(np.sqrt(np.sum(np.abs(d2[i]) ** 2)) for i in range(3))
    grad_scale = np.sqrt(np.sum(np.abs(grad) ** 2))
    scale = hess_scale + grad_scale
    if scale == 0:
        return float(res)
    return float(res / scale)


def fd_gradient(field: Callable, x: np.ndarray, stencil: FDStencil = FDStencil()) -> np.ndarray:
    """grad u at x, G[i, j] = d u_i / dx_j; field maps points (S, 3) to
    values (S, 3) and is called once."""
    return _fd_derivatives(field, x, stencil)[0]


def fd_traction(
    field: Callable,
    lame: LameParams,
    x: np.ndarray,
    normal: np.ndarray | None = None,
    stencil: FDStencil = FDStencil(),
) -> np.ndarray:
    """Conormal derivative lam (div u) nu + mu (grad u + grad u^t) nu at x;
    field maps points (S, 3) to values (S, 3) and is called once."""
    x = np.asarray(x, dtype=float)
    if normal is None:
        normal = x / np.linalg.norm(x)
    g = fd_gradient(field, x, stencil)
    div = g[0, 0] + g[1, 1] + g[2, 2]
    return lame.lam * div * normal + lame.mu * (g + g.T) @ normal


# ---------------------------------------------------------------------------
# shell energy quadrature
# ---------------------------------------------------------------------------

def quad_energy_shell(
    u_grad: Callable,
    lame: LameParams,
    delta: float,
    geom: ShellGeometry,
    rule: QuadratureRule,
    n_radial: int = 16,
) -> float:
    """(delta/2) * int_shell [lam |div u|^2 + 2 mu |sym grad u|^2] dx.

    u_grad(radii, unit, combine) gets the radial nodes of the unit shell [rho, 1], the rule's
    nodes as a grid (n_theta rings, n_phi azimuths, 3) and the rows `combine` of (u, grad u in
    x / r_e) the density needs, and returns them at r_e r unit factored as
    `harmonics.solid_harmonic_shells` does (a pointwise field: trig the identity).  Each ring's
    azimuth sum is then a quadratic form in the Gram matrix G = trig diag(w_phi) trig^T of the
    rule's azimuth nodes, not diagonal where they alias the trig rows.  The integral is times
    r_e, with n_radial Gauss-Legendre nodes in r.  Material constants are the background real
    pair; the loss enters only through the leading factor.
    """
    xg, wg = _leggauss(n_radial)
    radii = 0.5 * (1 - geom.rho) * np.asarray(xg) + 0.5 * (1 + geom.rho)
    wr = np.asarray(wg) * 0.5 * (1 - geom.rho)
    lam, mu = complex(lame.lam).real, complex(lame.mu).real
    strain = np.zeros((7, 12))  # div u, d_i u_i and (d_j u_i + d_i u_j) / 2 for i < j; [3 + 3 i + j] = d_j u_i
    strain[[0, 0, 0, 1, 2, 3, 4, 4, 5, 5, 6, 6], [3, 7, 11, 3, 7, 11, 4, 6, 5, 9, 8, 10]] = [1.0] * 6 + [0.5] * 6
    values, trig = u_grad(radii, _unit_nodes(rule, polar=False)[0], combine=strain)
    gram = (2 * np.pi / rule.n_phi) * trig @ trig.T
    v = values.reshape(math.prod(values.shape[:-1]), len(trig))  # sized: an empty spectrum has no parts
    dens = np.einsum("ij,ij->i", v.conj(), v @ gram).real.reshape(values.shape[:-1])  # (row, shell, ring)
    dens = np.tensordot([lam / mu, 2, 2, 2, 4, 4, 4], dens, 1)  # times mu last: near 1e308 it overflows a density
    dens *= np.asarray(_leggauss(rule.n_theta)[1]) * (radii * radii)[:, None]  # (shell, ring), weighted
    return 0.5 * delta * geom.r_e * math.fsum(wr * fsum_c(dens).real) * mu


# ---------------------------------------------------------------------------
# validation records
# ---------------------------------------------------------------------------

@dataclass
class ValidationRecord:
    """One oracle comparison: closed form vs brute force."""

    operation: str
    params: dict
    closed_form: complex | float
    oracle: complex | float
    rel_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.rel_error <= self.tol


def compare(operation: str, params: dict, closed, oracle, tol: float) -> ValidationRecord:
    if closed == 0 and oracle == 0:  # a record that would pass checking nothing
        raise ArithmeticError(f"{operation} {params}: closed form and oracle are both exactly 0")
    scale = max(abs(closed), abs(oracle), 1e-300)
    return ValidationRecord(
        operation=operation,
        params=params,
        closed_form=closed,
        oracle=oracle,
        rel_error=abs(closed - oracle) / scale,
        tol=tol,
    )
