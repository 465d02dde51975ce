"""Core-shell-matrix transmission problem and anomalous localized resonance.

A lossy negative-parameter shell between a stiffened core and a regular
matrix is driven by a source supported outside the shell.  Tractions are
expanded in the rotational (T) vector-harmonic family, where the problem is
diagonal in the degree n: each degree solves a 2x2 system in the two layer
densities, in closed form.  Those closed forms (source coefficient, transfer
factors, region coefficients, shell energy) are written once, elementwise in
n, so that n may be an int or an int array.  The dissipated shell energy
decides between resonant blowup and boundedness depending on whether the
source sits inside or outside the critical radius sqrt(r_e^3 / r_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .harmonics import ModeIndex, solid_harmonic_series
from .kelvin import LameParams
from .potentials import CoefficientSpectrum, elastic_sl_t_coeff, np_eigenvalue


class ExactResonanceError(ZeroDivisionError):
    """The mode-solve denominator vanished (lossless exact resonance)."""


@dataclass(frozen=True)
class ShellGeometry:
    """Core radius r_i and shell outer radius r_e, 0 < r_i < r_e."""

    r_i: float
    r_e: float

    def __post_init__(self):
        if not 0 < self.r_i < self.r_e:
            raise ValueError(f"need 0 < r_i < r_e, got ({self.r_i}, {self.r_e})")

    @property
    def rho(self) -> float:
        return self.r_i / self.r_e

    @property
    def critical_radius(self) -> float:
        return math.sqrt(self.r_e**3 / self.r_i)


def critical_radius(geom: ShellGeometry) -> float:
    """sqrt(r_e^3 / r_i); sources strictly inside trigger resonance."""
    return geom.critical_radius


@dataclass(frozen=True)
class PlasmonicConfig:
    """Core scaling c_n > 0, shell real part eps_n < 0, loss delta > 0."""

    n0: int
    c_n: float
    eps_n: float
    delta: float

    @classmethod
    def resonant(cls, n0: int, delta: float) -> "PlasmonicConfig":
        c, e = plasmonic_params(n0)
        return cls(n0=n0, c_n=c, eps_n=e, delta=delta)


@dataclass(frozen=True)
class ADeltaPair:
    """Contrast parameters of the two interfaces in the 2x2 mode system."""

    a1: complex
    a2: complex


def plasmonic_params(n0: int) -> tuple[float, float]:
    """Resonant core/shell parameters ((n0+2)^2/(n0-1)^2, -1 - 3/(n0-1)).

    With these values a1 and a2 both equal the T eigenvalue 3/(4 n0 + 2) at
    zero loss.  Degree 1 is excluded: its traction vanishes on every sphere.
    """
    if n0 < 2:
        raise ValueError("resonant degree must be >= 2")
    return (n0 + 2) ** 2 / (n0 - 1) ** 2, -1.0 - 3.0 / (n0 - 1)


def a_delta(cfg: PlasmonicConfig) -> ADeltaPair:
    """a1 = (c+eps+i d)/(2(c-eps-i d)), a2 = (1+eps+i d)/(2(-1+eps+i d))."""
    z = cfg.eps_n + 1j * cfg.delta
    d1 = 2 * (cfg.c_n - z)
    d2 = 2 * (-1 + z)
    if d1 == 0 or d2 == 0:
        raise ValueError("singular plasmonic configuration (c = eps + i delta or eps + i delta = 1)")
    return ADeltaPair(a1=(cfg.c_n + z) / d1, a2=(1 + z) / d2)


def g_i_from_g_e(n: int, g_e: complex, geom: ShellGeometry) -> complex:
    """Inner-interface traction coefficient (r_i/r_e)^(n-1) g_e.

    Valid when the source potential is Lame-harmonic inside the shell, i.e.
    the source is supported outside r_e.
    """
    return geom.rho ** (n - 1) * g_e


@dataclass(frozen=True)
class SourceSpectrum:
    """Traction coefficients g_e^{n,m} of the source potential on the outer
    interface, in the T basis (n >= 2 only)."""

    coeffs: dict[tuple[int, int], complex]
    r_s: float | None = None

    def __post_init__(self):
        for (n, _m) in self.coeffs:
            if n < 2:
                raise ValueError("source spectra start at n = 2 (degree-1 traction vanishes)")

    def items(self) -> list[tuple[tuple[int, int], complex]]:
        return sorted(self.coeffs.items())

    @property
    def n_max(self) -> int:
        return max((n for (n, _m) in self.coeffs), default=1)


# ---------------------------------------------------------------------------
# closed forms, elementwise in the degree n
# ---------------------------------------------------------------------------

def source_coefficient(n, r_s: float, geom: ShellGeometry, lame: LameParams, kappa: float = 1.0):
    """g_e^n = kappa mu (n-1) (r_e/r_s)^n / r_e: the source whose potential
    converges exactly for |x| < r_s.  Only the ratio r_e/r_s is raised to n."""
    return kappa * complex(lame.mu).real * (n - 1) * (geom.r_e / r_s) ** n / geom.r_e


def mode_denominator(n, cfg: PlasmonicConfig, geom: ShellGeometry, lame: LameParams):
    """D = (xi_n - a1)(xi_n - a2) + d1^2 mu^2 (n-1)(n+2) rho^(2n+1)."""
    xi = np_eigenvalue("T", n, lame)
    pair = a_delta(cfg)
    d1mu = elastic_sl_t_coeff(n, lame) * lame.mu  # = -1/(2n+1), material free
    rho = geom.rho
    return (xi - pair.a1) * (xi - pair.a2) + d1mu**2 * (n - 1) * (n + 2) * rho ** (2 * n + 1)


def transfer_factors(n, geom: ShellGeometry, cfg: PlasmonicConfig, lame: LameParams):
    """(phi_i / g_e, phi_e / g_e), the closed-form solve of the 2x2 system:

    phi_i = g_e (a2 - xi + d1 mu (n-1)) rho^(n-1) / D
    phi_e = -g_e (xi - a1 + d1 mu (n+2) rho^(2n+1)) / D
    """
    xi = np_eigenvalue("T", n, lame)
    pair = a_delta(cfg)
    d1mu = elastic_sl_t_coeff(n, lame) * lame.mu
    rho = geom.rho
    D = mode_denominator(n, cfg, geom, lame)
    if np.any(D == 0):
        raise ExactResonanceError(f"degree n={np.ravel(n)[np.ravel(D == 0)]} is exactly resonant (D = 0)")
    return (
        (pair.a2 - xi + d1mu * (n - 1)) * rho ** (n - 1) / D,
        -(xi - pair.a1 + d1mu * (n + 2) * rho ** (2 * n + 1)) / D,
    )


def region_coefficients(n, phi_i, phi_e, geom: ShellGeometry, lame: LameParams):
    """Solid-harmonic coefficients of the scattered T potential F per region,
    u - F = grad F x x, from the layer densities:

    core regular     d1 (phi_i / r_i^(n-1) + phi_e / r_e^(n-1))
    shell regular    d1 phi_e / r_e^(n-1)       (outer layer, interior form)
    shell decaying   d1 r_i^(n+2) phi_i          (inner layer, exterior form)
    matrix decaying  d1 (r_i^(n+2) phi_i + r_e^(n+2) phi_e)
    """
    d1 = elastic_sl_t_coeff(n, lame)
    ri, re = float(geom.r_i), float(geom.r_e)
    with np.errstate(over="raise"):  # a radius power past the float range raises
        return (
            d1 * (phi_i / ri ** (n - 1) + phi_e / re ** (n - 1)),
            d1 * phi_e / re ** (n - 1),
            d1 * ri ** (n + 2) * phi_i,
            d1 * (ri ** (n + 2) * phi_i + re ** (n + 2) * phi_e),
        )


def shell_energy(n, phi_i, phi_e, geom: ShellGeometry, delta: float, lame: LameParams):
    """Exact dissipated energy (delta/2) P_shell of degree n, per mode.

    For the divergence-free shell field a V_n + b T_n (the shell decaying and
    regular coefficients) the strain integral reduces to boundary terms,
    cross terms cancel and distinct modes decouple:
    E_n = (delta/2) mu n(n+1) d1^2 (1 - rho^(2n+1))
          [(n+2) r_i^3 |phi_i|^2 + (n-1) r_e^3 |phi_e|^2],
    which is scale free: no power of a radius grows with n.  The material
    constants are the background (real) pair; the shell loss enters as the
    factor delta/2.
    """
    return (
        0.5 * delta * complex(lame.mu).real * n * (n + 1) * np.abs(elastic_sl_t_coeff(n, lame)) ** 2
        * (1 - geom.rho ** (2 * n + 1))
        * ((n + 2) * geom.r_i**3 * np.abs(phi_i) ** 2 + (n - 1) * geom.r_e**3 * np.abs(phi_e) ** 2)
    )


def _spectrum_columns(src: SourceSpectrum):
    """(keys (n, m), degrees, g_e) of a source spectrum as aligned arrays."""
    keys = sorted(src.coeffs)
    return keys, np.array([n for n, _ in keys], dtype=int), np.array([src.coeffs[k] for k in keys])


def _t_spectrum(keys, values) -> CoefficientSpectrum:
    """T-family CoefficientSpectrum from aligned (n, m) keys and amplitudes."""
    return CoefficientSpectrum({ModeIndex("T", n, m): v for (n, m), v in zip(keys, values.tolist())})


def _solution_columns(sol: "DensitySolution"):
    """(keys (n, m), degrees, phi_i, phi_e) of a solution as aligned arrays."""
    modes = list(sol.phi_i)
    keys = [(i.n, i.m) for i in modes]
    return (
        keys,
        np.array([n for n, _ in keys], dtype=int),
        np.array([sol.phi_i[i] for i in modes], dtype=complex),
        np.array([sol.phi_e[i] for i in modes], dtype=complex),
    )


# ---------------------------------------------------------------------------
# source and solve
# ---------------------------------------------------------------------------

def synth_source(
    r_s: float,
    geom: ShellGeometry,
    lame: LameParams,
    kappa: float = 1.0,
    n_max: int = 60,
    spread_m: bool = False,
) -> SourceSpectrum:
    """Synthesize a source whose potential has convergence radius exactly r_s.

    Emits g_e^{n,m} = kappa mu (n-1) (r_e/r_s)^n / r_e for 2 <= n <= n_max, by
    default on m = 0 only (spread_m distributes the same amplitude across all
    |m| <= n).  Resonance is predicted iff r_s < sqrt(r_e^3/r_i).
    """
    if r_s <= geom.r_e:
        raise ValueError("synthetic source must sit outside the shell (r_s > r_e)")
    if kappa == 0:
        return SourceSpectrum(coeffs={}, r_s=r_s)
    degrees = range(2, n_max + 1)
    g = source_coefficient(np.array(degrees), r_s, geom, lame, kappa).tolist()
    orders = (lambda n: range(-n, n + 1)) if spread_m else (lambda n: (0,))
    return SourceSpectrum(coeffs={(n, m): gn for n, gn in zip(degrees, g) for m in orders(n)}, r_s=r_s)


@dataclass
class DensitySolution:
    """Layer densities on the two interfaces, T family, per (n, m)."""

    phi_i: CoefficientSpectrum
    phi_e: CoefficientSpectrum
    geom: ShellGeometry
    cfg: PlasmonicConfig
    lame: LameParams


def solve_mode(
    n: int,
    m: int,
    g_e: complex,
    geom: ShellGeometry,
    cfg: PlasmonicConfig,
    lame: LameParams,
) -> tuple[complex, complex]:
    """Closed-form densities (phi_i, phi_e) of one T mode (transfer_factors)."""
    if n < 2:
        raise ValueError("mode solves start at n = 2 (degree-1 traction vanishes)")
    t_i, t_e = transfer_factors(n, geom, cfg, lame)
    return complex(g_e * t_i), complex(g_e * t_e)


def solve_mode_direct(
    n: int,
    m: int,
    g_e: complex,
    geom: ShellGeometry,
    cfg: PlasmonicConfig,
    lame: LameParams,
) -> tuple[complex, complex]:
    """Independent route: assemble and solve the 2x2 interface system.

    Row 1 (inner interface): (xi - a1) phi_i + d1 mu (n-1) rho^(n-1) phi_e = -g_i
    Row 2 (outer interface): -d1 mu (n+2) rho^(n+2) phi_i + (xi - a2) phi_e = -g_e
    built from the N-P eigenvalue and the cross-interface tractions of the
    elastic single layer; solved with a generic linear solver.
    """
    if n < 2:
        raise ValueError("mode solves start at n = 2")
    xi = np_eigenvalue("T", n, lame)
    pair = a_delta(cfg)
    d1mu = elastic_sl_t_coeff(n, lame) * lame.mu
    rho = geom.rho
    g_i = g_i_from_g_e(n, g_e, geom)
    mat = np.array(
        [
            [xi - pair.a1, d1mu * (n - 1) * rho ** (n - 1)],
            [-d1mu * (n + 2) * rho ** (n + 2), xi - pair.a2],
        ],
        dtype=complex,
    )
    rhs = np.array([-g_i, -g_e], dtype=complex)
    sol = np.linalg.solve(mat, rhs)
    return complex(sol[0]), complex(sol[1])


def solve_source(
    src: SourceSpectrum,
    geom: ShellGeometry,
    cfg: PlasmonicConfig,
    lame: LameParams,
) -> DensitySolution:
    """Solve every mode of a source spectrum."""
    keys, n, g = _spectrum_columns(src)
    phi_i, phi_e = (_t_spectrum(keys, g * t) for t in transfer_factors(n, geom, cfg, lame))
    return DensitySolution(phi_i=phi_i, phi_e=phi_e, geom=geom, cfg=cfg, lame=lame)


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

def source_field(src: SourceSpectrum, geom: ShellGeometry, lame: LameParams, xyz) -> np.ndarray:
    """Source potential inside its convergence radius:
    F = sum g_e / (mu (n-1) r_e^(n-1)) T-solid(x); the free constant is 0."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    if src.r_s is not None and np.any(np.linalg.norm(xyz, axis=-1) >= src.r_s):
        raise ValueError("source potential series only converges for |x| < r_s")
    keys, n, g = _spectrum_columns(src)
    coeffs = g / (lame.mu * (n - 1) * float(geom.r_e) ** (n - 1))
    grad, _ = solid_harmonic_series(dict(zip(keys, coeffs)), {}, xyz)
    return np.cross(grad, xyz)


def field_eval(
    sol: DensitySolution,
    src: SourceSpectrum | None,
    geom: ShellGeometry,
    lame: LameParams,
    xyz,
    include_source: bool = False,
) -> np.ndarray:
    """Scattered displacement u - F at Cartesian points, all three regions.

    Core (|x| <= r_i): both layers act through their interior forms.
    Shell: inner layer exterior form + outer layer interior form.
    Matrix (|x| > r_e): both exterior, amplitudes r_i^(n+2) phi_i +
    r_e^(n+2) phi_e.  Values are continuous across both interfaces.
    With include_source the (convergent part of the) source potential is
    added.
    """
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    r = np.linalg.norm(xyz, axis=-1)
    out = np.zeros(xyz.shape, dtype=complex)
    keys, n, phi_i, phi_e = _solution_columns(sol)
    core, shell_regular, shell_decaying, matrix = (
        dict(zip(keys, c)) for c in region_coefficients(n, phi_i, phi_e, geom, lame)
    )
    regions = (
        (r <= geom.r_i, core, {}),
        ((r > geom.r_i) & (r <= geom.r_e), shell_regular, shell_decaying),
        (r > geom.r_e, {}, matrix),
    )
    for mask, regular, decaying in regions:
        if np.any(mask):
            grad, _ = solid_harmonic_series(regular, decaying, xyz[mask])
            out[mask] = np.cross(grad, xyz[mask])
    if include_source and src is not None:
        out += source_field(src, geom, lame, xyz)
    return out


def scattered_gradient_factory(sol: DensitySolution):
    """Callable x(N,3) -> (u, grad u) for shell points, analytic gradients.

    With u = grad F x x for the shell potential F of all modes,
    grad u[:, :, l] = Hess(F)[:, :, l] x x + grad F x e_l.
    """
    keys, n, phi_i, phi_e = _solution_columns(sol)
    _, regular, decaying, _ = region_coefficients(n, phi_i, phi_e, sol.geom, sol.lame)
    regular, decaying = dict(zip(keys, regular)), dict(zip(keys, decaying))

    def eval_u_grad(xyz: np.ndarray):
        xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
        g, hess = solid_harmonic_series(regular, decaying, xyz, hessian=True)
        grad = np.cross(hess, xyz[:, :, None], axis=1)
        grad += np.cross(g[:, :, None], np.eye(3)[None], axis=1)
        return np.cross(g, xyz), grad

    return eval_u_grad


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

@dataclass
class EnergyReport:
    """Per-delta record of the dissipated shell energy and far-field sample."""

    delta: float
    n0: int
    c_n: float
    eps_n: float
    energy_modal: float
    energy_quadrature: float | None
    farfield_sample: float
    dominant_n: int
    n_trunc: int
    verdict: str = "undetermined"

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "n0": self.n0,
            "c_n": self.c_n,
            "eps_n": self.eps_n,
            "energy_modal": self.energy_modal,
            "energy_quadrature": self.energy_quadrature,
            "farfield_sample": self.farfield_sample,
            "dominant_n": self.dominant_n,
            "n_trunc": self.n_trunc,
            "verdict": self.verdict,
        }


def mode_energy(sol: DensitySolution, idx: ModeIndex) -> float:
    """Exact dissipated energy (delta/2) P_shell of one mode (shell_energy)."""
    return float(shell_energy(idx.n, sol.phi_i[idx], sol.phi_e[idx], sol.geom, sol.cfg.delta, sol.lame))


def resonant_energy_envelope(src: SourceSpectrum, cfg: PlasmonicConfig, geom: ShellGeometry) -> float:
    """Leading-order resonant-degree energy scale
    sum_m delta |g_e^{n0,m}|^2 / (n0 (delta^2 + rho^(2 n0))).

    This is the order-of-magnitude envelope of the exact mode energy, with
    unit constant; it drives the blowup rate but is not the quantity
    cross-checked against quadrature.
    """
    rho = geom.rho
    total = 0.0
    for (n, _m), g in src.items():
        if n == cfg.n0:
            total += cfg.delta * abs(g) ** 2 / (cfg.n0 * (cfg.delta**2 + rho ** (2 * cfg.n0)))
    return total


_FARFIELD_PROBES = 24


def _farfield_probe_points(radius: float) -> np.ndarray:
    """Deterministic probe directions (golden-angle spiral, poles excluded)."""
    k = np.arange(_FARFIELD_PROBES)
    ct = 1 - 2 * (k + 0.5) / _FARFIELD_PROBES
    theta = np.arccos(ct)
    phi = k * math.pi * (3 - math.sqrt(5.0))
    st = np.sin(theta)
    return radius * np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)


def farfield_sample(sol: DensitySolution, factor: float = 1.05) -> float:
    """max |u - F| over fixed probes at |x| = factor * r_e^2 / r_i."""
    pts = _farfield_probe_points(factor * sol.geom.r_e**2 / sol.geom.r_i)
    vals = field_eval(sol, None, sol.geom, sol.lame, pts)
    return float(np.max(np.linalg.norm(vals, axis=-1)))


def energy(
    sol: DensitySolution,
    src: SourceSpectrum,
    geom: ShellGeometry,
    cfg: PlasmonicConfig,
    lame: LameParams,
    quadrature: bool = False,
    quad_kwargs: dict | None = None,
) -> EnergyReport:
    """Dissipated shell energy of the scattered field, two ways.

    energy_modal sums the exact per-mode closed form; energy_quadrature
    (optional) integrates the strain density over the shell volume with the
    brute-force rule.  Both are (delta/2) * P_shell(u - F).
    """
    _, n, phi_i, phi_e = _solution_columns(sol)
    per_mode = shell_energy(n, phi_i, phi_e, sol.geom, sol.cfg.delta, sol.lame)
    e_quad = None
    if quadrature:
        from .oracle import QuadratureRule, quad_energy_shell

        kwargs = dict(quad_kwargs or {})
        rule = kwargs.pop("rule", QuadratureRule(24, 48))
        n_radial = kwargs.pop("n_radial", 16)
        e_quad = quad_energy_shell(
            scattered_gradient_factory(sol), lame, cfg.delta, geom, rule, n_radial
        )
    return EnergyReport(
        delta=cfg.delta,
        n0=cfg.n0,
        c_n=cfg.c_n,
        eps_n=cfg.eps_n,
        energy_modal=math.fsum(per_mode),
        energy_quadrature=e_quad,
        farfield_sample=farfield_sample(sol),
        dominant_n=int(n[np.argmax(per_mode)]) if n.size else 0,
        n_trunc=int(n.max(initial=0)),
    )


# ---------------------------------------------------------------------------
# sweep driver and classification
# ---------------------------------------------------------------------------

def choose_n0(delta: float, geom: ShellGeometry) -> int:
    """The unique n0 with rho^n0 < delta <= rho^(n0-1).

    On exact powers delta = rho^k this returns k + 1 (right-closed
    convention).
    """
    if not 0 < delta < 1:
        raise ValueError("loss must lie in (0, 1)")
    rho = geom.rho
    n0 = math.ceil(math.log(delta) / math.log(rho))
    if rho**n0 >= delta:  # exact-power boundary
        n0 += 1
    if rho ** (n0 - 1) < delta:  # guard against log roundoff
        n0 -= 1
    return n0


def truncation_degree(n0: int) -> int:
    """max(n0 + 20, 40), the sweep's baseline spectral truncation."""
    return max(n0 + 20, 40)


_ENERGY_FLOOR = 1e-14  # a kept spectrum's last mode carries less than this share
_N_HARD_CAP = 400  # highest degree a sweep point grows its spectrum to


def solve_sweep_point(
    delta: float,
    geom: ShellGeometry,
    lame: LameParams,
    r_s: float,
    kappa: float = 1.0,
    cfg: PlasmonicConfig | None = None,
) -> tuple[SourceSpectrum, "DensitySolution"]:
    """Source synthesis and solve for one loss value, truncation-converged.

    One pass evaluates the mode energies E_n up to the hard cap.  The cut is
    the first k of truncation_degree(n0), +20, ... (capped at degree 400)
    with E_k < 1e-14 * (E_2 + ... + E_k); the spectrum and its
    solution are then built once, up to k.
    """
    if cfg is None:
        cfg = PlasmonicConfig.resonant(max(choose_n0(delta, geom), 2), delta)
    start = truncation_degree(cfg.n0)
    n = np.arange(2, max(start, _N_HARD_CAP) + 1)
    g = source_coefficient(n, r_s, geom, lame, kappa)
    t_i, t_e = transfer_factors(n, geom, cfg, lame)
    e = shell_energy(n, g * t_i, g * t_e, geom, cfg.delta, lame)
    for n_max in [*range(start, _N_HARD_CAP, 20), max(start, _N_HARD_CAP)]:
        total = math.fsum(e[: n_max - 1])
        if total == 0.0 or e[n_max - 2] < _ENERGY_FLOOR * total:
            break
    src = synth_source(r_s, geom, lame, kappa=kappa, n_max=n_max)
    return src, solve_source(src, geom, cfg, lame)


@dataclass
class CalrSweep:
    """Result of a loss sweep: per-delta reports and the overall verdict."""

    reports: list[EnergyReport]
    verdict: str
    energy_ratio: float
    farfield_ratio: float
    r_s: float
    growth_threshold: float = 1e3


def classify_calr(
    geom: ShellGeometry,
    lame: LameParams,
    r_s: float,
    delta_grid: list[float],
    kappa: float = 1.0,
    fixed_cfg: PlasmonicConfig | None = None,
    quadrature: bool = False,
    growth_threshold: float = 1e3,
    min_decades: float = 4.0,
) -> CalrSweep:
    """Run the full pipeline over a decreasing loss grid and classify.

    Per grid point the resonant degree is re-chosen (rho^n0 < delta <=
    rho^(n0-1)) and the plasmonic parameters re-tuned, unless a fixed
    configuration is supplied.  Verdict "resonant" requires the energy to
    grow by more than `growth_threshold` from the largest to the smallest
    loss over a grid spanning at least `min_decades` decades; grids too
    short to decide return "insufficient-grid"; r_s equal to the critical
    radius returns "boundary".
    """
    if any(d2 >= d1 for d1, d2 in zip(delta_grid, delta_grid[1:])):
        raise ValueError("delta grid must be strictly decreasing")
    reports = []
    for delta in delta_grid:
        cfg = None if fixed_cfg is None else replace(fixed_cfg, delta=delta)
        src, sol = solve_sweep_point(delta, geom, lame, r_s, kappa=kappa, cfg=cfg)
        reports.append(energy(sol, src, geom, sol.cfg, lame, quadrature=quadrature))

    energies = [r.energy_modal for r in reports]
    farfields = [r.farfield_sample for r in reports]
    energy_ratio = max(energies) / min(energies) if min(energies) > 0 else math.inf
    farfield_ratio = max(farfields) / min(farfields) if min(farfields) > 0 else math.inf

    rstar = geom.critical_radius
    decades = (
        math.log10(delta_grid[0] / delta_grid[-1]) if len(delta_grid) > 1 else 0.0
    )
    if math.isclose(r_s, rstar, rel_tol=1e-12):
        verdict = "boundary"
    elif len(delta_grid) < 2 or decades < min_decades:
        verdict = "insufficient-grid"
    elif energies[-1] / energies[0] > growth_threshold:
        verdict = "resonant"
    else:
        verdict = "bounded"
    for r in reports:
        r.verdict = verdict
    return CalrSweep(
        reports=reports,
        verdict=verdict,
        energy_ratio=energy_ratio,
        farfield_ratio=farfield_ratio,
        r_s=r_s,
        growth_threshold=growth_threshold,
    )
