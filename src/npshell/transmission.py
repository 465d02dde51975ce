"""Core-shell-matrix transmission problem and anomalous localized resonance.

A lossy negative-parameter shell between a stiffened core and a regular
matrix is driven by a source supported outside the shell.  Tractions are
expanded in the rotational (T) vector-harmonic family, each degree solves a
2x2 system in the two layer densities, and the dissipated shell energy
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


def synth_source(
    r_s: float,
    geom: ShellGeometry,
    lame: LameParams,
    kappa: float = 1.0,
    n_max: int = 60,
    floor: float = 0.0,
    spread_m: bool = False,
) -> SourceSpectrum:
    """Synthesize a source whose potential has convergence radius exactly r_s.

    Emits g_e^{n,m} = kappa mu (n-1) r_e^(n-1) r_s^(-n), by default on m = 0
    only (spread_m distributes the same amplitude across all |m| <= n).
    Coefficients with |g| below `floor` are dropped.  Resonance is predicted
    iff r_s < sqrt(r_e^3/r_i).
    """
    if r_s <= geom.r_e:
        raise ValueError("synthetic source must sit outside the shell (r_s > r_e)")
    coeffs: dict[tuple[int, int], complex] = {}
    mu = complex(lame.mu).real
    for n in range(2, n_max + 1):
        g = kappa * mu * (n - 1) * geom.r_e ** (n - 1) / r_s**n
        if kappa != 0 and abs(g) < floor:
            break
        if kappa == 0:
            continue
        if spread_m:
            for m in range(-n, n + 1):
                coeffs[(n, m)] = g
        else:
            coeffs[(n, 0)] = g
    return SourceSpectrum(coeffs=coeffs, r_s=r_s)


@dataclass
class DensitySolution:
    """Layer densities on the two interfaces, T family, per (n, m)."""

    phi_i: CoefficientSpectrum
    phi_e: CoefficientSpectrum
    geom: ShellGeometry
    cfg: PlasmonicConfig
    lame: LameParams


def mode_denominator(n: int, cfg: PlasmonicConfig, geom: ShellGeometry, lame: LameParams) -> complex:
    """D = (xi_n - a1)(xi_n - a2) + d1^2 mu^2 (n-1)(n+2) rho^(2n+1)."""
    xi = np_eigenvalue("T", n, lame)
    pair = a_delta(cfg)
    d1mu = elastic_sl_t_coeff(n, lame) * lame.mu  # = -1/(2n+1), material free
    rho = geom.rho
    return (xi - pair.a1) * (xi - pair.a2) + d1mu**2 * (n - 1) * (n + 2) * rho ** (2 * n + 1)


def solve_mode(
    n: int,
    m: int,
    g_e: complex,
    geom: ShellGeometry,
    cfg: PlasmonicConfig,
    lame: LameParams,
) -> tuple[complex, complex]:
    """Closed-form densities (phi_i, phi_e) of one T mode.

    phi_i = g_e (a2 - xi + d1 mu (n-1)) rho^(n-1) / D
    phi_e = -g_e (xi - a1 + d1 mu (n+2) rho^(2n+1)) / D
    """
    if n < 2:
        raise ValueError("mode solves start at n = 2 (degree-1 traction vanishes)")
    xi = np_eigenvalue("T", n, lame)
    pair = a_delta(cfg)
    d1mu = elastic_sl_t_coeff(n, lame) * lame.mu
    rho = geom.rho
    D = mode_denominator(n, cfg, geom, lame)
    if D == 0:
        raise ExactResonanceError(f"mode n={n} is exactly resonant (D = 0)")
    phi_i = g_e * (pair.a2 - xi + d1mu * (n - 1)) * rho ** (n - 1) / D
    phi_e = -g_e * (xi - pair.a1 + d1mu * (n + 2) * rho ** (2 * n + 1)) / D
    return phi_i, phi_e


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
    phi_i: dict[ModeIndex, complex] = {}
    phi_e: dict[ModeIndex, complex] = {}
    for (n, m), g in src.items():
        pi, pe = solve_mode(n, m, g, geom, cfg, lame)
        idx = ModeIndex("T", n, m)
        phi_i[idx] = pi
        phi_e[idx] = pe
    return DensitySolution(
        phi_i=CoefficientSpectrum(phi_i),
        phi_e=CoefficientSpectrum(phi_e),
        geom=geom,
        cfg=cfg,
        lame=lame,
    )


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

def shell_mode_amplitudes(sol: DensitySolution, idx: ModeIndex) -> tuple[complex, complex]:
    """(decaying, growing) amplitudes of one mode in the shell region.

    In r_i < |x| <= r_e the scattered field of mode (n, m) is
    a * grad(r^-(n+1) Y) x x + b * grad(r^n Y) x x with
    a = d1 r_i^(n+2) phi_i and b = d1 phi_e / r_e^(n-1).
    """
    n = idx.n
    d1 = elastic_sl_t_coeff(n, sol.lame)
    a = d1 * sol.geom.r_i ** (n + 2) * sol.phi_i[idx]
    b = d1 * sol.phi_e[idx] / sol.geom.r_e ** (n - 1)
    return a, b


def exterior_mode_amplitude(sol: DensitySolution, idx: ModeIndex) -> complex:
    """Amplitude of grad(r^-(n+1) Y) x x outside the shell.

    The two layers combine as r_i^(n+2) phi_i + r_e^(n+2) phi_e (each layer
    keeps its own radius power).
    """
    n = idx.n
    d1 = elastic_sl_t_coeff(n, sol.lame)
    return d1 * (
        sol.geom.r_i ** (n + 2) * sol.phi_i[idx]
        + sol.geom.r_e ** (n + 2) * sol.phi_e[idx]
    )


def _shell_potential(sol: DensitySolution) -> tuple[dict, dict]:
    """(regular, decaying) coefficients of the scattered potential in the shell."""
    amps = {(idx.n, idx.m): shell_mode_amplitudes(sol, idx) for idx, _ in sol.phi_i.items()}
    return {k: b for k, (_a, b) in amps.items()}, {k: a for k, (a, _b) in amps.items()}


def source_field(src: SourceSpectrum, geom: ShellGeometry, lame: LameParams, xyz) -> np.ndarray:
    """Source potential inside its convergence radius:
    F = sum g_e / (mu (n-1) r_e^(n-1)) T-solid(x); the free constant is 0."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    if src.r_s is not None and np.any(np.linalg.norm(xyz, axis=-1) >= src.r_s):
        raise ValueError("source potential series only converges for |x| < r_s")
    coeffs = {(n, m): g / (lame.mu * (n - 1) * geom.r_e ** (n - 1)) for (n, m), g in src.items()}
    grad, _ = solid_harmonic_series(coeffs, {}, xyz)
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
    modes = [idx for idx, _ in sol.phi_i.items()]
    core = {
        (i.n, i.m): elastic_sl_t_coeff(i.n, lame)
        * (sol.phi_i[i] / geom.r_i ** (i.n - 1) + sol.phi_e[i] / geom.r_e ** (i.n - 1))
        for i in modes
    }
    outer = {(i.n, i.m): exterior_mode_amplitude(sol, i) for i in modes}
    regions = (
        (r <= geom.r_i, core, {}),
        ((r > geom.r_i) & (r <= geom.r_e), *_shell_potential(sol)),
        (r > geom.r_e, {}, outer),
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
    regular, decaying = _shell_potential(sol)

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
    """Exact dissipated energy (delta/2) P_shell of one mode.

    For the divergence-free shell field a V_n + b T_n the strain integral
    reduces to boundary terms:
    P = mu n(n+1) [ (n+2) |a|^2 (r_i^-(2n+1) - r_e^-(2n+1))
                   + (n-1) |b|^2 (r_e^(2n+1) - r_i^(2n+1)) ],
    cross terms cancel and distinct modes decouple.  The material constants
    are the background (real) pair; the shell loss enters as the factor
    delta/2.
    """
    n = idx.n
    a, b = shell_mode_amplitudes(sol, idx)
    ri, re = sol.geom.r_i, sol.geom.r_e
    mu = complex(sol.lame.mu).real
    p = mu * n * (n + 1) * (
        (n + 2) * abs(a) ** 2 * (ri ** -(2 * n + 1) - re ** -(2 * n + 1))
        + (n - 1) * abs(b) ** 2 * (re ** (2 * n + 1) - ri ** (2 * n + 1))
    )
    return 0.5 * sol.cfg.delta * p


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
    per_mode = {idx: mode_energy(sol, idx) for idx, _ in sol.phi_i.items()}
    e_modal = float(math.fsum(sorted(per_mode.values())))
    dominant = max(per_mode, key=lambda i: per_mode[i]).n if per_mode else 0
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
        energy_modal=e_modal,
        energy_quadrature=e_quad,
        farfield_sample=farfield_sample(sol),
        dominant_n=dominant,
        n_trunc=max((idx.n for idx in per_mode), default=0),
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


def solve_sweep_point(
    delta: float,
    geom: ShellGeometry,
    lame: LameParams,
    r_s: float,
    kappa: float = 1.0,
    cfg: PlasmonicConfig | None = None,
    energy_floor: float = 1e-14,
    n_hard_cap: int = 400,
) -> tuple[SourceSpectrum, "DensitySolution"]:
    """Source synthesis and solve for one loss value, adaptively truncated.

    Starts from max(n0 + 20, 40) modes and keeps extending until the last
    mode contributes less than energy_floor of the running total (or the
    hard cap is hit), so the reported energy is truncation-converged.
    """
    if cfg is None:
        cfg = PlasmonicConfig.resonant(max(choose_n0(delta, geom), 2), delta)
    n_max = truncation_degree(cfg.n0)
    while True:
        src = synth_source(r_s, geom, lame, kappa=kappa, n_max=n_max)
        sol = solve_source(src, geom, cfg, lame)
        per_mode = [mode_energy(sol, idx) for idx, _ in sol.phi_i.items()]
        total = math.fsum(per_mode)
        if not per_mode or total == 0.0:
            return src, sol
        if per_mode[-1] < energy_floor * total or n_max >= n_hard_cap:
            return src, sol
        n_max = min(n_max + 20, n_hard_cap)


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
    retune: bool = True,
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
        if retune and fixed_cfg is None:
            cfg = None
        else:
            if fixed_cfg is None:
                raise ValueError("fixed_cfg required when retune is off")
            cfg = replace(fixed_cfg, delta=delta)
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
