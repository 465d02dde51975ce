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
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .harmonics import solid_harmonic_series, solid_harmonic_shells
from .kelvin import LameParams
from .potentials import elastic_sl_coeff, np_eigenvalue


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
        """sqrt(r_e^3 / r_i); sources strictly inside trigger resonance."""
        return math.sqrt(self.r_e**3 / self.r_i)


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
    interface, in the T basis (n >= 2 only): aligned read-only arrays of
    degree n, order m and amplitude g, sorted by (n, m)."""

    n: np.ndarray
    m: np.ndarray
    g: np.ndarray
    r_s: float | None = None

    def __post_init__(self):
        n, m, g = np.asarray(self.n, dtype=int), np.asarray(self.m, dtype=int), np.asarray(self.g)
        if not (n.ndim == 1 and n.shape == m.shape == g.shape):
            raise ValueError("n, m and g must be aligned 1-D arrays")
        if (n < 2).any():
            raise ValueError("source spectra start at n = 2 (degree-1 traction vanishes)")
        if (np.abs(m) > n).any():
            raise ValueError("orders must satisfy |m| <= n")
        order = np.lexsort((m, n))
        n, m, g = n[order], m[order], g[order]
        if ((n[1:] == n[:-1]) & (m[1:] == m[:-1])).any():
            raise ValueError("each mode (n, m) may appear only once")
        for name, column in (("n", n), ("m", m), ("g", g)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @property
    def n_max(self) -> int:
        return int(self.n.max(initial=1))


# ---------------------------------------------------------------------------
# closed forms, elementwise in the degree n
# ---------------------------------------------------------------------------

def source_coefficient(n, r_s: float, geom: ShellGeometry, lame: LameParams, kappa: float = 1.0):
    """g_e^n = kappa mu (n-1) (r_e/r_s)^n / r_e: the source whose potential
    converges exactly for |x| < r_s.  Only the ratio r_e/r_s is raised to n.
    This source is a definition of the study, not a derived quantity: no
    oracle checks it (the golden artifacts pin its values)."""
    if not r_s > geom.r_e:  # also rejects a NaN radius
        raise ValueError(f"synthetic source must sit outside the shell (r_s > r_e), got r_s={r_s}, r_e={geom.r_e}")
    return kappa * complex(lame.mu).real * (n - 1) * (geom.r_e / r_s) ** n / geom.r_e


def mode_denominator(n, cfg: PlasmonicConfig | ADeltaPair, geom: ShellGeometry, lame: LameParams):
    """D = (xi_n - a1)(xi_n - a2) + d1^2 mu^2 (n-1)(n+2) rho^(2n+1)."""
    xi = np_eigenvalue("T", n, lame)
    pair = cfg if isinstance(cfg, ADeltaPair) else a_delta(cfg)
    d1mu = elastic_sl_coeff("T", n, lame) * lame.mu  # = -1/(2n+1), material free
    rho = geom.rho
    return (xi - pair.a1) * (xi - pair.a2) + d1mu**2 * (n - 1) * (n + 2) * rho ** (2 * n + 1)


def transfer_factors(n, geom: ShellGeometry, cfg: PlasmonicConfig | ADeltaPair, lame: LameParams):
    """(phi_i / g_e, phi_e / g_e), the closed-form solve of the 2x2 system:

    phi_i = g_e (a2 - xi + d1 mu (n-1)) rho^(n-1) / D
    phi_e = -g_e (xi - a1 + d1 mu (n+2) rho^(2n+1)) / D
    `cfg` may be the pair (a1, a2) itself, e.g. loss-grid columns against n.
    """
    xi = np_eigenvalue("T", n, lame)
    pair = cfg if isinstance(cfg, ADeltaPair) else a_delta(cfg)
    d1mu = elastic_sl_coeff("T", n, lame) * lame.mu
    rho = geom.rho
    D = mode_denominator(n, cfg, geom, lame)
    if np.any(D == 0):
        raise ExactResonanceError(f"degree n={np.broadcast_to(n, np.shape(D))[D == 0]} is exactly resonant (D = 0)")
    return (
        (pair.a2 - xi + d1mu * (n - 1)) * rho ** (n - 1) / D,
        -(xi - pair.a1 + d1mu * (n + 2) * rho ** (2 * n + 1)) / D,
    )


def region_coefficients(n, phi_i, phi_e, geom: ShellGeometry, lame: LameParams):
    """Solid-harmonic coefficients of the scattered T potential F per region,
    u - F = grad F x x, from the layer densities, as series in x / r_e:

    core regular     d1 r_e (phi_i / rho^(n-1) + phi_e), the phi_i term 0 where
                     rho^(n-1) < 2.2e-308 (it is under rho^n at |x| <= r_i)
    shell regular    d1 r_e phi_e            (outer layer, interior form)
    shell decaying   d1 r_e rho^(n+2) phi_i  (inner layer, exterior form)
    matrix decaying  the sum of the shell's two
    """
    d1, rho = elastic_sl_coeff("T", n, lame) * geom.r_e, geom.rho
    inner = rho ** (n - 1)
    core = np.divide(phi_i, inner, out=np.zeros(np.broadcast(phi_i, inner).shape, complex),
                     where=inner >= np.finfo(float).tiny)
    regular, decaying = d1 * phi_e, d1 * rho ** (n + 2) * phi_i
    return d1 * (core + phi_e), regular, decaying, regular + decaying


def shell_energy(n, phi_i, phi_e, geom: ShellGeometry, delta: float, lame: LameParams):
    """Exact dissipated energy (delta/2) P_shell of degree n, per mode.

    For the divergence-free shell field a V_n + b T_n (the shell decaying and
    regular coefficients) the strain integral reduces to boundary terms,
    cross terms cancel and distinct modes decouple:
    E_n = (delta/2) n(n+1) (d1 mu)^2 (1 - rho^(2n+1)) r_e^3
          [(n+2) rho^3 (|phi_i| / sqrt mu)^2 + (n-1) (|phi_e| / sqrt mu)^2],
    with d1 mu = -1/(2n+1) and |phi| / sqrt mu ~ sqrt mu / r_e: no radius
    power grows with n, and no mu^2 is formed.  The material constants are
    the background (real) pair; the shell loss enters as the factor delta/2.
    """
    root_mu, rho = math.sqrt(complex(lame.mu).real), geom.rho
    return (
        0.5 * delta * n * (n + 1) * np.abs(elastic_sl_coeff("T", n, lame) * lame.mu) ** 2
        * (1 - rho ** (2 * n + 1)) * geom.r_e**3
        * ((n + 2) * rho**3 * (np.abs(phi_i) / root_mu) ** 2 + (n - 1) * (np.abs(phi_e) / root_mu) ** 2)
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
    n = np.arange(2, n_max + 1)
    g = source_coefficient(n, r_s, geom, lame, kappa)
    if kappa == 0:
        return SourceSpectrum([], [], [], r_s=r_s)
    half = n if spread_m else np.zeros_like(n)  # orders -half..half of each degree
    m = np.array([q for h in half.tolist() for q in range(-h, h + 1)], dtype=int)
    return SourceSpectrum(np.repeat(n, 2 * half + 1), m, np.repeat(g, 2 * half + 1), r_s=r_s)


@dataclass
class DensitySolution:
    """Layer densities on the two interfaces, T family: arrays phi_i, phi_e
    aligned with the degrees n and orders m of the source spectrum."""

    n: np.ndarray
    m: np.ndarray
    phi_i: np.ndarray
    phi_e: np.ndarray
    geom: ShellGeometry
    cfg: PlasmonicConfig
    lame: LameParams


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
    d1mu = elastic_sl_coeff("T", n, lame) * lame.mu
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
    t_i, t_e = transfer_factors(src.n, geom, cfg, lame)
    return DensitySolution(src.n, src.m, src.g * t_i, src.g * t_e, geom, cfg, lame)


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

def source_field(src: SourceSpectrum, geom: ShellGeometry, lame: LameParams, xyz) -> np.ndarray:
    """Source potential inside its convergence radius, a series in x / r_e:
    F = sum g_e r_e / (mu (n-1)) T-solid(x / r_e); the free constant is 0."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    if src.r_s is not None and np.any(np.linalg.norm(xyz, axis=-1) >= src.r_s):
        raise ValueError("source potential series only converges for |x| < r_s")
    coeffs = src.g * geom.r_e / (lame.mu * (src.n - 1))
    return solid_harmonic_series(src.n, src.m, coeffs, None, xyz / geom.r_e)[0]


def field_eval(sol: DensitySolution, xyz, src: SourceSpectrum | None = None) -> np.ndarray:
    """Scattered displacement u - F at Cartesian points, all three regions.

    Core (|x| <= r_i): both layers act through their interior forms.
    Shell: inner layer exterior form + outer layer interior form.
    Matrix (|x| > r_e): both exterior.  Each series (`region_coefficients`)
    is read at x / r_e.  Values are continuous across both interfaces.
    Given a source, its (convergent) potential is added.
    """
    geom = sol.geom
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    r = np.linalg.norm(xyz, axis=-1)
    out = np.zeros(xyz.shape, dtype=complex)
    core, shell_regular, shell_decaying, matrix = region_coefficients(sol.n, sol.phi_i, sol.phi_e, geom, sol.lame)
    regions = (
        (r <= geom.r_i, core, None),
        ((r > geom.r_i) & (r <= geom.r_e), shell_regular, shell_decaying),
        (r > geom.r_e, None, matrix),
    )
    for mask, regular, decaying in regions:
        if np.any(mask):
            out[mask] = solid_harmonic_series(sol.n, sol.m, regular, decaying, xyz[mask] / geom.r_e)[0]
    if src is not None:
        out += source_field(src, geom, sol.lame, xyz)
    return out


def scattered_gradient_factory(sol: DensitySolution):
    """Callable (radii, unit) -> iterator over the radii of (u, grad u) at
    the shell points r_e r unit (a product grid (rings, azimuths, 3)), analytic
    gradients: the T field u = grad F x x of the shell potential F of all modes
    (`solid_harmonic_shells`), with grad u[..., i, l] = d_l u_i in x / r_e.
    Each call builds the harmonic table of `unit` once for all its radii.
    """
    _, regular, decaying, _ = region_coefficients(sol.n, sol.phi_i, sol.phi_e, sol.geom, sol.lame)
    return partial(solid_harmonic_shells, sol.n, sol.m, regular, decaying, gradient=True)


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


def farfield_sample(sols: list[DensitySolution]) -> list[float]:
    """max |u - F| over 24 fixed probes at |x| = R = 1.05 r_e^2 / r_i, one
    value per solution; the probe directions are a golden-angle spiral,
    poles excluded: cos theta_k = 1 - (2k + 1) / 24, phi_k = k pi (3 - sqrt 5).
    The probe radius and directions are definitions with no oracle; the
    field they sample is checked against `field_eval` at the same points.

    The solutions must share one shell and material, and their spectra must
    be prefixes of one mode list, as a sweep's are.  Their densities,
    zero-padded, are (solutions, modes) arrays: one `region_coefficients`
    gives every matrix row, and one `solid_harmonic_series` call at the
    probes' x / r_e evaluates every row on one harmonic table.
    """
    longest = max(sols, key=lambda sol: sol.n.size)
    geom, lame = longest.geom, longest.lame
    # the zero-padded densities; rebinding `rows` to their coefficients frees them before the probes
    rows = np.zeros((2, len(sols), longest.n.size), dtype=complex)
    for j, sol in enumerate(sols):
        k = sol.n.size
        if not ((sol.geom, sol.lame) == (geom, lame) and np.array_equal(sol.n, longest.n[:k])
                and np.array_equal(sol.m, longest.m[:k])):
            raise ValueError("farfield_sample: the solutions must share one shell and material, "
                             "and their spectra must be prefixes of one mode list")
        rows[:, j, :k] = sol.phi_i, sol.phi_e
    rows = region_coefficients(longest.n, *rows, geom, lame)[3]
    k = np.arange(24)
    ct, phi = 1 - (2 * k + 1) / 24, k * math.pi * (3 - math.sqrt(5.0))
    st = np.sqrt(1 - ct * ct)
    unit = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)
    u, _ = solid_harmonic_series(longest.n, longest.m, None, rows, 1.05 / geom.rho * unit)
    return np.linalg.norm(u, axis=-1).max(axis=-1).tolist()


def energy_reports(sols: list[DensitySolution], quadrature: bool = False, rule=None,
                   per_mode=None) -> list[EnergyReport]:
    """The `EnergyReport` of each solution; one `farfield_sample` call gives every far field.

    energy_modal sums the exact per-mode closed form: row k of `per_mode`
    (the energy grid of `solve_sweep`, zero past solution k's modes) or else
    `shell_energy` of solution k.  energy_quadrature
    (optional) integrates the strain density over the shell volume with the
    brute-force angular `rule` (an oracle.QuadratureRule, default 24 x 48)
    and 16 radial nodes.  Both are (delta/2) * P_shell(u - F) of the shell,
    configuration and material the solution was solved for.
    """
    if quadrature:
        from .oracle import QuadratureRule, quad_energy_shell

        rule = rule or QuadratureRule(24, 48)
    e_quads = [quad_energy_shell(scattered_gradient_factory(sol), sol.lame, sol.cfg.delta, sol.geom, rule)
               if quadrature else None for sol in sols]
    if per_mode is None:
        per_mode = [shell_energy(sol.n, sol.phi_i, sol.phi_e, sol.geom, sol.cfg.delta, sol.lame) for sol in sols]
    reports = []
    for sol, e, farfield, e_quad in zip(sols, per_mode, farfield_sample(sols), e_quads):
        reports.append(EnergyReport(  # delta, n0, c_n and eps_n from the configuration
            **asdict(sol.cfg), energy_modal=math.fsum(e), energy_quadrature=e_quad, farfield_sample=farfield,
            dominant_n=int(sol.n[np.argmax(e)]) if sol.n.size else 0, n_trunc=int(sol.n.max(initial=0))))
    return reports


def energy(sol: DensitySolution, src: SourceSpectrum, geom: ShellGeometry, cfg: PlasmonicConfig, lame: LameParams,
           quadrature: bool = False, rule=None) -> EnergyReport:
    """The one-solution `energy_reports`: the shell energy two ways and the
    far field.  `src` is not read; `geom`, `cfg` and `lame` must equal the
    solution's (ValueError naming the field otherwise), and all four stay
    for positional callers."""
    for name, given in (("geom", geom), ("cfg", cfg), ("lame", lame)):
        if given != getattr(sol, name):
            raise ValueError(f"energy: {name} {given} differs from the solution's {getattr(sol, name)}")
    (report,) = energy_reports([sol], quadrature, rule)
    return report


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


def solve_sweep(delta_grid: list[float], geom: ShellGeometry, lame: LameParams, r_s: float, kappa: float,
                cfgs: list[PlasmonicConfig | None]) -> tuple[list[DensitySolution], np.ndarray, np.ndarray]:
    """Source synthesis and solve over a loss grid, each loss truncation-converged.

    A loss takes its configuration from `cfgs`, or if None the resonant one
    of its n0.  One pass evaluates E_n(delta) over (loss x degree) up to the
    hard cap.  A row's cut is the first k of truncation_degree(n0), +20, ...
    (capped at degree 400) with E_k < 1e-14 * (E_2 + ... + E_k); its solution
    is the row's prefix up to k, or empty when the total energy is 0 (kappa =
    0).  Returns the solutions, the source coefficients g_e^n of n = 2..400
    and the energy grid, each row zero past its cut.  A resonant degree whose
    baseline truncation passes the cap (a shell so thin, or a loss so small,
    that n0 > 380) at any loss raises ValueError before any degree array;
    a non-finite energy (it grows as kappa^2) raises ArithmeticError.
    """
    cfgs = [PlasmonicConfig.resonant(max(choose_n0(delta, geom), 2), delta) if cfg is None else cfg
            for delta, cfg in zip(delta_grid, cfgs)]
    for cfg in cfgs:
        if (start := truncation_degree(cfg.n0)) > _N_HARD_CAP:
            raise ValueError(
                f"resonant degree n0={cfg.n0} (rho={geom.rho:.9g}, delta={cfg.delta:g}) needs degrees "
                f"up to {start}, past the cap of {_N_HARD_CAP}; thicken the shell or raise the loss"
            )
    n = np.arange(2, _N_HARD_CAP + 1)
    g = source_coefficient(n, r_s, geom, lame, kappa)
    a = np.array([[[p.a1], [p.a2]] for p in map(a_delta, cfgs)])  # Python complex division, as for one loss
    t_i, t_e = transfer_factors(n, geom, ADeltaPair(a[:, 0], a[:, 1]), lame)
    phi_i, phi_e = g * t_i, g * t_e
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        e = shell_energy(n, phi_i, phi_e, geom, np.array([[cfg.delta] for cfg in cfgs]), lame)
    if not np.isfinite(e).all():
        raise ArithmeticError(f"shell energies overflow at kappa={kappa}, lambda={lame.lam}, mu={lame.mu}")
    sols = []
    for row, cfg in enumerate(cfgs):
        for n_max in [*range(truncation_degree(cfg.n0), _N_HARD_CAP, 20), _N_HARD_CAP]:
            total = math.fsum(e[row, : n_max - 1])
            if total == 0.0 or e[row, n_max - 2] < _ENERGY_FLOOR * total:
                break
        k = n_max - 1 if total else 0
        e[row, k:] = 0.0
        sols.append(DensitySolution(n[:k], np.zeros(k, dtype=int), phi_i[row, :k], phi_e[row, :k], geom, cfg, lame))
    return sols, g, e


def solve_sweep_point(delta: float, geom: ShellGeometry, lame: LameParams, r_s: float, kappa: float = 1.0,
                      cfg: PlasmonicConfig | None = None) -> tuple[SourceSpectrum, DensitySolution]:
    """The one-loss `solve_sweep`: the kept source spectrum and its solution."""
    (sol,), g, _ = solve_sweep([delta], geom, lame, r_s, kappa, [cfg])
    return SourceSpectrum(sol.n, sol.m, g[: sol.n.size], r_s=r_s), sol


@dataclass
class CalrSweep:
    """Result of a loss sweep: per-delta reports and the overall verdict."""

    reports: list[EnergyReport]
    verdict: str
    energy_ratio: float
    farfield_ratio: float
    r_s: float


_GROWTH_THRESHOLD = 1e3  # E(smallest loss) / E(largest loss) above this is blowup
_MIN_DECADES = 4.0  # shortest loss grid, in decades, that can tell blowup apart


def classify_calr(
    geom: ShellGeometry,
    lame: LameParams,
    r_s: float,
    delta_grid: list[float],
    kappa: float = 1.0,
    fixed_cfg: PlasmonicConfig | None = None,
    quadrature: bool = False,
) -> CalrSweep:
    """Run the full pipeline over a decreasing loss grid and classify.

    Per grid point the resonant degree is re-chosen (rho^n0 < delta <=
    rho^(n0-1)) and the plasmonic parameters re-tuned, unless a fixed
    configuration is supplied.  One `solve_sweep` solves every loss, and one
    `energy_reports` pass reads its energy grid.  Verdict "resonant" requires
    the energy to grow by more than 1e3 from the largest to the smallest loss
    over a grid spanning at least 4 decades; a source with zero energy
    throughout (kappa = 0) is "bounded"; grids too short to decide return
    "insufficient-grid"; r_s equal to the critical radius returns "boundary".
    """
    if not delta_grid:
        raise ValueError("delta grid is empty")
    if any(d2 >= d1 for d1, d2 in zip(delta_grid, delta_grid[1:])):
        raise ValueError("delta grid must be strictly decreasing")
    cfgs = [None if fixed_cfg is None else replace(fixed_cfg, delta=delta) for delta in delta_grid]
    sols, _, per_mode = solve_sweep(delta_grid, geom, lame, r_s, kappa, cfgs)
    reports = energy_reports(sols, quadrature, per_mode=per_mode)

    energies = [r.energy_modal for r in reports]
    farfields = [r.farfield_sample for r in reports]
    with np.errstate(divide="ignore", invalid="ignore"):  # x/0 is inf, 0/0 (no source) nan
        energy_ratio = float(np.float64(max(energies)) / min(energies))
        farfield_ratio = float(np.float64(max(farfields)) / min(farfields))

    rstar = geom.critical_radius
    decades = math.log10(delta_grid[0] / delta_grid[-1])  # 0 for a one-point grid
    if math.isclose(r_s, rstar, rel_tol=1e-12):
        verdict = "boundary"
    elif decades < _MIN_DECADES:
        verdict = "insufficient-grid"
    elif energies[-1] > _GROWTH_THRESHOLD * energies[0]:
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
    )
