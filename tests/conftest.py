import numpy as np
import pytest

from npshell import harmonics
from npshell.kelvin import LameParams
from npshell.oracle import QuadratureRule


@pytest.fixture
def lame():
    return LameParams(1.0, 1.0)


@pytest.fixture
def lame21():
    return LameParams(2.0, 1.0)


@pytest.fixture
def rule():
    return QuadratureRule(32, 64)


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)


@pytest.fixture
def empty_grid_tables(monkeypatch):
    """No table kept by `harmonics._grid_columns` or `harmonics._weight_table`, as in a fresh
    process, for the test's duration."""
    monkeypatch.setattr(harmonics, "_grid_tables", {})
    monkeypatch.setattr(harmonics, "_weights", [-1, -1, 0, None, None])


@pytest.fixture
def legendre_builds(monkeypatch, empty_grid_tables):
    """The (degree, orders, z) of every `_legendre_table` call, starting with no grid table kept."""
    builds, table = [], harmonics._legendre_table

    def counted(n, orders, z, st):
        builds.append((n, orders, np.array(z)))
        return table(n, orders, z, st)

    monkeypatch.setattr(harmonics, "_legendre_table", counted)
    return builds


def random_surface_angles(rng, count):
    """Random angles bounded away from the poles for coordinate formulas."""
    theta = rng.uniform(0.05, np.pi - 0.05, size=count)
    phi = rng.uniform(0.0, 2 * np.pi, size=count)
    return theta, phi


def assert_pointwise(actual, reference, rtol=1e-13):
    """|actual - reference| <= rtol |reference| at every point (rows of axis 0)."""
    err = np.linalg.norm((actual - reference).reshape(len(actual), -1), axis=1)
    scale = np.linalg.norm(reference.reshape(len(reference), -1), axis=1)
    assert np.all(err <= rtol * scale), float(np.max(err / np.maximum(scale, 1e-300)))


def shell_fields(values, trig, gradient=True):
    """Per shell, (u, grad u or None) on the grid from the factored
    (values, trig) of `solid_harmonic_shells`: a grid value is values @ trig."""
    grid = np.moveaxis(np.moveaxis(values @ trig, -4, -1), -4, 0)  # (shell,) + sets + (ring, azimuth, component)
    return [(g[..., :3], g[..., 3:].reshape(g.shape[:-1] + (3, 3)) if gradient else None) for g in grid]


def pointwise_shells(fields):
    """A pointwise field in the factored contract of `quad_energy_shell`:
    fields(r, unit) gives (u, grad u) at the grid r unit, and the callable
    returns the rows `combine` of (u, grad u) at every node, trig the
    identity over the azimuths."""
    def u_grad(radii, unit, combine):
        comps = [np.concatenate([u, grad.reshape(u.shape[:-1] + (9,))], axis=-1) for u, grad in
                 (fields(r, unit) for r in radii)]
        return np.moveaxis(np.stack(comps) @ combine.T, -1, 0), np.eye(unit.shape[1])

    return u_grad
