import numpy as np
import pytest

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
