import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import scatterlab as sl


@pytest.fixture(scope="session")
def empty_scene():
    return sl.Scene(dimension=2, ball_radius=10.0)


@pytest.fixture(scope="session")
def disk_scene():
    """Single unit disk at the ball center."""
    return sl.Scene(dimension=2, bodies=(sl.ball((0.0, 0.0), 1.0),), ball_radius=10.0)


@pytest.fixture(scope="session")
def two_disk_scene():
    return sl.Scene(dimension=2,
                    bodies=(sl.ball((-3.0, 0.0), 1.0), sl.ball((3.0, 0.0), 1.0)),
                    ball_radius=10.0)


@pytest.fixture(scope="session")
def three_disk_scene():
    return sl.Scene(dimension=2,
                    bodies=(sl.ball((3.2, 0.0), 1.0),
                            sl.ball((-1.6, 2.8), 1.0),
                            sl.ball((-1.6, -2.8), 1.0)),
                    ball_radius=10.0)


@pytest.fixture(scope="session")
def ball_ellipsoid_scene():
    """A ball and a tilted ellipsoid in d = 3."""
    c, s = math.cos(0.5), math.sin(0.5)
    tilt = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return sl.Scene(dimension=3,
                    bodies=(sl.ball((-3.0, 0.0, 0.0), 1.0),
                            sl.ellipsoid((3.0, 0.5, 0.0), (1.5, 1.0, 0.7), tilt)),
                    ball_radius=10.0)
