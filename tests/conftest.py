import os
from pathlib import Path

import numpy as np
import pytest

from curvemvg import scenes
from curvemvg.curve_models import preset_curve

# the tests that start a fresh interpreter find the package the way pytest's
# own pythonpath setting lets the in-process tests find it
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def cams():
    return scenes.camera_ring(np.random.default_rng(19), 8)


@pytest.fixture(scope="session")
def conic():
    return preset_curve("conic", 11)


@pytest.fixture(scope="session")
def cubic():
    return preset_curve("twisted_cubic", 3)


@pytest.fixture(scope="session")
def quartic():
    return preset_curve("rational_quartic", 4)


@pytest.fixture(scope="session")
def quintic():
    return preset_curve("rational_quintic", 5)
