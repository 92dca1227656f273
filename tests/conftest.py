import os

import numpy as np
import pytest

import kuhn3

#: Pot values spanning every validity regime, used by oracle-equivalence
#: and gradient sampling tests.
POT_SAMPLE = (2.0, 2.5, 3.0, 3.1, 3.35, 3.5, 3.75, 4.0, 4.15, 4.65, 5.0,
              6.0, 8.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def subprocess_env():
    """Environment in which a child Python imports this same kuhn3."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(kuhn3.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
