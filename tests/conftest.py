import functools
import os

import numpy as np
import pytest

import kuhn3
from kuhn3 import catalog
from kuhn3.analytic_ev import _partials

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


def stacked_rows(rng, n: int = 150) -> tuple:
    """(F, P): seeded frequency rows (interior, with many entries exactly 0
    or 1, and the catalog profiles at ``POT_SAMPLE``) and their pots."""
    interior = rng.uniform(0.05, 0.95, (n, 11))
    corner = rng.uniform(0.0, 1.0, (n, 11))
    mask = rng.random((n, 11)) < 0.5
    corner[mask] = rng.integers(0, 2, mask.sum())
    pots = list(rng.uniform(2.0, 8.0, 2 * n))
    rows = [*interior, *corner]
    for pot in POT_SAMPLE:
        for sid in catalog.solutions_for_pot(pot):
            rows.append(catalog.instantiate(sid, pot).as_tuple())
            pots.append(pot)
    return np.array(rows), np.array(pots)


@functools.cache
def _dense_cross_coefficients() -> tuple:
    """(L0, L1, Q0, Q1) of the dense form of the gradient's Jacobian,
    d g_i/d f_j = L0 + P L1 + sum_k (Q0 + P Q1)[i, j, k] f_k, read off the
    transcribed partials at the unit corners 0, e_j and e_j + e_k."""
    n = 11
    j, k = np.triu_indices(n, 1)
    eye = np.eye(n)
    corners = np.concatenate([np.zeros((1, n)), eye, eye[j] + eye[k]])
    pot = np.repeat([0.0, 1.0], len(corners))
    g = np.array(_partials(np.tile(corners, (2, 1)).T, pot))
    v = g.reshape(n, 2, -1).swapaxes(0, 1)
    g0, gj, gjk = v[..., :1], v[..., 1:1 + n], v[..., 1 + n:]
    L = gj - g0
    Q = np.zeros((2, n, n, n))
    Q[..., j, k] = Q[..., k, j] = (gjk - gj[..., j]) - (gj[..., k] - g0)
    return L[0], L[1] - L[0], Q[0], Q[1] - Q[0]


def dense_gradient_cross(f, pot: float) -> np.ndarray:
    """Reference for ``gradient_cross``: the (11, 11, 11) contraction."""
    L0, L1, Q0, Q1 = _dense_cross_coefficients()
    return L0 + pot * L1 + (Q0 + pot * Q1) @ np.asarray(f)


def bits(a) -> np.ndarray:
    """The raw bits of a float or complex array, so -0.0 and 0.0 differ."""
    a = np.ascontiguousarray(a)
    if a.dtype.kind == "c":
        a = a.view(np.float64)
    return a.astype(np.float64, copy=False).view(np.uint64)
