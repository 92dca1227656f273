"""Closed-form expected profits and their exact partial derivatives.

The scaled profits 24*E_i are multilinear polynomials in the eleven
frequencies (no frequency appears squared, and no product of two
frequencies owned by the same player occurs).  Two consequences are used
throughout the package:

* each E_i is jointly affine in player i's own frequencies, so the partial
  derivative of E_i with respect to one of her frequencies depends only on
  the opponents' frequencies (and the pot), and a best response decomposes
  coordinatewise;
* every second partial is a constant or an affine function of a single
  other frequency, so the Jacobian of the adjustment dynamics is available
  in closed form (:func:`gradient_cross`).

The polynomials are transcribed once, in :func:`_partials`: the scaled
partial g_f = 24 * dE_owner/df of every frequency, each brace auditable
against the tree-walk oracle term by term.  :func:`_profits` adds each
player's own-free remainder, 24*E_i = sum of g_f * f over the f player i
owns + r_i.  The Hessian of :func:`gradient_cross` is read off the
transcription once, at import, by evaluating it on unit corners.

:func:`expected_profit_scaled` and :func:`gradient_cross` also take a stack:
an (n, 11) array of frequency rows with an array of n pots.  A stack runs
the same elementwise operations in the same order as n single calls, so
each of its rows is bit-identical to the single call; the catalog sweeps
use this to evaluate a block of rows in one call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .game_model import (ProfitVector, StrategyProfile, check_pot,
                         check_pots)

__all__ = [
    "GradientVector",
    "expected_profit",
    "expected_profit_scaled",
    "gradient",
    "gradient_cross",
    "gradient_scaled",
]


class GradientVector(NamedTuple):
    """Partial derivative of the owning player's expected profit with
    respect to each frequency, in chips per unit frequency."""

    a1: float
    b1: float
    c1: float
    d1: float
    a2: float
    b2: float
    c2: float
    d2: float
    b3: float
    c3: float
    d3: float

    def as_array(self) -> np.ndarray:
        return np.array(self)


def _partials(f, P) -> tuple:
    """Scaled partials 24 * dE_owner/df in canonical frequency order.

    Duck-typed: ``f`` unpacks into the eleven frequencies and ``P`` is the
    pot, as Python floats, numpy arrays (batched evaluation), sympy
    symbols, or the recording values from which :mod:`kuhn3._stepper`
    generates its right-hand side (so only ``+``, ``-`` and ``*``).
    """
    a1, b1, c1, d1, a2, b2, c2, d2, b3, c3, d3 = f
    return (
        -2 * b2 + 2 * c2 - 2 * b3 + 2 * d3 - b2 * c3,       # a1
        2 * P - 4 - (P + 1) * (c2 + d3),                    # b1
        b2 - 2 + (P + a2) * b3,                             # c1
        (P + 1) * b2 - 2 * a2,                              # d1
        2 * d1 + 2 * c3 - 2 * b3 - c1 * b3 - b1 * c3,       # a2
        2 * P - 4 + 2 * a1 - (P + 1) * (c3 + d1),           # b2
        P * b1 - 2 * a1,                                    # c2
        (P + 1) * b3 - 2 + b1,                              # d2
        2 * P - 4 + 2 * a1 + 2 * a2 - (P + 1) * (c1 + d2),  # b3
        (P + a1) * b2 - (2 - b1) * a2,                      # c3
        (P + 1) * b1 - 2 * a1,                              # d3
    )


def _profits(f, P, g) -> tuple:
    """Scaled profits (24*E1, 24*E2, 24*E3) from the partials ``g`` of
    :func:`_partials`: the owned terms plus each player's remainder, which
    is free of the player's own frequencies.  Duck-typed like
    :func:`_partials`; e3 is assembled on its own, not as -(e1 + e2)."""
    a1, b1, c1, d1, a2, b2, c2, d2, b3, c3, d3 = f
    return (
        g[0] * a1 + g[1] * b1 + g[2] * c1 + g[3] * d1
        + (2 - P) * b3 + (2 + c3 - P) * b2,
        g[4] * a2 + g[5] * b2 + g[6] * c2 + g[7] * d2
        + (2 - P + c1) * b3 + (2 - P) * b1,
        g[8] * b3 + g[9] * c3 + g[10] * d3
        + (2 - P - c1) * b2 + 2 * c1 + (2 - P + c2 - d2) * b1 + 2 * d2,
    )


def _as_rows(profile, pot) -> tuple:
    """(F, P, stacked): frequency rows F of shape (n, 11) and pots P of
    shape (n,), from one profile and its pot (n = 1, ``stacked`` false) or
    from an (n, 11) array of frequency rows and n pots."""
    if isinstance(profile, StrategyProfile):
        return (np.array([profile.as_tuple()]), np.array([check_pot(pot)]),
                False)
    F = np.asarray(profile, dtype=float)
    P = check_pots(pot)
    if F.ndim != 2 or F.shape[1] != 11 or P.shape != F.shape[:1]:
        raise ValueError(f"expected (n, 11) frequency rows and n pots, "
                         f"got shapes {F.shape} and {P.shape}")
    return F, P, True


def expected_profit_scaled(profile, pot) -> tuple:
    """The scaled profit triple (24*E1, 24*E2, 24*E3).

    For (n, 11) frequency rows and n pots, a triple of (n,) arrays.
    """
    if isinstance(profile, StrategyProfile):
        f, P = profile.as_tuple(), check_pot(pot)
    else:
        F, P, _ = _as_rows(profile, pot)
        f = F.T
    return _profits(f, P, _partials(f, P))


def expected_profit(profile: StrategyProfile, pot: float) -> ProfitVector:
    """Expected profit per player relative to the all-check baseline."""
    e1, e2, e3 = expected_profit_scaled(profile, pot)
    return ProfitVector(e1 / 24.0, e2 / 24.0, e3 / 24.0)


def gradient_scaled(profile: StrategyProfile, pot: float) -> tuple:
    """Scaled partials (24 * dE_i/df for the owner of each f), in the
    canonical frequency order."""
    return _partials(profile.as_tuple(), check_pot(pot))


def gradient(profile: StrategyProfile, pot: float) -> GradientVector:
    """Exact gradient dE_owner/df per frequency (chips per unit frequency)."""
    return GradientVector(*(g / 24.0 for g in gradient_scaled(profile, pot)))


def _cross_coefficients() -> tuple:
    """(L0, L1, I, J, K, Q0, Q1) with d g_i/d f_j = L[i, j] plus, for the
    table entry t with (I[t], J[t]) = (i, j), the bilinear term
    Q[t] * f_K[t]; L = L0 + P L1 and Q = Q0 + P Q1.

    Read off :func:`_partials` at the unit corners 0, e_j and e_j + e_k,
    at P = 0 and P = 1, in one batched call.  This is exact: every partial
    is multilinear of degree <= 2 in the other players' frequencies, with
    small integer coefficients affine in P, so its value at 0, e_j and
    e_j + e_k gives the constant, the linear coefficient l_j and the
    bilinear coefficient q_jk exactly.  The table keeps the nonzero q_jk
    only, once as (i, j, k) and once as (i, k, j); no (i, j) occurs twice.
    """
    n = 11
    j, k = np.triu_indices(n, 1)
    eye = np.eye(n)
    corners = np.concatenate([np.zeros((1, n)), eye, eye[j] + eye[k]])
    pot = np.repeat([0.0, 1.0], len(corners))
    g = np.array(_partials(np.tile(corners, (2, 1)).T, pot))
    v = g.reshape(n, 2, -1).swapaxes(0, 1)        # (pot, partial, corner)
    g0, gj, gjk = v[..., :1], v[..., 1:1 + n], v[..., 1 + n:]
    L = gj - g0
    Q = (gjk - gj[..., j]) - (gj[..., k] - g0)   # (pot, partial, pair j < k)
    i, p = np.nonzero(Q.any(axis=0))
    q0, q1 = Q[0, i, p], Q[1, i, p] - Q[0, i, p]
    return (L[0], L[1] - L[0], np.tile(i, 2), np.concatenate([j[p], k[p]]),
            np.concatenate([k[p], j[p]]), np.tile(q0, 2), np.tile(q1, 2))


_L0, _L1, _QI, _QJ, _QK, _Q0, _Q1 = _cross_coefficients()


def gradient_cross(profile, pot) -> np.ndarray:
    """11x11 matrix H with H[i, j] = d(24 * dE/df_i)/df_j.

    Row order and column order follow ``FREQ_NAMES``.  Entries for j owned
    by the same player as i are identically zero (joint affinity), so only
    cross-player couplings appear.  For (n, 11) frequency rows and n pots,
    the (n, 11, 11) stack.
    """
    F, P, stacked = _as_rows(profile, pot)
    H = P[:, None, None] * _L1
    H += _L0
    H[:, _QI, _QJ] += (_Q0 + P[:, None] * _Q1) * F[:, _QK]
    return H if stacked else H[0]
