"""Closed-form expected profits and their exact partial derivatives.

The scaled profits 24*E_i are multilinear polynomials in the eleven
frequencies (no frequency appears squared, and no product of two
frequencies owned by the same player occurs).  So each E_i is jointly
affine in player i's own frequencies: the partial derivative of E_i with
respect to one of her frequencies depends only on the opponents'
frequencies (and the pot), and a best response decomposes coordinatewise.

The polynomials are transcribed once, in :func:`_partials`: the scaled
partial g_f = 24 * dE_owner/df of every frequency, each brace auditable
against the tree-walk oracle term by term.  :func:`_profits` adds each
player's own-free remainder, 24*E_i = sum of g_f * f over the f player i
owns + r_i.  :func:`gradient_cross` evaluates the :func:`_derivative`
of each partial, generated from the same transcription once, at import.

:func:`expected_profit_scaled` and :func:`gradient_cross` also take a stack:
an (n, 11) array of frequency rows with an array of n pots.  A stack runs
the same elementwise operations in the same order as n single calls, so
each of its rows is bit-identical to the single call; the catalog sweeps
use this to evaluate a block of rows in one call.
"""

from __future__ import annotations

import linecache
from typing import NamedTuple

import numpy as np

from .game_model import (FREQ_NAMES, ProfitVector, StrategyProfile,
                         check_pot, check_pots)

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


class _Expr:
    """A symbolic value: a formula as a tree of + - * / ^ and calls, built
    by running plain arithmetic on ``_Expr`` leaves (``np.sqrt`` calls
    :meth:`sqrt`).  A leaf is a name: a frequency, the pot, or a free
    parameter pinned at ``pin`` for a family's branch to compare.  The
    catalog prints its family formulas from such trees, and :func:`_lower`
    writes those of :func:`_partials`, :func:`_profits` and their
    :func:`_derivative` as code.  It has no truth value: a branch on one
    would fix a single path into the tree."""

    def __init__(self, op: str, *args, pin=None):
        self.op, self.args, self.pin, self.compared = op, args, pin, False

    def __add__(self, other): return _Expr("+", self, other)
    def __radd__(self, other): return _Expr("+", other, self)
    def __sub__(self, other): return _Expr("-", self, other)
    def __rsub__(self, other): return _Expr("-", other, self)
    def __mul__(self, other): return _Expr("*", self, other)
    def __rmul__(self, other): return _Expr("*", other, self)
    def __truediv__(self, other): return _Expr("/", self, other)
    def __rtruediv__(self, other): return _Expr("/", other, self)

    def sqrt(self):
        return _Expr("sqrt", self)

    def __le__(self, other):
        self.compared = True
        return self.pin <= other

    def __bool__(self):
        raise TypeError("a symbolic value has no truth value")


def _derivative(x, name: str):
    """The tree of dx/d``name``, for a tree ``x`` that :func:`_lower` takes:
    1 for the leaf ``name``, 0 for another leaf or a constant, and for
    ``+``, ``-`` and ``*`` the sum, difference and product rule
    (da * b + a * db), with 0 terms dropped and factors of 1 folded away;
    0 - db stays 0 - db, which keeps the sign of a zero."""
    if not (isinstance(x, _Expr) and x.args and x.op in ("+", "-", "*")):
        _lower(x, {})  # a leaf or a constant; anything else is a TypeError
        return int(isinstance(x, _Expr) and x.op == name)
    a, b = x.args
    da, db = _derivative(a, name), _derivative(b, name)
    op = x.op
    if op == "*":
        da = 0 if da == 0 else b if da == 1 else _Expr("*", da, b)
        db = 0 if db == 0 else a if db == 1 else _Expr("*", a, db)
        op = "+"
    if db == 0:
        return da
    return db if da == 0 and op == "+" else _Expr(op, da, db)


def _compile(name: str, lines: list, namespace: dict):
    """The function ``name`` (module-qualified) that the generated source
    ``lines`` define, run in ``namespace``; tracebacks and
    ``inspect.getsource`` show its lines."""
    source = "\n".join(lines) + "\n"
    filename = f"<generated {name}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name.rpartition(".")[2]]


def _lower(x, ops: dict) -> str:
    """The name of the float local holding ``x`` in generated code.

    ``x`` is a tree of :class:`_Expr` nodes, lowered in post-order: a leaf
    gives its name, an int or float constant its ``repr``, and a ``+``,
    ``-`` or ``*`` node the result of one statement ``tN = a op b``, kept
    in ``ops`` (a dict from ``(a, op, b)`` to ``tN``) in the order Python
    built the nodes.  A node already lowered on the same operands gives the
    earlier result: it is the same IEEE operation on the same values, so it
    gives the same bits.  Anything else raises ``TypeError``.
    """
    if isinstance(x, _Expr):
        if not x.args:
            return x.op
        if x.op in ("+", "-", "*"):
            a, b = (_lower(v, ops) for v in x.args)
            return ops.setdefault((a, x.op, b), f"t{len(ops)}")
    elif type(x) in (int, float):
        return repr(x)
    what = x.op if isinstance(x, _Expr) else type(x).__name__
    raise TypeError("generated code is straight-line +, - and * on int and "
                    f"float constants only, not {what}")


def _partials(f, P) -> tuple:
    """Scaled partials 24 * dE_owner/df in canonical frequency order.

    Duck-typed: ``f`` unpacks into the eleven frequencies and ``P`` is the
    pot, as Python floats, numpy arrays (batched evaluation), sympy
    symbols, or :class:`_Expr` leaves, from whose trees
    :mod:`kuhn3._stepper` generates its right-hand side (so only ``+``,
    ``-``, ``*`` and int or float constants, and no branch).
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


def _build_cross():
    """``_cross(<11 frequencies>, pot)``, the d g_i/d f_j of :func:`_partials`
    that are not identically 0, and the list of their (i, j)."""
    g = _partials([_Expr(n) for n in FREQ_NAMES], _Expr("pot"))
    ops: dict = {}
    entries = {(i, j): _lower(d, ops) for i, g_i in enumerate(g)
               for j, d in enumerate(_derivative(g_i, n) for n in FREQ_NAMES)
               if d != 0}
    lines = [f"def _cross({', '.join(FREQ_NAMES)}, pot):",
             *(f"    {r} = {a} {op} {b}" for (a, op, b), r in ops.items()),
             f"    return ({', '.join(entries.values())})"]
    return _compile(f"{__name__}._cross", lines, {}), tuple(entries)


_cross, _CROSS_IJ = _build_cross()
#: _CROSS_IJ as an index of an 11x11 array
_CROSS_AT = tuple(np.array(_CROSS_IJ).T)


def gradient_cross(profile, pot) -> np.ndarray:
    """11x11 matrix H with H[i, j] = d(24 * dE/df_i)/df_j.

    Row order and column order follow ``FREQ_NAMES``.  Entries for j owned
    by the same player as i are identically zero (joint affinity), so only
    cross-player couplings appear.  For (n, 11) frequency rows and n pots,
    the (n, 11, 11) stack; one profile is evaluated on Python floats, with
    the bits of its row in a stack.
    """
    if isinstance(profile, StrategyProfile):
        H = np.zeros((11, 11))
        H[_CROSS_AT] = _cross(*profile.as_tuple(), check_pot(pot))
        return H
    F, P, _ = _as_rows(profile, pot)
    H = np.zeros((len(F), 11, 11))
    for (i, j), h in zip(_CROSS_IJ, _cross(*F.T, P)):
        H[:, i, j] = h
    return H
