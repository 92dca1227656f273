"""The analytic equilibrium catalog.

Fourteen solution families cover every equilibrium of the game for
P >= 2: ten interval families ("1" .. "10") and four point families at
P = 2, 3, 7/2 and 5 ("1a", "2a", "5a", "10a").  Each family fixes most
frequencies by a closed-form expression in the pot size and leaves the
rest to free parameters constrained to closed intervals (for example the
sum c2 + d3 together with its split).

Instantiating a family at any pot in its validity range, with any
admissible free parameters, yields a profile that passes the
best-response check of :mod:`kuhn3.verify`; the test suite sweeps every
family over a fine pot grid with the free parameters at both interval
endpoints and at the midpoint.

The ``_params_*`` and ``_build_*`` functions are duck-typed: the pot P
may be a float or a 1-D array of pots.  :func:`instantiate` calls them
with one float; :func:`profile_rows` calls them once with an array and
yields the same rows bit for bit, because numpy and Python round
+ - * / and square roots alike, and the few integer powers go through
Python's ``**`` pot by pot.

Three pot ranges admit three coexisting interval families:
(P3, P4), (P6, 4) and (P8, P9), with the critical pots

    P3 = (3 + sqrt(97)) / 4   ~ 3.2122
    P4 = (3 + sqrt(15)) / 2   ~ 3.4365
    P6 = (3 + sqrt(23)) / 2   ~ 3.8979
    P8 = (7 + sqrt(105)) / 4  ~ 4.3117
    P9 = (7 + sqrt(113)) / 4  ~ 4.4075
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import analytic_ev
from .game_model import (FREQ_NAMES, FREQ_TOL, ProfitVector,
                         StrategyProfile, check_pot, check_pots)

__all__ = [
    "CriticalPots",
    "EquilibriumSolution",
    "FreeParam",
    "FreeParamViolation",
    "PotOutOfRange",
    "SOLUTION_IDS",
    "catalog_json",
    "critical_pots",
    "equilibrium_profit",
    "free_parameters",
    "instantiate",
    "profile_rows",
    "rows_at",
    "solution",
    "solutions_for_pot",
    "validity_range",
]

_TOL = 1e-9


class PotOutOfRange(ValueError):
    """Pot size outside the validity range of the requested solution."""


class FreeParamViolation(ValueError):
    """Free parameter missing, unknown, or outside its admissible interval."""


class CriticalPots(NamedTuple):
    """Pot sizes at which the set of valid solution families changes."""

    p3: float
    p4: float
    p6: float
    p8: float
    p9: float


_P3 = (3 + math.sqrt(97)) / 4
_P4 = (3 + math.sqrt(15)) / 2
_P6 = (3 + math.sqrt(23)) / 2
_P8 = (7 + math.sqrt(105)) / 4
_P9 = (7 + math.sqrt(113)) / 4


def critical_pots() -> CriticalPots:
    return CriticalPots(_P3, _P4, _P6, _P8, _P9)


class FreeParam(NamedTuple):
    """One free parameter with its admissible closed interval."""

    name: str
    lo: float
    hi: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class EquilibriumSolution:
    """A catalog entry: validity range, closed-form frequency expressions,
    and the family's free parameters.

    ``params`` produces the free parameters in resolution order; bounds of
    a later parameter may depend on the values chosen for earlier ones.
    ``build`` maps (pot, resolved parameter dict) to the frequency dict.
    """

    id: str
    lo: float
    hi: float
    formulas: dict = field(repr=False)
    params: Callable = field(repr=False)
    build: Callable = field(repr=False)

    def contains(self, pot):
        """Whether ``pot`` (a float, or an array elementwise) is valid."""
        return (self.lo - _TOL <= pot) & (pot <= self.hi + _TOL)


def _freqs(**kw) -> dict:
    out = {n: 0.0 for n in
           ("a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2", "b3", "c3", "d3")}
    out.update(kw)
    return out


def _addend(name: str, total) -> FreeParam:
    """The first addend of a sum ``total``: free wherever both addends
    stay in [0, 1]."""
    return FreeParam(name, np.maximum(0.0, total - 1.0),
                     np.minimum(1.0, total))


def _free_sum(first: str, second: str, lo, hi, q):
    """The sum ``first + second`` free in [lo, hi], then its first addend
    (see :func:`_addend`)."""
    total = f"{first}_plus_{second}"
    yield FreeParam(total, lo, hi)
    yield _addend(first, q[total])


def _pow(x, k: int):
    """``x ** k`` by Python's float power, pot by pot for an array.

    numpy rounds integer powers differently (its ``P**3`` differs from
    Python's on 145 of the 3001 pots of [2, 8] at step 0.002), so array
    rows would not match :func:`instantiate`'s.  An overflow (family 10
    above P ~ 1.3e154) is a ``ValueError``: an infinite denominator would
    round a small frequency to zero and move the profile to the boundary.
    """
    if isinstance(x, np.ndarray):
        return np.array([_pow(v, k) for v in x.tolist()])
    try:
        return float(x) ** k
    except OverflowError:
        raise ValueError(f"pot too large: {x:g}**{k} overflows") from None


# -- family definitions ------------------------------------------------------

def _params_1a(P, q):
    yield FreeParam("b3", 0.0, 2 / 3)
    yield from _free_sum("c3", "d1", 0.0, q["b3"], q)
    yield from _free_sum("c2", "d3", 0.0, q["b3"], q)


def _build_1a(P, q):
    return _freqs(b3=q["b3"], c3=q["c3"], d1=q["c3_plus_d1"] - q["c3"],
                  c2=q["c2"], d3=q["c2_plus_d3"] - q["c2"])


def _params_1(P, q):
    lo, hi = (2 * P - 4) / (P + 1), 2 / (P + 1)
    yield from _free_sum("c3", "d1", lo, hi, q)
    yield from _free_sum("c2", "d3", lo, hi, q)


def _build_1(P, q):
    return _freqs(b3=2 / (P + 1), d2=(2 * P - 4) / (P + 1),
                  c3=q["c3"], d1=q["c3_plus_d1"] - q["c3"],
                  c2=q["c2"], d3=q["c2_plus_d3"] - q["c2"])


def _params_2a(P, q):
    yield FreeParam("a2", 0.0, 0.5)
    yield from _free_sum("c2", "d3", 0.5, 0.5 + 0.5 * q["a2"], q)


def _build_2a(P, q):
    a2 = q["a2"]
    return _freqs(a2=a2, b2=0.5 * a2, b3=0.5, d2=0.5 * (1 + a2), d1=0.5,
                  c2=q["c2"], d3=q["c2_plus_d3"] - q["c2"])


def _build_2(P, q):
    return _freqs(a2=0.5, b2=1 / (P + 1), b3=2 / (P + 1), c1=2 * P - 6,
                  d2=(3 + 6 * P - 2 * P * P) / (P + 1),
                  d1=(2 * P - 4) / (P + 1),
                  c2=q["c2"], d3=q["c2_plus_d3"] - q["c2"])


def _a2_sol3(P):
    disc = _pow(P, 4) - 4 * _pow(P, 3) + 4 * P * P + 12 * P + 12
    return 0.5 * (4 - P * P + np.sqrt(disc))


def _params_3(P, q):
    a2 = _a2_sol3(P)
    b2 = 2 * a2 / (P + 1)
    b3 = (2 - b2) / (P + a2)
    return _free_sum("c2", "d3", (2 * P - 4) / (P + 1), b2 + b3, q)


def _build_3(P, q):
    a2 = _a2_sol3(P)
    b2 = 2 * a2 / (P + 1)
    return _freqs(a2=a2, b2=b2, b3=(2 - b2) / (P + a2),
                  c1=(2 * P - 4 + 2 * a2) / (P + 1),
                  d1=(2 * P - 4) / (P + 1),
                  c2=q["c2"], d3=q["c2_plus_d3"] - q["c2"])


def _build_4(P, q):
    return _freqs(a2=0.5 * (5 - P), b2=(5 - P) / (P + 1),
                  b3=4 * (P - 2) / (3 * (P + 1)), c1=1.0,
                  d1=(2 * P - 4) / (P + 1),
                  c2=q["c2"], d3=q["c2_plus_d3"] - q["c2"])


def _params_5a(P, q):
    yield FreeParam("a2", 0.75, 1.0)
    yield from _free_sum("c2", "d3", 2 / 3, (4 / 9) * (1 + q["a2"]), q)


def _build_5a(P, q):
    a2 = q["a2"]
    return _freqs(a2=a2, b2=(4 / 9) * a2, b3=4 / 9, c1=1.0,
                  d2=(4 / 9) * a2 - 1 / 3, d1=2 / 3,
                  c2=q["c2"], d3=q["c2_plus_d3"] - q["c2"])


def _build_5(P, q):
    return _freqs(a2=1.0, b2=2 / (P + 1), b3=2 / (P + 1), c1=1.0,
                  d2=(P - 3) / (P + 1), d1=(2 * P - 4) / (P + 1),
                  c2=q["c2"], d3=q["c2_plus_d3"] - q["c2"])


def _no_params(P, q):
    return iter(())


def _build_6(P, q):
    return _freqs(a1=(4 - P) * (P + 1), b1=2 * (4 - P), a2=1.0,
                  b2=2 / (P + 1), b3=2 * (P - 3) / (P + 1), c1=1.0,
                  d2=(5 + 7 * P - 2 * P * P) / (P + 1),
                  d1=(4 + 8 * P - 2 * P * P) / (P + 1),
                  d3=(2 * P - 4) / (P + 1))


def _build_7(P, q):
    return _freqs(a1=0.5, b1=1 / (P + 1), a2=1.0, b2=2 / (P + 1),
                  b3=(2 * P + 1) / _pow(P + 1, 2), c1=1.0,
                  d2=(P - 2) / (P + 1),
                  c3=(2 * P * P - 6 * P - 7) / (P + 1),
                  d1=(4 + 8 * P - 2 * P * P) / (P + 1),
                  d3=(2 * P - 4) / (P + 1))


def _build_8(P, q):
    return _freqs(a1=0.5 * (9 - 2 * P) * (P + 1), b1=9 - 2 * P, a2=1.0,
                  b2=2 / (P + 1), b3=(2 * P - 7) / (P + 1), c1=1.0,
                  d2=(6 + 8 * P - 2 * P * P) / (P + 1), c3=1.0,
                  d1=(4 + 8 * P - 2 * P * P) / (P + 1),
                  d3=(2 * P - 4) / (P + 1))


def _params_9(P, q):
    yield _addend("c1", 2 * P / (P + 1))


def _build_9(P, q):
    s = 2 * P / (P + 1)
    return _freqs(a1=1.0, b1=2 / (P + 1), a2=1.0, b2=2 / (P + 1),
                  b3=2 * P / _pow(P + 1, 2), c1=q["c1"], d2=s - q["c1"],
                  c3=1.0, d1=(P - 3) / (P + 1), d3=(2 * P - 4) / (P + 1))


def _params_10a(P, q):
    yield FreeParam("b1", 1 / 3, 2 / 5)
    if q["b1"] <= 1 / 3 + _TOL:
        # only at b1 = 1/3 is the split of c1 + d2 = 5/3 free
        yield FreeParam("c1", 2 / 3, 1.0)


def _build_10a(P, q):
    b1 = q["b1"]
    if b1 <= 1 / 3 + _TOL:
        c1 = q["c1"]
        d2 = 5 / 3 - c1
    else:
        c1, d2 = 2 / 3, 1.0
    return _freqs(a1=1.0, b1=b1, a2=1.0, b2=1 / 3, b3=5 / 18, c1=c1, d2=d2,
                  c3=1.0, d1=1 / 3, d3=1.0)


def _build_10(P, q):
    return _freqs(a1=1.0, b1=2 / P, a2=1.0, b2=2 / (P + 1),
                  b3=2 * P / _pow(P + 1, 2), c1=(P - 1) / (P + 1), d2=1.0,
                  c3=1.0, d1=(P - 3) / (P + 1), c2=(P - 5) / (P + 1), d3=1.0)


_CATALOG: dict[str, EquilibriumSolution] = {}


def _register(sid, lo, hi, formulas, params, build):
    _CATALOG[sid] = EquilibriumSolution(sid, lo, hi, formulas, params, build)


_register("1a", 2.0, 2.0, {
    "a1": "0", "b1": "0", "a2": "0", "b2": "0", "c1": "0", "d2": "0",
    "b3": "free in [0, 2/3]", "c3+d1": "free in [0, b3]",
    "c2+d3": "free in [0, b3]",
}, _params_1a, _build_1a)

_register("1", 2.0, 3.0, {
    "a1": "0", "b1": "0", "a2": "0", "b2": "0", "b3": "2/(P+1)", "c1": "0",
    "d2": "(2P-4)/(P+1)",
    "c3+d1": "free in [(2P-4)/(P+1), 2/(P+1)]",
    "c2+d3": "free in [(2P-4)/(P+1), 2/(P+1)]",
}, _params_1, _build_1)

_register("2a", 3.0, 3.0, {
    "a1": "0", "b1": "0", "a2": "free in [0, 1/2]", "b2": "a2/2",
    "b3": "1/2", "c1": "0", "d2": "(1+a2)/2", "c3": "0", "d1": "1/2",
    "c2+d3": "free in [1/2, 1/2 + b2]",
}, _params_2a, _build_2a)

_register("2", 3.0, _P4, {
    "a1": "0", "b1": "0", "a2": "1/2", "b2": "1/(P+1)", "b3": "2/(P+1)",
    "c1": "2P-6", "d2": "(3+6P-2P^2)/(P+1)", "c3": "0",
    "d1": "(2P-4)/(P+1)",
    "c2+d3": "free in [(2P-4)/(P+1), 3/(P+1)]",
}, lambda P, q: _free_sum("c2", "d3", (2 * P - 4) / (P + 1), 3 / (P + 1), q),
   _build_2)

_register("3", _P3, _P4, {
    "a1": "0", "b1": "0",
    "a2": "(4 - P^2 + sqrt(P^4 - 4P^3 + 4P^2 + 12P + 12))/2",
    "b2": "2 a2/(P+1)", "b3": "(2 - b2)/(P + a2)",
    "c1": "(2P - 4 + 2 a2)/(P+1)", "d2": "0", "c3": "0",
    "d1": "(2P-4)/(P+1)",
    "c2+d3": "free in [(2P-4)/(P+1), b2 + b3]",
}, _params_3, _build_3)

_register("4", _P3, 3.5, {
    "a1": "0", "b1": "0", "a2": "(5-P)/2", "b2": "(5-P)/(P+1)",
    "b3": "4(P-2)/(3(P+1))", "c1": "1", "d2": "0", "c3": "0",
    "d1": "(2P-4)/(P+1)",
    "c2+d3": "free in [(2P-4)/(P+1), (P+7)/(3(P+1))]",
}, lambda P, q: _free_sum("c2", "d3", (2 * P - 4) / (P + 1),
                          (P + 7) / (3 * (P + 1)), q), _build_4)

_register("5a", 3.5, 3.5, {
    "a1": "0", "b1": "0", "a2": "free in [3/4, 1]", "b2": "4 a2/9",
    "b3": "4/9", "c1": "1", "d2": "4 a2/9 - 1/3", "c3": "0", "d1": "2/3",
    "c2+d3": "free in [2/3, 4(1+a2)/9]",
}, _params_5a, _build_5a)

_register("5", 3.5, 4.0, {
    "a1": "0", "b1": "0", "a2": "1", "b2": "2/(P+1)", "b3": "2/(P+1)",
    "c1": "1", "d2": "(P-3)/(P+1)", "c3": "0", "d1": "(2P-4)/(P+1)",
    "c2+d3": "free in [(2P-4)/(P+1), 4/(P+1)]",
}, lambda P, q: _free_sum("c2", "d3", (2 * P - 4) / (P + 1), 4 / (P + 1), q),
   _build_5)

_register("6", _P6, 4.0, {
    "a1": "(4-P)(P+1)", "b1": "2(4-P)", "a2": "1", "b2": "2/(P+1)",
    "b3": "2(P-3)/(P+1)", "c1": "1", "d2": "(5+7P-2P^2)/(P+1)", "c3": "0",
    "d1": "(4+8P-2P^2)/(P+1)", "c2": "0", "d3": "(2P-4)/(P+1)",
}, _no_params, _build_6)

_register("7", _P6, _P9, {
    "a1": "1/2", "b1": "1/(P+1)", "a2": "1", "b2": "2/(P+1)",
    "b3": "(2P+1)/(P+1)^2", "c1": "1", "d2": "(P-2)/(P+1)",
    "c3": "(2P^2-6P-7)/(P+1)", "d1": "(4+8P-2P^2)/(P+1)", "c2": "0",
    "d3": "(2P-4)/(P+1)",
}, _no_params, _build_7)

_register("8", _P8, _P9, {
    "a1": "(9-2P)(P+1)/2", "b1": "9-2P", "a2": "1", "b2": "2/(P+1)",
    "b3": "(2P-7)/(P+1)", "c1": "1", "d2": "(6+8P-2P^2)/(P+1)", "c3": "1",
    "d1": "(4+8P-2P^2)/(P+1)", "c2": "0", "d3": "(2P-4)/(P+1)",
}, _no_params, _build_8)

_register("9", _P8, 5.0, {
    "a1": "1", "b1": "2/(P+1)", "a2": "1", "b2": "2/(P+1)",
    "b3": "2P/(P+1)^2", "c1+d2": "2P/(P+1), split free", "c3": "1",
    "d1": "(P-3)/(P+1)", "c2": "0", "d3": "(2P-4)/(P+1)",
}, _params_9, _build_9)

_register("10a", 5.0, 5.0, {
    "a1": "1", "b1": "free in [1/3, 2/5]", "a2": "1", "b2": "1/3",
    "b3": "5/18",
    "c1+d2": "5/3 split free at b1 = 1/3; c1 = 2/3, d2 = 1 for b1 > 1/3",
    "c3": "1", "d1": "1/3", "c2": "0", "d3": "1",
}, _params_10a, _build_10a)

_register("10", 5.0, math.inf, {
    "a1": "1", "b1": "2/P", "a2": "1", "b2": "2/(P+1)", "b3": "2P/(P+1)^2",
    "c1": "(P-1)/(P+1)", "d2": "1", "c3": "1", "d1": "(P-3)/(P+1)",
    "c2": "(P-5)/(P+1)", "d3": "1",
}, _no_params, _build_10)

#: Catalog order: ascending lower end of the validity range.
SOLUTION_IDS = ("1a", "1", "2a", "2", "3", "4", "5a", "5", "6", "7", "8",
                "9", "10a", "10")


def solution(sol_id: str) -> EquilibriumSolution:
    try:
        return _CATALOG[sol_id]
    except KeyError:
        raise KeyError(f"unknown solution id {sol_id!r}; "
                       f"known: {', '.join(SOLUTION_IDS)}") from None


def validity_range(sol_id: str) -> tuple:
    sol = solution(sol_id)
    return (sol.lo, sol.hi)


def solutions_for_pot(pot: float) -> list[str]:
    """Ids of every solution family whose validity range contains ``pot``
    (point families only at their exact pot)."""
    pot = check_pot(pot)
    return [sid for sid in SOLUTION_IDS if _CATALOG[sid].contains(pot)]


def free_parameters(sol_id: str, pot: float,
                    chosen: dict | None = None) -> list[FreeParam]:
    """Free parameters of a family at ``pot`` in resolution order.

    ``chosen`` supplies values for earlier parameters when the bounds of a
    later one depend on them; unsupplied parameters resolve to midpoints
    for the purpose of listing what follows.
    """
    sol = solution(sol_id)
    pot = _check_in_range(sol, pot)
    chosen = dict(chosen or {})
    out = []
    resolved: dict[str, float] = {}
    for param in sol.params(pot, resolved):
        out.append(param)
        resolved[param.name] = chosen.get(param.name, param.midpoint)
    return out


def _check_in_range(sol: EquilibriumSolution, pot: float) -> float:
    pot = check_pot(pot)
    if not sol.contains(pot):
        hi = "inf" if math.isinf(sol.hi) else f"{sol.hi:g}"
        raise PotOutOfRange(
            f"solution {sol.id} is valid for P in [{sol.lo:g}, {hi}], "
            f"got P={pot:g}")
    return pot


def instantiate(sol_id: str, pot: float,
                free_params: dict | None = None) -> StrategyProfile:
    """Build the full profile of a solution family at a given pot.

    Unspecified free parameters default to the midpoint of their
    admissible interval.  Raises :class:`PotOutOfRange` or
    :class:`FreeParamViolation`.
    """
    sol = solution(sol_id)
    pot = _check_in_range(sol, pot)
    supplied = dict(free_params or {})
    resolved: dict[str, float] = {}
    for param in sol.params(pot, resolved):
        if param.name in supplied:
            v = float(supplied.pop(param.name))
            if not param.lo - _TOL <= v <= param.hi + _TOL:
                raise FreeParamViolation(
                    f"{sol_id}: parameter {param.name}={v:g} outside "
                    f"[{param.lo:g}, {param.hi:g}] at P={pot:g}")
            v = min(param.hi, max(param.lo, v))
        else:
            v = param.midpoint
        resolved[param.name] = v
    if supplied:
        raise FreeParamViolation(
            f"{sol_id}: unknown free parameters {sorted(supplied)}")
    return StrategyProfile.from_dict(sol.build(pot, resolved))


def profile_rows(sol_id: str, pots) -> np.ndarray:
    """Profiles of one family at each of ``pots`` (1-D), free parameters
    at their midpoints, as rows (m, 11) in ``FREQ_NAMES`` order.

    Row i equals ``instantiate(sol_id, pots[i]).as_tuple()`` bit for bit.
    The builders run once on the array of pots, and the block is checked
    and clamped once by the rule of :class:`StrategyProfile`.  Raises
    :class:`PotOutOfRange`, or ``ValueError`` naming the first frequency
    outside [0, 1].
    """
    sol = solution(sol_id)
    P = check_pots(pots)
    inside = sol.contains(P)
    if not inside.all():
        _check_in_range(sol, P[~inside][0])  # raises for this pot
    resolved: dict = {}
    # _pow rejects a pot too large for a formula; numpy need not warn first
    with np.errstate(over="ignore"):
        for param in sol.params(P, resolved):
            resolved[param.name] = param.midpoint
        freqs = sol.build(P, resolved)
    F = np.empty((len(P), len(FREQ_NAMES)))
    for j, name in enumerate(FREQ_NAMES):
        F[:, j] = freqs[name]
    inside = ((F >= -FREQ_TOL) & (F <= 1 + FREQ_TOL)).all(axis=1)
    if not inside.all():
        StrategyProfile(*F[~inside][0].tolist())  # raises its ValueError
    # min(1, max(0, v)) as Python evaluates it, -0.0 included
    return np.where(F < 1.0, np.where(F > 0.0, F, 0.0), 1.0)


def rows_at(pots) -> tuple:
    """Every catalog row at ``pots`` (1-D) as (row pots, row ids, (n, 11)
    rows), pot by pot in the family order of :func:`solutions_for_pot`,
    built by one :func:`profile_rows` call per family present."""
    P = check_pots(pots)
    mask = np.stack([_CATALOG[sid].contains(P) for sid in SOLUTION_IDS],
                    axis=1)
    at, family = np.nonzero(mask)
    P = P[at]
    F = np.empty((len(P), len(FREQ_NAMES)))
    for j in set(family.tolist()):
        rows = family == j
        F[rows] = profile_rows(SOLUTION_IDS[j], P[rows])
    return P, [SOLUTION_IDS[j] for j in family.tolist()], F


def equilibrium_profit(sol_id: str, pot: float,
                       free_params: dict | None = None) -> ProfitVector:
    """Expected profits of a catalog solution at ``pot``."""
    profile = instantiate(sol_id, pot, free_params)
    return analytic_ev.expected_profit(profile, pot)


def catalog_json(samples_per_family: int = 3) -> dict:
    """JSON-ready description of the catalog: validity ranges, frequency
    formulas as strings, and sampled numeric instantiations."""
    crit = critical_pots()
    out = {
        "critical_pots": {k: getattr(crit, k) for k in crit._fields},
        "solutions": [],
    }
    for sid in SOLUTION_IDS:
        sol = _CATALOG[sid]
        if math.isinf(sol.hi):
            pots = [sol.lo + i for i in range(samples_per_family)]
        elif sol.hi == sol.lo:
            pots = [sol.lo]
        else:
            pots = [sol.lo + (sol.hi - sol.lo) * i / (samples_per_family - 1)
                    for i in range(samples_per_family)]
        samples = []
        for P in pots:
            prof = instantiate(sid, P)
            e = analytic_ev.expected_profit_scaled(prof, P)
            samples.append({
                "pot": P,
                "frequencies": prof.as_dict(),
                "profits_x24": list(e),
            })
        out["solutions"].append({
            "id": sid,
            "validity": [sol.lo, None if math.isinf(sol.hi) else sol.hi],
            "formulas": sol.formulas,
            "free_parameters": [p.name for p in free_parameters(sid, pots[0])],
            "samples": samples,
        })
    return out
