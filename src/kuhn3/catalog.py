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

Each family is one function, ``_family_X(P, free)``: it returns the
frequency dict and draws every free parameter from ``free`` (a
:class:`_Free`), whose caller sets the values.  :func:`instantiate` checks
supplied values and :func:`free_parameters` lists the intervals.
:func:`profile_rows` runs a family once on an array of pots, bit for bit
like :func:`instantiate`, and :attr:`EquilibriumSolution.formulas` runs it
on symbolic values (:class:`kuhn3.analytic_ev._Expr`, the package's one
symbolic value type, which also generates the integrator's right-hand
side) to state it as text.

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
from .analytic_ev import _Expr
from .game_model import (FREQ_NAMES, FREQ_TOL, ProfitVector,
                         StrategyProfile, check_pot, check_pots)

__all__ = [
    "CriticalPots", "EquilibriumSolution", "FreeParam", "FreeParamViolation",
    "PotOutOfRange", "SOLUTION_IDS", "catalog_json", "critical_pots",
    "equilibrium_profit", "free_parameters", "instantiate", "profile_rows",
    "rows_at", "solution", "solutions_for_pot", "validity_range",
]

_TOL = 1e-9


class PotOutOfRange(ValueError):
    """Pot size outside the validity range of the requested solution."""


class FreeParamViolation(ValueError):
    """Free parameter missing, unknown, or outside its admissible interval."""


class _PotTooLarge(ValueError):
    """A frequency's integer power of the pot overflows."""


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
    """A catalog entry: validity range and family function.

    ``family(P, free)`` returns the frequencies at pot ``P`` and draws the
    free parameters in resolution order: bounds of a later parameter may
    depend on the values of earlier ones."""

    id: str
    lo: float
    hi: float
    family: Callable = field(repr=False)

    def contains(self, pot):
        """Whether ``pot`` (a float, or an array elementwise) is valid."""
        return (self.lo - _TOL <= pot) & (pot <= self.hi + _TOL)

    @property
    def formulas(self) -> dict:
        """The family as text (see :func:`_formulas`)."""
        return _formulas(self.family)


class _Free:
    """The free parameters a family draws: ``free(name, lo, hi)`` lists
    the parameter and returns ``value(param)``; :meth:`split` and
    :meth:`addend` are the two sum rules."""

    def __init__(self, value: Callable):
        self.value, self.params, self.values = value, [], {}

    def __call__(self, name: str, lo, hi):
        param = FreeParam(name, lo, hi)
        self.params.append(param)
        self.values[name] = v = self.value(param)
        return v

    def split(self, first: str, second: str, lo, hi) -> tuple:
        """The sum ``first + second`` free in [lo, hi], then its first
        addend; returns the two addends."""
        total = self(f"{first}_plus_{second}", lo, hi)
        x = self.addend(first, total)
        return x, total - x

    def addend(self, name: str, total):
        """The first addend of a sum ``total``: free wherever both addends
        stay in [0, 1]."""
        if isinstance(total, _Expr):
            return self(name, _Expr("max", 0.0, total - 1.0),
                        _Expr("min", 1.0, total))
        if isinstance(total, np.ndarray):
            return self(name, np.maximum(0.0, total - 1.0),
                        np.minimum(1.0, total))
        return self(name, max(0.0, total - 1.0), min(1.0, total))


def _freqs(**kw) -> dict:
    return {**dict.fromkeys(FREQ_NAMES, 0.0), **kw}


def _pow(x, k: int):
    """``x ** k`` by Python's float power, pot by pot for an array: numpy
    rounds integer powers differently (``P**3`` on 145 of the 3001 pots of
    [2, 8] at step 0.002).  An overflow (family 10 above P ~ 1.3e154) is a
    ``ValueError``: an infinite denominator would round a small frequency
    to zero and move the profile to the boundary."""
    if isinstance(x, _Expr):
        return _Expr("^", x, k)
    if isinstance(x, np.ndarray):
        return np.array([_pow(v, k) for v in x.tolist()])
    try:
        return float(x) ** k
    except OverflowError:
        raise _PotTooLarge(f"pot too large: {x:g}**{k} overflows") from None


def _sqrt(x):
    """``np.sqrt``, as a Python float for a float: both round the same."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


# -- family definitions ------------------------------------------------------

def _family_1a(P, free):
    b3 = free("b3", 0.0, 2 / 3)
    c3, d1 = free.split("c3", "d1", 0.0, b3)
    c2, d3 = free.split("c2", "d3", 0.0, b3)
    return _freqs(b3=b3, c3=c3, d1=d1, c2=c2, d3=d3)


def _family_1(P, free):
    lo, hi = (2 * P - 4) / (P + 1), 2 / (P + 1)
    c3, d1 = free.split("c3", "d1", lo, hi)
    c2, d3 = free.split("c2", "d3", lo, hi)
    return _freqs(b3=2 / (P + 1), d2=(2 * P - 4) / (P + 1),
                  c3=c3, d1=d1, c2=c2, d3=d3)


def _family_2a(P, free):
    a2 = free("a2", 0.0, 0.5)
    b2 = 0.5 * a2
    c2, d3 = free.split("c2", "d3", 0.5, 0.5 + b2)
    return _freqs(a2=a2, b2=b2, b3=0.5, d2=0.5 * (1 + a2), d1=0.5,
                  c2=c2, d3=d3)


def _family_2(P, free):
    c2, d3 = free.split("c2", "d3", (2 * P - 4) / (P + 1), 3 / (P + 1))
    return _freqs(a2=0.5, b2=1 / (P + 1), b3=2 / (P + 1), c1=2 * P - 6,
                  d2=(3 + 6 * P - 2 * P * P) / (P + 1),
                  d1=(2 * P - 4) / (P + 1), c2=c2, d3=d3)


def _family_3(P, free):
    disc = _pow(P, 4) - 4 * _pow(P, 3) + 4 * P * P + 12 * P + 12
    a2 = 0.5 * (4 - P * P + _sqrt(disc))
    b2 = 2 * a2 / (P + 1)
    b3 = (2 - b2) / (P + a2)
    c2, d3 = free.split("c2", "d3", (2 * P - 4) / (P + 1), b2 + b3)
    return _freqs(a2=a2, b2=b2, b3=b3, c1=(2 * P - 4 + 2 * a2) / (P + 1),
                  d1=(2 * P - 4) / (P + 1), c2=c2, d3=d3)


def _family_4(P, free):
    c2, d3 = free.split("c2", "d3", (2 * P - 4) / (P + 1),
                        (P + 7) / (3 * (P + 1)))
    return _freqs(a2=0.5 * (5 - P), b2=(5 - P) / (P + 1),
                  b3=4 * (P - 2) / (3 * (P + 1)), c1=1.0,
                  d1=(2 * P - 4) / (P + 1), c2=c2, d3=d3)


def _family_5a(P, free):
    a2 = free("a2", 0.75, 1.0)
    c2, d3 = free.split("c2", "d3", 2 / 3, (4 / 9) * (1 + a2))
    b2 = (4 / 9) * a2
    return _freqs(a2=a2, b2=b2, b3=4 / 9, c1=1.0, d2=b2 - 1 / 3, d1=2 / 3,
                  c2=c2, d3=d3)


def _family_5(P, free):
    c2, d3 = free.split("c2", "d3", (2 * P - 4) / (P + 1), 4 / (P + 1))
    return _freqs(a2=1.0, b2=2 / (P + 1), b3=2 / (P + 1), c1=1.0,
                  d2=(P - 3) / (P + 1), d1=(2 * P - 4) / (P + 1),
                  c2=c2, d3=d3)


def _family_6(P, free):
    return _freqs(a1=(4 - P) * (P + 1), b1=2 * (4 - P), a2=1.0,
                  b2=2 / (P + 1), b3=2 * (P - 3) / (P + 1), c1=1.0,
                  d2=(5 + 7 * P - 2 * P * P) / (P + 1),
                  d1=(4 + 8 * P - 2 * P * P) / (P + 1),
                  d3=(2 * P - 4) / (P + 1))


def _family_7(P, free):
    return _freqs(a1=0.5, b1=1 / (P + 1), a2=1.0, b2=2 / (P + 1),
                  b3=(2 * P + 1) / _pow(P + 1, 2), c1=1.0,
                  d2=(P - 2) / (P + 1),
                  c3=(2 * P * P - 6 * P - 7) / (P + 1),
                  d1=(4 + 8 * P - 2 * P * P) / (P + 1),
                  d3=(2 * P - 4) / (P + 1))


def _family_8(P, free):
    return _freqs(a1=0.5 * (9 - 2 * P) * (P + 1), b1=9 - 2 * P, a2=1.0,
                  b2=2 / (P + 1), b3=(2 * P - 7) / (P + 1), c1=1.0,
                  d2=(6 + 8 * P - 2 * P * P) / (P + 1), c3=1.0,
                  d1=(4 + 8 * P - 2 * P * P) / (P + 1),
                  d3=(2 * P - 4) / (P + 1))


def _family_9(P, free):
    s = 2 * P / (P + 1)
    c1 = free.addend("c1", s)
    return _freqs(a1=1.0, b1=2 / (P + 1), a2=1.0, b2=2 / (P + 1),
                  b3=2 * P / _pow(P + 1, 2), c1=c1, d2=s - c1,
                  c3=1.0, d1=(P - 3) / (P + 1), d3=(2 * P - 4) / (P + 1))


def _family_10a(P, free):
    b1 = free("b1", 1 / 3, 2 / 5)
    if b1 <= 1 / 3 + _TOL:
        # only at b1 = 1/3 is the split of c1 + d2 = 5/3 free
        c1 = free("c1", 2 / 3, 1.0)
        d2 = 5 / 3 - c1
    else:
        c1, d2 = 2 / 3, 1.0
    return _freqs(a1=1.0, b1=b1, a2=1.0, b2=1 / 3, b3=5 / 18, c1=c1, d2=d2,
                  c3=1.0, d1=1 / 3, d3=1.0)


def _family_10(P, free):
    return _freqs(a1=1.0, b1=2 / P, a2=1.0, b2=2 / (P + 1),
                  b3=2 * P / _pow(P + 1, 2), c1=(P - 1) / (P + 1), d2=1.0,
                  c3=1.0, d1=(P - 3) / (P + 1), c2=(P - 5) / (P + 1), d3=1.0)


#: In catalog order: ascending lower end of the validity range.
_CATALOG = {sid: EquilibriumSolution(sid, lo, hi, family)
            for sid, lo, hi, family in (
    ("1a", 2.0, 2.0, _family_1a), ("1", 2.0, 3.0, _family_1),
    ("2a", 3.0, 3.0, _family_2a), ("2", 3.0, _P4, _family_2),
    ("3", _P3, _P4, _family_3), ("4", _P3, 3.5, _family_4),
    ("5a", 3.5, 3.5, _family_5a), ("5", 3.5, 4.0, _family_5),
    ("6", _P6, 4.0, _family_6), ("7", _P6, _P9, _family_7),
    ("8", _P8, _P9, _family_8), ("9", _P8, 5.0, _family_9),
    ("10a", 5.0, 5.0, _family_10a), ("10", 5.0, math.inf, _family_10),
)}
SOLUTION_IDS = tuple(_CATALOG)


# -- formulas as text --------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _show(x, named: dict, top: bool = False) -> tuple:
    """(text, precedence) of a printing value, with the fewest
    parentheses.  A subtree that is a frequency's value prints as that
    frequency's name (``named`` maps ids to names) unless it is ``top``."""
    if not isinstance(x, _Expr):  # a constant, as the simplest n/q it is
        q = next((q for q in range(1, 100) if round(x * q) / q == x), 0)
        text = (repr(x) if not q else str(round(x)) if q == 1
                else f"{round(x * q)}/{q}")
        return text, 0 if x < 0 else 2 if q > 1 else 9
    if not x.args or (not top and id(x) in named):
        return named.get(id(x), x.op), 9
    parts = [_show(a, named) for a in x.args]
    if x.op not in _PREC:
        return f"{x.op}({', '.join(text for text, _ in parts)})", 9
    p = _PREC[x.op]
    (a, pa), (b, pb) = parts
    a = f"({a})" if pa < p or pa == p == _PREC["^"] else a
    b = f"({b})" if pb < p or (pb == p and x.op in "-/") else b
    return f"{a}{x.op}{b}", p


def _formulas(family: Callable) -> dict:
    """The text of a family: each frequency's closed form or, for a free
    parameter, its interval ``free in [lo, hi]``; then each free sum,
    keyed ``c2_plus_d3``.

    A family may branch only on whether a free parameter sits at the
    lower end of its interval (10a does), so it runs with every parameter
    pinned at the lower end, then at the upper end; an entry that differs
    reads ``<text> if <name> = <lo>, else <text>``."""
    def run(end: int) -> tuple:
        free = _Free(lambda p: _Expr(p.name, pin=p[end]))
        freqs = family(_Expr("P"), free)
        named = {id(v): n for n, v in freqs.items() if isinstance(v, _Expr)}
        bounds = {p.name: (_show(p.lo, named)[0], _show(p.hi, named)[0])
                  for p in free.params}
        return {n: "free in [%s, %s]" % bounds[n] if n in bounds
                else _show(freqs[n], named, top=True)[0]
                for n in (*FREQ_NAMES, *bounds)}, free.values

    (at_lo, pinned), (at_hi, _) = run(1), run(2)  # FreeParam.lo, .hi
    branch = " and ".join(f"{n} = {_show(v.pin, {})[0]}"
                          for n, v in pinned.items() if v.compared)
    return {n: t if t == at_hi[n] else f"{t} if {branch}, else {at_hi[n]}"
            for n, t in at_lo.items()}


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
    later one depend on them, checked as :func:`instantiate` checks them;
    unsupplied parameters resolve to midpoints for the purpose of listing
    what follows.
    """
    return _resolve(sol_id, pot, chosen)[1]


def _check_in_range(sol: EquilibriumSolution, pot: float) -> float:
    pot = check_pot(pot)
    if not sol.contains(pot):
        hi = "inf" if math.isinf(sol.hi) else f"{sol.hi:g}"
        raise PotOutOfRange(
            f"solution {sol.id} is valid for P in [{sol.lo:g}, {hi}], "
            f"got P={pot:g}")
    return pot


def _resolve(sol_id: str, pot: float, supplied: dict | None) -> tuple:
    """(frequencies, free parameters) of a family at ``pot``, each free
    parameter at its supplied value, else at its midpoint.

    Raises :class:`PotOutOfRange`, or :class:`FreeParamViolation` for a
    value outside its interval or a name the family does not draw.  Where
    a power of the pot overflows, the frequencies are that
    :class:`_PotTooLarge`: the families draw their parameters first.
    """
    sol = solution(sol_id)
    pot = _check_in_range(sol, pot)
    supplied = dict(supplied or {})

    def value(param: FreeParam) -> float:
        if param.name not in supplied:
            return param.midpoint
        v = float(supplied.pop(param.name))
        if not param.lo - _TOL <= v <= param.hi + _TOL:
            raise FreeParamViolation(
                f"{sol_id}: parameter {param.name}={v:g} outside "
                f"[{param.lo:g}, {param.hi:g}] at P={pot:g}")
        return min(param.hi, max(param.lo, v))

    free = _Free(value)
    try:
        freqs = sol.family(pot, free)
    except _PotTooLarge as exc:
        freqs = exc
    if supplied:
        raise FreeParamViolation(
            f"{sol_id}: unknown free parameters {sorted(supplied)}")
    return freqs, free.params


def instantiate(sol_id: str, pot: float,
                free_params: dict | None = None) -> StrategyProfile:
    """Build the full profile of a solution family at a given pot.

    Unspecified free parameters default to the midpoint of their
    admissible interval.  Raises :class:`PotOutOfRange` or
    :class:`FreeParamViolation`.
    """
    freqs, _ = _resolve(sol_id, pot, free_params)
    if isinstance(freqs, _PotTooLarge):
        raise freqs
    return StrategyProfile.from_dict(freqs)


def profile_rows(sol_id: str, pots) -> np.ndarray:
    """Profiles of one family at each of ``pots`` (1-D), free parameters
    at their midpoints, as rows (m, 11) in ``FREQ_NAMES`` order.

    Row i equals ``instantiate(sol_id, pots[i]).as_tuple()`` bit for bit:
    the family runs once on the array of pots, where numpy rounds + - * /
    and square roots as Python does (:func:`_pow` takes powers pot by
    pot), and the block is checked and clamped once by the rule of
    :class:`StrategyProfile`.  Raises :class:`PotOutOfRange`, or
    ``ValueError`` naming the first frequency outside [0, 1].
    """
    sol = solution(sol_id)
    P = check_pots(pots)
    inside = sol.contains(P)
    if not inside.all():
        _check_in_range(sol, P[~inside][0])  # raises for this pot
    # _pow rejects a pot too large for a formula; numpy need not warn first
    with np.errstate(over="ignore"):
        freqs = sol.family(P, _Free(lambda p: p.midpoint))
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
    """JSON-ready description of the catalog: validity ranges, the text of
    each family's formulas, and sampled numeric instantiations."""
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
