"""Game primitives: deck, deals, strategy profiles, and the tree-walk value oracle.

The game: four cards A > K > Q > J, three players dealt one card each, a pot
of P >= 2 chips.  Player 1 checks or bets one unit; on a check the decision
passes to the next player; a bet is answered in turn by the two remaining
players (call or fold).  Check/check/check or a called bet goes to showdown,
where the highest unfolded card wins the pot plus all bets.  If both
opponents fold, the bettor takes the pot uncontested.

A player holding J must check and fold.  Betting with K is dominated, and a
player facing a bet that has already been called will only call holding A.
Player 3 always bets A after two checks.  That leaves eleven free
frequencies per profile:

    a_i  bet with A (i = 1, 2; a3 is fixed at 1)
    b_i  bluff with Q
    c_i  call a bet with K
    d_i  call with K after a bet and a fold

``expected_profit_bruteforce`` enumerates all 24 deals and walks the betting
tree directly; it is the independent oracle against which the closed-form
polynomials of :mod:`kuhn3.analytic_ev` are checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

__all__ = [
    "Card",
    "Deal",
    "FREQ_NAMES",
    "FREQ_OWNER",
    "FREQ_TOL",
    "MIN_POT",
    "ProfitVector",
    "StrategyProfile",
    "check_pot",
    "enumerate_deals",
    "expected_profit_bruteforce",
    "hand_value",
]

#: Frequency names in canonical order (also the trajectory/CSV column order).
FREQ_NAMES = ("a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2", "b3", "c3", "d3")

#: Owning player (1-based) of each frequency.
FREQ_OWNER = {n: int(n[1]) for n in FREQ_NAMES}

#: Smallest pot for which betting with worse than A can ever pay.
MIN_POT = 2.0

#: Round-off by which a frequency may leave [0, 1] and still be clamped.
FREQ_TOL = 1e-9


class Card(IntEnum):
    """Deck of four ranks ordered A > K > Q > J."""

    J = 0
    Q = 1
    K = 2
    A = 3


class Deal(NamedTuple):
    """Cards held by players 1, 2 and 3 (all distinct)."""

    p1: Card
    p2: Card
    p3: Card


class ProfitVector(NamedTuple):
    """Per-player expected profit in chips per hand, relative to the
    all-check baseline of P/3; the three entries sum to zero."""

    e1: float
    e2: float
    e3: float


def check_pot(pot: float) -> float:
    pot = float(pot)
    if not (pot >= MIN_POT and math.isfinite(pot)):
        raise ValueError(f"pot must be >= {MIN_POT:g} and finite, got {pot!r}")
    return pot


@dataclass(frozen=True)
class StrategyProfile:
    """The eleven free betting/calling frequencies, each in [0, 1].

    Values within ``FREQ_TOL`` outside the unit interval (formula
    round-off) are clamped; anything further out raises ``ValueError``.
    """

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

    def __post_init__(self) -> None:
        for name in FREQ_NAMES:
            v = float(getattr(self, name))
            if not -FREQ_TOL <= v <= 1 + FREQ_TOL:
                raise ValueError(f"frequency {name}={v!r} outside [0, 1]")
            object.__setattr__(self, name, min(1.0, max(0.0, v)))

    @classmethod
    def zeros(cls) -> "StrategyProfile":
        return cls(*([0.0] * 11))

    @classmethod
    def uniform(cls, value: float) -> "StrategyProfile":
        return cls(*([float(value)] * 11))

    @classmethod
    def from_dict(cls, d: dict) -> "StrategyProfile":
        unknown = set(d) - set(FREQ_NAMES)
        if unknown:
            raise ValueError(f"unknown frequency names: {sorted(unknown)}")
        missing = set(FREQ_NAMES) - set(d)
        if missing:
            raise ValueError(f"missing frequency names: {sorted(missing)}")
        return cls(**{k: float(v) for k, v in d.items()})

    @classmethod
    def from_array(cls, a) -> "StrategyProfile":
        vals = [float(x) for x in a]
        if len(vals) != 11:
            raise ValueError(f"expected 11 frequencies, got {len(vals)}")
        return cls(*vals)

    def as_dict(self) -> dict:
        return {n: getattr(self, n) for n in FREQ_NAMES}

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, n) for n in FREQ_NAMES)

    def as_array(self):
        import numpy as np

        return np.array(self.as_tuple())

    def replace(self, **kw) -> "StrategyProfile":
        d = self.as_dict()
        d.update(kw)
        return StrategyProfile.from_dict(d)


def enumerate_deals() -> list[Deal]:
    """All 24 ordered deals of three distinct cards, in a fixed order."""
    return [Deal(*cards) for cards in itertools.permutations(Card, 3)]


_DEALS = tuple(enumerate_deals())


def _open_bet(player: int, card: Card, p: StrategyProfile) -> float:
    """Probability of opening with a bet (no bet yet in front)."""
    if card == Card.A:
        return (p.a1, p.a2, 1.0)[player - 1]
    if card == Card.Q:
        return (p.b1, p.b2, p.b3)[player - 1]
    return 0.0  # K never opens; J is dead


def _call_first(player: int, card: Card, p: StrategyProfile) -> float:
    """Probability of calling as first responder to a bet."""
    if card == Card.A:
        return 1.0
    if card == Card.K:
        return (p.c1, p.c2, p.c3)[player - 1]
    return 0.0


def _call_after_fold(player: int, card: Card, p: StrategyProfile) -> float:
    """Probability of calling a bet after the other opponent folded."""
    if card == Card.A:
        return 1.0
    if card == Card.K:
        return (p.d1, p.d2, p.d3)[player - 1]
    return 0.0


def _call_closing(card: Card) -> float:
    """Closing call after a bet and a call: A only."""
    return 1.0 if card == Card.A else 0.0


def hand_value(deal: Deal, profile: StrategyProfile, pot: float) -> tuple:
    """Expected raw chips per player for one deal (baseline not subtracted).

    Walks every branch of the betting tree: the bettor and each caller stake
    one chip, the showdown winner takes the pot plus all staked chips, and an
    uncontested pot goes to the bettor.  The returned triple sums to ``pot``
    for every profile.
    """
    pot = check_pot(pot)
    cards = (deal.p1, deal.p2, deal.p3)
    v = [0.0, 0.0, 0.0]

    def settle(prob: float, bettor: int, callers: tuple) -> None:
        if prob == 0.0:
            return
        if not callers:
            v[bettor] += prob * pot
            return
        contenders = (bettor, *callers)
        winner = max(contenders, key=lambda i: cards[i])
        stake = len(contenders) - 1
        for i in contenders:
            v[i] += prob * (pot + stake if i == winner else -1.0)

    # player 1 opens with a bet; players 2 then 3 respond
    bet1 = _open_bet(1, cards[0], profile)
    if bet1 > 0.0:
        r2 = _call_first(2, cards[1], profile)
        r3c = _call_closing(cards[2])
        r3f = _call_after_fold(3, cards[2], profile)
        settle(bet1 * r2 * r3c, 0, (1, 2))
        settle(bet1 * r2 * (1 - r3c), 0, (1,))
        settle(bet1 * (1 - r2) * r3f, 0, (2,))
        settle(bet1 * (1 - r2) * (1 - r3f), 0, ())

    # players 2 and 3 open only after the checks in front of them
    open2 = _open_bet(2, cards[1], profile)
    open3 = _open_bet(3, cards[2], profile)

    # player 1 checks, player 2 bets; players 3 then 1 respond
    bet2 = (1 - bet1) * open2
    if bet2 > 0.0:
        r3 = _call_first(3, cards[2], profile)
        r1c = _call_closing(cards[0])
        r1f = _call_after_fold(1, cards[0], profile)
        settle(bet2 * r3 * r1c, 1, (2, 0))
        settle(bet2 * r3 * (1 - r1c), 1, (2,))
        settle(bet2 * (1 - r3) * r1f, 1, (0,))
        settle(bet2 * (1 - r3) * (1 - r1f), 1, ())

    # players 1 and 2 check, player 3 bets; players 1 then 2 respond
    bet3 = (1 - bet1) * (1 - open2) * open3
    if bet3 > 0.0:
        r1 = _call_first(1, cards[0], profile)
        r2c = _call_closing(cards[1])
        r2f = _call_after_fold(2, cards[1], profile)
        settle(bet3 * r1 * r2c, 2, (0, 1))
        settle(bet3 * r1 * (1 - r2c), 2, (0,))
        settle(bet3 * (1 - r1) * r2f, 2, (1,))
        settle(bet3 * (1 - r1) * (1 - r2f), 2, ())

    # check/check/check: showdown of all three for the bare pot
    checks = (1 - bet1) * (1 - open2) * (1 - open3)
    if checks > 0.0:
        winner = max(range(3), key=lambda i: cards[i])
        v[winner] += checks * pot

    return tuple(v)


def expected_profit_bruteforce(profile: StrategyProfile, pot: float) -> ProfitVector:
    """Expected profit per player by enumeration over all 24 deals.

    Averages :func:`hand_value` with weight 1/24 (fixed deal order for
    reproducibility) and subtracts the all-check baseline P/3 from each
    player, which makes the result exactly zero-sum.
    """
    pot = check_pot(pot)
    tot = [0.0, 0.0, 0.0]
    for deal in _DEALS:
        hv = hand_value(deal, profile, pot)
        tot[0] += hv[0]
        tot[1] += hv[1]
        tot[2] += hv[2]
    return ProfitVector(*(t / 24.0 - pot / 3.0 for t in tot))
