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

``expected_profit_bruteforce`` is the independent oracle against which the
closed-form polynomials of :mod:`kuhn3.analytic_ev` are checked.  At import,
the betting tree of each of the 24 deals is walked once, from the cards,
the betting order and the payoff rules alone, into one table of leaves
(sequence form, von Stengel 1996).  A leaf holds its reach probability as
at most three indices into v = [1, f_1..f_11, 1 - f_1..1 - f_11] and its
payoff to each player as stake + P * share.  A profile's value is then the
sum over leaves of reach probability times payoff: one gather, one product
along the rows and two dot products, for ``hand_value`` over one deal's
leaves and for ``expected_profit_bruteforce`` over all of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

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
        return np.array(self.as_tuple())

    def replace(self, **kw) -> "StrategyProfile":
        d = self.as_dict()
        d.update(kw)
        return StrategyProfile.from_dict(d)


def enumerate_deals() -> list[Deal]:
    """All 24 ordered deals of three distinct cards, in a fixed order."""
    return [Deal(*cards) for cards in itertools.permutations(Card, 3)]


_DEALS = tuple(enumerate_deals())


#: Factor index of probability 1.  A behaviour probability is an index into
#: a profile's factor vector v = [1, f_1..f_11, 1 - f_1..1 - f_11] (see
#: ``_reach``); ``_NEVER`` marks an action the rules rule out.
_ALWAYS = 0
_NEVER = -1

_N = len(FREQ_NAMES)
_F = {name: 1 + k for k, name in enumerate(FREQ_NAMES)}


def _not(i: int) -> int:
    """Factor index of the complementary probability 1 - v[i]."""
    if i == _ALWAYS:
        return _NEVER
    if i == _NEVER:
        return _ALWAYS
    return i + _N if i <= _N else i - _N


def _open_bet(player: int, card: Card) -> int:
    """Probability of opening with a bet (no bet yet in front)."""
    if card == Card.A:
        return (_F["a1"], _F["a2"], _ALWAYS)[player - 1]
    if card == Card.Q:
        return (_F["b1"], _F["b2"], _F["b3"])[player - 1]
    return _NEVER  # K never opens; J is dead


def _call_first(player: int, card: Card) -> int:
    """Probability of calling as first responder to a bet."""
    if card == Card.A:
        return _ALWAYS
    if card == Card.K:
        return (_F["c1"], _F["c2"], _F["c3"])[player - 1]
    return _NEVER


def _call_after_fold(player: int, card: Card) -> int:
    """Probability of calling a bet after the other opponent folded."""
    if card == Card.A:
        return _ALWAYS
    if card == Card.K:
        return (_F["d1"], _F["d2"], _F["d3"])[player - 1]
    return _NEVER


def _call_closing(card: Card) -> int:
    """Closing call after a bet and a call: A only."""
    return _ALWAYS if card == Card.A else _NEVER


def _deal_leaves(deal: Deal) -> list:
    """The leaves of one deal's betting tree that the rules can reach.

    Each leaf is ``(factors, stake, share)``: it is reached with probability
    prod(v[factors]) and pays player i ``stake[i] + P * share[i]`` chips.
    The bettor and each caller stake one chip, the showdown winner takes
    the pot plus all staked chips, and an uncontested pot goes to the
    bettor.
    """
    cards = (deal.p1, deal.p2, deal.p3)
    leaves = []

    def settle(factors: tuple, contenders: tuple, bet: int) -> None:
        # each contender has put in ``bet`` chips; the best card among
        # them takes the pot and the other contenders' bets
        if _NEVER in factors:
            return
        winner = max(contenders, key=lambda i: cards[i])
        stake, share = [0, 0, 0], [0, 0, 0]
        for i in contenders:
            stake[i] = -bet
        stake[winner] = bet * (len(contenders) - 1)
        share[winner] = 1
        leaves.append((tuple(i for i in factors if i != _ALWAYS), stake,
                       share))

    # player 1 opens with a bet; players 2 then 3 respond
    bet1 = _open_bet(1, cards[0])
    r2 = _call_first(2, cards[1])
    r3c = _call_closing(cards[2])
    r3f = _call_after_fold(3, cards[2])
    settle((bet1, r2, r3c), (0, 1, 2), 1)
    settle((bet1, r2, _not(r3c)), (0, 1), 1)
    settle((bet1, _not(r2), r3f), (0, 2), 1)
    settle((bet1, _not(r2), _not(r3f)), (0,), 1)

    # players 2 and 3 open only after the checks in front of them
    open2 = _open_bet(2, cards[1])
    open3 = _open_bet(3, cards[2])

    # player 1 checks, player 2 bets; players 3 then 1 respond
    bet2 = (_not(bet1), open2)
    r3 = _call_first(3, cards[2])
    r1c = _call_closing(cards[0])
    r1f = _call_after_fold(1, cards[0])
    settle((*bet2, r3, r1c), (1, 2, 0), 1)
    settle((*bet2, r3, _not(r1c)), (1, 2), 1)
    settle((*bet2, _not(r3), r1f), (1, 0), 1)
    settle((*bet2, _not(r3), _not(r1f)), (1,), 1)

    # players 1 and 2 check, player 3 bets; players 1 then 2 respond
    bet3 = (_not(bet1), _not(open2), open3)
    r1 = _call_first(1, cards[0])
    r2c = _call_closing(cards[1])
    r2f = _call_after_fold(2, cards[1])
    settle((*bet3, r1, r2c), (2, 0, 1), 1)
    settle((*bet3, r1, _not(r2c)), (2, 0), 1)
    settle((*bet3, _not(r1), r2f), (2, 1), 1)
    settle((*bet3, _not(r1), _not(r2f)), (2,), 1)

    # check/check/check: showdown of all three for the bare pot
    settle((_not(bet1), _not(open2), _not(open3)), (0, 1, 2), 0)
    return leaves


def _compile() -> tuple:
    """Every deal's leaves in one table: factor indices (L, W), padded with
    ``_ALWAYS``; stakes and pot shares (L, 3); each deal's row slice."""
    factors, stake, share, rows = [], [], [], {}
    for deal in _DEALS:
        start = len(factors)
        for f, a, b in _deal_leaves(deal):
            factors.append(f)
            stake.append(a)
            share.append(b)
        rows[deal] = slice(start, len(factors))
    width = max(map(len, factors))
    factors = [f + (_ALWAYS,) * (width - len(f)) for f in factors]
    return (np.array(factors, dtype=np.intp), np.array(stake, dtype=float),
            np.array(share, dtype=float), rows)


_LEAF_FACTORS, _LEAF_STAKE, _LEAF_SHARE, _DEAL_ROWS = _compile()


def _reach(profile: StrategyProfile, rows: slice = slice(None)) -> np.ndarray:
    """Reach probability of each leaf in ``rows`` of the table."""
    f = np.array(profile.as_tuple())
    v = np.concatenate(((1.0,), f, 1.0 - f))
    return v[_LEAF_FACTORS[rows]].prod(axis=1)


def hand_value(deal: Deal, profile: StrategyProfile, pot: float) -> tuple:
    """Expected raw chips per player for one deal (baseline not subtracted).

    Sums every leaf of the deal's betting tree, its reach probability times
    its payoff.  The returned triple sums to ``pot`` for every profile.
    """
    pot = check_pot(pot)
    rows = _DEAL_ROWS[deal]
    reach = _reach(profile, rows)
    v = reach @ _LEAF_STAKE[rows] + pot * (reach @ _LEAF_SHARE[rows])
    return tuple(v.tolist())


def expected_profit_bruteforce(profile: StrategyProfile, pot: float) -> ProfitVector:
    """Expected profit per player by enumeration over all 24 deals.

    Averages the leaf payoffs of every deal with weight 1/24 and subtracts
    the all-check baseline P/3 from each player, which makes the result
    zero-sum.
    """
    pot = check_pot(pot)
    reach = _reach(profile)
    tot = reach @ _LEAF_STAKE + pot * (reach @ _LEAF_SHARE)
    return ProfitVector(*(t / 24.0 - pot / 3.0 for t in tot.tolist()))
