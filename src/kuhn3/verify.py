"""Equilibrium verification: best-response conditions and exploitability.

Because each player's expected profit is jointly affine in her own
frequencies, a profile is an equilibrium exactly when, frequency by
frequency, the partial derivative g = dE_owner/df satisfies

    f = 0  ->  g <= 0        (would not want to raise f)
    f = 1  ->  g >= 0        (would not want to lower f)
    0<f<1  ->  g  = 0        (indifferent)

and the best-response improvement available to a player is the exact sum
max(g, 0) - g*f over her own frequencies.  This single gradient test is
equivalent to the game's case-by-case equilibrium conditions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import analytic_ev, catalog
from .game_model import FREQ_NAMES, FREQ_OWNER, StrategyProfile, check_pot

__all__ = [
    "BestResponseReport",
    "FreqStatus",
    "StructuralLemmaReport",
    "best_response_check",
    "exploitability",
    "structural_lemma_tests",
]

DEFAULT_TOL = 1e-9


class FreqStatus(enum.Enum):
    AT_ZERO_OK = "AtZeroOk"
    AT_ONE_OK = "AtOneOk"
    INTERIOR_INDIFFERENT = "InteriorIndifferent"
    VIOLATED = "Violated"


@dataclass(frozen=True)
class BestResponseReport:
    """Outcome of the per-frequency best-response check.

    ``gaps`` holds, for every frequency, the size of the profitable
    deviation signal (zero when the condition holds up to ``tol``);
    ``exploitability`` is the exact per-player best-response gain.
    """

    statuses: dict
    gaps: dict
    overall: bool
    exploitability: tuple
    tol: float

    def violated(self) -> list[str]:
        return [n for n, s in self.statuses.items() if s is FreqStatus.VIOLATED]

    def to_json(self, profile: StrategyProfile | None = None) -> dict:
        out = {
            "overall": self.overall,
            "tol": self.tol,
            "exploitability": list(self.exploitability),
            "frequencies": {
                n: {"status": self.statuses[n].value, "gap": self.gaps[n]}
                for n in FREQ_NAMES
            },
        }
        if profile is not None:
            for n in FREQ_NAMES:
                out["frequencies"][n]["value"] = getattr(profile, n)
        return out


def best_response_check(profile: StrategyProfile, pot: float,
                        tol: float = DEFAULT_TOL) -> BestResponseReport:
    """Check the equilibrium conditions for every frequency.

    A frequency within ``tol`` of 0 (resp. 1) is treated as a boundary
    coordinate and needs g <= tol (resp. g >= -tol); an interior frequency
    needs |g| <= tol.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    pot = check_pot(pot)
    grad = analytic_ev.gradient(profile, pot)
    statuses: dict = {}
    gaps: dict = {}
    for name in FREQ_NAMES:
        f = getattr(profile, name)
        g = getattr(grad, name)
        if f <= tol:
            gap = max(0.0, g)
            status = FreqStatus.AT_ZERO_OK
        elif f >= 1 - tol:
            gap = max(0.0, -g)
            status = FreqStatus.AT_ONE_OK
        else:
            gap = abs(g)
            status = FreqStatus.INTERIOR_INDIFFERENT
        if gap > tol:
            status = FreqStatus.VIOLATED
        statuses[name] = status
        gaps[name] = gap
    overall = all(s is not FreqStatus.VIOLATED for s in statuses.values())
    return BestResponseReport(statuses, gaps, overall, _gains(profile, grad),
                              tol)


def exploitability(profile: StrategyProfile, pot: float) -> tuple:
    """Exact best-response gain per player, holding the others fixed.

    For player i this is sum over her own frequencies of
    max(g, 0) - g * f, which is exact because E_i is affine in her own
    frequencies over the unit box.  Nonnegative; zero exactly at a best
    response.
    """
    return _gains(profile, analytic_ev.gradient(profile, check_pot(pot)))


def _gains(profile: StrategyProfile, grad) -> tuple:
    """:func:`exploitability` from the gradient at the profile."""
    gains = [0.0, 0.0, 0.0]
    for name in FREQ_NAMES:
        g = getattr(grad, name)
        f = getattr(profile, name)
        gains[FREQ_OWNER[name] - 1] += max(g, 0.0) - g * f
    return tuple(gains)


@dataclass(frozen=True)
class StructuralLemmaReport:
    """Result of the structural no-equilibrium patterns sweep.

    Every verified equilibrium must have b1 < 1, b2 < 1, 0 < b3 < 1 (for
    P > 2), and per player i in {1, 2} either a_i = b_i = 0 or both
    positive: value betting and bluffing come together or not at all.
    """

    catalog_points: int
    random_profiles: int
    random_equilibria: int
    forced_rejections: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def _lemma_violations(profile: StrategyProfile, pot: float,
                      tol: float) -> list[str]:
    out = []
    if profile.b1 >= 1 - tol:
        out.append("b1=1")
    if profile.b2 >= 1 - tol:
        out.append("b2=1")
    if pot > 2 + 1e-9 and not tol < profile.b3 < 1 - tol:
        out.append("b3 on boundary")
    for a, b in (("a1", "b1"), ("a2", "b2")):
        va, vb = getattr(profile, a), getattr(profile, b)
        if (va <= tol) != (vb <= tol):
            out.append(f"mixed {a}/{b} pattern")
    return out


def structural_lemma_tests(n_random: int = 100_000, seed: int = 0,
                           grid_step: float = 0.05,
                           tol: float = DEFAULT_TOL) -> StructuralLemmaReport:
    """Confirm the structural lemmas by catalog sweep plus dense sampling.

    Sweeps every catalog family over a pot grid, samples ``n_random``
    random profiles (any that verify must satisfy the lemmas), and checks
    that profiles with the forced always-bluff patterns are rejected by
    the best-response check.
    """
    rng = np.random.default_rng(seed)
    violations: list = []

    catalog_points = 0
    for sid in catalog.SOLUTION_IDS:
        lo, hi = catalog.validity_range(sid)
        hi = min(hi, 8.0)
        pots = [lo] if hi <= lo else list(np.arange(lo, hi + 1e-12, grid_step))
        for pot in pots:
            prof = catalog.instantiate(sid, float(pot))
            catalog_points += 1
            bad = _lemma_violations(prof, float(pot), tol)
            if bad:
                violations.append((sid, float(pot), bad))

    random_equilibria = 0
    for _ in range(n_random):
        prof = StrategyProfile(*rng.uniform(0.0, 1.0, 11))
        pot = float(rng.uniform(2.0 + 1e-6, 8.0))
        if best_response_check(prof, pot, tol=1e-6).overall:
            random_equilibria += 1
            bad = _lemma_violations(prof, pot, 1e-6)
            if bad:
                violations.append(("random", pot, bad))

    # forced always-bluff patterns must fail verification
    forced_rejections = 0
    forced = [
        {"b3": 1.0, "c1": 1.0, "d2": 1.0},
        {"b3": 0.0, "c1": 0.0, "d2": 0.0},
        {"b1": 1.0, "c2": 1.0, "d3": 1.0},
        {"b2": 1.0, "c3": 1.0, "d1": 1.0},
    ]
    for kw in forced:
        for _ in range(50):
            base = StrategyProfile(*rng.uniform(0.0, 1.0, 11))
            prof = base.replace(**kw)
            pot = float(rng.uniform(2.0 + 1e-6, 8.0))
            if best_response_check(prof, pot).overall:
                violations.append(("forced", pot, list(kw)))
            else:
                forced_rejections += 1

    return StructuralLemmaReport(catalog_points, n_random, random_equilibria,
                                 forced_rejections, violations)
