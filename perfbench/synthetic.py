"""Synthetic trajectories of the paper's length with labels known by
construction, for the tail classifier.

Every case has 40 001 samples at dt = 0.5 (t = 0 .. 20 000) over the eleven
frequencies, and profits that grow at a constant, zero-sum slope, so
``average_profit_rate`` has an exact answer over any window.  Random draws
come from ``numpy.random.default_rng(seed)``; the same seed gives the same
cases.

Cases:

* ``periodic``: two strictly periodic coupled groups, (b1, d3) and
  (b2, d1), with unrelated periods; the other seven coordinates sit on
  0 or 1.  Expected label ``Periodic`` with exactly those groups.
* ``quasi-periodic``: four coordinates driven by the same three
  incommensurate frequencies (ratios 1 : golden ratio : sqrt 2).
  Expected: any label but ``Periodic``.
* ``absorbed``: every coordinate relaxes exponentially onto 0 or 1 and
  is within 1e-3 of it before t = 60.  Expected ``BoundaryAbsorbed``.
* ``chaotic``: five coordinates hug 0 or 1 in log-odds and erupt into
  the interior at irregular times, spending most of the time within 1e-3
  of the boundary.  Expected ``ChaoticTransientToBoundary``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import kuhn3

N_SAMPLES = 40_001
DT = 0.5
GOLDEN = (1.0 + 5.0 ** 0.5) / 2.0

_IDX = {name: j for j, name in enumerate(kuhn3.FREQ_NAMES)}


@dataclass(frozen=True)
class Case:
    name: str
    trajectory: kuhn3.Trajectory
    label: str | None        # expected label, or None for "not Periodic"
    groups: frozenset | None  # expected coupled groups, when constructed
    slope: tuple             # exact profit rate per player


def _trajectory(freqs: np.ndarray, times: np.ndarray, slope: np.ndarray,
                pot: float, seed: int) -> kuhn3.Trajectory:
    with np.errstate(divide="ignore"):
        logits = np.clip(np.log(freqs) - np.log1p(-freqs), -40.0, 40.0)
    return kuhn3.Trajectory(
        times=times, logits=logits, freqs=freqs,
        profits=times[:, None] * slope[None, :], pot=pot,
        gains=np.ones(11), config=kuhn3.IntegratorConfig(), seed=seed)


def _slope(rng: np.random.Generator) -> np.ndarray:
    s = rng.uniform(-0.05, 0.05, 2)
    return np.array([s[0], s[1], -(s[0] + s[1])])


def _pinned(rng: np.random.Generator) -> np.ndarray:
    """Start from every coordinate on 0 or 1 (chosen at random)."""
    f = np.empty((N_SAMPLES, 11))
    f[:] = rng.integers(0, 2, 11).astype(float)
    return f


def periodic(rng, times, seed) -> Case:
    f = _pinned(rng)
    period_a = rng.uniform(60.0, 90.0)
    period_b = period_a * rng.uniform(1.35, 1.65)
    for (u, v), period in ((("b1", "d3"), period_a), (("b2", "d1"), period_b)):
        w = 2.0 * np.pi * times / period + rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.2, 0.35)
        f[:, _IDX[u]] = 0.5 + amp * np.sin(w)
        f[:, _IDX[v]] = 0.5 + amp * np.cos(w) * rng.uniform(0.6, 1.0)
    groups = frozenset({frozenset({"b1", "d3"}), frozenset({"b2", "d1"})})
    slope = _slope(rng)
    return Case("periodic", _trajectory(f, times, slope, 2.5, seed),
                "Periodic", groups, tuple(slope))


def quasi_periodic(rng, times, seed) -> Case:
    f = _pinned(rng)
    base = rng.uniform(70.0, 110.0)
    omegas = 2.0 * np.pi / base * np.array([1.0, GOLDEN, 2.0 ** 0.5])
    for name in ("a1", "c2", "b3", "d3"):
        phases = rng.uniform(0.0, 2.0 * np.pi, 3)
        amps = rng.uniform(0.1, 0.13, 3)
        f[:, _IDX[name]] = 0.5 + (amps * np.sin(
            np.outer(times, omegas) + phases)).sum(axis=1)
    slope = _slope(rng)
    return Case("quasi-periodic", _trajectory(f, times, slope, 3.35, seed),
                None, None, tuple(slope))


def absorbed(rng, times, seed) -> Case:
    target = rng.integers(0, 2, 11).astype(float)
    start = rng.uniform(0.05, 0.95, 11)
    tau = rng.uniform(2.0, 6.0, 11)
    f = target + (start - target) * np.exp(-times[:, None] / tau)
    slope = _slope(rng)
    return Case("absorbed", _trajectory(f, times, slope, 6.0, seed),
                "BoundaryAbsorbed", None, tuple(slope))


def chaotic(rng, times, seed) -> Case:
    f = _pinned(rng)
    for name in ("a1", "b1", "c2", "b3", "c3"):
        side = 1.0 if rng.random() < 0.5 else -1.0
        logit = np.full(N_SAMPLES, -12.0)
        # one eruption every 80-160 time units, 5-15 wide, peaking at
        # f = 0.7 .. 0.95 away from the boundary it hugs
        t = rng.uniform(0.0, 80.0)
        while t < times[-1]:
            width = rng.uniform(5.0, 15.0)
            height = rng.uniform(12.8, 14.9)
            # the bump is below 1e-30 beyond 9 widths
            lo, hi = np.searchsorted(times, (t - 9 * width, t + 9 * width))
            logit[lo:hi] += height * np.exp(-((times[lo:hi] - t) / width) ** 2)
            t += rng.uniform(80.0, 160.0)
        f[:, _IDX[name]] = 1.0 / (1.0 + np.exp(-side * logit))
    slope = _slope(rng)
    return Case("chaotic", _trajectory(f, times, slope, 3.1, seed),
                "ChaoticTransientToBoundary", None, tuple(slope))


def cases(seed: int) -> list:
    """One case per constructible label, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    times = np.arange(N_SAMPLES) * DT
    return [make(rng, times, seed)
            for make in (periodic, quasi_periodic, absorbed, chaotic)]
