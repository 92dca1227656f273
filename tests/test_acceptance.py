"""Acceptance suite: every release criterion with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import time

import numpy as np
import pytest

from conftest import POT_SAMPLE
from kuhn3.analytic_ev import expected_profit, expected_profit_scaled, gradient
from kuhn3.catalog import (
    SOLUTION_IDS,
    critical_pots,
    free_parameters,
    instantiate,
    validity_range,
)
from kuhn3.dynamics import (
    FreqLimit,
    IntegratorConfig,
    Label,
    average_profit_rate,
    classify,
    integrate,
    integrate_direct,
    random_initial_profile,
)
from kuhn3.game_model import (
    FREQ_NAMES,
    FREQ_OWNER,
    StrategyProfile,
    expected_profit_bruteforce,
)
from kuhn3.stability import Verdict, classify_equilibrium
from kuhn3.verify import best_response_check, exploitability

GRID_STEP = 0.01
POT_CAP = 8.0  # finite stand-in for the unbounded top family


def _sample_profiles(n, seed=2024):
    rng = np.random.default_rng(seed)
    return [StrategyProfile(*rng.uniform(0, 1, 11)) for _ in range(n)]


@pytest.fixture(scope="module")
def oracle_sample():
    """1000 seeded profiles evaluated by both routes at 13 pots."""
    profiles = _sample_profiles(1000)
    t0 = time.time()
    rows = []
    for prof in profiles:
        for pot in POT_SAMPLE:
            bf = expected_profit_bruteforce(prof, pot)
            an = expected_profit(prof, pot)
            rows.append((bf, an))
    elapsed = time.time() - t0
    return rows, elapsed


def test_criterion_1_oracle_equivalence(oracle_sample):
    rows, elapsed = oracle_sample
    worst = 0.0
    for bf, an in rows:
        for a, b in zip(bf, an):
            worst = max(worst, abs(24 * a - 24 * b))
    assert worst <= 1e-12
    assert elapsed < 5.0
    print(f"\ncriterion 1 PASS: oracle equivalence on {len(rows)} "
          f"evaluations, worst |24dE| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_zero_sum(oracle_sample):
    rows, _ = oracle_sample
    worst = 0.0
    for bf, an in rows:
        worst = max(worst, abs(sum(bf)), abs(sum(an)))
    assert worst <= 1e-12
    print(f"\ncriterion 2 PASS: zero-sum on the same sample, "
          f"worst |E1+E2+E3| = {worst:.2e}")


def test_criterion_3_gradient_finite_differences():
    rng = np.random.default_rng(77)
    h = 1e-6
    worst = 0.0
    for _ in range(200):
        prof = StrategyProfile(*rng.uniform(0, 1, 11))
        pot = float(rng.uniform(2, 8))
        g = gradient(prof, pot)
        for name in FREQ_NAMES:
            v = getattr(prof, name)
            lo, hi = max(0.0, v - h), min(1.0, v + h)
            owner = FREQ_OWNER[name] - 1
            ep = expected_profit(prof.replace(**{name: hi}), pot)[owner]
            em = expected_profit(prof.replace(**{name: lo}), pot)[owner]
            worst = max(worst, abs((ep - em) / (hi - lo) - getattr(g, name)))
    assert worst <= 1e-8
    print(f"\ncriterion 3 PASS: gradient vs central differences on 200 "
          f"points, worst = {worst:.2e}")


def test_criterion_4_catalog_verification():
    checked = 0
    worst_gap = 0.0
    for sid in SOLUTION_IDS:
        lo, hi = validity_range(sid)
        hi = min(hi, POT_CAP)
        pots = [lo] if hi <= lo else np.arange(lo, hi + 1e-12, GRID_STEP)
        for pot in pots:
            pot = float(pot)
            for frac in (0.0, 0.5, 1.0):
                params = {p.name: p.lo + frac * (p.hi - p.lo)
                          for p in free_parameters(sid, pot)}
                prof = instantiate(sid, pot, params)
                report = best_response_check(prof, pot, tol=1e-9)
                assert report.overall, (sid, pot, frac, report.violated())
                gain = max(exploitability(prof, pot))
                assert gain <= 1e-9, (sid, pot, frac, gain)
                worst_gap = max(worst_gap, gain)
                checked += 1

    # validity structure: exactly three triple-coexistence ranges
    c = critical_pots()
    interval_ids = [s for s in SOLUTION_IDS
                    if validity_range(s)[0] < validity_range(s)[1]]
    grid = np.arange(2.0005, POT_CAP, 0.001)
    counts = np.array([sum(1 for s in interval_ids
                           if validity_range(s)[0] <= p <= validity_range(s)[1])
                       for p in grid])
    triple = counts >= 3
    runs = []
    start = None
    for i, t in enumerate(triple):
        if t and start is None:
            start = grid[i]
        elif not t and start is not None:
            runs.append((start, grid[i - 1]))
            start = None
    if start is not None:
        runs.append((start, grid[-1]))
    assert counts.max() == 3
    assert len(runs) == 3
    for (rlo, rhi), (elo, ehi) in zip(
            runs, [(c.p3, c.p4), (c.p6, 4.0), (c.p8, c.p9)]):
        assert rlo == pytest.approx(elo, abs=2e-3)
        assert rhi == pytest.approx(ehi, abs=2e-3)
    print(f"\ncriterion 4 PASS: {checked} catalog instantiations verified "
          f"(worst exploitability {worst_gap:.2e}); three triple-coexistence "
          f"ranges at (P3,P4), (P6,4), (P8,P9)")


def test_criterion_5_point_family_profit_identities():
    worst = 0.0
    # P=3 family: 24E = (-1/2 - a2/2, -1/2, 1 + a2/2) for a2 <= 1/2
    for a2 in np.linspace(0.0, 0.5, 26):
        for frac in (0.0, 0.5, 1.0):
            params = {"a2": float(a2)}
            params.update({p.name: p.lo + frac * (p.hi - p.lo)
                           for p in free_parameters("2a", 3.0, params)
                           if p.name != "a2"})
            e = expected_profit_scaled(instantiate("2a", 3.0, params), 3.0)
            want = (-0.5 - 0.5 * a2, -0.5, 1 + 0.5 * a2)
            worst = max(worst, max(abs(a - b) for a, b in zip(e, want)))
    # P=7/2 family: 24E = (-10/9 + 2a2/9, -2/9, 4/3 - 2a2/9) for a2 >= 3/4
    for a2 in np.linspace(0.75, 1.0, 26):
        for frac in (0.0, 0.5, 1.0):
            params = {"a2": float(a2)}
            params.update({p.name: p.lo + frac * (p.hi - p.lo)
                           for p in free_parameters("5a", 3.5, params)
                           if p.name != "a2"})
            e = expected_profit_scaled(instantiate("5a", 3.5, params), 3.5)
            want = (-10 / 9 + 2 / 9 * a2, -2 / 9, 4 / 3 - 2 / 9 * a2)
            worst = max(worst, max(abs(a - b) for a, b in zip(e, want)))
    # P=5 family: 24E = (-19/18, 17/18 - 3b1, 1/9 + 3b1) for b1 in [1/3, 2/5]
    for b1 in np.linspace(1 / 3, 2 / 5, 26):
        cases = [{"b1": float(b1)}]
        if abs(b1 - 1 / 3) < 1e-12:
            cases = [{"b1": float(b1), "c1": c1}
                     for c1 in (2 / 3, 5 / 6, 1.0)]
        for params in cases:
            e = expected_profit_scaled(instantiate("10a", 5.0, params), 5.0)
            want = (-19 / 18, 17 / 18 - 3 * b1, 1 / 9 + 3 * b1)
            worst = max(worst, max(abs(a - b) for a, b in zip(e, want)))
    assert worst <= 1e-12
    print(f"\ncriterion 5 PASS: point-family profit identities across free "
          f"parameters, worst deviation {worst:.2e}")


UNSTABLE_POINTS = {
    "2": (3.1, 3.2, 3.4), "3": (3.25, 3.3, 3.4), "6": (3.91, 3.95, 3.99),
    "7": (3.95, 4.1, 4.3), "8": (4.32, 4.35, 4.4),
}
STABLE_POINTS = {
    "1": (2.5, 1), "4": (3.35, 2), "5": (3.75, 2), "9": (4.65, 3),
    "10": (6.0, 3),
}


def test_criterion_6_stability_classification():
    slowest = 0.0
    for sid, pots in UNSTABLE_POINTS.items():
        for pot in pots:
            t0 = time.time()
            rep = classify_equilibrium(sid, pot)
            slowest = max(slowest, time.time() - t0)
            assert rep.verdict is Verdict.UNSTABLE, (sid, pot)
            assert rep.max_real_part > 0.0
    for sid, (pot, pairs) in STABLE_POINTS.items():
        t0 = time.time()
        rep = classify_equilibrium(sid, pot)
        slowest = max(slowest, time.time() - t0)
        assert rep.verdict is Verdict.CENTRE_MANIFOLD_STABLE, (sid, pot)
        assert rep.max_real_part <= 1e-6, (sid, pot, rep.max_real_part)
        assert rep.oscillatory_pairs == pairs, (sid, pot)
    assert slowest < 1.0
    print(f"\ncriterion 6 PASS: 2/3/6/7/8 unstable at three pots each; "
          f"1/4/5/9/10 centre-manifold stable with pair counts 1/2/2/3/3; "
          f"slowest point {slowest * 1e3:.0f} ms")


def _timed_run(pot, seed, t_end):
    t0 = time.time()
    traj = integrate(random_initial_profile(seed), pot, t_end, seed=seed)
    cls = classify(traj)
    elapsed = time.time() - t0
    assert elapsed < 60.0, (pot, seed, elapsed)
    return traj, cls, elapsed


@pytest.mark.slow
def test_criterion_7_dynamics_regimes():
    lines = []

    # P=2.5: periodic, with a1, a2, c1 dead by t=2000
    traj, cls, el = _timed_run(2.5, 1, 2000.0)
    assert cls.label is Label.PERIODIC
    for name in ("a1", "a2", "c1"):
        assert traj.freqs[-1][FREQ_NAMES.index(name)] < 1e-3
        assert cls.flags[name] is FreqLimit.TO_ZERO
    lines.append(f"P=2.5 Periodic ({el:.1f}s)")

    # P=3.35: bounded oscillation near the (a2, b2, d1, b3) family-4 point
    traj, cls, el = _timed_run(3.35, 1, 8000.0)
    assert cls.label is Label.CLOSE_TO_PERIODIC
    assert set(cls.groups[0]) == {"a2", "b2", "d1", "b3"}
    sol4 = instantiate("4", 3.35)
    tail = traj.freqs[3 * traj.n_samples // 4:]
    for name in ("a2", "b2", "d1", "b3"):
        j = FREQ_NAMES.index(name)
        assert abs(tail[:, j].mean() - getattr(sol4, name)) < 0.15
        assert 1e-3 < tail[:, j].min() and tail[:, j].max() < 1 - 1e-3
    lines.append(f"P=3.35 CloseToPeriodic near family 4 ({el:.1f}s)")

    # P=3.75: purely periodic pairs
    traj, cls, el = _timed_run(3.75, 1, 8000.0)
    assert cls.label is Label.PERIODIC
    lines.append(f"P=3.75 Periodic ({el:.1f}s)")

    # P=3.1: non-periodic transient, boundary absorption within the horizon
    traj, cls, el = _timed_run(3.1, 54, 20000.0)
    assert cls.label is Label.CHAOTIC_TRANSIENT_TO_BOUNDARY
    inband = ((traj.freqs < 1e-3) | (traj.freqs > 1 - 1e-3)).all(axis=1)
    assert inband.any()
    t_abs = float(traj.times[np.argmax(inband)])
    assert t_abs <= 10_000.0
    lines.append(f"P=3.1 ChaoticTransientToBoundary, full-boundary visit at "
                 f"t={t_abs:.0f} ({el:.1f}s)")
    _, cls2, _ = _timed_run(3.1, 1, 20000.0)
    assert cls2.label is Label.CHAOTIC_TRANSIENT_TO_BOUNDARY

    # P=4.15: same fate above the third coexistence window
    traj, cls, el = _timed_run(4.15, 1, 20000.0)
    assert cls.label is Label.CHAOTIC_TRANSIENT_TO_BOUNDARY
    inband = ((traj.freqs < 1e-3) | (traj.freqs > 1 - 1e-3)).all(axis=1)
    assert inband.any()
    assert float(traj.times[np.argmax(inband)]) <= 20_000.0
    lines.append(f"P=4.15 ChaoticTransientToBoundary ({el:.1f}s)")

    # P=4.65: periodic pairs (b1, d3) and (b2, d1); the bluffing/calling
    # triple (b3, c1, d2) drifts to the boundary
    traj, cls, el = _timed_run(4.65, 1, 20000.0)
    assert cls.label is Label.CLOSE_TO_PERIODIC
    groups = {frozenset(g) for g in cls.groups}
    peaks = {frozenset(g): p for g, p in zip(cls.groups, cls.group_peaks)}
    assert {"b1", "d3"} in groups
    assert {"b2", "d1"} in groups
    assert peaks[frozenset({"b1", "d3"})] >= 0.9
    assert peaks[frozenset({"b2", "d1"})] >= 0.9
    n = traj.n_samples
    first, second = traj.freqs[:n // 2], traj.freqs[n // 2:]
    for name in ("b3", "c1", "d2"):
        j = FREQ_NAMES.index(name)
        # reaches the boundary band and spends growing time there
        assert np.minimum(second[:, j], 1 - second[:, j]).min() < 1e-3
        dwell1 = ((first[:, j] < 1e-3) | (first[:, j] > 1 - 1e-3)).mean()
        dwell2 = ((second[:, j] < 1e-3) | (second[:, j] > 1 - 1e-3)).mean()
        assert dwell2 > dwell1
    lines.append(f"P=4.65 CloseToPeriodic with boundary-bound triple ({el:.1f}s)")

    print("\ncriterion 7 PASS: " + "; ".join(lines))


def test_criterion_8_profit_tracking():
    sol2 = expected_profit_scaled(instantiate("2", 3.1), 3.1)
    worst31 = 0.0
    for seed in (1, 2, 3):
        traj = integrate(random_initial_profile(seed), 3.1, 5000.0, seed=seed)
        rate = [24 * r for r in average_profit_rate(traj, 0.0, 5000.0)]
        dev = max(abs(a - b) for a, b in zip(rate, sol2))
        assert dev <= 0.25, (seed, rate, sol2)
        worst31 = max(worst31, dev)
    sol1 = expected_profit_scaled(instantiate("1", 2.5), 2.5)
    worst25 = 0.0
    for seed in (1, 2, 3):
        traj = integrate(random_initial_profile(seed), 2.5, 5000.0, seed=seed)
        rate = [24 * r for r in average_profit_rate(traj, 0.0, 5000.0)]
        dev = max(abs(a - b) for a, b in zip(rate, sol1))
        assert dev <= 0.1, (seed, rate, sol1)
        worst25 = max(worst25, dev)
    print(f"\ncriterion 8 PASS: scaled profit rates track family 2 at P=3.1 "
          f"(worst {worst31:.3f} <= 0.25) and family 1 at P=2.5 "
          f"(worst {worst25:.4f} <= 0.1) over [0, 5000]")


def test_criterion_9_coordinate_chart_equivalence():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    worst = 0.0
    for seed in range(1, 11):
        p0 = random_initial_profile(seed)
        a = integrate(p0, 3.75, 100.0, config=cfg, seed=seed)
        b = integrate_direct(p0, 3.75, 100.0, config=cfg, seed=seed)
        worst = max(worst, float(np.abs(a.freqs - b.freqs).max()))
    assert worst <= 1e-6
    print(f"\ncriterion 9 PASS: log-odds vs direct integration agree to "
          f"{worst:.2e} in f at t=100 for 10 seeds at P=3.75")
