import numpy as np
import pytest

from kuhn3 import analytic_ev, catalog
from kuhn3.catalog import SOLUTION_IDS, instantiate, solution, validity_range
from kuhn3.game_model import FREQ_NAMES, StrategyProfile
from kuhn3.verify import (
    FreqStatus,
    best_response_check,
    exploitability,
    structural_lemma_tests,
)


class TestBestResponseCheck:
    def test_catalog_equilibrium_verifies(self):
        report = best_response_check(instantiate("10", 6.0), 6.0)
        assert report.overall
        assert not report.violated()

    def test_uniform_half_is_not_an_equilibrium(self):
        report = best_response_check(StrategyProfile.uniform(0.5), 4.0)
        assert not report.overall
        assert report.violated()

    def test_all_zero_profile_fails_via_b3(self):
        report = best_response_check(StrategyProfile.zeros(), 2.5)
        assert not report.overall
        assert report.statuses["b3"] is FreqStatus.VIOLATED
        # the bluff with Q after two checks prints money against folders
        assert report.gaps["b3"] == pytest.approx((2 * 2.5 - 4) / 24, abs=1e-12)

    def test_statuses_reflect_position(self):
        report = best_response_check(instantiate("10", 6.0), 6.0)
        assert report.statuses["a1"] is FreqStatus.AT_ONE_OK
        assert report.statuses["b1"] is FreqStatus.INTERIOR_INDIFFERENT
        report = best_response_check(instantiate("1", 2.5), 2.5)
        assert report.statuses["a1"] is FreqStatus.AT_ZERO_OK

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            best_response_check(StrategyProfile.zeros(), 3.0, tol=0.0)

    def test_json_round_trip(self):
        prof = instantiate("1", 2.5)
        doc = best_response_check(prof, 2.5).to_json(prof)
        assert doc["overall"] is True
        assert set(doc["frequencies"]) == set(FREQ_NAMES)
        assert doc["frequencies"]["b3"]["value"] == pytest.approx(4 / 7)


class TestExploitability:
    def test_zero_on_catalog_instantiations(self):
        for sid in SOLUTION_IDS:
            lo, hi = validity_range(sid)
            pot = lo if hi == lo else 0.5 * (lo + min(hi, 8.0))
            gains = exploitability(instantiate(sid, pot), pot)
            assert all(g <= 1e-9 for g in gains)
            assert all(g >= 0.0 for g in gains)

    def test_family_5_formulas_outside_validity_are_exploitable(self):
        # plug P=4.5 into the family-5 expressions (valid only to P=4)
        P = 4.5
        q = {"c2_plus_d3": 0.8, "c2": 0.4}
        prof = StrategyProfile.from_dict(
            solution("5").family(P, catalog._Free(lambda p: q[p.name])))
        gains = exploitability(prof, P)
        assert max(gains) > 1e-3

    def test_always_bluffing_player1_is_exploitable(self):
        prof = StrategyProfile.zeros().replace(b1=1.0, c2=1.0, d3=1.0)
        gains = exploitability(prof, 3.0)
        assert gains[0] > 0.0

    def test_nonnegative_on_random_profiles(self, rng):
        for _ in range(300):
            prof = StrategyProfile(*rng.uniform(0, 1, 11))
            gains = exploitability(prof, float(rng.uniform(2, 8)))
            assert all(g >= 0.0 for g in gains)

    def test_small_perturbation_gives_small_exploitability(self):
        # perturbing one interior-indifferent coordinate by eps moves the
        # gain by at most eps times the gradient slope bound
        pot = 6.0
        base = instantiate("10", pot)
        eps = 1e-4
        prof = base.replace(b1=base.b1 + eps)
        gains = exploitability(prof, pot)
        H = analytic_ev.gradient_cross(base, pot)
        bound = eps * (np.abs(H).sum(axis=1).max() / 24.0) * 11
        assert 0.0 <= sum(gains) <= bound

    def test_player1_bound_exploitation(self):
        # with c2 + d3 pushed above the admissible band, always betting
        # the A profits; pushed below, always bluffing the Q profits
        for sid, pot in (("1", 2.5), ("2", 3.2), ("5", 3.75)):
            base = instantiate(sid, pot)
            from kuhn3.catalog import free_parameters
            bounds = {p.name: p for p in free_parameters(sid, pot)}
            span = bounds["c2_plus_d3"]

            hi_prof = base.replace(c2=min(1.0, span.hi + 0.05), d3=base.d3)
            g = analytic_ev.gradient(hi_prof, pot)
            assert g.a1 > 0.0
            assert exploitability(hi_prof, pot)[0] > 0.0

            lo_prof = base.replace(c2=0.0, d3=max(0.0, span.lo - 0.05))
            g = analytic_ev.gradient(lo_prof, pot)
            assert g.b1 > 0.0
            assert exploitability(lo_prof, pot)[0] > 0.0


class TestStructuralLemmas:
    def test_sweep_and_sampling(self):
        report = structural_lemma_tests(seed=3)
        assert report.passed, report.violations
        assert report.random_profiles == 100_000
        assert report.catalog_points > 50
        assert report.forced_rejections == 200

    def test_forced_always_bluff_fails_condition_directly(self):
        # b3 = 1 with both bluff-catchers calling: the bluff loses money
        prof = StrategyProfile.zeros().replace(b3=1.0, c1=1.0, d2=1.0)
        report = best_response_check(prof, 3.0)
        assert report.statuses["b3"] is FreqStatus.VIOLATED

    def test_verified_profiles_have_interior_b3(self, rng):
        # random profiles essentially never verify; catalog points stand in
        for sid in SOLUTION_IDS:
            lo, hi = validity_range(sid)
            pot = lo if hi == lo else 0.5 * (lo + min(hi, 8.0))
            if pot <= 2.0:
                continue
            prof = instantiate(sid, pot)
            assert 0.0 < prof.b3 < 1.0
