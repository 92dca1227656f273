import ast
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuhn3 import game_model
from kuhn3.game_model import (
    Card,
    Deal,
    FREQ_NAMES,
    FREQ_OWNER,
    StrategyProfile,
    enumerate_deals,
    expected_profit_bruteforce,
    hand_value,
)

unit = st.floats(min_value=0.0, max_value=1.0)
profiles = st.builds(StrategyProfile, *([unit] * 11))
pots = st.floats(min_value=2.0, max_value=10.0)


class TestCard:
    def test_order(self):
        assert Card.A > Card.K > Card.Q > Card.J

    def test_four_ranks(self):
        assert len(Card) == 4


class TestDeals:
    def test_exactly_24(self):
        assert len(enumerate_deals()) == 24

    def test_all_distinct_cards(self):
        for d in enumerate_deals():
            assert len({d.p1, d.p2, d.p3}) == 3

    def test_no_duplicate_deals(self):
        deals = enumerate_deals()
        assert len(set(deals)) == 24

    def test_akq_appears_once(self):
        deals = enumerate_deals()
        assert deals.count(Deal(Card.A, Card.K, Card.Q)) == 1

    def test_player3_holds_ace_in_six_deals(self):
        assert sum(1 for d in enumerate_deals() if d.p3 == Card.A) == 6


class TestStrategyProfile:
    def test_field_order(self):
        assert FREQ_NAMES == ("a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2",
                              "b3", "c3", "d3")

    def test_owners(self):
        assert FREQ_OWNER["a1"] == 1
        assert FREQ_OWNER["d2"] == 2
        assert FREQ_OWNER["b3"] == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            StrategyProfile.zeros().replace(b3=1.2)
        with pytest.raises(ValueError):
            StrategyProfile.zeros().replace(a1=-0.5)

    def test_clamps_round_off(self):
        p = StrategyProfile.zeros().replace(b3=1 + 1e-12)
        assert p.b3 == 1.0
        p = StrategyProfile.zeros().replace(b3=-1e-12)
        assert p.b3 == 0.0

    def test_from_dict_rejects_unknown_and_missing(self):
        good = StrategyProfile.uniform(0.5).as_dict()
        with pytest.raises(ValueError, match="unknown"):
            StrategyProfile.from_dict({**good, "a3": 1.0})
        bad = dict(good)
        del bad["c2"]
        with pytest.raises(ValueError, match="missing"):
            StrategyProfile.from_dict(bad)

    def test_array_round_trip(self):
        p = StrategyProfile(*np.linspace(0.0, 1.0, 11))
        assert StrategyProfile.from_array(p.as_array()) == p


class TestHandValue:
    def test_all_check_showdown(self):
        deal = Deal(Card.A, Card.K, Card.Q)
        assert hand_value(deal, StrategyProfile.zeros(), 2.5) == (2.5, 0.0, 0.0)

    def test_forced_fold_line(self):
        # players 1-2 check, player 3 bets the A, both fold
        deal = Deal(Card.K, Card.Q, Card.A)
        assert hand_value(deal, StrategyProfile.zeros(), 2.5) == (0.0, 0.0, 2.5)

    def test_single_branch_bluff_called_down(self):
        # player 1 bluffs the Q, player 2 calls with K, player 3 has the
        # unconditional closing call with A
        deal = Deal(Card.Q, Card.K, Card.A)
        prof = StrategyProfile.zeros().replace(b1=1.0, c2=1.0)
        assert hand_value(deal, prof, 3.0) == (-1.0, -1.0, 5.0)

    def test_k_never_opens(self):
        # P1 holds K and checks even with all frequencies at 1; P2 bluffs,
        # P3 holds dead J and folds, P1 calls after the fold and wins
        deal = Deal(Card.K, Card.Q, Card.J)
        prof = StrategyProfile.uniform(1.0)
        assert hand_value(deal, prof, 3.0) == (4.0, -1.0, 0.0)

    def test_dead_card_never_pays_or_collects(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            prof = StrategyProfile(*rng.uniform(0, 1, 11))
            pot = float(rng.uniform(2, 8))
            for deal in enumerate_deals():
                hv = hand_value(deal, prof, pot)
                for i, card in enumerate(deal):
                    if card == Card.J:
                        assert hv[i] == 0.0

    @given(profiles, pots)
    @settings(max_examples=150, deadline=None)
    def test_values_sum_to_pot(self, prof, pot):
        for deal in enumerate_deals():
            hv = hand_value(deal, prof, pot)
            assert sum(hv) == pytest.approx(pot, abs=1e-12)


class TestExpectedProfitBruteforce:
    @pytest.mark.parametrize("pot", [2.0, 2.5, 4.0, 7.3])
    def test_all_check_profile_breaks_even(self, pot):
        e = expected_profit_bruteforce(StrategyProfile.zeros(), pot)
        assert e == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_known_point_on_lowest_family(self):
        # equilibrium instance at P=2.5: b3=4/7, d2=2/7, d3=d1=2/7
        prof = StrategyProfile.zeros().replace(
            b3=4 / 7, d2=2 / 7, d3=2 / 7, d1=2 / 7)
        e = expected_profit_bruteforce(prof, 2.5)
        assert e.e1 == pytest.approx(-1 / 84, abs=1e-14)
        assert e.e2 == pytest.approx(-1 / 84, abs=1e-14)
        assert e.e3 == pytest.approx(1 / 42, abs=1e-14)

    def test_known_point_at_pot_three(self):
        # the P=3 family with a2=0.4: 24E = (-0.7, -0.5, 1.2)
        a2 = 0.4
        prof = StrategyProfile.zeros().replace(
            a2=a2, b2=a2 / 2, b3=0.5, d2=(1 + a2) / 2, d1=0.5,
            c2=0.25, d3=0.3)
        e = expected_profit_bruteforce(prof, 3.0)
        assert 24 * e.e1 == pytest.approx(-0.7, abs=1e-12)
        assert 24 * e.e2 == pytest.approx(-0.5, abs=1e-12)
        assert 24 * e.e3 == pytest.approx(1.2, abs=1e-12)

    def test_zero_sum(self, rng):
        for _ in range(100):
            prof = StrategyProfile(*rng.uniform(0, 1, 11))
            pot = float(rng.uniform(2, 8))
            e = expected_profit_bruteforce(prof, pot)
            assert abs(sum(e)) < 1e-12

    def test_rejects_small_pot(self):
        with pytest.raises(ValueError, match="pot"):
            expected_profit_bruteforce(StrategyProfile.zeros(), 1.5)


def _deal_reach(profile: StrategyProfile) -> np.ndarray:
    """(24, leaves per deal, padded with nan) reach probabilities."""
    reach = game_model._reach(profile)
    rows = list(game_model._DEAL_ROWS.values())
    out = np.full((len(rows), max(r.stop - r.start for r in rows)), np.nan)
    for i, r in enumerate(rows):
        out[i, :r.stop - r.start] = reach[r]
    return out


_CORNERS = [StrategyProfile(*bits)
            for bits in itertools.product((0.0, 1.0), repeat=11)]


class TestLeafTable:
    def test_every_deal_has_leaves(self):
        assert list(game_model._DEAL_ROWS) == enumerate_deals()
        assert game_model._LEAF_FACTORS.shape[1] <= 3

    def test_no_frequency_twice_on_a_path(self):
        # v[k] is f_k and v[k + 11] is 1 - f_k: a path reads each at most once
        for row in game_model._LEAF_FACTORS.tolist():
            freqs = [(i - 1) % 11 for i in row if i != game_model._ALWAYS]
            assert len(freqs) == len(set(freqs)), row

    def test_reach_sums_to_one_on_random_profiles(self, rng):
        for _ in range(200):
            reach = _deal_reach(StrategyProfile(*rng.uniform(0, 1, 11)))
            np.testing.assert_allclose(np.nansum(reach, axis=1), 1.0,
                                       rtol=0, atol=1e-15)

    def test_reach_sums_to_one_on_corners(self):
        for prof in _CORNERS:
            reach = _deal_reach(prof)
            np.testing.assert_allclose(np.nansum(reach, axis=1), 1.0,
                                       rtol=0, atol=1e-15)

    def test_corner_profiles_take_one_path_per_deal(self):
        # pots whose sums with the integer stakes are exact
        pots = (2.0, 2.5, 3.25, 6.0)
        for n, prof in enumerate(_CORNERS):
            reach = _deal_reach(prof)
            assert ((reach == 1.0).sum(axis=1) == 1).all()
            assert ((reach == 0.0) | (reach == 1.0)
                    | np.isnan(reach)).all()
            pot = pots[n % len(pots)]
            for deal in enumerate_deals():
                assert sum(hand_value(deal, prof, pot)) == pot

    def test_oracle_never_imports_the_closed_form(self):
        tree = ast.parse(inspect.getsource(game_model))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                assert "analytic_ev" not in name, ast.dump(node)


class TestMultilinearity:
    # E is affine in each frequency on its own, which the closed form of
    # kuhn3.analytic_ev takes for granted; checked on the oracle alone
    @given(profiles, pots, unit)
    @settings(max_examples=100, deadline=None)
    def test_each_frequency_enters_affinely(self, prof, pot, t):
        for name in FREQ_NAMES:
            e0, e1, et = (expected_profit_bruteforce(prof.replace(**{name: x}),
                                                     pot)
                          for x in (0.0, 1.0, t))
            for a, b, c in zip(et, e0, e1):
                assert abs(a - ((1 - t) * b + t * c)) <= 1e-12, name
