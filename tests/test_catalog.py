import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import bits

from kuhn3 import catalog, cli
from kuhn3.catalog import (
    FreeParamViolation,
    PotOutOfRange,
    SOLUTION_IDS,
    catalog_json,
    critical_pots,
    equilibrium_profit,
    free_parameters,
    instantiate,
    profile_rows,
    solution,
    solutions_for_pot,
    validity_range,
)
from kuhn3.game_model import FREQ_NAMES
from kuhn3.verify import best_response_check


class TestCriticalPots:
    def test_closed_forms(self):
        c = critical_pots()
        assert c.p3 == pytest.approx((3 + math.sqrt(97)) / 4, abs=1e-15)
        assert c.p4 == pytest.approx((3 + math.sqrt(15)) / 2, abs=1e-15)
        assert c.p6 == pytest.approx((3 + math.sqrt(23)) / 2, abs=1e-15)
        assert c.p8 == pytest.approx((7 + math.sqrt(105)) / 4, abs=1e-15)
        assert c.p9 == pytest.approx((7 + math.sqrt(113)) / 4, abs=1e-15)

    def test_ordering_and_quoted_decimals(self):
        c = critical_pots()
        assert c.p3 < c.p4 < c.p6 < c.p8 < c.p9
        assert round(c.p3, 2) == 3.21
        assert round(c.p4, 2) == 3.44 and c.p4 == pytest.approx(3.43649, abs=5e-6)
        assert round(c.p6, 2) == 3.9
        assert round(c.p8, 2) == 4.31
        assert round(c.p9, 2) == 4.41


class TestSolutionsForPot:
    @pytest.mark.parametrize("pot,expected", [
        (2.5, ["1"]),
        (3.3, ["2", "3", "4"]),
        (4.35, ["7", "8", "9"]),
        (2.0, ["1a", "1"]),
        (3.0, ["1", "2a", "2"]),
        (3.5, ["4", "5a", "5"]),
        (5.0, ["9", "10a", "10"]),
        (6.0, ["10"]),
        (3.7, ["5"]),
        (4.2, ["7"]),
    ])
    def test_ranges(self, pot, expected):
        assert solutions_for_pot(pot) == expected

    def test_point_families_only_at_their_pot(self):
        for sid in ("1a", "2a", "5a", "10a"):
            lo, hi = validity_range(sid)
            assert lo == hi
            assert sid in solutions_for_pot(lo)
            assert sid not in solutions_for_pot(lo + 0.01)

    def test_contains_on_an_array_matches_the_scalar_rule(self):
        ends = {v for sid in SOLUTION_IDS for v in validity_range(sid)
                if math.isfinite(v)}
        pots = np.array([*sorted(v + d for v in ends
                                 for d in (-1e-8, -1e-10, 0.0, 1e-10, 1e-8)),
                         1e6, 1e300, math.inf, math.nan])
        for sid in SOLUTION_IDS:
            sol = solution(sid)
            got = sol.contains(pots)
            assert got.dtype == bool
            assert got.tolist() == [sol.contains(float(p)) for p in pots], sid
            assert sol.contains(sol.lo - 1e-10)
            assert not sol.contains(sol.lo - 1e-8)
        assert solution("10").contains(pots[-4:-1]).all()  # hi = inf

    def test_every_pot_from_two_is_covered(self):
        for pot in np.arange(2.0, 9.0, 0.01):
            assert solutions_for_pot(float(pot))

    def test_exactly_three_triple_coexistence_ranges(self):
        c = critical_pots()
        interval_ids = [s for s in SOLUTION_IDS
                        if validity_range(s)[0] < validity_range(s)[1]]
        grid = np.arange(2.0005, 8.0, 0.001)
        counts = np.array([
            sum(1 for s in interval_ids
                if validity_range(s)[0] <= p <= validity_range(s)[1])
            for p in grid
        ])
        triple = counts >= 3
        assert counts.max() == 3
        # maximal runs of triple coexistence
        edges = np.flatnonzero(np.diff(triple.astype(int)))
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
        assert len(runs) == 3
        expected = [(c.p3, c.p4), (c.p6, 4.0), (c.p8, c.p9)]
        for (lo, hi), (elo, ehi) in zip(runs, expected):
            assert lo == pytest.approx(elo, abs=2e-3)
            assert hi == pytest.approx(ehi, abs=2e-3)


class TestInstantiate:
    def test_family_10_at_pot_six(self):
        p = instantiate("10", 6.0)
        assert p.a1 == 1.0
        assert p.b1 == pytest.approx(1 / 3, abs=1e-15)
        assert p.a2 == 1.0
        assert p.b2 == pytest.approx(2 / 7, abs=1e-15)
        assert p.b3 == pytest.approx(12 / 49, abs=1e-15)
        assert p.c1 == pytest.approx(5 / 7, abs=1e-15)
        assert p.d2 == 1.0
        assert p.c3 == 1.0
        assert p.d1 == pytest.approx(3 / 7, abs=1e-15)
        assert p.c2 == pytest.approx(1 / 7, abs=1e-15)
        assert p.d3 == 1.0

    def test_family_1_midpoints(self):
        p = instantiate("1", 2.5)
        assert p.b3 == pytest.approx(4 / 7, abs=1e-15)
        assert p.d2 == pytest.approx(2 / 7, abs=1e-15)
        assert p.c1 == 0.0
        assert p.a1 == p.b1 == p.a2 == p.b2 == 0.0
        # midpoint of the free sum intervals [2/7, 4/7]
        assert p.c2 + p.d3 == pytest.approx(3 / 7, abs=1e-14)
        assert p.c3 + p.d1 == pytest.approx(3 / 7, abs=1e-14)

    def test_family_5_at_375(self):
        p = instantiate("5", 3.75)
        assert p.a2 == 1.0
        assert p.b2 == pytest.approx(8 / 19, abs=1e-15)
        assert p.b3 == pytest.approx(8 / 19, abs=1e-15)
        assert p.c1 == 1.0
        assert p.d2 == pytest.approx(3 / 19, abs=1e-15)
        assert p.d1 == pytest.approx(14 / 19, abs=1e-15)

    def test_pot_out_of_range(self):
        with pytest.raises(PotOutOfRange):
            instantiate("1", 3.5)
        with pytest.raises(PotOutOfRange):
            instantiate("10", 4.9)
        with pytest.raises(PotOutOfRange):
            instantiate("2a", 3.01)

    def test_free_param_violations(self):
        with pytest.raises(FreeParamViolation):
            instantiate("2a", 3.0, {"a2": 0.7})  # a2 <= 1/2
        with pytest.raises(FreeParamViolation):
            instantiate("1", 2.5, {"no_such_param": 0.1})
        with pytest.raises(FreeParamViolation):
            instantiate("9", 4.5, {"c1": 0.1})  # below (P-1)/(P+1)

    def test_free_parameters_checks_chosen_values(self):
        # the rule of instantiate: a value outside its interval, or a name
        # the family does not draw, is an error, not a listing from it
        with pytest.raises(FreeParamViolation, match="a2=5 outside"):
            free_parameters("2a", 3.0, {"a2": 5})
        with pytest.raises(FreeParamViolation, match="unknown.*'zz'"):
            free_parameters("2a", 3.0, {"zz": 5})
        with pytest.raises(FreeParamViolation, match="unknown.*'c1'"):
            free_parameters("10a", 5.0, {"b1": 0.35, "c1": 0.9})
        c2d3 = {p.name: p for p in free_parameters("2a", 3.0, {"a2": 0.5})}
        assert c2d3["c2_plus_d3"][1:] == (0.5, 0.75)

    def test_unknown_solution(self):
        with pytest.raises(KeyError):
            instantiate("11", 5.0)

    def test_all_frequencies_in_unit_interval(self):
        for sid in SOLUTION_IDS:
            lo, hi = validity_range(sid)
            hi = min(hi, 8.0)
            for pot in np.linspace(lo, hi, 7):
                for frac in (0.0, 0.5, 1.0):
                    params = {p.name: p.lo + frac * (p.hi - p.lo)
                              for p in free_parameters(sid, float(pot))}
                    prof = instantiate(sid, float(pot), params)
                    for v in prof.as_tuple():
                        assert 0.0 <= v <= 1.0

    def test_free_parameters_listing(self):
        names = [p.name for p in free_parameters("1", 2.5)]
        assert names == ["c3_plus_d1", "c3", "c2_plus_d3", "c2"]
        assert [p.name for p in free_parameters("10", 7.0)] == []
        # the split parameter of the c1 + d2 ridge
        (p9,) = free_parameters("9", 4.65)
        assert p9.name == "c1"
        assert p9.lo == pytest.approx(3.65 / 5.65, abs=1e-12)
        assert p9.hi == 1.0

    def test_free_parameter_bounds_are_floats(self):
        # a float pot lists plain floats, not numpy scalars, as its bounds,
        # with the free parameters at midpoints and at both ends
        for sid in SOLUTION_IDS:
            lo, hi = validity_range(sid)
            for pot in np.linspace(lo, min(hi, 8.0), 7).tolist():
                for frac in (0.0, 0.5, 1.0):
                    chosen = {}
                    for p in free_parameters(sid, pot, chosen):
                        assert type(p.lo) is float and type(p.hi) is float, (
                            sid, pot, p)
                        chosen[p.name] = p.lo + frac * (p.hi - p.lo)


def _grid(step: float) -> list:
    return [2.0 + i * step for i in range(int(round(6.0 / step)) + 1)]


class TestProfileRows:
    """``profile_rows`` builds a family's rows in one array call; each
    must equal ``instantiate``'s profile bit for bit."""

    #: range ends, the pots where families meet, two grids on [2, 8]
    #: (the finer one is the benchmark's), and large pots of family 10
    CANDIDATES = sorted({
        *(v + d for sid in SOLUTION_IDS for v in validity_range(sid)
          if math.isfinite(v) for d in (-1e-10, 0.0, 1e-10)),
        *critical_pots(), 2.0, 3.0, 3.5, 5.0,
        *_grid(0.01), *_grid(0.002), 100.0, 1e6, 1e100, 1e154,
    })

    @pytest.mark.parametrize("sid", SOLUTION_IDS)
    def test_matches_instantiate_bit_for_bit(self, sid):
        sol = solution(sid)
        pots = [p for p in self.CANDIDATES if p >= 2.0 and sol.contains(p)]
        assert len(pots) >= (1 if sol.lo == sol.hi else 10)
        want = np.array([instantiate(sid, p).as_tuple() for p in pots])
        got = profile_rows(sid, pots)
        assert got.shape == (len(pots), len(FREQ_NAMES))
        assert (bits(got) == bits(want)).all(), sid

    def test_pot_out_of_range(self):
        with pytest.raises(PotOutOfRange):
            profile_rows("1", [2.5, 3.5])
        with pytest.raises(ValueError, match="pot must be"):
            profile_rows("10", [6.0, math.inf])
        with pytest.raises(ValueError, match="pot must be"):
            profile_rows("1", [2.0 - 1e-10])

    def test_overflowing_pot_is_an_error(self):
        # (P + 1)**2 overflows: b3 would round to 0, a boundary profile
        for build in (lambda p: instantiate("10", p),
                      lambda p: profile_rows("10", [6.0, p])):
            with pytest.raises(ValueError, match="pot too large"):
                build(1e200)


class TestBlockValidation:
    """The block check and clamp follow ``StrategyProfile``'s rule."""

    POTS = (5.5, 6.0, 7.25)

    @pytest.fixture
    def patch_d2(self, monkeypatch):
        """Make family 10 build ``d2`` as the given value."""
        def patch(value):
            sol = solution("10")

            def family(P, free):
                return {**sol.family(P, free), "d2": value}

            monkeypatch.setitem(catalog._CATALOG, "10",
                                dataclasses.replace(sol, family=family))
        return patch

    def test_round_off_above_one_clamps(self, patch_d2):
        patch_d2(1 + 1e-10)
        F = profile_rows("10", self.POTS)
        assert (bits(F[:, FREQ_NAMES.index("d2")]) == bits(1.0)).all()
        want = np.array([instantiate("10", p).as_tuple() for p in self.POTS])
        assert (bits(F) == bits(want)).all()

    @pytest.mark.parametrize("value", [1 + 1e-6, -1e-6, math.nan])
    def test_out_of_range_names_the_frequency(self, patch_d2, value):
        patch_d2(value)
        with pytest.raises(ValueError, match=r"frequency d2=") as block:
            profile_rows("10", self.POTS)
        with pytest.raises(ValueError) as row:
            instantiate("10", self.POTS[0])
        assert str(block.value) == str(row.value)

    @pytest.mark.parametrize("what", ["frequencies", "profits", "stability"])
    def test_sweep_exits_as_a_usage_error(self, patch_d2, what, capsys,
                                          tmp_path):
        patch_d2(1 + 1e-6)
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--pot-min", "5", "--pot-max", "6",
                         "--step", "0.5", "--what", what, "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: frequency d2=1.000001 outside [0, 1]")
        assert not out.exists()


class TestJunctionContinuity:
    def test_families_9_and_10_meet_10a_at_pot_five(self):
        # the 10a member with b1 = 1/3 continues family 9
        p9 = instantiate("9", 5.0, {"c1": 0.8})
        pa = instantiate("10a", 5.0, {"b1": 1 / 3, "c1": 0.8})
        assert p9 == pa
        # the 10a member with b1 = 2/5 continues family 10
        p10 = instantiate("10", 5.0)
        pb = instantiate("10a", 5.0, {"b1": 2 / 5})
        assert p10 == pb

    def test_families_4_and_5_meet_5a_at_pot_seven_halves(self):
        sum_mid = {"c2_plus_d3": 0.7, "c2": 0.3}
        p4 = instantiate("4", 3.5, sum_mid)
        pa = instantiate("5a", 3.5, {"a2": 0.75, **sum_mid})
        assert p4 == pa
        p5 = instantiate("5", 3.5, sum_mid)
        pb = instantiate("5a", 3.5, {"a2": 1.0, **sum_mid})
        assert p5 == pb

    def test_families_2_and_3_merge_at_p4(self):
        p4 = critical_pots().p4
        a = instantiate("2", p4, {"c2_plus_d3": 0.66, "c2": 0.3})
        b = instantiate("3", p4, {"c2_plus_d3": 0.66, "c2": 0.3})
        for x, y in zip(a.as_tuple(), b.as_tuple()):
            assert x == pytest.approx(y, abs=1e-9)


class TestEquilibriumProfit:
    def test_point_family_profits_at_three(self):
        e = equilibrium_profit("2a", 3.0, {"a2": 0.5})
        assert 24 * e.e1 == pytest.approx(-3 / 4, abs=1e-12)
        assert 24 * e.e2 == pytest.approx(-1 / 2, abs=1e-12)
        assert 24 * e.e3 == pytest.approx(5 / 4, abs=1e-12)

    def test_point_family_profits_at_five(self):
        e = equilibrium_profit("10a", 5.0, {"b1": 2 / 5})
        assert 24 * e.e1 == pytest.approx(-19 / 18, abs=1e-12)
        assert 24 * e.e2 == pytest.approx(17 / 18 - 6 / 5, abs=1e-12)
        assert 24 * e.e3 == pytest.approx(1 / 9 + 6 / 5, abs=1e-12)

    def test_family_1_profit_independent_of_free_params(self):
        want = (-1 / 84, -1 / 84, 1 / 42)
        for params in (None,
                       {"c2_plus_d3": 2 / 7, "c2": 0.0,
                        "c3_plus_d1": 2 / 7, "c3": 0.0},
                       {"c2_plus_d3": 4 / 7, "c2": 0.5,
                        "c3_plus_d1": 3 / 7, "c3": 0.1}):
            e = equilibrium_profit("1", 2.5, params)
            for a, b in zip(e, want):
                assert a == pytest.approx(b, abs=1e-14)

    def test_player3_profit_largest_on_coarse_grid(self):
        for sid in SOLUTION_IDS:
            lo, hi = validity_range(sid)
            hi = min(hi, 8.0)
            for pot in np.linspace(lo, hi, 9):
                e = equilibrium_profit(sid, float(pot))
                assert e.e3 >= max(e.e1, e.e2) - 1e-12


class TestCatalogExport:
    def test_json_structure(self):
        doc = catalog_json()
        assert set(doc["critical_pots"]) == {"p3", "p4", "p6", "p8", "p9"}
        assert [s["id"] for s in doc["solutions"]] == list(SOLUTION_IDS)
        for s in doc["solutions"]:
            assert s["formulas"]
            assert s["samples"]
            for sample in s["samples"]:
                assert len(sample["frequencies"]) == 11
                assert len(sample["profits_x24"]) == 3
                assert abs(sum(sample["profits_x24"])) < 1e-9

    def test_sample_counts(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                catalog_json(n)
        for s in catalog_json(1)["solutions"]:
            assert [x["pot"] for x in s["samples"]] == [s["validity"][0]]

    def test_sampled_instantiations_verify(self):
        doc = catalog_json()
        from kuhn3.game_model import StrategyProfile
        for s in doc["solutions"]:
            for sample in s["samples"]:
                prof = StrategyProfile.from_dict(sample["frequencies"])
                assert best_response_check(prof, sample["pot"]).overall


class TestFormulaStrings:
    """``formulas`` is text run from each family's one definition; parse
    every entry and compare it with ``instantiate`` and
    ``free_parameters``."""

    #: free parameters to read the text at: 10a branches at b1 = 1/3
    CHOICES = {"10a": ({"b1": 1 / 3, "c1": 0.9}, {"b1": 0.35}, {"b1": 0.4})}

    @staticmethod
    def _pots(sid):
        lo, hi = validity_range(sid)
        if lo == hi:
            return [lo]
        if math.isinf(hi):
            return [lo + 0.5, lo + 2.0, lo + 5.0]
        return [lo + (hi - lo) * t for t in (0.1, 0.5, 0.9)]

    def test_formulas_match_the_families(self):
        sympy = pytest.importorskip("sympy")
        from sympy.parsing.sympy_parser import (
            convert_xor, parse_expr, standard_transformations)

        names = ("P", *FREQ_NAMES, "c2_plus_d3", "c3_plus_d1")
        local = {n: sympy.Symbol(n) for n in names}
        local.update(max=sympy.Max, min=sympy.Min, sqrt=sympy.sqrt)

        def parse(text):
            return parse_expr(text, local_dict=local, transformations=(
                *standard_transformations, convert_xor))

        for sid in SOLUTION_IDS:
            formulas = solution(sid).formulas
            for pot, chosen in ((pot, chosen) for pot in self._pots(sid)
                                for chosen in self.CHOICES.get(sid, ({},))):
                prof = instantiate(sid, pot, chosen).as_dict()
                params = {p.name: p
                          for p in free_parameters(sid, pot, chosen)}
                env = {local[n]: v for n, v in prof.items()}
                env[local["P"]] = pot
                for total in ("c2_plus_d3", "c3_plus_d1"):
                    first, second = total.split("_plus_")
                    env[local[total]] = prof[first] + prof[second]

                def value(text):
                    return float(parse(text).subs(env))

                for key, text in formulas.items():
                    members = re.fullmatch(r"(.+) if (\w+) = (.+), else (.+)",
                                           text)
                    if members:
                        at_lo = prof[members[2]] == pytest.approx(
                            value(members[3]), rel=0, abs=1e-12)
                        text = members[1] if at_lo else members[4]
                    where = (sid, pot, chosen, key, text)
                    interval = re.fullmatch(r"free in \[(.+)\]", text)
                    if interval:
                        lo, hi = parse(f"({interval[1]})")
                        assert float(lo.subs(env)) == pytest.approx(
                            params[key].lo, rel=0, abs=1e-12), where
                        assert float(hi.subs(env)) == pytest.approx(
                            params[key].hi, rel=0, abs=1e-12), where
                    else:
                        assert value(text) == pytest.approx(
                            prof[key], rel=0, abs=1e-12), where

    def test_every_frequency_and_free_parameter_is_stated(self):
        for sid in SOLUTION_IDS:
            sol = solution(sid)
            names = set(FREQ_NAMES)
            for chosen in self.CHOICES.get(sid, ({},)):
                names |= {p.name for p in free_parameters(sid, sol.lo, chosen)}
            assert set(sol.formulas) == names, sid
        members = {(sid, key): text for sid in SOLUTION_IDS
                   for key, text in solution(sid).formulas.items()
                   if " if " in text}
        assert members == {
            ("10a", "c1"): "free in [2/3, 1] if b1 = 1/3, else 2/3",
            ("10a", "d2"): "5/3-c1 if b1 = 1/3, else 1",
        }

    def test_a_frequency_inside_another_prints_by_name(self):
        f = solution("3").formulas
        assert f["b3"] == "(2-b2)/(P+a2)"
        assert f["c2_plus_d3"] == "free in [(2*P-4)/(P+1), b2+b3]"
        assert f["c2"] == "free in [max(0, c2_plus_d3-1), min(1, c2_plus_d3)]"
        assert f["d3"] == "c2_plus_d3-c2"
        assert solution("4").formulas["b3"] == "4*(P-2)/(3*(P+1))"
        assert solution("7").formulas["b3"] == "(2*P+1)/(P+1)^2"
