import numpy as np
import pytest

from conftest import POT_SAMPLE, bits, dense_gradient_cross, stacked_rows
from kuhn3.analytic_ev import (
    _CROSS_IJ,
    _cross,
    _derivative,
    _Expr,
    _lower,
    _partials,
    _profits,
    expected_profit,
    expected_profit_scaled,
    gradient,
    gradient_cross,
    gradient_scaled,
)
from kuhn3.game_model import (
    FREQ_NAMES,
    FREQ_OWNER,
    StrategyProfile,
    expected_profit_bruteforce,
)


def random_profile(rng):
    return StrategyProfile(*rng.uniform(0, 1, 11))


class TestExpectedProfit:
    def test_all_zero_profile(self):
        assert expected_profit(StrategyProfile.zeros(), 5.0) == (0.0, 0.0, 0.0)

    def test_point_family_at_pot_five(self):
        # b1 = 1/3 member: 24E = (-19/18, 17/18 - 1, 1/9 + 1)
        prof = StrategyProfile.zeros().replace(
            a1=1.0, b1=1 / 3, a2=1.0, b2=1 / 3, b3=5 / 18, c1=5 / 6,
            d2=5 / 6, c3=1.0, d1=1 / 3, d3=1.0)
        e = expected_profit_scaled(prof, 5.0)
        assert e[0] == pytest.approx(-19 / 18, abs=1e-12)
        assert e[1] == pytest.approx(17 / 18 - 1, abs=1e-12)
        assert e[2] == pytest.approx(1 / 9 + 1, abs=1e-12)

    def test_point_family_at_pot_seven_halves(self):
        # a2 = 3/4 member: 24E = (-10/9 + 1/6, -2/9, 4/3 - 1/6)
        a2 = 0.75
        prof = StrategyProfile.zeros().replace(
            a2=a2, b2=(4 / 9) * a2, b3=4 / 9, c1=1.0,
            d2=(4 / 9) * a2 - 1 / 3, d1=2 / 3, c2=1 / 3, d3=1 / 3)
        e = expected_profit_scaled(prof, 3.5)
        assert e[0] == pytest.approx(-10 / 9 + 2 / 9 * a2, abs=1e-12)
        assert e[1] == pytest.approx(-2 / 9, abs=1e-12)
        assert e[2] == pytest.approx(4 / 3 - 2 / 9 * a2, abs=1e-12)

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(200):
            prof = random_profile(rng)
            for pot in POT_SAMPLE:
                bf = expected_profit_bruteforce(prof, pot)
                an = expected_profit(prof, pot)
                for a, b in zip(bf, an):
                    assert abs(24 * a - 24 * b) < 1e-12

    def test_zero_sum_identity(self, rng):
        # e3 is evaluated from its own polynomial, so this is a real check
        for _ in range(200):
            e = expected_profit_scaled(random_profile(rng),
                                       float(rng.uniform(2, 9)))
            assert abs(sum(e)) < 24e-14


class TestGradient:
    def test_all_zero_profile_has_flat_a1(self):
        g = gradient(StrategyProfile.zeros(), 4.2)
        assert g.a1 == 0.0

    def test_a1_coefficient_reads_off(self):
        prof = StrategyProfile.zeros().replace(c2=1.0)
        g = gradient_scaled(prof, 3.0)
        assert g[FREQ_NAMES.index("a1")] == pytest.approx(2.0, abs=1e-15)

    def test_matches_central_finite_differences(self, rng):
        h = 1e-6
        for _ in range(60):
            prof = random_profile(rng)
            pot = float(rng.uniform(2, 8))
            g = gradient(prof, pot)
            for name in FREQ_NAMES:
                v = getattr(prof, name)
                lo = max(0.0, v - h)
                hi = min(1.0, v + h)
                owner = FREQ_OWNER[name] - 1
                ep = expected_profit(prof.replace(**{name: hi}), pot)[owner]
                em = expected_profit(prof.replace(**{name: lo}), pot)[owner]
                fd = (ep - em) / (hi - lo)
                assert abs(fd - getattr(g, name)) < 1e-8

    def test_own_affinity(self, rng):
        # E_i is jointly affine in the owner's frequencies: corner values
        # at e_j and e_j + e_k add with no interaction term
        for _ in range(40):
            base = random_profile(rng)
            pot = float(rng.uniform(2, 8))
            for player, names in ((1, ("a1", "b1", "c1", "d1")),
                                  (2, ("a2", "b2", "c2", "d2")),
                                  (3, ("b3", "c3", "d3"))):
                zero = base.replace(**{n: 0.0 for n in names})
                e0 = expected_profit(zero, pot)[player - 1]
                for j in names:
                    for k in names:
                        if j >= k:
                            continue
                        ej = expected_profit(zero.replace(**{j: 1.0}),
                                             pot)[player - 1]
                        ek = expected_profit(zero.replace(**{k: 1.0}),
                                             pot)[player - 1]
                        ejk = expected_profit(
                            zero.replace(**{j: 1.0, k: 1.0}), pot)[player - 1]
                        assert ejk - ej - ek + e0 == pytest.approx(0, abs=1e-12)

    def test_gradient_independent_of_own_value(self, rng):
        for _ in range(40):
            prof = random_profile(rng)
            pot = float(rng.uniform(2, 8))
            g0 = gradient(prof, pot)
            for name in FREQ_NAMES:
                g1 = gradient(prof.replace(**{name: 1.0 - getattr(prof, name)}),
                              pot)
                assert getattr(g0, name) == pytest.approx(
                    getattr(g1, name), abs=1e-15)


class TestGradientCross:
    def test_same_owner_entries_vanish(self, rng):
        # no generated entry couples two frequencies of one owner, so the
        # zero holds at every profile and pot
        assert all(FREQ_OWNER[FREQ_NAMES[i]] != FREQ_OWNER[FREQ_NAMES[j]]
                   for i, j in _CROSS_IJ)
        H = gradient_cross(random_profile(rng), 3.3)
        for i, ni in enumerate(FREQ_NAMES):
            for j, nj in enumerate(FREQ_NAMES):
                if FREQ_OWNER[ni] == FREQ_OWNER[nj]:
                    assert H[i, j] == 0.0

    def test_matches_finite_differences_of_gradient(self, rng):
        h = 1e-7
        for _ in range(25):
            prof = random_profile(rng)
            pot = float(rng.uniform(2, 8))
            H = gradient_cross(prof, pot)
            for j, nj in enumerate(FREQ_NAMES):
                v = getattr(prof, nj)
                lo = max(0.0, v - h)
                hi = min(1.0, v + h)
                gp = np.array(gradient_scaled(prof.replace(**{nj: hi}), pot))
                gm = np.array(gradient_scaled(prof.replace(**{nj: lo}), pot))
                fd = (gp - gm) / (hi - lo)
                assert np.abs(fd - H[:, j]).max() < 1e-6


class TestStacks:
    """Stacked evaluation is the single evaluation, row by row, bit for
    bit (sign bits of zeros included)."""

    def test_gradient_cross_matches_dense_form(self, rng):
        F, P = stacked_rows(rng)
        H = gradient_cross(F, P)
        assert H.shape == (len(F), 11, 11)
        for i in range(len(F)):
            one = gradient_cross(StrategyProfile(*F[i]), P[i])
            assert (bits(one) == bits(dense_gradient_cross(F[i], P[i]))).all()
            assert (bits(H[i]) == bits(one)).all()

    def test_profits_match_single_calls(self, rng):
        F, P = stacked_rows(rng)
        e = expected_profit_scaled(F, P)
        for i in range(len(F)):
            one = expected_profit_scaled(StrategyProfile(*F[i]), P[i])
            assert (bits([x[i] for x in e]) == bits(one)).all()

    def test_bad_stacks_rejected(self):
        F = np.full((3, 11), 0.5)
        for f, p in ((F, [3.0, 3.0]), (F[:, :10], [3.0] * 3),
                     (F, [3.0, 1.0, 3.0]), (F, [3.0, np.inf, 3.0])):
            with pytest.raises(ValueError):
                gradient_cross(f, np.array(p))
            with pytest.raises(ValueError):
                expected_profit_scaled(f, np.array(p))


class TestTranscription:
    """Exact checks of the one hand transcription, run on sympy symbols.

    The tree-walk oracle tests above remain the independent check of the
    polynomials themselves; these pin what is derived from them."""

    @pytest.fixture
    def symbolic(self):
        sp = pytest.importorskip("sympy")
        f = sp.symbols(FREQ_NAMES)
        P = sp.Symbol("P")
        return sp, f, P, _partials(f, P)

    def test_profit_derivatives_are_the_gradient(self, symbolic, rng):
        sp, f, P, g = symbolic
        e = _profits(f, P, g)
        d = [sp.diff(e[FREQ_OWNER[n] - 1], f[j])
             for j, n in enumerate(FREQ_NAMES)]
        for j in range(11):
            assert sp.expand(d[j] - g[j]) == 0, FREQ_NAMES[j]
        d_num = sp.lambdify((f, P), d)
        for _ in range(20):
            prof = random_profile(rng)
            pot = float(rng.uniform(2, 8))
            want = np.array(gradient_scaled(prof, pot))
            assert np.abs(np.array(d_num(prof.as_tuple(), pot))
                          - want).max() < 1e-12

    def test_jacobian_of_gradient_is_gradient_cross(self, symbolic, rng):
        sp, f, P, g = symbolic
        jac = sp.Matrix(g).jacobian(f)
        H = sp.zeros(11, 11)
        for (i, j), h in zip(_CROSS_IJ, _cross(*f, P)):
            H[i, j] = h
        assert (H - jac).expand() == sp.zeros(11, 11)
        H_num = sp.lambdify((f, P), jac)
        for _ in range(20):
            prof = random_profile(rng)
            pot = float(rng.uniform(2, 8))
            H = np.array(H_num(prof.as_tuple(), pot), dtype=float)
            assert np.abs(H - gradient_cross(prof, pot)).max() < 1e-12

    def test_derivative_refuses_other_operations(self):
        x, y = _Expr("x"), _Expr("y")
        for v in (x / 2, 2 / x, np.sqrt(x), _Expr("^", x, 2), x + y / 2,
                  _Expr("max", 0.0, x), _Expr("min", 1.0, x), x + "1",
                  x * np.float64(2.0), x + True):
            # whether or not the refused node depends on the name
            for name in ("x", "z"):
                with pytest.raises(TypeError):
                    _derivative(v, name)

    def test_derivative_drops_zeros_and_folds_ones(self):
        x, y = _Expr("x"), _Expr("y")
        ops = {}
        assert [_lower(_derivative(v, "x"), ops)
                for v in (2 - x, x * y, 3 * x + y, y - 2)] == ["t0", "y", "3",
                                                              "0"]
        assert list(ops) == [("0", "-", "1")]  # 0 - 1, not -1
