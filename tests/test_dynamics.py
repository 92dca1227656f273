import json
import math
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kuhn3.analytic_ev import _partials, _profits, expected_profit
from kuhn3.catalog import instantiate
from kuhn3.dynamics import (
    F_MAX_LIMIT,
    FreqLimit,
    InsufficientData,
    IntegratorConfig,
    InvalidInitial,
    Label,
    RTOL_MIN,
    StepSizeUnderflow,
    TRAJECTORY_CSV_HEADER,
    WindowOutOfRange,
    average_profit_rate,
    classify,
    gains_array,
    integrate,
    integrate_direct,
    logistic,
    logit,
    random_initial_profile,
    vector_field,
)
from kuhn3.game_model import FREQ_NAMES, StrategyProfile


class TestLogitChart:
    def test_round_trip_accuracy(self, rng):
        # frequencies are recovered through the chart to full precision
        f = rng.uniform(1e-9, 1 - 1e-9, 1000)
        assert np.abs(logistic(logit(f)) - f).max() < 1e-15
        F = rng.uniform(-30, 30, 1000)
        f = logistic(F)
        assert np.abs(logistic(logit(f)) - f).max() < 1e-15

    def test_clamping(self):
        assert logit(np.array([1e-30]))[0] == -40.0
        assert logit(np.array([1.0]))[0] == 40.0

    def test_clamp_default_is_the_integrators(self):
        f_max = IntegratorConfig().f_max
        assert logit(np.array([0.0, 1.0])).tolist() == [-f_max, f_max]
        assert (logistic(np.array([-1e3, 1e3])).tolist()
                == logistic(np.array([-f_max, f_max]), f_max).tolist())
        assert logistic(np.array([-1e3]), 2 * f_max)[0] < logistic(
            np.array([-1e3]))[0]


class TestGains:
    def test_default_is_all_ones(self):
        assert (gains_array(None) == 1.0).all()

    def test_mapping_with_defaults(self):
        k = gains_array({"b3": 2.0})
        assert k[FREQ_NAMES.index("b3")] == 2.0
        assert k.sum() == 12.0

    def test_rejects_bad_gains(self):
        with pytest.raises(ValueError):
            gains_array({"nope": 1.0})
        with pytest.raises(ValueError):
            gains_array({"b3": -1.0})
        with pytest.raises(ValueError):
            gains_array([1.0, 2.0])


class TestVectorField:
    def test_every_catalog_point_is_a_fixed_point(self):
        # interior coordinates are stationary; boundary coordinates have a
        # one-sided inward (or marginal) rate
        from kuhn3.catalog import SOLUTION_IDS, validity_range
        for sid in SOLUTION_IDS:
            lo, hi = validity_range(sid)
            hi = min(hi, 8.0)
            for pot in (lo, 0.5 * (lo + hi), hi):
                prof = instantiate(sid, float(pot))
                F = logit(prof.as_array())
                dF = vector_field(F, float(pot))
                for j, name in enumerate(FREQ_NAMES):
                    v = getattr(prof, name)
                    if 1e-6 < v < 1 - 1e-6:
                        assert abs(dF[j]) < 1e-9, (sid, pot, name)
                    elif v <= 1e-6:
                        assert dF[j] <= 1e-9, (sid, pot, name)
                    else:
                        assert dF[j] >= -1e-9, (sid, pot, name)

    def test_bluff_frequency_grows_from_all_check(self):
        P = 2.5
        F = np.full(11, -40.0)
        dF = vector_field(F, P)
        j = FREQ_NAMES.index("b3")
        assert dF[j] == pytest.approx(2 * P - 4, abs=1e-12)
        assert dF[j] > 0

    def test_gain_linearity(self):
        prof = random_initial_profile(5)
        F = logit(prof.as_array())
        base = vector_field(F, 3.3)
        scaled = vector_field(F, 3.3, gains={"c1": 2.0})
        j = FREQ_NAMES.index("c1")
        assert scaled[j] == pytest.approx(2 * base[j], rel=1e-15)
        mask = np.arange(11) != j
        assert np.allclose(scaled[mask], base[mask])

    def test_stepper_rhs_matches_public_api(self, rng):
        # the stepper's right-hand side calls the shared profit polynomials
        # itself; pin its clamp, logistic and rate wiring against the
        # public vector field and expected profit
        from kuhn3._stepper import _rhs

        for _ in range(25):
            f = rng.uniform(0.01, 0.99, 11)
            pot = float(rng.uniform(2, 8))
            F = logit(f)
            y = np.concatenate([F, np.zeros(3)])
            out = np.empty(14)
            _rhs(y, pot, np.ones(11), 40.0, True, out)
            assert np.abs(out[:11] - vector_field(F, pot)).max() < 1e-12
            e = expected_profit(StrategyProfile(*f), pot)
            assert np.abs(out[11:] - np.array(e)).max() < 1e-12
            # direct-coordinate mode carries the f(1-f) factor
            yd = np.concatenate([f, np.zeros(3)])
            _rhs(yd, pot, np.ones(11), 40.0, False, out)
            want = f * (1 - f) * vector_field(F, pot)
            assert np.abs(out[:11] - want).max() < 1e-12

    @pytest.mark.parametrize("logit_mode,f_max",
                             [(True, 8.0), (True, F_MAX_LIMIT), (False, 8.0)])
    def test_stepper_rhs_reads_only_the_clamped_state(self, rng, logit_mode,
                                                      f_max):
        # the stepper reuses the last stage of an accepted step as the
        # first stage of the next, although the state is clipped in
        # between; that is exact only while the right-hand side sees the
        # adjustment coordinates through its own clamp and ignores profits.
        # At f_max = F_MAX_LIMIT the lower clamp takes exp to its range end.
        from kuhn3._stepper import _rhs

        lo, hi = (-f_max, f_max) if logit_mode else (0.0, 1.0)
        k = rng.uniform(0.2, 3.0, 11)
        for _ in range(50):
            y = np.empty(14)
            y[:11] = (rng.uniform(-2 * f_max, 2 * f_max, 11) if logit_mode
                      else rng.uniform(-0.5, 1.5, 11))
            y[11:] = rng.normal(0.0, 1e3, 3)
            clipped = y.copy()
            clipped[:11] = np.clip(y[:11], lo, hi)
            clipped[11:] = rng.normal(0.0, 1e3, 3)
            assert (clipped[:11] != y[:11]).any()
            a, b = np.empty(14), np.empty(14)
            _rhs(y, 4.65, k, f_max, logit_mode, a)
            _rhs(clipped, 4.65, k, f_max, logit_mode, b)
            assert np.isfinite(a).all()
            assert a.tobytes() == b.tobytes()


def reference_rhs(y, pot, k, f_max, logit, out, partials=None):
    """The right-hand side as written out before it was generated: the
    reference the generated ``_stepper._rhs`` must equal bit for bit."""
    partials = partials or _partials
    v = y[:11].tolist()
    if logit:
        fl = [1.0 / (1.0 + math.exp(f_max if x <= -f_max else
                                    -f_max if x >= f_max else -x))
              for x in v]
        g = partials(fl, pot)
        row = [ki * gi for ki, gi in zip(k, g)]
    else:
        fl = [0.0 if x <= 0.0 else 1.0 if x >= 1.0 else x for x in v]
        g = partials(fl, pot)
        row = [ki * fi * (1 - fi) * gi for ki, fi, gi in zip(k, fl, g)]
    # profit accumulation dp_i/dt = E_i
    row += [e / 24.0 for e in _profits(fl, pot, g)]
    out[:] = row


def rhs_states(rng, logit_mode: bool, f_max: float):
    """(y, pot, k) cases: seeded states, coordinates at and beyond the
    clamp, NaN, and unit and non-unit gains as a list and as an array."""
    lo, hi = (-f_max, f_max) if logit_mode else (0.0, 1.0)
    edges = [lo, hi, math.nextafter(lo, -math.inf),
             math.nextafter(hi, math.inf), 2 * lo - 1, 2 * hi + 1, -0.0,
             math.nan]
    for i in range(600):
        y = np.empty(14)
        y[:11] = (rng.normal(0.0, f_max / 2, 11) if logit_mode
                  else rng.uniform(-0.5, 1.5, 11))
        y[11:] = rng.normal(0.0, 1e3, 3)
        if i % 3 == 0:
            where = rng.random(11) < 0.4
            y[:11][where] = rng.choice(edges, where.sum())
        k = rng.uniform(0.2, 3.0, 11) if i % 4 else np.ones(11)
        yield y, float(rng.uniform(2.0, 8.0)), k.tolist() if i % 2 else k


class TestGeneratedRhs:
    """``_stepper._rhs`` is generated from ``_partials`` and ``_profits``
    at import; it must give the bits of the written-out right-hand side."""

    @pytest.mark.parametrize("logit_mode,f_max",
                             [(True, 40.0), (True, 2.0), (True, F_MAX_LIMIT),
                              (False, 40.0)])
    def test_bit_equal_to_the_reference(self, rng, logit_mode, f_max):
        from kuhn3._stepper import _rhs

        for y, pot, k in rhs_states(rng, logit_mode, f_max):
            a, b = np.empty(14), np.empty(14)
            reference_rhs(y, pot, k, f_max, logit_mode, a)
            _rhs(y, pot, k, f_max, logit_mode, b)
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("logit_mode", [True, False])
    def test_orbit_bytes_equal_the_reference_orbit(self, monkeypatch,
                                                   logit_mode):
        from kuhn3 import _stepper

        cfg = IntegratorConfig()
        f0 = np.array(random_initial_profile(54).as_tuple())
        y0 = np.zeros(14)
        y0[:11] = logit(f0, cfg.f_max) if logit_mode else f0
        args = (y0, 3.1, np.ones(11), 100, cfg.dt_sample, cfg.rtol, cfg.atol,
                cfg.f_max, logit_mode, cfg.h0, cfg.h_min)
        got = _stepper.integrate_core(*args)
        monkeypatch.setattr(_stepper, "_rhs", reference_rhs)
        want = _stepper.integrate_core(*args)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]
        assert got[2] == _stepper.STATUS_OK

    def test_built_from_the_transcription(self, rng, monkeypatch):
        from kuhn3 import _stepper

        def partials(f, P):
            g = _partials(f, P)
            return (g[0] + 3 * f[5], *g[1:])

        monkeypatch.setattr(_stepper, "_partials", partials)
        rhs = _stepper._build_rhs()
        changed = 0
        for logit_mode, f_max in ((True, 40.0), (False, 40.0)):
            for y, pot, k in rhs_states(rng, logit_mode, f_max):
                a, b, c = np.empty(14), np.empty(14), np.empty(14)
                reference_rhs(y, pot, k, f_max, logit_mode, a, partials)
                rhs(y, pot, k, f_max, logit_mode, b)
                _stepper._rhs(y, pot, k, f_max, logit_mode, c)
                assert a.tobytes() == b.tobytes()
                changed += b.tobytes() != c.tobytes()
        assert changed > 0

    def test_recording_refuses_other_operations(self):
        from kuhn3._stepper import _Rec

        x = _Rec("x", {})
        for op in (lambda: -x, lambda: x / 2, lambda: 2 / x, lambda: x ** 2,
                   lambda: abs(x), lambda: float(x), lambda: bool(x),
                   lambda: x == 1.0, lambda: x < 1.0, lambda: x + "1",
                   lambda: x * np.float64(2.0), lambda: np.ones(2) * x,
                   lambda: x + True):
            with pytest.raises(TypeError):
                op()

    def test_recording_reuses_an_operation(self):
        from kuhn3._stepper import _Rec

        ops = {}
        x, y = _Rec("x", ops), _Rec("y", ops)
        a, b = 2 * x - y, 2 * x - y
        assert a is b and list(ops) == [("2", "*", "x"), ("t0", "-", "y")]
        assert (x * 2) is not (2 * x) and (2.0 * x) is not (2 * x)


#: setting values a user might mistype, beside plain ones
_ODD = [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, 5e-324, 1e-300,
        1e-12, 1.5, 1e300]

#: plain ranges of the ``IntegratorConfig`` fields; sampling intervals of at
#: least 0.05 keep a fuzzed run of t <= 2 to at most 40 samples
_CONFIG_RANGES = {"rtol": (1e-14, 1e-2), "atol": (0.0, 1e-2),
                  "f_max": (1e-3, 1e3), "dt_sample": (0.05, 4.0),
                  "dwell_time": (0.0, 100.0), "h0": (1e-9, 10.0),
                  "h_min": (1e-300, 1e-3)}


class TestIntegrate:
    def test_rejects_boundary_initial(self):
        with pytest.raises(InvalidInitial):
            integrate(StrategyProfile.zeros(), 2.5, 10.0)
        with pytest.raises(InvalidInitial):
            integrate(instantiate("1", 2.5), 2.5, 10.0)  # has zeros

    def test_rejects_bad_t_end(self):
        with pytest.raises(ValueError):
            integrate(random_initial_profile(1), 2.5, 0.0)

    def test_profit_conservation(self):
        traj = integrate(random_initial_profile(2), 3.75, 500.0, seed=2)
        assert np.abs(traj.profits.sum(axis=1)).max() < 1e-8

    def test_frequencies_stay_in_unit_box(self):
        traj = integrate(random_initial_profile(3), 3.1, 2000.0, seed=3)
        assert traj.freqs.min() >= 0.0
        assert traj.freqs.max() <= 1.0
        assert np.abs(traj.logits).max() <= traj.config.f_max

    def test_sample_grid(self):
        cfg = IntegratorConfig(dt_sample=0.25)
        traj = integrate(random_initial_profile(1), 2.5, 10.0, config=cfg)
        assert traj.n_samples == 41
        assert np.allclose(np.diff(traj.times), 0.25)

    def test_counts_accepted_steps(self, monkeypatch):
        from kuhn3 import _stepper

        counts = []
        core = _stepper.integrate_core

        def counting_core(*args):
            result = core(*args)
            counts.append(result[1])
            return result

        monkeypatch.setattr(_stepper, "integrate_core", counting_core)
        traj = integrate(random_initial_profile(1), 2.5, 20.0)
        assert counts == [traj.n_steps]
        # every sample interval ends on an accepted step
        assert traj.n_steps >= traj.n_samples - 1

    def test_step_size_underflow_pickles(self):
        # sweep rows run in worker processes, which pickle their failures
        exc = pickle.loads(pickle.dumps(StepSizeUnderflow(12.5)))
        assert type(exc) is StepSizeUnderflow
        assert exc.time_reached == 12.5
        assert str(exc) == "step size underflow at t=12.5"

    def test_deterministic_repeatability(self):
        a = integrate(random_initial_profile(4), 3.35, 200.0)
        b = integrate(random_initial_profile(4), 3.35, 200.0)
        assert (a.freqs == b.freqs).all()
        assert (a.profits == b.profits).all()

    def test_tolerance_convergence_at_t100(self):
        p0 = random_initial_profile(6)
        base = IntegratorConfig()
        tight = IntegratorConfig(rtol=base.rtol / 2, atol=base.atol / 2)
        a = integrate(p0, 3.75, 100.0, config=base)
        b = integrate(p0, 3.75, 100.0, config=tight)
        assert np.abs(a.freqs[-1] - b.freqs[-1]).max() < 1e-6

    def test_stepper_reuses_last_stage(self, monkeypatch):
        # one evaluation before the first step, then six per attempted
        # step: no step evaluates its first stage again, also where the
        # post-step clamp changes the state (f_max = 2 clips b1, d1 and
        # c3 of this profile from the start)
        from kuhn3 import _stepper

        calls = []
        rhs = _stepper._rhs

        def counting_rhs(*args):
            calls.append(1)
            rhs(*args)

        monkeypatch.setattr(_stepper, "_rhs", counting_rhs)
        f_max = 2.0
        y0 = np.zeros(14)
        y0[:11] = logit(np.array(random_initial_profile(1).as_tuple()), f_max)
        ys, n_steps, status, _ = _stepper.integrate_core(
            y0, 4.65, np.ones(11), 40, 0.5, 1e-9, 1e-11, f_max, True, 1e-3,
            1e-12)
        assert status == _stepper.STATUS_OK
        assert (np.abs(ys[1:, :11]) == f_max).any()
        m, rest = divmod(len(calls) - 1, 6)
        assert rest == 0 and m >= n_steps > 0

    @pytest.mark.parametrize("rtol,atol", [(0.0, 0.0), (float("nan"), 1e-11)])
    def test_nonfinite_error_norm_ends_in_underflow(self, rtol, atol,
                                                    subprocess_env):
        # both tolerances make every error norm nan or inf; such steps must
        # be rejected until the step underflows.  The child process turns a
        # regression into a timeout instead of a hung suite.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from kuhn3 import _stepper\n"
            "rtol, atol = map(float, sys.argv[1:])\n"
            "ys, n, status, t = _stepper.integrate_core(\n"
            "    np.zeros(14), 2.5, np.ones(11), 4, 0.5, rtol, atol, 40.0,\n"
            "    True, 1e-3, 1e-12)\n"
            "assert status == _stepper.STATUS_STEP_UNDERFLOW, status\n"
            "assert (n, len(ys), t) == (0, 1, 0.0), (n, len(ys), t)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(rtol),
                               str(atol)],
                              env=subprocess_env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_subnormal_step_ends_in_underflow(self, subprocess_env):
        # subnormal atol, f_max and h0 made the step stall near 1e-321,
        # above this h_min, and the run never end; the child process turns
        # a regression into a timeout instead of a hung suite
        code = (
            "from kuhn3 import dynamics as d\n"
            "cfg = d.IntegratorConfig(atol=5e-324, f_max=5e-324, h0=5e-324,\n"
            "                         h_min=5e-324, dt_sample=0.05)\n"
            "p0 = d.random_initial_profile(1)\n"
            "try:\n"
            "    d.integrate(p0, 2.5, 0.5, config=cfg)\n"
            "except d.StepSizeUnderflow:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('no underflow')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              env=subprocess_env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("settings", [
        {"rtol": float("nan")}, {"rtol": -1e-9}, {"atol": float("inf")},
        {"rtol": 0.0, "atol": 0.0}, {"dt_sample": 0.0}, {"f_max": 0.0},
        {"h0": -1e-3}, {"h_min": 0.0}, {"rtol": 0.0},
        {"rtol": RTOL_MIN / 2, "atol": 1e-22}, {"f_max": 1000.0},
        {"f_max": math.nextafter(F_MAX_LIMIT, math.inf)},
    ])
    def test_config_rejects_bad_settings(self, settings):
        with pytest.raises(ValueError):
            IntegratorConfig(**settings)

    def test_clamp_at_its_limit(self):
        # beyond F_MAX_LIMIT exp overflows at the lower clamp; at it a run
        # stays finite and warns of nothing
        cfg = IntegratorConfig(f_max=F_MAX_LIMIT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(random_initial_profile(1), 2.5, 10.0, config=cfg)
        assert np.isfinite(traj.logits).all()
        assert np.isfinite(traj.profits).all()

    def test_sampling_interval_longer_than_the_run_is_rejected(self):
        p0 = random_initial_profile(1)
        with pytest.raises(ValueError, match="exceeds t_end"):
            integrate(p0, 2.5, 1.0, config=IntegratorConfig(dt_sample=1e6))
        traj = integrate(p0, 2.5, 1.0, config=IntegratorConfig(dt_sample=0.75))
        assert traj.t_end == 0.75

    @given(**{name: st.one_of(st.sampled_from(_ODD), st.floats(lo, hi))
              for name, (lo, hi) in _CONFIG_RANGES.items()},
           t_end=st.floats(0.5, 2.0))
    @example(rtol=RTOL_MIN, atol=0.0, f_max=40.0, dt_sample=0.05,
             dwell_time=50.0, h0=1e-3, h_min=5e-324, t_end=2.0)
    @example(rtol=1e-9, atol=1e-11, f_max=40.0, dt_sample=1e300,
             dwell_time=50.0, h0=1e-3, h_min=1e-12, t_end=1.0)
    @settings(max_examples=300, deadline=None)
    def test_config_fuzz(self, t_end, **fields):
        # every setting is either rejected or gives a run that ends: a
        # trajectory or a step-size underflow, never a hang
        try:
            cfg = IntegratorConfig(**fields)
        except ValueError:
            return
        try:
            traj = integrate(random_initial_profile(1), 2.5, t_end,
                             config=cfg)
        except (StepSizeUnderflow, ValueError):
            return
        assert abs(traj.t_end - t_end) <= cfg.dt_sample / 2
        assert np.isfinite(traj.logits).all()

    def test_coordinate_chart_equivalence(self):
        p0 = random_initial_profile(7)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
        a = integrate(p0, 3.75, 100.0, config=cfg)
        b = integrate_direct(p0, 3.75, 100.0, config=cfg)
        assert np.abs(a.freqs - b.freqs).max() < 1e-6

    def test_perturbed_equilibrium_oscillates_around_it(self):
        # nudge the bluffing frequency off the lowest-pot equilibrium: the
        # (b3, d2) pair orbits it while the dead coordinates stay pinned
        pot = 2.5
        eq = instantiate("1", pot)
        traj = integrate_direct(eq.replace(b3=eq.b3 + 0.05), pot, 2000.0)
        cls = classify(traj)
        assert cls.label is Label.PERIODIC
        for name in ("a1", "a2", "c1", "b1", "b2"):
            j = FREQ_NAMES.index(name)
            assert traj.freqs[:, j].max() == 0.0
        jb, jd = FREQ_NAMES.index("b3"), FREQ_NAMES.index("d2")
        assert 0.0 < traj.freqs[:, jb].min() <= eq.b3
        assert eq.b3 <= traj.freqs[:, jb].max() < 1.0
        assert traj.freqs[:, jd].std() > 1e-3

    def test_pinned_equilibrium_accumulates_its_profit(self):
        # direct-coordinate integration accepts boundary coordinates, so a
        # catalog equilibrium stays put and profits grow linearly
        pot = 3.75
        prof = instantiate("5", pot)
        traj = integrate_direct(prof, pot, 50.0)
        assert np.abs(traj.freqs[-1] - prof.as_array()).max() < 1e-9
        rate = average_profit_rate(traj, 0.0, 50.0)
        want = expected_profit(prof, pot)
        for a, b in zip(rate, want):
            assert a == pytest.approx(b, abs=1e-10)

    def test_boundary_events_recorded(self):
        traj = integrate(random_initial_profile(1), 2.5, 2000.0, seed=1)
        names = {e.name for e in traj.boundary_events}
        # frequencies that die out sit at the clamp for long stretches
        assert {"a1", "b1", "b2"} <= names
        for e in traj.boundary_events:
            assert e.t_end - e.t_start >= traj.config.dwell_time - 1e-9
            assert e.side in (-1, 1)


class TestAverageProfitRate:
    def test_window_validation(self):
        traj = integrate(random_initial_profile(1), 2.5, 100.0)
        with pytest.raises(WindowOutOfRange):
            average_profit_rate(traj, -1.0, 50.0)
        with pytest.raises(WindowOutOfRange):
            average_profit_rate(traj, 0.0, 101.0)
        with pytest.raises(WindowOutOfRange):
            average_profit_rate(traj, 60.0, 50.0)

    def test_full_window_matches_endpoint_profit(self):
        traj = integrate(random_initial_profile(1), 2.5, 100.0)
        r = average_profit_rate(traj, 0.0, 100.0)
        assert np.allclose(r, traj.profits[-1] / 100.0)

    def test_one_full_cycle_matches_equilibrium_profit(self):
        # over one complete oscillation the mean profit rate reproduces the
        # equilibrium profit (log-odds averages close exactly per cycle)
        from kuhn3.dynamics import _autocorr, _local_maxima

        pot = 2.5
        traj = integrate(random_initial_profile(1), pot, 2000.0, seed=1)
        n = traj.n_samples
        j = [FREQ_NAMES.index(nm) for nm in ("b3", "d2")]
        tail = traj.freqs[3 * n // 4:, j]
        r = _autocorr(tail, len(tail) // 2)
        period = next(lag for val, lag in _local_maxima(r) if val > 0.99)
        period *= traj.config.dt_sample
        rate = average_profit_rate(traj, traj.t_end - period, traj.t_end)
        want = expected_profit(instantiate("1", pot), pot)
        for a, b in zip(rate, want):
            assert abs(a - b) < 0.005


class TestClassify:
    def test_requires_enough_samples(self):
        traj = integrate(random_initial_profile(1), 2.5, 10.0)
        with pytest.raises(InsufficientData):
            classify(traj)

    def test_periodic_regime(self):
        traj = integrate(random_initial_profile(1), 2.5, 2000.0, seed=1)
        cls = classify(traj)
        assert cls.label is Label.PERIODIC
        for name in ("a1", "a2", "c1", "b1", "b2"):
            assert cls.flags[name] is FreqLimit.TO_ZERO
        assert cls.flags["b3"] is FreqLimit.OSCILLATES_BOUNDED
        assert cls.flags["d2"] is FreqLimit.OSCILLATES_BOUNDED
        assert any(set(g) == {"b3", "d2"} for g in cls.groups)

    def test_chaotic_regime(self):
        traj = integrate(random_initial_profile(2), 3.1, 20000.0, seed=2)
        cls = classify(traj)
        assert cls.label is Label.CHAOTIC_TRANSIENT_TO_BOUNDARY
        assert cls.mean_boundary_dwell >= 0.5

    def test_flag_label_consistency(self):
        # BoundaryAbsorbed may only be reported with every flag on the
        # boundary; an oscillating trajectory must not get that label
        traj = integrate(random_initial_profile(1), 3.75, 4000.0, seed=1)
        cls = classify(traj)
        if cls.label is Label.BOUNDARY_ABSORBED:
            assert all(v is not FreqLimit.OSCILLATES_BOUNDED
                       for v in cls.flags.values())
        assert cls.label is Label.PERIODIC

    def test_boundary_absorbed_label(self):
        # a corner is invariant under the direct chart: settled immediately,
        # every flag on the boundary
        corner = StrategyProfile.zeros().replace(a1=1.0, c3=1.0)
        traj = integrate_direct(corner, 3.0, 200.0)
        cls = classify(traj)
        assert cls.label is Label.BOUNDARY_ABSORBED
        assert all(v is not FreqLimit.OSCILLATES_BOUNDED
                   for v in cls.flags.values())
        assert cls.settle_time == 0.0

    def test_json(self):
        traj = integrate(random_initial_profile(1), 2.5, 2000.0, seed=1)
        doc = classify(traj).to_json()
        assert doc["label"] == "Periodic"
        assert set(doc["flags"]) == set(FREQ_NAMES)


class TestClassifierParts:
    @staticmethod
    def _autocorr_by_lag(X, max_lag):
        # the direct definition: pooled Pearson over each lag's window
        n = X.shape[0]
        r = np.empty(max_lag + 1)
        r[0] = 1.0
        for tau in range(1, max_lag + 1):
            am = X[:n - tau] - X[:n - tau].mean(axis=0)
            bm = X[tau:] - X[tau:].mean(axis=0)
            den = np.sqrt(float((am * am).sum()) * float((bm * bm).sum()))
            r[tau] = float((am * bm).sum()) / den if den > 0 else 0.0
        return r

    @pytest.mark.parametrize("n", [64, 101, 512, 1999, 3000])
    @pytest.mark.parametrize("channels", [(0, 1), (0, 2), (1, 3), (3,),
                                          (4,), (0, 1, 2, 3, 4)])
    def test_autocorr_matches_per_lag_definition(self, n, channels):
        from kuhn3.dynamics import _autocorr

        rng = np.random.default_rng(n)
        t = np.arange(n)
        X = np.column_stack([
            np.sin(2 * np.pi * t / 37.3) + 0.1 * rng.normal(size=n),
            rng.normal(size=n).cumsum(),
            np.full(n, 0.3),                        # constant
            (t >= n // 3).astype(float),            # step
            0.5 + 1e-3 * rng.uniform(size=n),       # small motion, offset
        ])[:, channels]
        want = self._autocorr_by_lag(X, n // 2)
        assert np.abs(_autocorr(X, n // 2) - want).max() < 1e-12

    def test_autocorr_of_a_constant_signal_is_zero(self):
        # the window means of 0.3 carry rounding; a per-lag loop read that
        # as a perfect correlation at most lags
        from kuhn3.dynamics import _autocorr

        r = _autocorr(np.full((1000, 2), 0.3), 500)
        assert r[0] == 1.0 and not r[1:].any()

    def test_boundary_events_match_a_run_scan(self):
        from kuhn3.dynamics import Trajectory, _detect_boundary_events

        cfg = IntegratorConfig(dwell_time=5.0)
        min_len = 10  # dwell_time / dt_sample
        n = 400
        rng = np.random.default_rng(7)
        mask = np.zeros((n, 11), dtype=bool)
        mask[:min_len, 0] = True                 # touches the start
        mask[n - min_len + 1:, 1] = True         # touches the end, too short
        mask[n - min_len:, 2] = True             # touches the end
        mask[100:100 + min_len - 1, 3] = True    # one sample too short
        mask[200:200 + min_len, 3] = True        # just long enough
        mask[:, 4] = True                        # the whole run
        for j in range(6, 11):                   # random runs
            i, on = 0, bool(rng.integers(2))
            while i < n:
                k = int(rng.integers(1, 3 * min_len))
                mask[i:i + k, j] = on
                i, on = i + k, not on
        logits = rng.uniform(-30.0, 30.0, (n, 11))
        logits[mask] = cfg.f_max * rng.choice([-1.0, 1.0], mask.sum())
        times = np.arange(n) * cfg.dt_sample
        traj = Trajectory(times=times, logits=logits, freqs=logistic(logits),
                          profits=np.zeros((n, 3)), pot=3.0,
                          gains=np.ones(11), config=cfg)

        want = []
        for j, name in enumerate(FREQ_NAMES):
            i = 0
            while i < n:
                start = i
                while i < n and mask[i, j] == mask[start, j]:
                    i += 1
                if mask[start, j] and i - start >= min_len:
                    side = 1 if logits[start, j] > 0 else -1
                    want.append((name, side, times[start], times[i - 1]))
        want.sort(key=lambda e: e[2])
        got = [(e.name, e.side, e.t_start, e.t_end)
               for e in _detect_boundary_events(traj)]
        assert got == want
        assert {e[0] for e in got} >= {"a1", "c1", "d1", "a2", "c2"}
        assert "b1" not in {e[0] for e in got}

    def test_coupled_groups_are_connected_components(self):
        from kuhn3.dynamics import ClassifierConfig, _coupled_groups

        rng = np.random.default_rng(3)
        n = 2000
        s1, s2, s3 = rng.normal(size=(3, n))
        tail = 0.5 + 0.01 * rng.normal(size=(n, 11))
        # 0 ~ 5 ~ 9 only through 5 (a chain), 2 ~ 7, and 3 alone
        tail[:, 0], tail[:, 5], tail[:, 9] = s1, s1 + s2, s2
        tail[:, 7], tail[:, 2] = s3, -s3
        tail[:, 3] = rng.normal(size=n)
        groups = _coupled_groups(tail, [0, 2, 3, 5, 7, 9], ClassifierConfig())
        assert groups == [[0, 5, 9], [2, 7], [3]]


class TestTrajectoryExport:
    def test_csv_schema_and_determinism(self, tmp_path):
        traj = integrate(random_initial_profile(1), 2.5, 50.0, seed=1)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        traj.to_csv(p1)
        integrate(random_initial_profile(1), 2.5, 50.0, seed=1).to_csv(p2)
        b1 = p1.read_bytes()
        assert b1 == p2.read_bytes()
        lines = b1.decode().splitlines()
        assert lines[0] == TRAJECTORY_CSV_HEADER
        assert len(lines) == traj.n_samples + 1
        row = [float(x) for x in lines[-1].split(",")]
        assert row[0] == traj.times[-1]
        assert row[1:12] == [float(v) for v in traj.freqs[-1]]
        assert row[12:] == [float(v) for v in traj.profits[-1]]

    def test_writers_match_the_per_element_writer(self, tmp_path):
        # the rows come from one array-to-list conversion; each value must
        # print as repr(float(v)) of its numpy element did
        from kuhn3.dynamics import Trajectory

        n = 6
        values = np.array([-0.0, 5e-324, 0.1, 1.0, 1e-310, 2.5])
        traj = Trajectory(
            times=np.arange(n) * 0.1, logits=np.zeros((n, 11)),
            freqs=np.resize(values, (n, 11)),
            profits=np.resize(-values[::-1], (n, 3)), pot=3.0,
            gains=np.ones(11), config=IntegratorConfig())
        rows = [[float(v) for v in (traj.times[i], *traj.freqs[i],
                                    *traj.profits[i])]
                for i in range(n)]
        csv = "".join(",".join(repr(v) for v in row) + "\n" for row in rows)
        traj.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == (
            TRAJECTORY_CSV_HEADER + "\n" + csv)
        traj.to_json(tmp_path / "t.json")
        text = (tmp_path / "t.json").read_text()
        assert f'"rows": {json.dumps(rows)}' in text
        assert "-0.0" in csv and "5e-324" in csv and "0.1," in csv

    def test_json_export_with_metadata(self, tmp_path):
        traj = integrate(random_initial_profile(1), 2.5, 300.0, seed=1)
        out = tmp_path / "t.json"
        traj.to_json(out, classification=None)
        doc = json.loads(out.read_text())
        assert doc["meta"]["pot"] == 2.5
        assert doc["meta"]["seed"] == 1
        assert doc["meta"]["rtol"] == 1e-9
        assert doc["meta"]["steps_accepted"] == traj.n_steps > 0
        assert doc["columns"][0] == "t"
        assert len(doc["rows"]) == traj.n_samples
