"""Repeated-play dynamics: each frequency adjusts toward higher own profit.

Every frequency f owned by player i follows

    df/dt = 24 * k_f * f * (1 - f) * dE_i/df

so boundary values are invariant and every game equilibrium is a fixed
point.  Integration is carried out in log-odds coordinates
F = log(f / (1 - f)), where the same law reads dF/dt = 24 * k_f * dE_i/df,
which stays accurate when frequencies are very close to 0 or 1.  Profits
are integrated alongside the state (dp_i/dt = E_i) under the same error
control.

Log-odds are clamped to +/- f_max; a coordinate that sits at the clamp
longer than a dwell threshold is recorded as a boundary event.  Trajectory
tails are classified as periodic, close to periodic, chaotic transient to
the boundary, or boundary absorbed (see :func:`classify`).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import _stepper
from .analytic_ev import gradient_scaled
from .game_model import FREQ_COLUMNS, FREQ_NAMES, StrategyProfile, check_pot

__all__ = [
    "BoundaryEvent",
    "ClassifierConfig",
    "DynamicsClassification",
    "FreqLimit",
    "InsufficientData",
    "IntegratorConfig",
    "InvalidInitial",
    "Label",
    "StepSizeUnderflow",
    "Trajectory",
    "WindowOutOfRange",
    "average_profit_rate",
    "check_seed",
    "classify",
    "gains_array",
    "integrate",
    "integrate_direct",
    "logistic",
    "logit",
    "random_initial_profile",
    "sample_count",
    "tail_start",
    "vector_field",
]

TRAJECTORY_CSV_HEADER = ",".join(("t", *FREQ_COLUMNS, "p1", "p2", "p3"))

#: Most samples one trajectory may hold: 25 times the 40 001 of a t = 20 000
#: run at dt = 0.5, about 300 MB of arrays.
MAX_SAMPLES = 10**6
#: Longest integration time: 50 times the paper's t = 20 000.  The
#: generated Python loop takes about 0.2 ms of integration per time unit
#: (one core of a 2-vCPU x86-64 host, Python 3.11), so a run this long
#: takes minutes there; the compiled core takes about 4 us per time unit,
#: a few seconds.
T_END_MAX = 1e6


class InvalidInitial(ValueError):
    """Initial frequencies must be strictly inside (0, 1)."""


class StepSizeUnderflow(RuntimeError):
    """The adaptive step fell below the minimum; ``time_reached`` tells
    how far the integration got."""

    def __init__(self, time_reached: float):
        super().__init__(f"step size underflow at t={time_reached:g}")
        self.time_reached = time_reached

    def __reduce__(self):
        # the default rebuilds from ``args``, the message, not the time
        return type(self), (self.time_reached,)


class WindowOutOfRange(ValueError):
    """Requested averaging window is not covered by the trajectory."""


class InsufficientData(ValueError):
    """Trajectory too short for tail classification."""


def gains_array(gains: Mapping | Sequence | None) -> np.ndarray:
    """Per-frequency adjustment rates as an array (default: all one)."""
    if gains is None:
        return np.ones(11)
    if isinstance(gains, Mapping):
        unknown = set(gains) - set(FREQ_NAMES)
        if unknown:
            raise ValueError(f"unknown gain names: {sorted(unknown)}")
        k = np.array([float(gains.get(n, 1.0)) for n in FREQ_NAMES])
    else:
        k = np.asarray(gains, dtype=float)
        if k.shape != (11,):
            raise ValueError(f"gains must have 11 entries, got {k.shape}")
    if not ((k > 0) & np.isfinite(k)).all():
        raise ValueError("all gains must be positive and finite")
    return k


#: Smallest relative tolerance (as in scipy's ``solve_ivp``): below it the
#: step size, and with it the cost of a run, has no floor.
RTOL_MIN = 100 * np.finfo(float).eps

#: Largest log-odds clamp: exp of a clamped coordinate stays finite.
F_MAX_LIMIT = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class IntegratorConfig:
    """Error control and sampling for :func:`integrate`."""

    rtol: float = 1e-9
    atol: float = 1e-11
    f_max: float = 40.0
    dt_sample: float = 0.5
    dwell_time: float = 50.0
    h0: float = 1e-3
    h_min: float = 1e-12

    def __post_init__(self):
        bad = [n for n, v in vars(self).items() if not math.isfinite(v)]
        if bad:
            raise ValueError(f"integrator settings must be finite: {bad}")
        if not self.rtol >= RTOL_MIN:
            raise ValueError(f"rtol must be >= {RTOL_MIN:.3g}; tighter is "
                             f"below double precision (got {self.rtol:g})")
        if self.atol < 0:
            raise ValueError(f"atol must be >= 0 (got {self.atol:g})")
        for name in ("dt_sample", "f_max", "h0", "h_min"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive "
                                 f"(got {getattr(self, name):g})")
        if self.f_max > F_MAX_LIMIT:
            raise ValueError(f"f_max must be <= {F_MAX_LIMIT:.6g}; beyond "
                             f"it exp(f_max) overflows (got {self.f_max:g})")


def logit(f: np.ndarray,
          f_max: float = IntegratorConfig.f_max) -> np.ndarray:
    """Log-odds of frequencies, clamped to +/- f_max."""
    f = np.asarray(f, dtype=float)
    with np.errstate(divide="ignore"):
        F = np.log(f) - np.log1p(-f)
    return np.clip(F, -f_max, f_max)


def logistic(F: np.ndarray,
             f_max: float = IntegratorConfig.f_max) -> np.ndarray:
    """Frequencies from log-odds (inverse of :func:`logit`)."""
    F = np.clip(np.asarray(F, dtype=float), -f_max, f_max)
    return 1.0 / (1.0 + np.exp(-F))


@dataclass(frozen=True)
class BoundaryEvent:
    """A coordinate that stayed at the log-odds clamp for at least the
    dwell threshold."""

    name: str
    side: int  # +1 at f ~ 1, -1 at f ~ 0
    t_start: float
    t_end: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled path of the dynamics: log-odds, frequencies and profits."""

    times: np.ndarray
    logits: np.ndarray   # (n, 11)
    freqs: np.ndarray    # (n, 11)
    profits: np.ndarray  # (n, 3)
    pot: float
    gains: np.ndarray
    config: IntegratorConfig
    boundary_events: tuple = ()
    seed: int | None = None
    n_steps: int | None = None  # accepted integrator steps, if integrated

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def profile_at(self, i: int) -> StrategyProfile:
        return StrategyProfile(*self.freqs[i])

    def _table(self) -> np.ndarray:
        """One row per sample: t, the frequencies, the profits."""
        return np.column_stack((self.times, self.freqs, self.profits))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(TRAJECTORY_CSV_HEADER + "\n")
            # row by row: the Python floats of one row exist at a time
            for row in self._table():
                fh.write(",".join(map(repr, row.tolist())) + "\n")

    def to_json(self, path, classification: "DynamicsClassification | None" = None) -> None:
        meta = {
            "pot": self.pot,
            "gains": {n: float(k) for n, k in zip(FREQ_NAMES, self.gains)},
            "seed": self.seed,
            "rtol": self.config.rtol,
            "atol": self.config.atol,
            "f_max": self.config.f_max,
            "dt_sample": self.config.dt_sample,
            "steps_accepted": self.n_steps,
            "boundary_events": [
                {"name": e.name, "side": e.side,
                 "t_start": e.t_start, "t_end": e.t_end}
                for e in self.boundary_events
            ],
        }
        if classification is not None:
            meta["classification"] = classification.to_json()
        doc = {
            "meta": meta,
            "columns": TRAJECTORY_CSV_HEADER.split(","),
            "rows": self._table().tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def vector_field(F, pot: float, gains=None) -> np.ndarray:
    """Time derivative of the log-odds state: 24 * k_f * dE_owner/df."""
    pot = check_pot(pot)
    k = gains_array(gains)
    f = logistic(np.asarray(F, dtype=float))
    return k * np.array(gradient_scaled(StrategyProfile(*f), pot))


def check_seed(seed: int) -> int:
    """``seed`` if it can seed :func:`random_initial_profile`, else a
    ``ValueError``: it must be non-negative."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def random_initial_profile(seed: int, lo: float = 0.05,
                           hi: float = 0.95) -> StrategyProfile:
    """Seeded random interior profile, uniform per coordinate on [lo, hi]."""
    rng = np.random.default_rng(check_seed(seed))
    return StrategyProfile(*rng.uniform(lo, hi, 11))


def sample_count(t_end: float, dt_sample: float) -> int:
    """Samples of a trajectory integrated to ``t_end``: t = 0, then
    ``t_end / dt_sample`` sample intervals rounded to a whole number, so
    the run ends within half an interval of ``t_end``.  Raises
    ``ValueError`` for a ``t_end`` that is not positive and finite or is
    above ``T_END_MAX``, for a sampling interval longer than ``t_end`` (the
    run would end at the interval instead), or for more than
    ``MAX_SAMPLES`` samples."""
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if t_end > T_END_MAX:
        raise ValueError(f"t_end {t_end:g} exceeds the longest integration "
                         f"time, {T_END_MAX:g}")
    if dt_sample > t_end:
        raise ValueError(f"sampling interval {dt_sample!r} exceeds t_end "
                         f"{t_end!r}")
    n = t_end / dt_sample
    if not n <= MAX_SAMPLES - 1:
        raise ValueError(f"t_end / dt_sample = {n:.3g} sample intervals; "
                         f"a trajectory holds at most {MAX_SAMPLES} samples")
    return int(round(n)) + 1


def _run(initial: StrategyProfile, pot: float, t_end: float, gains,
         config: IntegratorConfig, logit_mode: bool,
         seed: int | None) -> Trajectory:
    pot = check_pot(pot)
    cfg = config or IntegratorConfig()
    n = sample_count(t_end, cfg.dt_sample) - 1
    k = gains_array(gains)
    f0 = np.array(initial.as_tuple())
    if logit_mode and not ((f0 > 0.0) & (f0 < 1.0)).all():
        # boundary coordinates are invariant manifolds and the log-odds
        # chart is singular there; the direct chart accepts them
        bad = [n for n, v in zip(FREQ_NAMES, f0) if not 0.0 < v < 1.0]
        raise InvalidInitial(f"initial frequencies on the boundary: {bad}")

    y0 = np.empty(14)
    y0[:11] = logit(f0, cfg.f_max) if logit_mode else f0
    y0[11:] = 0.0
    ys, n_steps, status, t_reached = _stepper.integrate_core(
        y0, pot, k, n, cfg.dt_sample, cfg.rtol, cfg.atol, cfg.f_max,
        logit_mode, cfg.h0, cfg.h_min)
    if status == _stepper.STATUS_STEP_UNDERFLOW:
        raise StepSizeUnderflow(t_reached)

    times = np.arange(n + 1) * cfg.dt_sample
    if logit_mode:
        logits = ys[:, :11]
        freqs = logistic(logits, cfg.f_max)
    else:
        freqs = ys[:, :11]
        logits = logit(freqs, cfg.f_max)
    traj = Trajectory(times=times, logits=logits, freqs=freqs,
                      profits=ys[:, 11:], pot=pot, gains=k, config=cfg,
                      seed=seed, n_steps=n_steps)
    events = _detect_boundary_events(traj) if logit_mode else ()
    return replace(traj, boundary_events=tuple(events))


def integrate(initial: StrategyProfile, pot: float, t_end: float,
              gains=None, config: IntegratorConfig | None = None,
              seed: int | None = None) -> Trajectory:
    """Integrate the dynamics in log-odds coordinates (the accurate chart
    near the boundary).  ``t_end`` is rounded to a whole number of sample
    intervals."""
    return _run(initial, pot, t_end, gains, config, True, seed)


def integrate_direct(initial: StrategyProfile, pot: float, t_end: float,
                     gains=None, config: IntegratorConfig | None = None,
                     seed: int | None = None) -> Trajectory:
    """Integrate in plain frequency coordinates (for cross-checking the
    log-odds chart; less accurate near the boundary)."""
    return _run(initial, pot, t_end, gains, config, False, seed)


def _detect_boundary_events(traj: Trajectory) -> list:
    cfg = traj.config
    eps = 1e-9 * max(1.0, cfg.f_max)
    min_len = max(1, int(round(cfg.dwell_time / cfg.dt_sample)))
    events = []
    for j, name in enumerate(FREQ_NAMES):
        clamped = np.abs(traj.logits[:, j]) >= cfg.f_max - eps
        edges = np.diff(clamped.astype(np.int8), prepend=0, append=0)
        for start, stop in zip(np.flatnonzero(edges == 1),
                               np.flatnonzero(edges == -1)):
            if stop - start >= min_len:
                side = 1 if traj.logits[start, j] > 0 else -1
                events.append(BoundaryEvent(
                    name, side, float(traj.times[start]),
                    float(traj.times[stop - 1])))
    events.sort(key=lambda e: e.t_start)
    return events


def average_profit_rate(traj: Trajectory, t_start: float,
                        t_end: float) -> tuple:
    """Mean profit rate (p(t_end) - p(t_start)) / (t_end - t_start) per
    player, in chips per unit time."""
    if not (traj.times[0] <= t_start < t_end <= traj.times[-1] + 1e-9):
        raise WindowOutOfRange(
            f"window [{t_start:g}, {t_end:g}] outside trajectory span "
            f"[{traj.times[0]:g}, {traj.times[-1]:g}]")
    p0 = [np.interp(t_start, traj.times, traj.profits[:, i]) for i in range(3)]
    p1 = [np.interp(t_end, traj.times, traj.profits[:, i]) for i in range(3)]
    dt = t_end - t_start
    return tuple((b - a) / dt for a, b in zip(p0, p1))


# -- classification ----------------------------------------------------------

class Label(enum.Enum):
    PERIODIC = "Periodic"
    CLOSE_TO_PERIODIC = "CloseToPeriodic"
    CHAOTIC_TRANSIENT_TO_BOUNDARY = "ChaoticTransientToBoundary"
    BOUNDARY_ABSORBED = "BoundaryAbsorbed"
    UNDETERMINED = "Undetermined"


class FreqLimit(enum.Enum):
    OSCILLATES_BOUNDED = "OscillatesBounded"
    TO_ZERO = "ToZero"
    TO_ONE = "ToOne"


@dataclass(frozen=True)
class ClassifierConfig:
    """Thresholds for the tail classification (declared, not derived)."""

    tail_fraction: float = 0.25
    boundary_band: float = 1e-3
    periodic_peak: float = 0.995
    close_peak: float = 0.9
    lag_agreement: float = 0.01
    passenger_rel_std: float = 0.01
    group_corr: float = 0.5
    chaotic_dwell: float = 0.5
    min_transient: float = 100.0
    peak_floor: float = 0.8
    peak_window: float = 2.5
    max_lag_samples: int = 2048
    min_tail_samples: int = 64


@dataclass(frozen=True)
class DynamicsClassification:
    """Tail behaviour of a trajectory.

    ``groups`` are the coupled sets of oscillating coordinates that were
    analysed together; ``group_peaks`` their tail autocorrelation peaks.
    """

    label: Label
    flags: dict
    groups: tuple = ()
    group_peaks: tuple = ()
    mean_boundary_dwell: float = 0.0
    settle_time: float | None = None

    def to_json(self) -> dict:
        return {
            "label": self.label.value,
            "flags": {n: v.value for n, v in self.flags.items()},
            "groups": [list(g) for g in self.groups],
            "group_peaks": list(self.group_peaks),
            "mean_boundary_dwell": self.mean_boundary_dwell,
            "settle_time": self.settle_time,
        }


def _spectra(X: np.ndarray, max_lag: int) -> np.ndarray:
    """Real FFT of each column of X, zero-padded to a power of two of at
    least ``len(X) + max_lag`` samples, so no lag up to max_lag wraps."""
    return np.fft.rfft(X, 1 << (len(X) + max_lag - 1).bit_length(), axis=0)


def _lag_sums(fa: np.ndarray, fb: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Lagged cross sums sum_t sum_c a[t, c] * b[t + tau, c] for each tau in
    ``lags`` (negative lags allowed), from the :func:`_spectra` fa and fb of
    a and b (Wiener-Khinchin: the inverse FFT of conj(fa) * fb)."""
    return np.fft.irfft((np.conj(fa) * fb).sum(axis=1))[lags]


def _autocorr(X: np.ndarray, max_lag: int) -> np.ndarray:
    """Per-lag Pearson autocorrelation of a multichannel signal.

    r[tau] correlates X[:-tau] with X[tau:], pooling covariance across
    channels, so a jointly periodic signal reaches 1 at its period; means
    are taken over each lag's window.  Exact in O(n log n): FFT cross sums
    (:func:`_lag_sums`) plus prefix-sum window moments.
    """
    n, c = X.shape
    X = X - X.mean(axis=0)
    f = _spectra(X, max_lag)
    tau = np.arange(max_lag + 1)
    w = (n - tau)[:, None]
    S, Q = np.zeros((2, n + 1, c))  # prefix sums of X and of X * X
    np.cumsum(X, axis=0, out=S[1:])
    np.cumsum(X * X, axis=0, out=Q[1:])
    sa, sb = S[n - tau], S[n] - S[tau]
    num = _lag_sums(f, f, tau) - (sa * sb / w).sum(axis=1)
    va = (Q[n - tau] - sa * sa / w).sum(axis=1)
    vb = (Q[n] - Q[tau] - sb * sb / w).sum(axis=1)
    # a window variance within the rounding error of the prefix sums is 0
    floor = n * np.finfo(float).eps * Q[n].sum()
    va[va <= floor] = 0.0
    vb[vb <= floor] = 0.0
    den = np.sqrt(va * vb)
    r = np.divide(num, den, out=np.zeros(max_lag + 1), where=den > 0)
    r[0] = 1.0
    return r


def _local_maxima(r: np.ndarray) -> list:
    """(refined_value, refined_lag) for each interior local maximum,
    sharpened by a parabola through the three neighbouring lags."""
    out = []
    for i in range(2, len(r) - 1):
        if r[i] >= r[i - 1] and r[i] >= r[i + 1]:
            denom = r[i - 1] - 2 * r[i] + r[i + 1]
            if denom < 0:
                delta = 0.5 * (r[i - 1] - r[i + 1]) / denom
                val = r[i] - 0.25 * (r[i - 1] - r[i + 1]) * delta
                out.append((min(1.0, float(val)), i + float(delta)))
            else:
                out.append((float(r[i]), float(i)))
    return out


def _group_peak(r: np.ndarray, cfg: ClassifierConfig) -> tuple:
    """(peak value, peak lag, recurrence ok) from an autocorrelation.

    The candidate period is the first local maximum reaching the peak
    floor; the reported peak is the best refined maximum within a small
    window of that lag, so distant near-recurrences of quasi-periodic
    motion are not mistaken for a period.  A true period must recur: when
    twice the peak lag is in range, a maximum of comparable height must
    sit within ``lag_agreement`` of it (near-recurrences of quasi-periodic
    motion decay at the doubled lag and fail this)."""
    maxima = _local_maxima(r)
    if not maxima:
        return 0.0, 0.0, False
    first = next(((v, l) for v, l in maxima if v >= cfg.peak_floor), None)
    if first is None:
        return max(maxima)[0], max(maxima)[1], False
    window = [m for m in maxima if m[1] <= cfg.peak_window * first[1]]
    peak, lag = max(window) if window else first
    ok = True
    if 2 * lag <= len(r) - 2:
        slack = max(2.0, cfg.lag_agreement * 2 * lag)
        near = [m for m in maxima if abs(m[1] - 2 * lag) <= slack]
        ok = bool(near) and max(near)[0] >= cfg.periodic_peak
    return peak, lag, ok


def _settle_time(freqs: np.ndarray, times: np.ndarray, band: float):
    """Earliest time from which every coordinate stays within ``band`` of
    its final value."""
    dev = np.abs(freqs - freqs[-1]) > band
    moving = dev.any(axis=1)
    idx = np.nonzero(moving)[0]
    if len(idx) == 0:
        return float(times[0])
    if idx[-1] + 1 >= len(times):
        return None
    return float(times[idx[-1] + 1])


def tail_start(n_samples: int, config: ClassifierConfig | None = None) -> int:
    """Index of the first sample :func:`classify` analyses in a
    trajectory of ``n_samples`` samples.  Raises :class:`InsufficientData`
    if the tail from there is shorter than ``min_tail_samples``."""
    cfg = config or ClassifierConfig()
    start = int(n_samples * (1 - cfg.tail_fraction))
    if n_samples - start < cfg.min_tail_samples:
        raise InsufficientData(f"tail has {n_samples - start} samples, "
                               f"need >= {cfg.min_tail_samples}")
    return start


def classify(traj: Trajectory,
             config: ClassifierConfig | None = None) -> DynamicsClassification:
    """Classify the tail of a trajectory.

    Per frequency: ``ToZero``/``ToOne`` if the tail window stays within the
    boundary band, ``OscillatesBounded`` otherwise.  The aggregate label is
    determined from the coupled groups of oscillating coordinates:
    every group strongly periodic -> ``Periodic``; the best group merely
    close -> ``CloseToPeriodic``; a boundary-dwelling non-periodic tail
    (corner hopping) or an absorbed state after a long non-periodic
    transient -> ``ChaoticTransientToBoundary``; a quickly settled
    all-boundary state -> ``BoundaryAbsorbed``.
    """
    cfg = config or ClassifierConfig()
    tail = traj.freqs[tail_start(traj.n_samples, cfg):]

    band = cfg.boundary_band
    flags: dict = {}
    for j, name in enumerate(FREQ_NAMES):
        col = tail[:, j]
        if (col < band).all():
            flags[name] = FreqLimit.TO_ZERO
        elif (col > 1 - band).all():
            flags[name] = FreqLimit.TO_ONE
        else:
            flags[name] = FreqLimit.OSCILLATES_BOUNDED

    osc = [j for j, name in enumerate(FREQ_NAMES)
           if flags[name] is FreqLimit.OSCILLATES_BOUNDED]
    stds = tail.std(axis=0)
    floor = max(1e-12, cfg.passenger_rel_std * (stds[osc].max() if osc else 0.0))
    active = [j for j in osc if stds[j] > floor]

    if not active:
        settle = _settle_time(traj.freqs, traj.times, band)
        all_boundary = all(flags[n_] is not FreqLimit.OSCILLATES_BOUNDED
                           for n_ in FREQ_NAMES)
        if settle is not None and settle <= cfg.min_transient and all_boundary:
            label = Label.BOUNDARY_ABSORBED
        elif settle is not None and settle > cfg.min_transient:
            pre = traj.freqs[:max(cfg.min_tail_samples,
                                  int(np.searchsorted(traj.times, settle)))]
            r = _autocorr(pre, min(len(pre) // 2, cfg.max_lag_samples))
            peak, _, _ = _group_peak(r, cfg)
            if peak < cfg.close_peak:
                label = Label.CHAOTIC_TRANSIENT_TO_BOUNDARY
            elif all_boundary:
                label = Label.BOUNDARY_ABSORBED
            else:
                label = Label.UNDETERMINED
        else:
            label = Label.UNDETERMINED
        return DynamicsClassification(label, flags, settle_time=settle)

    inband = (tail[:, active] < band) | (tail[:, active] > 1 - band)
    mean_dwell = float(inband.mean())
    if mean_dwell >= cfg.chaotic_dwell and traj.t_end > cfg.min_transient:
        # corner hopping: the state hugs the boundary but keeps erupting
        return DynamicsClassification(
            Label.CHAOTIC_TRANSIENT_TO_BOUNDARY, flags,
            mean_boundary_dwell=mean_dwell,
            settle_time=_settle_time(traj.freqs, traj.times, band))

    groups = _coupled_groups(tail, active, cfg)
    max_lag = min(len(tail) // 2, cfg.max_lag_samples)
    peaks = []
    lag_ok = []
    for grp in groups:
        r = _autocorr(tail[:, list(grp)], max_lag)
        peak, _, ok = _group_peak(r, cfg)
        peaks.append(peak)
        lag_ok.append(ok)

    names = tuple(tuple(FREQ_NAMES[j] for j in grp) for grp in groups)
    if all(p >= cfg.periodic_peak and ok for p, ok in zip(peaks, lag_ok)):
        label = Label.PERIODIC
    elif max(peaks) >= cfg.close_peak:
        label = Label.CLOSE_TO_PERIODIC
    else:
        label = Label.UNDETERMINED
    return DynamicsClassification(label, flags, names, tuple(peaks),
                                  mean_dwell)


def _coupled_groups(tail: np.ndarray, active: list,
                    cfg: ClassifierConfig) -> list:
    """Partition oscillating coordinates into groups whose motions are
    mutually correlated at some lag (connected components)."""
    m = len(active)
    if m <= 1:
        return [list(active)]
    n = len(tail)
    max_lag = min(n // 4, cfg.max_lag_samples)
    Z = tail[:, active] - tail[:, active].mean(axis=0)
    spec = _spectra(Z / np.maximum(Z.std(axis=0), 1e-300), max_lag)
    lags = np.arange(-max_lag, max_lag + 1)
    denom = n - np.abs(lags)
    adj = np.eye(m, dtype=int)
    for a in range(m):
        for b in range(a + 1, m):
            cc = _lag_sums(spec[:, [a]], spec[:, [b]], lags)
            peak = np.max(np.abs(cc) / denom)
            adj[a, b] = adj[b, a] = peak >= cfg.group_corr
    # with the identity on its diagonal, adj^(m-1) is positive exactly
    # where a path joins two coordinates; each component is one such row,
    # listed once, in order of its smallest member
    reach = np.linalg.matrix_power(adj, m - 1) > 0
    groups = []
    for row in reach:
        grp = [active[j] for j in np.flatnonzero(row)]
        if grp not in groups:
            groups.append(grp)
    return groups
