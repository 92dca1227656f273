"""Adaptive Dormand-Prince 5(4) core for the repeated-play dynamics.

The 14-dimensional state is the eleven adjustment coordinates (either
log-odds F = log(f/(1-f)) or the frequencies f themselves) followed by the
three accumulated profits.  Steps are capped at the next output sample so
samples land exactly on the requested grid; log-odds coordinates are
clamped to +/- f_max after every accepted step.

The right-hand side evaluates the one transcription of the profit
polynomials in :mod:`kuhn3.analytic_ev`; the stage sums are numpy row
operations on the (7, 14) stage array.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic_ev import _partials, _profits

STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1

_NSTATE = 14

# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# section II.5): stage coefficients, 5th-order weights, error weights
_A = np.zeros((7, 7))
_A[1, :1] = [1 / 5]
_A[2, :2] = [3 / 40, 9 / 40]
_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
_EC = _B5 - _B4


def _rhs(y, pot, k, f_max, logit, out):
    if logit:
        f = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(y[:11], -f_max),
                                              f_max)))
        rate = k
    else:
        f = np.minimum(np.maximum(y[:11], 0.0), 1.0)
        rate = k * f * (1 - f)
    fl = f.tolist()
    g = _partials(fl, pot)
    np.multiply(rate, g, out=out[:11])
    # profit accumulation dp_i/dt = E_i
    np.divide(_profits(fl, pot, g), 24.0, out=out[11:])


def integrate_core(y0, pot, k, n_samples, dt_sample, rtol, atol, f_max,
                   logit, h0, h_min):
    """Integrate from t=0 sampling at i*dt_sample for i = 0..n_samples.

    Returns (ys, n_steps, status, t_reached): ys has one row per sample;
    on STATUS_STEP_UNDERFLOW only rows up to the last completed sample are
    valid and t_reached reports how far the integration got.  A step whose
    error norm is not finite is rejected with the smallest step factor, so
    it ends in STATUS_STEP_UNDERFLOW rather than looping.
    """
    ys = np.empty((n_samples + 1, _NSTATE))
    ys[0] = y0
    y = y0.copy()
    K = np.empty((7, _NSTATE))
    lo, hi = (-f_max, f_max) if logit else (0.0, 1.0)

    t = 0.0
    h = h0
    isamp = 1
    n_steps = 0
    while isamp <= n_samples:
        t_target = isamp * dt_sample
        hit = False
        if h >= t_target - t:
            h = t_target - t
            hit = True
        _rhs(y, pot, k, f_max, logit, K[0])
        for i in range(1, 7):
            _rhs(y + h * (_A[i, :i] @ K[:i]), pot, k, f_max, logit, K[i])
        yt = y + h * (_B5 @ K)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(yt))
        q = h * (_EC @ K) / sc
        errn = math.sqrt(float(q @ q) / _NSTATE)

        if errn <= 1.0:
            t = t_target if hit else t + h
            y = yt
            np.clip(y[:11], lo, hi, out=y[:11])
            n_steps += 1
            if hit:
                ys[isamp] = y
                isamp += 1

        if not math.isfinite(errn):
            fac = 0.2
        elif errn > 0.0:
            fac = min(5.0, max(0.2, 0.9 * errn ** (-0.2)))
        else:
            fac = 5.0
        h *= fac
        if h < h_min:
            return ys[:isamp], n_steps, STATUS_STEP_UNDERFLOW, t
    return ys, n_steps, STATUS_OK, t
