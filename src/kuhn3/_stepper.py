"""Adaptive Dormand-Prince 5(4) core for the repeated-play dynamics.

The 14-dimensional state is the eleven adjustment coordinates (either
log-odds F = log(f/(1-f)) or the frequencies f themselves) followed by the
three accumulated profits.  Steps are capped at the next output sample so
samples land exactly on the requested grid; log-odds coordinates are
clamped to +/- f_max after every accepted step (direct coordinates to
[0, 1]).

The right-hand side evaluates the one transcription of the profit
polynomials in :mod:`kuhn3.analytic_ev`; the stage sums are numpy row
operations on the (7, 14) stage array, with h folded into the tableau once
per attempted step.

The pair is First-Same-As-Last: the seventh stage is evaluated at the new
solution, so an accepted step hands it on as the next step's first stage,
and a rejected step keeps its first stage.  An attempted step thus makes
six right-hand-side calls, plus one before the first step.  The post-step
clip keeps this exact: the right-hand side reads only the adjustment
coordinates, through the same clamp, and never the profits, so it gives
the same bits before and after the clip.
"""

from __future__ import annotations

import math
import sys

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
# the tableau with the error weights as an eighth row, scaled by h per step
_T = np.vstack([_A, _EC])


def _rhs(y, pot, k, f_max, logit, out):
    v = y[:11].tolist()
    if logit:
        fl = [1.0 / (1.0 + math.exp(f_max if x <= -f_max else
                                    -f_max if x >= f_max else -x))
              for x in v]
        g = _partials(fl, pot)
        row = [ki * gi for ki, gi in zip(k, g)]
    else:
        fl = [0.0 if x <= 0.0 else 1.0 if x >= 1.0 else x for x in v]
        g = _partials(fl, pot)
        row = [ki * fi * (1 - fi) * gi for ki, fi, gi in zip(k, fl, g)]
    # profit accumulation dp_i/dt = E_i
    row += [e / 24.0 for e in _profits(fl, pot, g)]
    out[:] = row


def integrate_core(y0, pot, k, n_samples, dt_sample, rtol, atol, f_max,
                   logit, h0, h_min):
    """Integrate from t=0 sampling at i*dt_sample for i = 0..n_samples.

    Returns (ys, n_steps, status, t_reached): ys has one row per sample;
    on STATUS_STEP_UNDERFLOW only rows up to the last completed sample are
    valid and t_reached reports how far the integration got.  A step whose
    error norm is not finite is rejected with the smallest step factor, so
    it ends in STATUS_STEP_UNDERFLOW rather than looping.  So does a step
    below the smallest normal double, where the step control rounds and a
    step can stall at a few subnormals, whatever h_min.
    """
    ys = np.empty((n_samples + 1, _NSTATE))
    ys[0] = y0
    y = y0.copy()
    k = np.asarray(k, dtype=float).tolist()
    K = np.empty((7, _NSTATE))
    hT = np.empty_like(_T)
    stages = [(hT[i, :i], K[:i], K[i]) for i in range(1, 7)]
    lo, hi = (-f_max, f_max) if logit else (0.0, 1.0)
    _rhs(y, pot, k, f_max, logit, K[0])

    h_min = max(h_min, sys.float_info.min)
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
        np.multiply(_T, h, out=hT)
        for ha, Kj, Ki in stages:
            yi = ha.dot(Kj)
            yi += y
            _rhs(yi, pot, k, f_max, logit, Ki)
        # row 6 of _A is _B5: the last stage state is the new solution
        sc = np.maximum(np.abs(y), np.abs(yi))
        sc *= rtol
        sc += atol
        q = hT[7].dot(K)
        q /= sc
        errn = math.sqrt(q.dot(q) / _NSTATE)

        if errn <= 1.0:
            t = t_target if hit else t + h
            y = yi
            np.minimum(np.maximum(y[:11], lo, out=y[:11]), hi, out=y[:11])
            K[0] = K[6]
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
