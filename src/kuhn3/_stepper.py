"""Adaptive Dormand-Prince 5(4) core for the repeated-play dynamics.

The 14-dimensional state is the eleven adjustment coordinates (either
log-odds F = log(f/(1-f)) or the frequencies f themselves) followed by the
three accumulated profits.  Steps are capped at the next output sample so
samples land exactly on the requested grid; log-odds coordinates are
clamped to +/- f_max after every accepted step (direct coordinates to
[0, 1]).

The right-hand side evaluates the one transcription of the profit
polynomials in :mod:`kuhn3.analytic_ev`.  It is generated at import:
``_partials`` and ``_profits`` run once on recording values (:class:`_Rec`),
and their arithmetic becomes the body of ``_rhs``, one local statement per
float operation, with no calls, loops or tuples between the clamp of the
coordinates and the write of the rates.  It performs the same IEEE
operations in the same order as the transcription run on floats, so it
gives the same bits, without the interpreter's cost of the calls.
``inspect.getsource(_rhs)`` shows the generated code.  The stage sums are
numpy row operations on the (7, 14) stage array, with h folded into the
tableau once per attempted step.

The pair is First-Same-As-Last: the seventh stage is evaluated at the new
solution, so an accepted step hands it on as the next step's first stage,
and a rejected step keeps its first stage.  An attempted step thus makes
six right-hand-side calls, plus one before the first step.  The post-step
clip keeps this exact: the right-hand side reads only the adjustment
coordinates, through the same clamp, and never the profits, so it gives
the same bits before and after the clip.
"""

from __future__ import annotations

import linecache
import math
import struct
import sys

import numpy as np

from .analytic_ev import _partials, _profits
from .game_model import FREQ_NAMES

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


class _Rec:
    """A float local of the generated right-hand side.

    The recording duck type of the profit transcription, beside floats,
    arrays and sympy symbols.  Each ``+``, ``-`` or ``*`` with another
    recorded value or an int or float constant adds one statement
    ``tN = a op b`` to the recording ``ops`` (a dict from ``(a, op, b)``
    to its result), in Python's evaluation order, and returns ``tN``.  An
    operation already recorded on the same operands returns the earlier
    result: it is the same IEEE operation on the same values, so it gives
    the same bits.  Every other operation raises ``TypeError``.
    """

    __slots__ = ("name", "_ops")
    # numpy scalars and arrays defer to the operators below, which refuse them
    __array_ufunc__ = None

    def __init__(self, name: str, ops: dict):
        self.name = name
        self._ops = ops

    def _emit(self, a, op, b):
        key = (_operand(a), op, _operand(b))
        if None in key:
            return NotImplemented
        rec = self._ops.get(key)
        if rec is None:
            rec = self._ops[key] = _Rec(f"t{len(self._ops)}", self._ops)
        return rec

    def __add__(self, other):
        return self._emit(self, "+", other)

    def __radd__(self, other):
        return self._emit(other, "+", self)

    def __sub__(self, other):
        return self._emit(self, "-", other)

    def __rsub__(self, other):
        return self._emit(other, "-", self)

    def __mul__(self, other):
        return self._emit(self, "*", other)

    def __rmul__(self, other):
        return self._emit(other, "*", self)

    def _unsupported(self, *_):
        raise TypeError("the recorded right-hand side is straight-line "
                        "+, - and * only")

    # a truth value or an equality would branch or drop the arithmetic
    __bool__ = __eq__ = __ne__ = _unsupported


def _operand(v):
    if isinstance(v, _Rec):
        return v.name
    return repr(v) if type(v) in (int, float) else None


def _build_rhs():
    """Generate ``_rhs(y, pot, k, f_max, logit, out)`` from the profit
    transcription: :func:`_partials` and :func:`_profits` run once on
    :class:`_Rec` values, and their recorded operations become one
    straight-line function body between the clamp of each coordinate and
    one write of the fourteen rates into ``out``."""
    ops: dict = {}
    f = [_Rec(n, ops) for n in FREQ_NAMES]
    pot = _Rec("pot", ops)
    g = _partials(f, pot)
    e = _profits(f, pot, g)
    ys = [f"y_{n}" for n in FREQ_NAMES]
    ks = [f"k_{n}" for n in FREQ_NAMES]
    rates = [e_i.name + " / 24.0" for e_i in e]
    lines = [
        "def _rhs(y, pot, k, f_max, logit, out):",
        f"    {', '.join(ys + ['_'] * (_NSTATE - len(ys)))} = y.tolist()",
        f"    {', '.join(ks)} = k",
        "    if logit:",
        "        lo = -f_max",
        *(f"        {n} = 1.0 / (1.0 + exp(f_max if {x} <= lo else "
          f"lo if {x} >= f_max else -{x}))" for n, x in zip(FREQ_NAMES, ys)),
        "    else:",
        *(f"        {n} = 0.0 if {x} <= 0.0 else 1.0 if {x} >= 1.0 else {x}"
          for n, x in zip(FREQ_NAMES, ys)),
        *(f"    {r.name} = {a} {op} {b}" for (a, op, b), r in ops.items()),
        "    if logit:",
        "        pack(out, 0, {})".format(", ".join(
            [f"{k_i} * {g_i.name}" for k_i, g_i in zip(ks, g)] + rates)),
        "    else:",
        "        pack(out, 0, {})".format(", ".join(
            [f"{k_i} * {n} * (1 - {n}) * {g_i.name}"
             for k_i, n, g_i in zip(ks, FREQ_NAMES, g)] + rates)),
    ]
    source = "\n".join(lines) + "\n"
    filename = f"<generated {__name__}._rhs>"
    # tracebacks and inspect.getsource show the generated lines
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    # the rates go straight into the bytes of out, a C-contiguous float64
    # row such as a row of the stage array: the same doubles as out[:] = a
    # list, without numpy converting one
    namespace = {"__name__": __name__, "exp": math.exp,
                 "pack": struct.Struct(f"{_NSTATE}d").pack_into}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_rhs"]


_rhs = _build_rhs()


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
