"""Adaptive Dormand-Prince 5(4) core for the repeated-play dynamics.

The 14-dimensional state is the eleven adjustment coordinates (either
log-odds F = log(f/(1-f)) or the frequencies f themselves) followed by the
three accumulated profits.  Steps are capped at the next output sample so
samples land exactly on the requested grid; log-odds coordinates are
clamped to +/- f_max after every accepted step (direct coordinates to
[0, 1]).

Both the right-hand side and the step loop are generated at import as
straight-line Python-float code; ``inspect.getsource`` shows either.

The right-hand side ``_rhs`` evaluates the one transcription of the profit
polynomials in :mod:`kuhn3.analytic_ev`: ``_partials`` and ``_profits`` run
once on the symbolic values that also print the catalog formulas
(:class:`kuhn3.analytic_ev._Expr`), and :func:`_lower` turns their trees
into the body of ``_rhs``, one local statement per float operation (a
``+``, ``-`` or ``*``; anything else is a ``TypeError``), with no calls,
loops or tuples between the clamp of the eleven coordinates it takes and
the tuple of fourteen rates it returns.  It performs the same IEEE
operations in the same order as the transcription run on floats, so it
gives the same bits, without the interpreter's cost of the calls.

The step loop ``integrate_core`` is written out from the tableau ``_A``,
``_B5`` and ``_EC``: the state, the seven stages and the error norm are
float locals, with no numpy call inside a step.  h is folded into each
tableau row once per attempted step, a stage state is y + (sum of
(a_l*h) * K_l) summed left to right over the nonzero entries of its row,
and the error norm is sqrt(sum q_i**2 / 14), also left to right.  Stages
two to six sum only the eleven coordinates that the right-hand side
reads; the profits are summed for the seventh stage (the new solution)
and the error norm alone.  The loop calls ``_rhs`` through this module's
globals, so a replacement of ``_stepper._rhs`` (a tracer, a counter) sees
every call.  Its back edge is a ``for`` over ``itertools.repeat``: on
CPython 3.11 a ``while`` back edge does not warm the specialising
interpreter, and a loop entered once would stay unspecialised.  Python
floats raise ``ZeroDivisionError`` where numpy gave inf or nan, so a zero
error scale (rtol = atol = 0) is caught and read as a non-finite norm.
The larger of |y| and |y_new| is NaN where either is, as with
``np.maximum``: y_new = y + (...) is NaN wherever y is.

The pair is First-Same-As-Last: the seventh stage is evaluated at the new
solution, so an accepted step hands it on as the next step's first stage,
and a rejected step keeps its first stage.  An attempted step thus makes
six right-hand-side calls, plus one before the first step.  The post-step
clip keeps this exact: the right-hand side reads only the adjustment
coordinates, through the same clamp, and never the profits, so it gives
the same bits before and after the clip.
"""

from __future__ import annotations

import itertools
import linecache
import math
import sys
import types

import numpy as np

from .analytic_ev import _Expr, _partials, _profits
from .game_model import FREQ_NAMES

STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1

#: names of the state coordinates in the generated code
_STATE = (*FREQ_NAMES, "p1", "p2", "p3")

# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# section II.5): 5th-order weights, 4th-order weights, stage coefficients
# (the last row is _B5: the seventh stage is taken at the new solution) and
# error weights
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    _B5[:6],
)
_EC = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))


def _compile(name: str, lines: list):
    """Compile generated source; tracebacks and ``inspect.getsource`` show
    its lines."""
    source = "\n".join(lines) + "\n"
    filename = f"<generated {__name__}.{name}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    return compile(source, filename, "exec")


def _lower(x, ops: dict) -> str:
    """The name of the float local holding ``x`` in the generated code.

    ``x`` is a tree of :class:`_Expr` nodes, lowered in post-order: a leaf
    gives its name, an int or float constant its ``repr``, and a ``+``,
    ``-`` or ``*`` node the result of one statement ``tN = a op b``, kept
    in ``ops`` (a dict from ``(a, op, b)`` to ``tN``) in the order Python
    built the nodes.  A node already lowered on the same operands gives the
    earlier result: it is the same IEEE operation on the same values, so it
    gives the same bits.  Anything else raises ``TypeError``.
    """
    if isinstance(x, _Expr):
        if not x.args:
            return x.op
        if x.op in ("+", "-", "*"):
            a, b = (_lower(v, ops) for v in x.args)
            return ops.setdefault((a, x.op, b), f"t{len(ops)}")
    elif type(x) in (int, float):
        return repr(x)
    what = x.op if isinstance(x, _Expr) else type(x).__name__
    raise TypeError("the generated right-hand side is straight-line "
                    f"+, - and * on int and float constants only, not {what}")


def _build_rhs():
    """Generate ``_rhs(<11 coordinates>, pot, k, f_max, logit)`` from the
    profit transcription: :func:`_partials` and :func:`_profits` run once on
    :class:`_Expr` leaves, and :func:`_lower` turns their trees into one
    straight-line function body between the clamp of each coordinate and
    the returned tuple of the fourteen rates."""
    f = [_Expr(n) for n in FREQ_NAMES]
    pot = _Expr("pot")
    g = _partials(f, pot)
    e = _profits(f, pot, g)
    ops: dict = {}
    g = [_lower(g_i, ops) for g_i in g]
    e = [_lower(e_i, ops) for e_i in e]
    ys = [f"y_{n}" for n in FREQ_NAMES]
    ks = [f"k_{n}" for n in FREQ_NAMES]
    rates = [f"{e_i} / 24.0" for e_i in e]
    lines = [
        f"def _rhs({', '.join(ys)}, pot, k, f_max, logit):",
        f"    {', '.join(ks)} = k",
        "    if logit:",
        "        lo = -f_max",
        *(f"        {n} = 1.0 / (1.0 + exp(f_max if {x} <= lo else "
          f"lo if {x} >= f_max else -{x}))" for n, x in zip(FREQ_NAMES, ys)),
        "    else:",
        *(f"        {n} = 0.0 if {x} <= 0.0 else 1.0 if {x} >= 1.0 else {x}"
          for n, x in zip(FREQ_NAMES, ys)),
        *(f"    {r} = {a} {op} {b}" for (a, op, b), r in ops.items()),
        "    if logit:",
        "        return ({})".format(", ".join(
            [f"{k_i} * {g_i}" for k_i, g_i in zip(ks, g)] + rates)),
        "    return ({})".format(", ".join(
            [f"{k_i} * {n} * (1 - {n}) * {g_i}"
             for k_i, n, g_i in zip(ks, FREQ_NAMES, g)] + rates)),
    ]
    namespace = {"__name__": __name__, "exp": math.exp}
    exec(_compile("_rhs", lines), namespace)
    return namespace["_rhs"]


_rhs = _build_rhs()


def _build_core():
    """Generate ``integrate_core`` from the tableau: one float local per
    state coordinate and stage rate, and one statement per stage sum."""
    n_adj = len(FREQ_NAMES)
    last = len(_A) - 1

    def names(prefix: str, n: int = len(_STATE)) -> str:
        return ", ".join(prefix + c for c in _STATE[:n])

    def fold(prefix: str, coeffs) -> tuple:
        # the nonzero coefficients as locals <prefix><l> = coefficient * h
        terms = [(f"{prefix}{l}", l) for l, a in enumerate(coeffs) if a]
        return terms, [f"{v} = {coeffs[l]!r} * h" for v, l in terms]

    def total(terms, c: str) -> str:
        return " + ".join(f"{v} * K{l}_{c}" for v, l in terms)

    body = []
    for i in range(1, len(_A)):
        terms, lines = fold(f"h{i}", _A[i])
        # stages 2..6 are read only at the eleven adjustment coordinates
        width = len(_STATE) if i == last else n_adj
        body += lines
        body += [f"z_{c} = y_{c} + ({total(terms, c)})"
                 for c in _STATE[:width]]
        body.append(f"{names(f'K{i}_')} = _rhs({names('z_', n_adj)}, "
                    "pot, k, f_max, logit)")
    terms, lines = fold("e", _EC)
    body += lines
    body.append("try:")
    for c in _STATE:
        body += [
            f"    a = y_{c} if y_{c} >= 0.0 else -y_{c}",
            f"    b = z_{c} if z_{c} >= 0.0 else -z_{c}",
            # b is NaN where a is, so this is NaN where either is
            f"    q_{c} = ({total(terms, c)}) / "
            "((a if a >= b else b) * rtol + atol)",
        ]
    body += [
        "    errn = sqrt(({}) / {!r})".format(
            " + ".join(f"q_{c} * q_{c}" for c in _STATE), float(len(_STATE))),
        "except ZeroDivisionError:",
        "    # a zero scale: numpy made this norm inf or nan",
        "    errn = nan",
        "if errn <= 1.0:",
        "    t = t_target if hit else t + h",
        *(f"    y_{c} = lo if z_{c} <= lo else hi if z_{c} >= hi else z_{c}"
          for c in _STATE[:n_adj]),
        *(f"    y_{c} = z_{c}" for c in _STATE[n_adj:]),
        *(f"    K0_{c} = K{last}_{c}" for c in _STATE),
        "    n_steps += 1",
        "    if hit:",
        f"        ys[isamp] = ({names('y_')})",
        "        isamp += 1",
    ]
    lines = [
        "def integrate_core(y0, pot, k, n_samples, dt_sample, rtol, atol, "
        "f_max, logit, h0, h_min):",
        '    """Integrate from t=0 sampling at i*dt_sample, i = 0..n_samples.',
        "",
        "    Returns (ys, n_steps, status, t_reached): ys has one row per",
        "    sample; on STATUS_STEP_UNDERFLOW only rows up to the last",
        "    completed sample are valid and t_reached reports how far the",
        "    integration got.  A step whose error norm is not finite is",
        "    rejected with the smallest step factor, so it ends in",
        "    STATUS_STEP_UNDERFLOW rather than looping.  So does a step below",
        "    the smallest normal double, where the step control rounds and a",
        "    step can stall at a few subnormals, whatever h_min.",
        '    """',
        f"    ys = np.empty((n_samples + 1, {len(_STATE)}))",
        "    ys[0] = y0",
        f"    {names('y_')} = ys[0].tolist()",
        "    # Python floats: a zero scale must raise ZeroDivisionError",
        "    pot, dt_sample, rtol, atol, f_max, h0, h_min = map(",
        "        float, (pot, dt_sample, rtol, atol, f_max, h0, h_min))",
        "    k = np.asarray(k, dtype=float).tolist()",
        "    lo, hi = (-f_max, f_max) if logit else (0.0, 1.0)",
        "    sqrt, isfinite, nan = math.sqrt, math.isfinite, math.nan",
        f"    {names('K0_')} = _rhs({names('y_', n_adj)}, pot, k, f_max, "
        "logit)",
        "    h_min = max(h_min, sys.float_info.min)",
        "    t = 0.0",
        "    h = h0",
        "    isamp = 1",
        "    n_steps = 0",
        "    for _ in itertools.repeat(None):",
        "        if isamp > n_samples:",
        "            return ys, n_steps, STATUS_OK, t",
        "        t_target = isamp * dt_sample",
        "        hit = False",
        "        if h >= t_target - t:",
        "            h = t_target - t",
        "            hit = True",
        *("        " + line for line in body),
        "        if not isfinite(errn):",
        "            fac = 0.2",
        "        elif errn > 0.0:",
        "            fac = min(5.0, max(0.2, 0.9 * errn ** (-0.2)))",
        "        else:",
        "            fac = 5.0",
        "        h *= fac",
        "        if h < h_min:",
        "            return ys[:isamp], n_steps, STATUS_STEP_UNDERFLOW, t",
    ]
    namespace: dict = {}
    exec(_compile("integrate_core", lines), namespace)
    # rebound to this module's globals, where every stage looks up _rhs
    return types.FunctionType(namespace["integrate_core"].__code__, globals())


integrate_core = _build_core()
