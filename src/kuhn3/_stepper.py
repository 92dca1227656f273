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

The step loop ``_python_core`` is written out from the tableau ``_A``,
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

The compiled twin.  :func:`_c_source` writes the same right-hand side and
step loop as one C translation unit.  Its right-hand side is a ``static
inline`` function whose statements are the ``ops`` that :func:`_lower`
fills for ``_rhs``; its step loop comes from the same folded rows of
``_A`` and ``_EC``, with the same left-to-right sums, ternaries, FSAL copy,
clamp and step controller.  The two differ only in spelling
(:class:`_Dialect`): in C a coordinate is a field of a ``state`` struct and
a constant an exact hexadecimal literal, ``max``/``min`` are written as
the comparisons Python makes, and a zero error scale gives a non-finite
norm by IEEE division rather than by a caught exception.
:func:`compiled_core` builds it on first use with ``cc -O2
-ffp-contract=off -fPIC -shared``, without ``-ffast-math`` or ``-march``.
``-ffp-contract=off`` forbids fusing a multiply and an add into one
rounding (FMA), so every operation is the IEEE double operation that
Python floats do, and ``exp``, ``pow`` and ``sqrt`` are the libm calls
that ``math`` makes: the compiled core gives the bits of the Python loop.
The library goes into this package's bytecode-cache directory, beside the
``.pyc`` files and with their trust (``PYTHONPYCACHEPREFIX`` moves it
too), under a name carrying the hash of the source and the flags that a
hash-based ``.pyc`` would carry.  It is written to a temporary file,
moved into place and loaded with ``ctypes``.

:func:`integrate_core` dispatches.  The compiled core runs when it loaded
and ``_rhs`` is still the generated function.  Otherwise the Python loop
runs: no ``cc`` on ``PATH``, a cache directory that cannot be written, a
build that fails or outlasts ``_CC_TIMEOUT_S``, a library that does not
load, or a replaced ``_rhs`` (a tracer or a counter sees every call only
in the Python loop).  A build is tried at most once per process and
writes nothing to stdout or stderr.  Arguments on which the Python loop
raises (a gain vector that is not eleven long, a clamp whose ``exp``
overflows) also go to the Python loop, so they raise as before.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import linecache
import math
import os
import sys
import types
from typing import Callable, NamedTuple

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

#: flags of the compiled core: no contraction into FMA, no fast math
_CC_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
#: seconds a build may take before the Python loop is used instead
_CC_TIMEOUT_S = 60.0
#: largest log-odds clamp whose exp is finite: beyond it Python's exp raises
_EXP_ARG_MAX = math.log(sys.float_info.max)


class _Dialect(NamedTuple):
    """How generated code spells a state coordinate, an operand and a
    choice.  The Python loop and its compiled twin differ in these alone
    where they do arithmetic."""

    var: Callable      # (stem, coordinate) -> "y_a1" or "y.a1"
    operand: Callable  # a name, or a constant's repr -> its spelling
    cond: Callable     # (test, a, b) -> a where test holds, else b


_PY = _Dialect(var="{}_{}".format, operand=str,
               cond="{1} if {0} else {2}".format)
# a constant as an exact hexadecimal literal
_C = _Dialect(var="{}.{}".format,
              operand=lambda x: x if x.isidentifier() else float(x).hex(),
              cond="{0} ? {1} : {2}".format)


def _clamp(d: _Dialect, x: str, lo: str, hi: str) -> str:
    return d.cond(f"{x} <= {lo}", lo, d.cond(f"{x} >= {hi}", hi, x))


def _abs(d: _Dialect, x: str) -> str:
    return d.cond(f"{x} >= 0.0", x, f"-{x}")


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


class _RhsParts(NamedTuple):
    """The right-hand side in one dialect; locals ``lo`` = -f_max and the
    gains ``k_<name>`` are the caller's to bind."""

    logit: list   # clamped frequency of each coordinate, log-odds chart
    direct: list  # the same, direct chart
    temps: list   # (tN, "a op b") in evaluation order
    logit_rates: list
    direct_rates: list


def _rhs_parts(d: _Dialect) -> _RhsParts:
    """:func:`_partials` and :func:`_profits` run once on :class:`_Expr`
    leaves and :func:`_lower`'s statements, spelled in dialect ``d``."""
    f = [_Expr(n) for n in FREQ_NAMES]
    pot = _Expr("pot")
    g = _partials(f, pot)
    e = _profits(f, pot, g)
    ops: dict = {}
    g = [d.operand(_lower(g_i, ops)) for g_i in g]
    e = [d.operand(_lower(e_i, ops)) for e_i in e]
    ys = [d.var("y", n) for n in FREQ_NAMES]
    # exp(-x) of x clamped to [lo, f_max], the clamp taken on -x
    minus = [d.cond(f"{x} <= lo", "f_max", d.cond(f"{x} >= f_max", "lo",
                                                  f"-{x}")) for x in ys]
    rates = [f"{e_i} / 24.0" for e_i in e]
    return _RhsParts(
        logit=[f"1.0 / (1.0 + exp({x}))" for x in minus],
        direct=[_clamp(d, x, "0.0", "1.0") for x in ys],
        temps=[(r, f"{d.operand(a)} {op} {d.operand(b)}")
               for (a, op, b), r in ops.items()],
        logit_rates=[f"k_{n} * {g_i}" for n, g_i in zip(FREQ_NAMES, g)]
        + rates,
        direct_rates=[f"k_{n} * {n} * (1 - {n}) * {g_i}"
                      for n, g_i in zip(FREQ_NAMES, g)] + rates)


def _build_rhs():
    """Generate ``_rhs(<11 coordinates>, pot, k, f_max, logit)`` from the
    profit transcription: :func:`_partials` and :func:`_profits` run once on
    :class:`_Expr` leaves, and :func:`_lower` turns their trees into one
    straight-line function body between the clamp of each coordinate and
    the returned tuple of the fourteen rates."""
    rhs = _rhs_parts(_PY)
    ys = [f"y_{n}" for n in FREQ_NAMES]
    ks = [f"k_{n}" for n in FREQ_NAMES]
    lines = [
        f"def _rhs({', '.join(ys)}, pot, k, f_max, logit):",
        f"    {', '.join(ks)} = k",
        "    if logit:",
        "        lo = -f_max",
        *(f"        {n} = {x}" for n, x in zip(FREQ_NAMES, rhs.logit)),
        "    else:",
        *(f"        {n} = {x}" for n, x in zip(FREQ_NAMES, rhs.direct)),
        *(f"    {r} = {x}" for r, x in rhs.temps),
        "    if logit:",
        f"        return ({', '.join(rhs.logit_rates)})",
        f"    return ({', '.join(rhs.direct_rates)})",
    ]
    namespace = {"__name__": __name__, "exp": math.exp}
    exec(_compile("_rhs", lines), namespace)
    return namespace["_rhs"]


_rhs = _build_rhs()
#: the code of the generated right-hand side, which the compiled core
#: transcribes.  A replacement of ``_rhs`` runs other code; the function
#: itself is no mark, since a tracer rebinds every name that holds it.
_RHS_CODE = _rhs.__code__


class _StepParts(NamedTuple):
    """One attempted step's arithmetic in one dialect, without the control
    flow around it."""

    stages: list  # stages two to seven: (target, expression) pairs that
                  # leave the state the stage's rate is taken at in z
    errors: list  # (target, expression) pairs: the error weights times h
    err: list     # per coordinate: (error sum, |y|, |z|)
    scale: str    # the error scale of locals a = |y| and b = |z|
    accept: list  # per adjustment coordinate: z clamped


def _step_parts(d: _Dialect) -> _StepParts:
    """The arithmetic of one attempted step from the tableau, spelled in
    dialect ``d``."""
    n_adj = len(FREQ_NAMES)
    last = len(_A) - 1

    def fold(prefix: str, coeffs) -> tuple:
        # the nonzero coefficients as locals <prefix><l> = coefficient * h
        terms = [(f"{prefix}{l}", l) for l, a in enumerate(coeffs) if a]
        return terms, [(v, f"{d.operand(repr(coeffs[l]))} * h")
                       for v, l in terms]

    def total(terms, c: str) -> str:
        return " + ".join(f"{v} * {d.var(f'K{l}', c)}" for v, l in terms)

    stages = []
    for i in range(1, len(_A)):
        terms, lets = fold(f"h{i}", _A[i])
        # stages 2..6 are read only at the eleven adjustment coordinates
        width = len(_STATE) if i == last else n_adj
        stages.append(lets + [
            (d.var("z", c), f"{d.var('y', c)} + ({total(terms, c)})")
            for c in _STATE[:width]])
    terms, errors = fold("e", _EC)
    err = [(total(terms, c), _abs(d, d.var("y", c)), _abs(d, d.var("z", c)))
           for c in _STATE]
    # b is NaN where a is, so this is NaN where either is
    scale = f"({d.cond('a >= b', 'a', 'b')}) * rtol + atol"
    accept = [_clamp(d, d.var("z", c), "lo", "hi") for c in _STATE[:n_adj]]
    return _StepParts(stages, errors, err, scale, accept)


#: the error norm, sqrt(sum q_i**2 / 14) left to right, in either language
_ERRN = "sqrt(({}) / {!r})".format(" + ".join(f"q_{c} * q_{c}"
                                              for c in _STATE),
                                   float(len(_STATE)))


def _build_core():
    """Generate the Python loop from the tableau: one float local per
    state coordinate and stage rate, and one statement per stage sum."""
    n_adj = len(FREQ_NAMES)
    step = _step_parts(_PY)

    def names(prefix: str, n: int = len(_STATE)) -> str:
        return ", ".join(prefix + c for c in _STATE[:n])

    body = []
    for i, lets in enumerate(step.stages, 1):
        body += [f"{v} = {x}" for v, x in lets]
        body.append(f"{names(f'K{i}_')} = _rhs({names('z_', n_adj)}, "
                    "pot, k, f_max, logit)")
    body += [f"{v} = {x}" for v, x in step.errors]
    body.append("try:")
    for c, (err, a, b) in zip(_STATE, step.err):
        body += [f"    a = {a}", f"    b = {b}",
                 f"    q_{c} = ({err}) / ({step.scale})"]
    body += [
        f"    errn = {_ERRN}",
        "except ZeroDivisionError:",
        "    # a zero scale: numpy made this norm inf or nan",
        "    errn = nan",
        "if errn <= 1.0:",
        "    t = t_target if hit else t + h",
        *(f"    y_{c} = {x}" for c, x in zip(_STATE, step.accept)),
        *(f"    y_{c} = z_{c}" for c in _STATE[n_adj:]),
        *(f"    K0_{c} = K{len(step.stages)}_{c}" for c in _STATE),
        "    n_steps += 1",
        "    if hit:",
        f"        ys[isamp] = ({names('y_')})",
        "        isamp += 1",
    ]
    lines = [
        "def _python_core(y0, pot, k, n_samples, dt_sample, rtol, atol, "
        "f_max, logit, h0, h_min):",
        '    """The generated Python loop of :func:`integrate_core`."""',
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
    exec(_compile("_python_core", lines), namespace)
    # rebound to this module's globals, where every stage looks up _rhs
    return types.FunctionType(namespace["_python_core"].__code__, globals())


_python_core = _build_core()


def _c_source() -> str:
    """The compiled twin of ``_rhs`` and ``_python_core`` as one C
    translation unit, from the same parts in the C dialect.

    ``integrate_core(ys, n_samples, pot, k, dt_sample, rtol, atol, f_max,
    logit, h0, h_min, &n_steps, &n_rows, &t)`` reads the initial state from
    ``ys[0]``, writes the samples after it and returns the status.  Python's
    ``max(x, m)`` keeps x unless m > x and ``min(x, m)`` unless m < x.  A
    zero error scale needs no test: x / 0 is inf or NaN, so the norm is not
    finite, which is what the Python loop makes of its
    ``ZeroDivisionError``.
    """
    n_adj = len(FREQ_NAMES)
    rhs = _rhs_parts(_C)
    step = _step_parts(_C)
    ks = ", ".join(f"k_{n} = k[{i}]" for i, n in enumerate(FREQ_NAMES))
    body = []
    for i, lets in enumerate(step.stages, 1):
        body += [f"const double {v} = {x};" if v.isidentifier()
                 else f"{v} = {x};" for v, x in lets]
        body.append(f"K{i} = rhs(z, pot, k, f_max, logit);")
    body += [f"const double {v} = {x};" for v, x in step.errors]
    for c, (err, a, b) in zip(_STATE, step.err):
        body += [f"a = {a};", f"b = {b};",
                 f"q_{c} = ({err}) / ({step.scale});"]
    body += [
        f"errn = {_ERRN};",
        "if (errn <= 1.0) {",
        "    t = hit ? t_target : t + h;",
        *(f"    y.{c} = {x};" for c, x in zip(_STATE, step.accept)),
        *(f"    y.{c} = z.{c};" for c in _STATE[n_adj:]),
        f"    K0 = K{len(step.stages)};",
        "    n_steps += 1;",
        "    if (hit) {",
        "        ys[isamp] = y;",
        "        isamp += 1;",
        "    }",
        "}",
    ]
    lines = [
        f"/* Generated by {__name__} from the profit transcription and the",
        "   Dormand-Prince tableau: the compiled twin of its Python loop. */",
        "#include <float.h>",
        "#include <math.h>",
        "#include <stdint.h>",
        "",
        f"typedef struct {{ double {', '.join(_STATE)}; }} state;",
        f"_Static_assert(sizeof(state) == {len(_STATE)} * sizeof(double),",
        '               "a state is one row of ys");',
        "",
        "static inline state rhs(state y, double pot, const double *k,",
        "                        double f_max, int logit)",
        "{",
        f"    const double {ks};",
        f"    double {', '.join(FREQ_NAMES)};",
        "    if (logit) {",
        "        const double lo = -f_max;",
        *(f"        {n} = {x};" for n, x in zip(FREQ_NAMES, rhs.logit)),
        "    } else {",
        *(f"        {n} = {x};" for n, x in zip(FREQ_NAMES, rhs.direct)),
        "    }",
        *(f"    const double {r} = {x};" for r, x in rhs.temps),
        "    if (logit)",
        f"        return (state){{{', '.join(rhs.logit_rates)}}};",
        f"    return (state){{{', '.join(rhs.direct_rates)}}};",
        "}",
        "",
        "int integrate_core(state *ys, int64_t n_samples, double pot,",
        "                   const double *k, double dt_sample, double rtol,",
        "                   double atol, double f_max, int logit, double h0,",
        "                   double h_min, int64_t *n_steps_out,",
        "                   int64_t *n_rows_out, double *t_out)",
        "{",
        "    const double lo = logit ? -f_max : 0.0;",
        "    const double hi = logit ? f_max : 1.0;",
        "    state y = ys[0], z = y, "
        + ", ".join(f"K{i}" for i in range(len(_A))) + ";",
        f"    double {', '.join(f'q_{c}' for c in _STATE)};",
        "    double t = 0.0, h = h0, t_target, errn, fac, a, b;",
        "    int64_t isamp = 1, n_steps = 0;",
        "    int hit, status;",
        "    K0 = rhs(y, pot, k, f_max, logit);",
        "    if (DBL_MIN > h_min)",
        "        h_min = DBL_MIN;",
        "    for (;;) {",
        "        if (isamp > n_samples) {",
        f"            status = {STATUS_OK};",
        "            break;",
        "        }",
        "        t_target = (double)isamp * dt_sample;",
        "        hit = 0;",
        "        if (h >= t_target - t) {",
        "            h = t_target - t;",
        "            hit = 1;",
        "        }",
        *("        " + line for line in body),
        "        if (!isfinite(errn)) {",
        "            fac = 0.2;",
        "        } else if (errn > 0.0) {",
        "            fac = 0.9 * pow(errn, -0.2);",
        "            fac = fac > 0.2 ? fac : 0.2;",
        "            fac = fac < 5.0 ? fac : 5.0;",
        "        } else {",
        "            fac = 5.0;",
        "        }",
        "        h *= fac;",
        "        if (h < h_min) {",
        f"            status = {STATUS_STEP_UNDERFLOW};",
        "            break;",
        "        }",
        "    }",
        "    *n_steps_out = n_steps;",
        "    *n_rows_out = isamp;",
        "    *t_out = t;",
        "    return status;",
        "}",
    ]
    return "\n".join(lines) + "\n"


def _library_path(source: str) -> str:
    """Where the library built from ``source`` is kept: this module's
    bytecode-cache directory, under the hash that a hash-based ``.pyc``
    carries, of the source and the flags.  (sha256 from ``hashlib`` would
    map OpenSSL, 3.4 MB of resident memory, into every process that loads
    the core.)"""
    key = importlib.util.source_hash("\0".join((source, *_CC_FLAGS)).encode())
    cache = os.path.dirname(importlib.util.cache_from_source(__file__))
    return os.path.join(cache, f"_stepper.{key.hex()}.so")


def _build(cc: str, source: str, path: str) -> None:
    """Compile ``source`` into the library ``path``, through a temporary
    file moved into place.  A compiler that fails, or runs past
    ``_CC_TIMEOUT_S``, is an ``OSError``; its output is captured, never
    printed."""
    import subprocess
    import tempfile

    cache = os.path.dirname(path)
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(".so", "_stepper.", cache)
    os.close(fd)
    try:
        subprocess.run([cc, *_CC_FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                       input=source.encode(), capture_output=True,
                       timeout=_CC_TIMEOUT_S, check=True)
        # readable by whoever may read the source, as importlib makes .pyc
        os.chmod(tmp, os.stat(__file__).st_mode & 0o777)
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot build the compiled core: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def compiled_core():
    """The compiled core as a function of ``integrate_core``'s arguments,
    built on a cold cache and loaded once per process, or None where it
    cannot be had (see the module docstring); a failure is not retried."""
    import ctypes
    import shutil

    cc = shutil.which("cc")
    if cc is None:
        return None
    source = _c_source()
    try:
        path = _library_path(source)
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # not built yet, or not a library
            _build(cc, source, path)
            lib = ctypes.CDLL(path)
    except (OSError, NotImplementedError):
        return None

    fn = lib.integrate_core
    array = functools.partial(np.ctypeslib.ndpointer, np.float64,
                              flags="C_CONTIGUOUS")
    c_int64_p = ctypes.POINTER(ctypes.c_int64)
    fn.argtypes = [
        array(ndim=2, shape=None), ctypes.c_int64, ctypes.c_double,
        array(shape=(len(FREQ_NAMES),)), *[ctypes.c_double] * 4,
        ctypes.c_int, ctypes.c_double, ctypes.c_double, c_int64_p,
        c_int64_p, ctypes.POINTER(ctypes.c_double)]
    fn.restype = ctypes.c_int

    def run(y0, pot, k, n_samples, dt_sample, rtol, atol, f_max, logit, h0,
            h_min):
        ys = np.empty((n_samples + 1, len(_STATE)))
        ys[0] = y0
        gains = np.ascontiguousarray(k, dtype=float)
        if gains.shape != (len(FREQ_NAMES),) or (
                logit and not abs(float(f_max)) <= _EXP_ARG_MAX):
            return _python_core(y0, pot, k, n_samples, dt_sample, rtol, atol,
                                f_max, logit, h0, h_min)
        n_steps, n_rows, t = ctypes.c_int64(), ctypes.c_int64(), \
            ctypes.c_double()
        status = fn(ys, len(ys) - 1, float(pot), gains, float(dt_sample),
                    float(rtol), float(atol), float(f_max), bool(logit),
                    float(h0), float(h_min), n_steps, n_rows, t)
        if status != STATUS_OK:
            ys = ys[:n_rows.value]
        return ys, n_steps.value, status, t.value

    return run


def integrate_core(y0, pot, k, n_samples, dt_sample, rtol, atol, f_max,
                   logit, h0, h_min):
    """Integrate from t=0 sampling at i*dt_sample, i = 0..n_samples.

    Returns (ys, n_steps, status, t_reached): ys has one row per
    sample; on STATUS_STEP_UNDERFLOW only rows up to the last
    completed sample are valid and t_reached reports how far the
    integration got.  A step whose error norm is not finite is
    rejected with the smallest step factor, so it ends in
    STATUS_STEP_UNDERFLOW rather than looping.  So does a step below
    the smallest normal double, where the step control rounds and a
    step can stall at a few subnormals, whatever h_min.

    Runs the compiled core where it loaded and ``_rhs`` is the generated
    one, else the generated Python loop; both give the same bits.
    """
    generated = getattr(_rhs, "__code__", None) is _RHS_CODE
    core = compiled_core() if generated else None
    return (core or _python_core)(y0, pot, k, n_samples, dt_sample, rtol,
                                  atol, f_max, logit, h0, h_min)
