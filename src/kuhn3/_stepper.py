"""Adaptive Dormand-Prince 5(4) core for the repeated-play dynamics.

The 14-dimensional state is the eleven adjustment coordinates (either
log-odds F = log(f/(1-f)) or the frequencies f themselves) followed by the
three accumulated profits.  Steps are capped at the next output sample so
samples land exactly on the requested grid; log-odds coordinates are
clamped to +/- f_max after every accepted step (direct coordinates to
[0, 1]).

The right-hand side and the step loop are each written once, as a list
of statements (:func:`_rhs_body`, :func:`_loop`), and rendered twice: at
import as straight-line Python-float code (``inspect.getsource`` shows
either), and as C for the compiled core.

The right-hand side ``_rhs`` evaluates the one transcription of the profit
polynomials in :mod:`kuhn3.analytic_ev`: ``_partials`` and ``_profits`` run
once on the symbolic values that also print the catalog formulas
(:class:`kuhn3.analytic_ev._Expr`), and ``analytic_ev._lower`` (which
also writes ``gradient_cross``) turns their trees into the body of
``_rhs``, one local statement per float operation, with no calls, loops
or tuples between the clamp of the eleven coordinates it takes and
the tuple of fourteen rates it returns.  It performs the same IEEE
operations in the same order as the transcription run on floats, so it
gives the same bits, without the interpreter's cost of the calls.

The step loop is written out from the tableau ``_A``, ``_B5`` and
``_EC``: the state, the seven stages and the error norm are float locals,
with no numpy call inside a step.  h is folded into each tableau row once
per attempted step, a stage state is y + (sum of (a_l*h) * K_l) summed
left to right over the nonzero entries of its row, and the error norm is
sqrt(sum q_i**2 / 14), also left to right.  Stages two to six sum only the
eleven coordinates that the right-hand side reads; the profits are summed
for the seventh stage (the new solution) and the error norm alone.  The
larger of |y| and |y_new| is NaN where either is, as with ``np.maximum``:
y_new = y + (...) is NaN wherever y is.  The step controller's ``max`` and
``min`` are written as the comparisons Python's ``max`` and ``min`` make.

The pair is First-Same-As-Last: the seventh stage is evaluated at the new
solution, so an accepted step hands it on as the next step's first stage,
and a rejected step keeps its first stage.  An attempted step thus makes
six right-hand-side calls, plus one before the first step.  The post-step
clip keeps this exact: the right-hand side reads only the adjustment
coordinates, through the same clamp, and never the profits, so it gives
the same bits before and after the clip.

The two dialects.  A statement is a string and a block ``(keyword,
test, statements)``; :func:`_render` writes either in a :class:`_Dialect`,
which holds only what the languages spell apart: the statement terminator
and the declaration of a float local; the state, a tuple of fourteen
locals in Python and a ``state`` struct in C, also where the right-hand
side is called on it or returns its rates; the head and close of a block;
``**`` and ``pow``, ``not`` and ``!``; the loop head; a constant, an exact
hexadecimal literal in C; and the guard of a zero error scale.  Python
floats raise ``ZeroDivisionError`` where numpy gave inf or nan, so Python
catches it and reads it as a non-finite norm; in C, IEEE division gives
that norm with no guard.  What one language alone needs stays in its
prologue: the float conversion of the arguments and the allocation of
``ys`` in :func:`_build_core`, the includes, the ``state`` typedef and the
out-pointers in :func:`_c_source`.  The Python loop calls ``_rhs`` through
this module's globals, so a replacement of ``_stepper._rhs`` (a tracer, a
counter) sees every call.  Its loop head is a ``for`` over
``itertools.repeat``: on CPython 3.11 a ``while`` back edge does not warm
the specialising interpreter, and a loop entered once would stay
unspecialised.

:func:`compiled_core` builds the C of :func:`_c_source` on first use
with ``cc -O2 -ffp-contract=off -fPIC -shared``, without ``-ffast-math``
or ``-march``.  ``-ffp-contract=off`` forbids fusing a multiply and an
add into one rounding (FMA), so every operation is the IEEE double
operation that Python floats do, and ``exp``, ``pow`` and ``sqrt`` are
the libm calls that ``math`` makes: the compiled core gives the bits of
the Python loop.
The library goes into this package's bytecode-cache directory, beside the
``.pyc`` files and with their trust (``PYTHONPYCACHEPREFIX`` moves it
too), under a name carrying the hash of the source and the flags that a
hash-based ``.pyc`` would carry.  It is written to a temporary file,
moved into place and loaded with ``ctypes``; a build then removes the
libraries of other sources from that directory.

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

import contextlib
import functools
import importlib.util
import itertools
import math
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from .analytic_ev import _compile, _Expr, _lower, _partials, _profits
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
    """How generated code spells what Python and C spell apart.  A
    statement is a string and a block is ``(keyword, test, statements)``;
    :func:`_render` writes either in either language."""

    end: str           # the statement terminator
    let: str           # declares a float local assigned once in its scope
    var: Callable      # (stem, coordinate) -> "y_a1" or "y.a1"
    state: Callable    # stem -> the fourteen coordinates as one value
    rhs: Callable      # stem -> the call of the right-hand side on it
    rates: Callable    # rate expressions -> the statement returning them
    head: Callable     # (keyword, test or None) -> the line opening a block
    close: str         # the line closing a block, if any
    operand: Callable  # a name, or a constant's repr -> its spelling
    cond: Callable     # (test, a, b) -> a where test holds, else b
    pow: Callable      # (x, e) -> x to the power e
    not_: str          # the negation of a test
    loop: str          # the test of a for loop without end
    guard: Callable    # the error norm's statements -> what is run


def _names(stem: str, n: int = len(_STATE)) -> str:
    return ", ".join(f"{stem}_{c}" for c in _STATE[:n])


_PY = _Dialect(
    end="", let="", var="{}_{}".format, state=_names,
    rhs=lambda s: f"_rhs({_names(s, len(FREQ_NAMES))}, pot, k, f_max, logit)",
    rates=lambda xs: f"return ({', '.join(xs)})",
    head=lambda kw, test: f"{kw} {test}:" if test else f"{kw}:", close="",
    operand=str, cond="{1} if {0} else {2}".format, pow="{} ** ({})".format,
    not_="not ", loop="_ in itertools.repeat(None)",
    # Python floats raise where numpy gave inf or nan for a zero scale
    guard=lambda body: [("try", None, body),
                        ("except", "ZeroDivisionError", ["errn = nan"])])
# a constant as an exact hexadecimal literal; a zero scale needs no test,
# since x / 0 is inf or NaN by IEEE division
_C = _Dialect(
    end=";", let="const double ", var="{}.{}".format, state=str,
    rhs="rhs({}, pot, k, f_max, logit)".format,
    rates=lambda xs: f"return (state){{{', '.join(xs)}}}",
    head=lambda kw, test: (f"{'else if' if kw == 'elif' else kw} ({test}) {{"
                           if test else f"{kw} {{"), close="}",
    operand=lambda x: x if x.isidentifier() else float(x).hex(),
    cond="{0} ? {1} : {2}".format, pow="pow({}, {})".format, not_="!",
    loop=";;", guard=list)


def _render(d: _Dialect, items: list, depth: int = 1) -> list:
    """The lines of ``items`` in dialect ``d``, indented ``depth`` levels."""
    pad = "    " * depth
    lines = []
    for item in items:
        if isinstance(item, str):
            lines.append(pad + item + d.end)
            continue
        keyword, test, body = item
        lines += [pad + d.head(keyword, test), *_render(d, body, depth + 1)]
        if d.close:
            lines.append(pad + d.close)
    return lines


def _clamp(d: _Dialect, x: str, lo: str, hi: str) -> str:
    return d.cond(f"{x} <= {lo}", lo, d.cond(f"{x} >= {hi}", hi, x))


def _abs(d: _Dialect, x: str) -> str:
    return d.cond(f"{x} >= 0.0", x, f"-{x}")


def _rhs_body(d: _Dialect) -> list:
    """The right-hand side's statements in dialect ``d``:
    :func:`_partials` and :func:`_profits` run once on :class:`_Expr`
    leaves, and :func:`_lower`'s operations on their trees, between the
    clamp of each coordinate and the return of the fourteen rates.  The
    gains ``k_<name>`` are the caller's to bind."""
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
    return [
        ("if", "logit", [f"{d.let}lo = -f_max",
                         *(f"{n} = 1.0 / (1.0 + exp({x}))"
                           for n, x in zip(FREQ_NAMES, minus))]),
        ("else", None, [f"{n} = {_clamp(d, x, '0.0', '1.0')}"
                        for n, x in zip(FREQ_NAMES, ys)]),
        *(f"{d.let}{r} = {d.operand(a)} {op} {d.operand(b)}"
          for (a, op, b), r in ops.items()),
        ("if", "logit", [d.rates([f"k_{n} * {g_i}" for n, g_i
                                  in zip(FREQ_NAMES, g)] + rates)]),
        d.rates([f"k_{n} * {n} * (1 - {n}) * {g_i}"
                 for n, g_i in zip(FREQ_NAMES, g)] + rates),
    ]


def _build_rhs():
    """Generate ``_rhs(<11 coordinates>, pot, k, f_max, logit)`` from the
    profit transcription (:func:`_rhs_body`), as one straight-line Python
    function."""
    lines = [f"def {_PY.rhs('y')}:",
             f"    {', '.join(f'k_{n}' for n in FREQ_NAMES)} = k",
             *_render(_PY, _rhs_body(_PY))]
    return _compile(f"{__name__}._rhs", lines,
                    {"__name__": __name__, "exp": math.exp})


_rhs = _build_rhs()
#: the code of the generated right-hand side, which the compiled core
#: transcribes.  A replacement of ``_rhs`` runs other code; the function
#: itself is no mark, since a tracer rebinds every name that holds it.
_RHS_CODE = _rhs.__code__

#: the error norm, sqrt(sum q_i**2 / 14) left to right, in either language
_ERRN = "sqrt(({}) / {!r})".format(" + ".join(f"q_{c} * q_{c}"
                                              for c in _STATE),
                                   float(len(_STATE)))


def _loop(d: _Dialect) -> list:
    """The step loop's statements in dialect ``d``, from the tableau: the
    state is ``y``, a stage's state ``z`` and its rates ``K<i>``; the
    caller binds the arguments of ``integrate_core`` and ``ys``, whose row
    0 is ``y``, and reads ``ys``, ``n_steps``, ``status``, ``t`` and
    ``isamp`` (the rows written) after it."""
    n_adj, last = len(FREQ_NAMES), len(_A) - 1

    def fold(prefix: str, coeffs) -> tuple:
        # the nonzero coefficients as locals <prefix><l> = coefficient * h
        terms = [(f"{prefix}{l}", l) for l, a in enumerate(coeffs) if a]
        return terms, [f"{d.let}{v} = {d.operand(repr(coeffs[l]))} * h"
                       for v, l in terms]

    def total(terms, c: str) -> str:
        return " + ".join(f"{v} * {d.var(f'K{l}', c)}" for v, l in terms)

    step = []
    for i in range(1, len(_A)):
        terms, lets = fold(f"h{i}", _A[i])
        # stages 2..6 are read only at the eleven adjustment coordinates
        step += lets + [f"{d.var('z', c)} = {d.var('y', c)} + "
                        f"({total(terms, c)})"
                        for c in _STATE[:len(_STATE) if i == last else n_adj]]
        step.append(f"{d.state(f'K{i}')} = {d.rhs('z')}")
    terms, errors = fold("e", _EC)
    norm = []
    for c in _STATE:
        # b is NaN where a is, so the larger is NaN where either is
        norm += [f"a = {_abs(d, d.var('y', c))}",
                 f"b = {_abs(d, d.var('z', c))}",
                 f"{d.let}q_{c} = ({total(terms, c)}) / "
                 f"(({d.cond('a >= b', 'a', 'b')}) * rtol + atol)"]
    accept = [
        f"t = {d.cond('hit', 't_target', 't + h')}",
        *(f"{d.var('y', c)} = {_clamp(d, d.var('z', c), 'lo', 'hi')}"
          for c in _STATE[:n_adj]),
        *(f"{d.var('y', c)} = {d.var('z', c)}" for c in _STATE[n_adj:]),
        f"{d.state('K0')} = {d.state(f'K{last}')}",
        "n_steps += 1",
        ("if", "hit", [f"ys[isamp] = {d.state('y')}", "isamp += 1"]),
    ]
    return [
        f"{d.let}lo = {d.cond('logit', '-f_max', '0.0')}",
        f"{d.let}hi = {d.cond('logit', 'f_max', '1.0')}",
        f"{d.state('K0')} = {d.rhs('y')}",
        ("if", "DBL_MIN > h_min", ["h_min = DBL_MIN"]),
        "t = 0.0", "h = h0", "isamp = 1", "n_steps = 0",
        ("for", d.loop, [
            ("if", "isamp > n_samples", [f"status = {STATUS_OK}", "break"]),
            f"{d.let}t_target = isamp * dt_sample",
            "hit = 0",
            ("if", "h >= t_target - t", ["h = t_target - t", "hit = 1"]),
            *step, *errors, *d.guard(norm + [f"{d.let}errn = {_ERRN}"]),
            ("if", "errn <= 1.0", accept),
            ("if", f"{d.not_}isfinite(errn)", ["fac = 0.2"]),
            ("elif", "errn > 0.0", [
                f"fac = 0.9 * {d.pow('errn', '-0.2')}",
                f"fac = {d.cond('fac > 0.2', 'fac', '0.2')}",
                f"fac = {d.cond('fac < 5.0', 'fac', '5.0')}"]),
            ("else", None, ["fac = 5.0"]),
            "h *= fac",
            ("if", "h < h_min", [f"status = {STATUS_STEP_UNDERFLOW}",
                                 "break"]),
        ]),
    ]


def _build_core():
    """Generate the Python loop (:func:`_loop`): one float local per state
    coordinate and stage rate, and one statement per stage sum."""
    lines = [
        "def _python_core(y0, pot, k, n_samples, dt_sample, rtol, atol, "
        "f_max, logit, h0, h_min):",
        '    """The generated Python loop of :func:`integrate_core`."""',
        f"    ys = np.empty((n_samples + 1, {len(_STATE)}))",
        "    ys[0] = y0",
        f"    {_names('y')} = ys[0].tolist()",
        "    # Python floats: a zero scale must raise ZeroDivisionError",
        "    pot, dt_sample, rtol, atol, f_max, h0, h_min = map(",
        "        float, (pot, dt_sample, rtol, atol, f_max, h0, h_min))",
        "    k = np.asarray(k, dtype=float).tolist()",
        "    sqrt, isfinite, nan = math.sqrt, math.isfinite, math.nan",
        "    DBL_MIN = sys.float_info.min",
        *_render(_PY, _loop(_PY)),
        "    return ys[:isamp], n_steps, status, t",
    ]
    # defined in this module's globals, where every stage looks up _rhs
    return _compile(f"{__name__}._python_core", lines, globals())


_python_core = _build_core()


def _c_source() -> str:
    """The compiled twin of ``_rhs`` and ``_python_core``: the statements
    of :func:`_rhs_body` and :func:`_loop` as one C translation unit.

    ``integrate_core(ys, n_samples, pot, k, dt_sample, rtol, atol, f_max,
    logit, h0, h_min, &n_steps, &n_rows, &t)`` reads the initial state from
    ``ys[0]``, writes the samples after it and returns the status.
    """
    ks = ", ".join(f"k_{n} = k[{i}]" for i, n in enumerate(FREQ_NAMES))
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
        *_render(_C, _rhs_body(_C)),
        "}",
        "",
        "int integrate_core(state *ys, int64_t n_samples, double pot,",
        "                   const double *k, double dt_sample, double rtol,",
        "                   double atol, double f_max, int logit, double h0,",
        "                   double h_min, int64_t *n_steps_out,",
        "                   int64_t *n_rows_out, double *t_out)",
        "{",
        "    state y = ys[0], z = y, "
        + ", ".join(f"K{i}" for i in range(len(_A))) + ";",
        "    double t, h, fac, a, b;",
        "    int64_t isamp, n_steps;",
        "    int hit, status;",
        *_render(_C, _loop(_C)),
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
    file moved into place, and remove the libraries built from other
    sources beside it.  A compiler that fails, or runs past
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
    # the libraries of earlier sources, never loaded again; another build's
    # mkstemp temporary has 8 random characters, not 16 hex digits
    for name in os.listdir(cache):
        if (re.fullmatch(r"_stepper\.[0-9a-f]{16}\.so", name)
                and name != os.path.basename(path)):
            with contextlib.suppress(OSError):  # gone already, or not ours
                os.unlink(os.path.join(cache, name))


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
