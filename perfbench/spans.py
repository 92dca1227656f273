"""Span tracing of kuhn3's layers from outside the package.

:class:`Tracer` replaces the functions that each kuhn3 module offers to the
others with wrappers that record one span per call: layer-qualified name,
start, end and parent span.  A wrapper is installed wherever the module
namespaces hold the original object, so ``from .x import f`` bindings are
covered too, and removed again by :meth:`Tracer.uninstall`.  A name that no
longer exists is skipped and the metrics that need it are reported as
missing.

Parents come from a per-thread stack.  A span opened on a worker thread
with an empty stack takes as parent the innermost open span of the main
thread (the call that is waiting for the worker), so the rows of a
threaded sweep hang under the sweep that caused them.

Self time is a span's duration minus the part of its interval covered by
the union of its children, so overlapping child spans from worker threads
are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
from time import perf_counter

STEP_STAGES = 7  # RHS evaluations per attempted Dormand-Prince step

#: (module, attribute) pairs wrapped in a traced run.  Attributes may be
#: ``Class.method``.  Validators that cost less than a span (check_pot,
#: StrategyProfile methods) are left out.
TRACED = (
    ("_stepper", "_rhs"),
    ("_stepper", "integrate_core"),
    ("dynamics", "integrate"),
    ("dynamics", "integrate_direct"),
    ("dynamics", "classify"),
    ("dynamics", "average_profit_rate"),
    ("dynamics", "random_initial_profile"),
    ("dynamics", "gains_array"),
    ("dynamics", "Trajectory.to_csv"),
    ("dynamics", "Trajectory.to_json"),
    ("analytic_ev", "expected_profit"),
    ("analytic_ev", "expected_profit_scaled"),
    ("analytic_ev", "gradient"),
    ("analytic_ev", "gradient_scaled"),
    ("analytic_ev", "gradient_scaled_array"),
    ("analytic_ev", "gradient_cross"),
    ("game_model", "expected_profit_bruteforce"),
    ("catalog", "instantiate"),
    ("catalog", "solutions_for_pot"),
    ("catalog", "free_parameters"),
    ("catalog", "validity_range"),
    ("catalog", "equilibrium_profit"),
    ("verify", "best_response_check"),
    ("verify", "exploitability"),
    ("stability", "jacobian"),
    ("stability", "eigenvalues"),
    ("stability", "classify_equilibrium"),
    ("cli", "main"),
    ("cli", "_sweep_rows_frequencies"),
    ("cli", "_sweep_rows_profits"),
    ("cli", "_sweep_rows_stability"),
    ("cli", "_sweep_rows_classification"),
)

MODULES = ("_stepper", "dynamics", "analytic_ev", "game_model", "catalog",
           "verify", "stability", "cli")

# span record fields
NAME, PARENT, START, END, NOTE = range(5)


def _integrate_core_note(result):
    ys, n_steps = result[0], result[1]
    return int(n_steps), len(ys) - 1


NOTES = {"_stepper.integrate_core": _integrate_core_note}


class Tracer:
    """Installs span-recording wrappers on ``TRACED`` and keeps the spans."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._installed: list = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            rec = [name, parent, perf_counter(), 0.0, None]
            tracer.spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"kuhn3.{m}") for m in MODULES}
        namespaces = [importlib.import_module("kuhn3"), *mods.values()]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            owner = mods[mod_name]
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            targets = [(owner, leaf)]
            if not path:
                targets += [(ns, key) for ns in namespaces
                            for key, val in vars(ns).items()
                            if val is original and (ns, key) != (owner, leaf)]
            for ns, key in targets:
                setattr(ns, key, wrapper)
                self._installed.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._installed):
            setattr(ns, key, original)
        self._installed.clear()


# -- derived per-layer metrics -------------------------------------------------

def _union_length(intervals: list, lo: float, hi: float) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanSummary:
    """Per-name aggregates of a list of span records."""

    def __init__(self, spans: list):
        children: dict = {}
        for rec in spans:
            if rec[PARENT] is not None:
                children.setdefault(id(rec[PARENT]), []).append(rec)
        self.count: dict = {}
        self.boundary_count: dict = {}
        self.total: dict = {}
        self.boundary_total: dict = {}
        self.self_total: dict = {}
        self.child_count: dict = {}
        self.notes: dict = {}
        for rec in spans:
            name = rec[NAME]
            dur = rec[END] - rec[START]
            kids = children.get(id(rec), ())
            self_t = dur - _union_length([(k[START], k[END]) for k in kids],
                                         rec[START], rec[END])
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_total[name] = self.self_total.get(name, 0.0) + self_t
            parent = rec[PARENT]
            if parent is None or _layer(parent[NAME]) != _layer(name):
                self.boundary_count[name] = self.boundary_count.get(name, 0) + 1
                self.boundary_total[name] = (
                    self.boundary_total.get(name, 0.0) + dur)
            for k in kids:
                key = (name, k[NAME])
                self.child_count[key] = self.child_count.get(key, 0) + 1
            if rec[NOTE] is not None:
                self.notes.setdefault(name, []).append(rec[NOTE])

    def layer(self, layer: str, table: dict) -> float:
        return sum(v for k, v in table.items() if _layer(k) == layer)


#: per-layer metric -> (unit, traced names it needs)
PER_LAYER = {
    "stepper.rhs_calls": ("count", ("_stepper._rhs", "_stepper.integrate_core")),
    "stepper.rhs_us": ("us", ("_stepper._rhs",)),
    "stepper.steps_accepted": ("count", ("_stepper.integrate_core",)),
    "stepper.steps_rejected": ("count", ("_stepper._rhs", "_stepper.integrate_core")),
    "stepper.steps_per_sample": ("ratio", ("_stepper.integrate_core",)),
    "stepper.step_us": ("us", ("_stepper._rhs", "_stepper.integrate_core")),
    "dynamics.integrate_self_s": ("s", ("dynamics.integrate",)),
    "dynamics.classify_s": ("s", ("dynamics.classify",)),
    "dynamics.classify_calls": ("count", ("dynamics.classify",)),
    "dynamics.to_csv_s": ("s", ("dynamics.Trajectory.to_csv",)),
    "cli.self_s": ("s", ("cli.main",)),
    "cli.row_overlap": ("ratio", ("cli.main", "cli._sweep_rows_classification")),
    "analytic_ev.calls": ("count", ("analytic_ev.expected_profit_scaled",)),
    "analytic_ev.us_per_call": ("us", ("analytic_ev.expected_profit_scaled",)),
    "game_model.tree_walk_calls": ("count", ("game_model.expected_profit_bruteforce",)),
    "game_model.tree_walk_us": ("us", ("game_model.expected_profit_bruteforce",)),
    "catalog.instantiate_calls": ("count", ("catalog.instantiate",)),
    "catalog.instantiate_us": ("us", ("catalog.instantiate",)),
    "verify.best_response_check_us": ("us", ("verify.best_response_check",)),
    "verify.exploitability_us": ("us", ("verify.exploitability",)),
    "stability.jacobian_us": ("us", ("stability.jacobian",)),
    "stability.eigenvalues_us": ("us", ("stability.eigenvalues",)),
    "stability.classify_equilibrium_us": ("us", ("stability.classify_equilibrium",)),
    "trace.overhead_s": ("s", ()),
}


def _mean(total: float, n: int, scale: float = 1.0) -> float:
    return scale * total / n if n else 0.0


def per_layer_metrics(spans: list, rounds: int, missing: list,
                      traced_round_s: list, untraced_round_s: list) -> tuple:
    """(metrics, missing metric names) from the spans of ``rounds``
    identical traced rounds.  Counts and times are per round; ``_us``
    metrics are per call.  A layer the workload never enters reads 0."""
    s = SpanSummary(spans)
    c = s.count
    core = "_stepper.integrate_core"
    rhs_in_core = s.child_count.get((core, "_stepper._rhs"), 0)
    accepted = sum(n for n, _ in s.notes.get(core, ()))
    samples = sum(m for _, m in s.notes.get(core, ()))
    attempted = rhs_in_core / STEP_STAGES
    rows = [name for name in s.total if name.startswith("cli._sweep_rows_")]
    sweeps = {id(rec[PARENT]): rec[PARENT] for rec in spans
              if rec[NAME] in rows and rec[PARENT] is not None}
    sweep_s = sum(rec[END] - rec[START] for rec in sweeps.values())
    values = {
        "stepper.rhs_calls": c.get("_stepper._rhs", 0) / rounds,
        "stepper.rhs_us": _mean(s.total.get("_stepper._rhs", 0.0),
                                 c.get("_stepper._rhs", 0), 1e6),
        "stepper.steps_accepted": accepted / rounds,
        "stepper.steps_rejected": (attempted - accepted) / rounds,
        "stepper.steps_per_sample": _mean(accepted, samples),
        "stepper.step_us": _mean(s.self_total.get(core, 0.0), attempted, 1e6),
        "dynamics.integrate_self_s":
            s.self_total.get("dynamics.integrate", 0.0) / rounds,
        "dynamics.classify_s": s.total.get("dynamics.classify", 0.0) / rounds,
        "dynamics.classify_calls": c.get("dynamics.classify", 0) / rounds,
        "dynamics.to_csv_s":
            s.total.get("dynamics.Trajectory.to_csv", 0.0) / rounds,
        "cli.self_s": s.layer("cli", s.self_total) / rounds,
        "cli.row_overlap": _mean(sum(s.total[r] for r in rows), sweep_s),
        "analytic_ev.calls": s.layer("analytic_ev", s.boundary_count) / rounds,
        "analytic_ev.us_per_call": _mean(
            s.layer("analytic_ev", s.boundary_total),
            s.layer("analytic_ev", s.boundary_count), 1e6),
        "game_model.tree_walk_calls":
            c.get("game_model.expected_profit_bruteforce", 0) / rounds,
        "game_model.tree_walk_us": _mean(
            s.total.get("game_model.expected_profit_bruteforce", 0.0),
            c.get("game_model.expected_profit_bruteforce", 0), 1e6),
        "catalog.instantiate_calls":
            s.boundary_count.get("catalog.instantiate", 0) / rounds,
        "catalog.instantiate_us": _mean(
            s.boundary_total.get("catalog.instantiate", 0.0),
            s.boundary_count.get("catalog.instantiate", 0), 1e6),
        "trace.overhead_s": (statistics.median(traced_round_s)
                             - statistics.median(untraced_round_s)),
    }
    for metric, name in (
            ("verify.best_response_check_us", "verify.best_response_check"),
            ("verify.exploitability_us", "verify.exploitability"),
            ("stability.jacobian_us", "stability.jacobian"),
            ("stability.eigenvalues_us", "stability.eigenvalues"),
            ("stability.classify_equilibrium_us",
             "stability.classify_equilibrium")):
        values[metric] = _mean(s.self_total.get(name, 0.0), c.get(name, 0), 1e6)

    gone = set(missing)
    if c.get(core) and not rhs_in_core:
        # a compiled stepper calls its own RHS, which no wrapper sees
        gone.add("_stepper._rhs")
    out, absent = {}, []
    for metric, (unit, needs) in PER_LAYER.items():
        if gone.intersection(needs):
            absent.append(metric)
        else:
            out[metric] = {"value": values[metric], "unit": unit}
    return out, absent
