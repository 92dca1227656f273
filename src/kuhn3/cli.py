"""Command-line interface.

Subcommands:

* ``equilibria`` - list the solution families valid at a pot size with
  their instantiated frequencies and scaled profits; ``--all-ranges``
  prints the validity table, ``--format json`` exports the catalog.
* ``verify`` - best-response check of a profile file (flat JSON with the
  eleven frequency names); exit status 0 iff it is an equilibrium.
* ``simulate`` - integrate the repeated-play dynamics, write the
  trajectory (CSV or JSON) and print its classification and average
  profit rates against the nearest catalog solution.
* ``sweep`` - tabulate frequencies / profits / stability / dynamics
  classification over a pot range.

Exit codes: 0 success (or verified equilibrium), 1 verification failure,
2 usage error, 3 numerical failure.  The ``KUHN3_SEED`` environment
variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import _stepper, analytic_ev, catalog, dynamics, stability, verify
from .game_model import FREQ_COLUMNS, FREQ_NAMES, StrategyProfile, check_pot

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

#: Most pot values one sweep may tabulate.
MAX_POTS = 10**6

#: Pots a frequencies/profits/stability sweep evaluates per array call;
#: blocks keep the arrays small whatever the grid.
SWEEP_BLOCK = 128

_SWEEP_HEADERS = {
    "frequencies": ",".join(("P", "solution", *FREQ_COLUMNS)),
    "profits": "P,solution,E1x24,E2x24,E3x24",
    "stability": "P,solution,verdict,max_real_part,oscillatory_pairs,zero_modes",
    "classification": "P,seed,t_end,label",
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _fmt(v: float) -> str:
    return repr(float(v))


def _default_seed() -> int | None:
    env = os.environ.get("KUHN3_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise CliError(f"KUHN3_SEED must be an integer, got {env!r}")


def _load_profile(path: str) -> StrategyProfile:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read profile file: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"profile file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise CliError("profile file must be a JSON object of frequencies")
    try:
        return StrategyProfile.from_dict(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"bad profile: {exc}")


def _load_gains(path: str | None):
    if path is None:
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, (dict, list)):
            raise TypeError("expected a JSON object or list of gains, got "
                            f"{type(data).__name__}")
        return dynamics.gains_array(data)
    except OSError as exc:
        raise CliError(f"cannot read gains file: {exc}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"bad gains file: {exc}")


# -- equilibria ---------------------------------------------------------------

def cmd_equilibria(args) -> int:
    pot = check_pot(args.pot)
    if args.format == "json":
        doc = catalog.catalog_json()
        doc["query_pot"] = pot
        doc["valid_at_query"] = catalog.solutions_for_pot(pot)
        print(json.dumps(doc))
        return EXIT_OK
    if args.all_ranges:
        crit = catalog.critical_pots()
        print("critical pots: " + "  ".join(
            f"{k.upper()}={getattr(crit, k):.6f}" for k in crit._fields))
        print(f"{'solution':>8}  {'valid from':>12}  {'valid to':>12}")
        for sid in catalog.SOLUTION_IDS:
            lo, hi = catalog.validity_range(sid)
            hi_s = "inf" if math.isinf(hi) else f"{hi:.6f}"
            print(f"{sid:>8}  {lo:>12.6f}  {hi_s:>12}")
        print()
    ids = catalog.solutions_for_pot(pot)
    print(f"P = {pot:g}: {len(ids)} solution(s): {', '.join(ids)}")
    for sid in ids:
        prof = catalog.instantiate(sid, pot)
        e = analytic_ev.expected_profit_scaled(prof, pot)
        freqs = "  ".join(f"{n}={getattr(prof, n):.6f}" for n in FREQ_NAMES)
        print(f"solution {sid}:")
        print(f"  {freqs}")
        print(f"  24E = ({e[0]:.6f}, {e[1]:.6f}, {e[2]:.6f})")
    return EXIT_OK


# -- verify -------------------------------------------------------------------

def cmd_verify(args) -> int:
    pot = check_pot(args.pot)
    if not (args.tol > 0 and math.isfinite(args.tol)):
        raise CliError(f"tol must be positive and finite (got {args.tol:g})")
    profile = _load_profile(args.profile)
    report = verify.best_response_check(profile, pot, tol=args.tol)
    print(json.dumps(report.to_json(profile)))
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


# -- simulate -----------------------------------------------------------------

def _nearest_solution(pot: float, rate24: tuple):
    """Catalog solution valid at ``pot`` whose scaled profits are closest
    (in max-abs difference) to the observed scaled profit rates."""
    pots, ids, F = catalog.rows_at([pot])
    E = analytic_ev.expected_profit_scaled(F, pots)
    best = None
    for sid, *e in zip(ids, *(x.tolist() for x in E)):
        dist = max(abs(a - b) for a, b in zip(e, rate24))
        if best is None or dist < best[1]:
            best = (sid, dist, e)
    return best


def cmd_simulate(args) -> int:
    pot = check_pot(args.pot)
    if not args.t_end > 0:
        raise CliError(f"t-end must be positive (got {args.t_end:g})")
    seed = args.seed if args.seed is not None else _default_seed()
    if args.init is not None:
        initial = _load_profile(args.init)
    elif seed is not None:
        initial = dynamics.random_initial_profile(seed)
    else:
        raise CliError("provide --init FILE or --seed N (or set KUHN3_SEED)")
    gains = _load_gains(args.gains)
    out = args.out or f"trajectory.{args.format}"
    cfg = dynamics.IntegratorConfig(rtol=args.rtol, atol=args.atol,
                                    f_max=args.f_max, dt_sample=args.dt)
    try:
        traj = dynamics.integrate(initial, pot, args.t_end, gains=gains,
                                  config=cfg, seed=seed)
    except dynamics.StepSizeUnderflow as exc:
        raise CliError(f"integration failed: {exc} "
                       f"(time reached {exc.time_reached:g})", EXIT_NUMERICAL)
    try:
        cls = dynamics.classify(traj)
    except dynamics.InsufficientData:
        cls = None
    try:
        if args.format == "csv":
            traj.to_csv(out)
        else:
            traj.to_json(out, classification=cls)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc.strerror or exc}")
    print(f"wrote {out} ({traj.n_samples} samples, t_end={traj.t_end:g})")
    if cls is None:
        print("classification: unavailable (trajectory too short)")
    else:
        print(f"classification: {cls.label.value}")
        flags = " ".join(f"{n}={cls.flags[n].value}" for n in FREQ_NAMES)
        print(f"flags: {flags}")
    rate = dynamics.average_profit_rate(traj, 0.0, traj.t_end)
    rate24 = tuple(24 * r for r in rate)
    print(f"avg profit rate x24: ({rate24[0]:.4f}, {rate24[1]:.4f}, "
          f"{rate24[2]:.4f})")
    near = _nearest_solution(pot, rate24)
    if near is not None:
        sid, dist, e = near
        print(f"nearest catalog solution: {sid} with 24E = "
              f"({e[0]:.4f}, {e[1]:.4f}, {e[2]:.4f}), max deviation {dist:.4f}")
    return EXIT_OK


# -- sweep --------------------------------------------------------------------

def _pot_grid(lo: float, hi: float, step: float) -> list:
    n = (hi - lo) / step + 1e-9
    if not n < MAX_POTS - 1:
        raise ValueError(f"step {step:g} gives more than {MAX_POTS} pots "
                         f"over [{lo:g}, {hi:g}]")
    n = int(math.floor(n))
    grid = [lo + i * step for i in range(n + 1)]
    if grid[-1] < hi - 1e-9:
        grid.append(hi)
    return grid


def _sweep_rows_frequencies(pots, ids, F) -> list:
    return [f"{_fmt(pot)},{sid},{','.join(map(_fmt, row))}"
            for pot, sid, row in zip(pots.tolist(), ids, F.tolist())]


def _sweep_rows_profits(pots, ids, F) -> list:
    e = analytic_ev.expected_profit_scaled(F, pots)
    return [f"{_fmt(pot)},{sid},{_fmt(e1)},{_fmt(e2)},{_fmt(e3)}"
            for pot, sid, e1, e2, e3
            in zip(pots.tolist(), ids, *(x.tolist() for x in e))]


def _sweep_rows_stability(pots, ids, F) -> list:
    _, max_re, pairs, zeros = stability.spectra(F, pots)
    return [f"{_fmt(pot)},{sid},{stability.Verdict.of(m).value},"
            f"{_fmt(m)},{n_pairs},{n_zeros}"
            for pot, sid, m, n_pairs, n_zeros
            in zip(pots.tolist(), ids, max_re.tolist(), pairs.tolist(),
                   zeros.tolist())]


def _sweep_rows_classification(pot: float, seed: int, t_end: float,
                               cfg: dynamics.IntegratorConfig) -> list:
    initial = dynamics.random_initial_profile(seed)
    traj = dynamics.integrate(initial, pot, t_end, config=cfg, seed=seed)
    cls = dynamics.classify(traj)
    return [f"{_fmt(pot)},{seed},{_fmt(t_end)},{cls.label.value}"]


def _classification_chunks(grid: list, seed: int, t_end: float,
                           cfg: dynamics.IntegratorConfig) -> list:
    """The rows of a classification sweep in grid order, integrated by
    one forked worker process per usable core.

    A forked child runs this process image, patches included, so each row
    is bit-identical to calling ``_sweep_rows_classification`` here; only
    the row strings come back.  The first failing row cancels the rows not
    yet started, and the failure of the first failed row in grid order is
    raised.  The imports cost every other command time and memory, so
    they are made here.  The compiled core is loaded (on a cold cache,
    built) before the fork, so the workers inherit it rather than each
    building it.
    """
    import concurrent.futures as cf
    import multiprocessing

    _stepper.compiled_core()
    work = functools.partial(_sweep_rows_classification, seed=seed,
                             t_end=t_end, cfg=cfg)
    workers = min(len(grid), len(os.sched_getaffinity(0)))
    with cf.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(work, pot) for pot in grid]
        _, pending = cf.wait(futures, return_when=cf.FIRST_EXCEPTION)
        if pending:  # a row failed
            pool.shutdown(cancel_futures=True)
        return [f.result() for f in futures if not f.cancelled()]


def cmd_sweep(args) -> int:
    lo = check_pot(args.pot_min)
    if not check_pot(args.pot_max) > lo:
        raise CliError("pot-max must exceed pot-min")
    if not args.step > 0:
        raise CliError("step must be positive")
    grid = _pot_grid(lo, args.pot_max, args.step)
    seed = args.seed if args.seed is not None else (_default_seed() or 0)
    icfg = dynamics.IntegratorConfig(dt_sample=args.dt)
    out = args.out or f"sweep_{args.what}.csv"

    if args.what == "classification":
        # too short to classify, or a bad seed, is known before any row starts
        dynamics.tail_start(dynamics.sample_count(args.t_end, icfg.dt_sample))
        dynamics.check_seed(seed)
    try:
        if args.what == "classification":
            chunks = _classification_chunks(grid, seed, args.t_end, icfg)
        else:
            work = {"frequencies": _sweep_rows_frequencies,
                    "profits": _sweep_rows_profits,
                    "stability": _sweep_rows_stability}[args.what]
            chunks = [work(*catalog.rows_at(grid[i:i + SWEEP_BLOCK]))
                      for i in range(0, len(grid), SWEEP_BLOCK)]
    except (dynamics.StepSizeUnderflow, stability.NoConvergence) as exc:
        raise CliError(f"numerical failure during sweep: {exc}",
                       EXIT_NUMERICAL)
    try:
        with open(out, "w", newline="") as fh:
            fh.write(_SWEEP_HEADERS[args.what] + "\n")
            for chunk in chunks:
                for row in chunk:
                    fh.write(row + "\n")
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc.strerror or exc}")
    nrows = sum(len(c) for c in chunks)
    print(f"wrote {out} ({nrows} rows over {len(grid)} pot values)")
    return EXIT_OK


# -- parser -------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once: parsing leaves the parser unchanged, so calls share it."""
    icfg = dynamics.IntegratorConfig()
    ap = argparse.ArgumentParser(
        prog="kuhn3",
        description="Simplified three-player full-street Kuhn poker: "
                    "equilibria, verification, and repeated-play dynamics.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibria",
                       help="list equilibrium solutions at a pot size")
    p.add_argument("--pot", type=float, required=True)
    p.add_argument("--all-ranges", action="store_true",
                   help="also print the validity table")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_equilibria)

    p = sub.add_parser("verify",
                       help="best-response check of a profile file")
    p.add_argument("--profile", required=True,
                   help="flat JSON object with the 11 frequency names")
    p.add_argument("--pot", type=float, required=True)
    p.add_argument("--tol", type=float, default=verify.DEFAULT_TOL)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate",
                       help="integrate the repeated-play dynamics")
    p.add_argument("--pot", type=float, required=True)
    p.add_argument("--init", help="initial profile JSON file")
    p.add_argument("--seed", type=int,
                   help="seed for a random interior initial profile "
                        "(default: KUHN3_SEED)")
    p.add_argument("--t-end", type=float, default=20000.0)
    p.add_argument("--gains", help="JSON file of per-frequency rates")
    p.add_argument("--out", help="output path (default trajectory.<fmt>)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--dt", type=float, default=icfg.dt_sample,
                   help="sampling interval")
    p.add_argument("--rtol", type=float, default=icfg.rtol)
    p.add_argument("--atol", type=float, default=icfg.atol)
    p.add_argument("--f-max", type=float, default=icfg.f_max,
                   help="log-odds clamp")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", help="tabulate results over a pot range")
    p.add_argument("--pot-min", type=float, required=True)
    p.add_argument("--pot-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--what", required=True,
                   choices=("frequencies", "profits", "stability",
                            "classification"))
    p.add_argument("--out", help="output CSV (default sweep_<what>.csv)")
    p.add_argument("--seed", type=int,
                   help="seed for classification sweeps (default KUHN3_SEED)")
    p.add_argument("--t-end", type=float, default=20000.0)
    p.add_argument("--dt", type=float, default=icfg.dt_sample)
    p.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (catalog.PotOutOfRange, catalog.FreeParamViolation,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (dynamics.StepSizeUnderflow, stability.NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
