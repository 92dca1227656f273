"""The four benchmark workloads.

Each workload generates its inputs from the seed in its constructor (the
set-up the benchmark times), runs its timed operations in :meth:`round`
(every round is the same set of operations) and checks the outputs of the
last round in :meth:`check`, outside the timed region.  ``check`` returns
a list of problems; an empty list means every output is correct.

Operations go through ``kuhn3.cli.main`` and the functions exported by
``kuhn3``, looked up at call time so a traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os

import numpy as np

import kuhn3
from kuhn3 import cli

#: Pots of the oracle-equivalence tests (tests/conftest.py POT_SAMPLE).
AUDIT_POTS = (2.0, 2.5, 3.0, 3.1, 3.35, 3.5, 3.75, 4.0, 4.15, 4.65, 5.0,
              6.0, 8.0)
UNSTABLE_FAMILIES = ("2", "3", "6", "7", "8")
#: oscillatory pairs of the centre-manifold stable families (paper's table)
STABLE_PAIRS = {"1": 1, "4": 2, "5": 2, "9": 3, "10": 3}
POINT_FAMILIES = ("1a", "2a", "5a", "10a")
_OWNER = [int(name[1]) - 1 for name in kuhn3.FREQ_NAMES]


def run_cli(argv: list) -> tuple:
    """(exit code, captured output) of one ``kuhn3`` command.  A traceback
    reads as exit code -1."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:
            code = -1
            out.write(repr(exc))
    return code, out.getvalue()


def _rows(path: str) -> list:
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def _profile(values) -> kuhn3.StrategyProfile:
    return kuhn3.StrategyProfile(*(float(v) for v in values))


def tree_walk_gain(profile: kuhn3.StrategyProfile, pot: float) -> float:
    """Largest gain any player gets by moving to a vertex of her own
    strategy box, by the tree walk alone.  E_i is affine in each of her own
    frequencies, so the best response sits at such a vertex."""
    f = np.array(profile.as_tuple())
    base = kuhn3.expected_profit_bruteforce(profile, pot)
    best = 0.0
    for player in range(3):
        own = [j for j, o in enumerate(_OWNER) if o == player]
        for vertex in itertools.product((0.0, 1.0), repeat=len(own)):
            g = f.copy()
            g[own] = vertex
            e = kuhn3.expected_profit_bruteforce(kuhn3.StrategyProfile(*g), pot)
            best = max(best, e[player] - base[player])
    return best


class LongOrbit:
    """``kuhn3 simulate`` of the paper's chaotic transient at P = 3.1 from
    initial seed 54, written as CSV.  The orbit is fixed: the benchmark
    seed does not change it."""

    POT = 3.1
    ORBIT_SEED = 54
    T_END = 1500.0
    DT = 0.5
    WINDOW = 2.0  # early window checked against the reference integration

    def __init__(self, seed: int, workdir: str):
        self.csv = os.path.join(workdir, "orbit.csv")
        self.argv = ["simulate", "--pot", str(self.POT),
                     "--seed", str(self.ORBIT_SEED),
                     "--t-end", str(self.T_END), "--format", "csv",
                     "--out", self.csv]

    def round(self) -> tuple:
        self.code, self.text = run_cli(self.argv)
        return 1, int(self.code != 0)

    def check(self) -> list:
        from reference import reference_window

        if self.code != 0:
            return [f"simulate exited {self.code}: {self.text}"]
        problems = []
        if "classification: ChaoticTransientToBoundary" not in self.text:
            problems.append("label is not ChaoticTransientToBoundary")
        data = np.loadtxt(self.csv, delimiter=",", skiprows=1)
        n = int(round(self.T_END / self.DT)) + 1
        times, freqs, profits = data[:, 0], data[:, 1:12], data[:, 12:]
        if len(times) != n or not np.array_equal(times,
                                                  np.arange(n) * self.DT):
            problems.append("CSV time grid is not exactly i * dt")
        if not ((freqs >= 0.0) & (freqs <= 1.0)).all():
            problems.append("CSV frequency outside [0, 1]")
        if np.abs(profits.sum(axis=1)).max() > 1e-9:
            problems.append("CSV profits do not sum to zero")
        inband = ((freqs < 1e-3) | (freqs > 1 - 1e-3)).all(axis=1)
        if not inband.any():
            problems.append("no visit to the full boundary")
        family2 = kuhn3.expected_profit_bruteforce(
            kuhn3.instantiate("2", self.POT), self.POT)
        rate24 = 24.0 * (profits[-1] - profits[0]) / (times[-1] - times[0])
        dev = float(np.abs(rate24 - 24.0 * np.array(family2)).max())
        if dev > 0.25:
            problems.append(f"profit rate deviates {dev:.3f} from family 2")
        k = int(round(self.WINDOW / self.DT)) + 1
        ref_f, ref_p = reference_window(
            kuhn3.random_initial_profile(self.ORBIT_SEED), self.POT, times[:k])
        err = max(float(np.abs(ref_f - freqs[:k]).max()),
                  float(np.abs(ref_p - profits[:k]).max()))
        if err > 1e-7:
            problems.append(f"early window differs from reference by {err:.2e}")
        return problems


class RegimeSweep:
    """``kuhn3 sweep --what classification`` over pots whose short horizon
    already shows the paper's regime: P < 3 is periodic.  Initial seed 1
    is fixed, since the label at some pots depends on it."""

    POTS = (2.2, 2.8, 0.2)
    SWEEP_SEED = 1
    T_END = 300.0

    def __init__(self, seed: int, workdir: str):
        self.csv = os.path.join(workdir, "regimes.csv")
        lo, hi, step = self.POTS
        self.argv = ["sweep", "--pot-min", str(lo), "--pot-max", str(hi),
                     "--step", str(step), "--what", "classification",
                     "--seed", str(self.SWEEP_SEED),
                     "--t-end", str(self.T_END), "--out", self.csv]

    def round(self) -> tuple:
        self.code, self.text = run_cli(self.argv)
        return 1, int(self.code != 0)

    def check(self) -> list:
        if self.code != 0:
            return [f"sweep exited {self.code}: {self.text}"]
        lo, hi, step = self.POTS
        want = np.arange(lo, hi + step / 2, step)
        rows = _rows(self.csv)
        pots = np.array([float(r[0]) for r in rows])
        problems = []
        if len(pots) != len(want) or np.abs(pots - want).max() > 1e-9:
            problems.append(f"sweep pots {pots.tolist()} != grid {want.tolist()}")
        for pot, seed, t_end, label in rows:
            if (int(seed), float(t_end)) != (self.SWEEP_SEED, self.T_END):
                problems.append(f"row {pot}: seed/t_end {seed},{t_end}")
            if label != "Periodic":  # every grid pot is below 3
                problems.append(f"P={pot} labelled {label}, paper: Periodic")
        return problems


class EquilibriumAtlas:
    """The paper's tables over a fine pot grid on [2, 8]: frequencies,
    profits and stability sweeps, ``verify`` on profile files, and an
    audit of the closed-form profits against the tree walk."""

    GRID = ("2", "8", "0.002")
    N_VERIFY = 20      # catalog profiles and as many random ones
    N_AUDIT = 100      # random profiles, each at every AUDIT_POT
    N_CONFIRM = 60     # swept catalog rows re-checked by the tree walk

    def __init__(self, seed: int, workdir: str):
        self.rng = rng = np.random.default_rng(seed)
        self.out = {what: os.path.join(workdir, f"{what}.csv")
                    for what in ("frequencies", "profits", "stability")}
        lo, hi, step = self.GRID
        self.sweeps = {what: ["sweep", "--pot-min", lo, "--pot-max", hi,
                              "--step", step, "--what", what, "--out", path]
                       for what, path in self.out.items()}
        self.verify_cases = []  # (path, pot, profile)
        for i in range(2 * self.N_VERIFY):
            pot = float(rng.uniform(2.0, 8.0))
            if i < self.N_VERIFY:
                ids = kuhn3.solutions_for_pot(pot)
                prof = kuhn3.instantiate(ids[rng.integers(len(ids))], pot)
            else:
                prof = kuhn3.StrategyProfile(*rng.uniform(0.0, 1.0, 11))
            path = os.path.join(workdir, f"profile{i}.json")
            with open(path, "w") as fh:
                json.dump(prof.as_dict(), fh)
            self.verify_cases.append((path, pot, prof))
        self.audit = [kuhn3.StrategyProfile(*row)
                      for row in rng.uniform(0.0, 1.0, (self.N_AUDIT, 11))]

    def round(self) -> tuple:
        attempted = failed = 0
        self.codes = []
        for what, argv in self.sweeps.items():
            code, text = run_cli(argv)
            attempted += 1
            failed += int(code != 0)
            self.codes.append((what, code, text))
        self.verify_codes = []
        for path, pot, _ in self.verify_cases:
            code, _ = run_cli(["verify", "--profile", path, "--pot", repr(pot)])
            attempted += 1
            failed += int(code not in (0, 1))
            self.verify_codes.append(code)
        worst = 0.0
        for prof in self.audit:
            for pot in AUDIT_POTS:
                attempted += 1
                try:
                    a = kuhn3.expected_profit(prof, pot)
                    b = kuhn3.expected_profit_bruteforce(prof, pot)
                except Exception:
                    failed += 1
                    worst = float("inf")
                    continue
                worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
        self.audit_worst = worst
        return attempted, failed

    def check(self) -> list:
        problems = [f"sweep {what} exited {code}: {text}"
                    for what, code, text in self.codes if code != 0]
        if problems:
            return problems
        freq_rows = _rows(self.out["frequencies"])
        profiles = {(r[0], r[1]): _profile(r[2:]) for r in freq_rows}

        picks = self.rng.choice(len(freq_rows), self.N_CONFIRM, replace=False)
        for i in sorted(picks):
            pot, sid = freq_rows[i][:2]
            gain = tree_walk_gain(profiles[pot, sid], float(pot))
            if gain > 1e-9:
                problems.append(f"family {sid} at P={pot} not an equilibrium: "
                                f"vertex gain {gain:.2e}")

        profit_rows = _rows(self.out["profits"])
        if [r[:2] for r in profit_rows] != [r[:2] for r in freq_rows]:
            problems.append("profits rows do not match frequencies rows")
        for pot, sid, *e in profit_rows:
            e = [float(v) for v in e]
            want = kuhn3.expected_profit_bruteforce(profiles[pot, sid],
                                                    float(pot))
            dev = max(abs(a - 24.0 * b) for a, b in zip(e, want))
            if dev > 1e-12 or abs(sum(e)) > 1e-12:
                problems.append(f"profits row P={pot} {sid}: tree-walk "
                                f"deviation {dev:.1e}, sum {sum(e):.1e}")

        for pot, sid, verdict, _, pairs, _ in _rows(self.out["stability"]):
            if sid in POINT_FAMILIES:
                continue
            lo, hi = kuhn3.validity_range(sid)
            if not lo + 1e-9 < float(pot) < hi - 1e-9:
                continue  # range ends, where a family meets a point family
            if sid in UNSTABLE_FAMILIES:
                ok = verdict == "Unstable"
            else:
                ok = (verdict == "CentreManifoldStable"
                      and int(pairs) == STABLE_PAIRS[sid])
            if not ok:
                problems.append(f"stability of {sid} at P={pot}: {verdict}, "
                                f"{pairs} pairs")

        problems += self._check_coexistence(freq_rows)

        for (path, pot, prof), code in zip(self.verify_cases,
                                           self.verify_codes):
            gain = tree_walk_gain(prof, pot)
            want = 0 if gain <= 1e-9 else 1 if gain > 1e-6 else code
            if code != want:
                problems.append(f"verify {os.path.basename(path)} at "
                                f"P={pot:.4f} exited {code}, tree-walk gain "
                                f"{gain:.2e}")

        if self.audit_worst > 1e-12:
            problems.append(f"oracle audit deviation {self.audit_worst:.2e}")
        return problems

    @staticmethod
    def _check_coexistence(freq_rows: list) -> list:
        """Exactly three pot ranges of positive length carry three
        families; a single grid pot with three is where a point family
        joins two interval families."""
        families: dict = {}
        for pot, sid, *_ in freq_rows:
            families.setdefault(float(pot), []).append(sid)
        runs, run = [], []
        for pot in sorted(families):
            if len(families[pot]) >= 3:
                run.append(pot)
            elif run:
                runs.append(run)
                run = []
        if run:
            runs.append(run)
        ranges = [r for r in runs if len(r) > 1]
        problems = []
        if len(ranges) != 3:
            problems.append(f"{len(ranges)} coexistence ranges, paper: 3")
        for r in runs:
            if len(r) == 1 and not set(families[r[0]]) & set(POINT_FAMILIES):
                problems.append(f"three families at the single pot {r[0]}")
        return problems


class TailClassify:
    """``classify`` and ``average_profit_rate`` on synthetic trajectories
    of the paper's length whose labels are known by construction."""

    def __init__(self, seed: int, workdir: str):
        import synthetic

        self.cases = synthetic.cases(seed)
        rng = np.random.default_rng(seed + 1)
        t_end = self.cases[0].trajectory.t_end
        lo = float(rng.uniform(0.0, t_end / 2))
        self.windows = ((0.0, t_end), (lo, lo + t_end / 4))

    def round(self) -> tuple:
        self.results = []
        failed = 0
        for case in self.cases:
            try:
                cls = kuhn3.classify(case.trajectory)
            except Exception:
                cls = None
                failed += 1
            rates = []
            for a, b in self.windows:
                try:
                    rates.append(kuhn3.average_profit_rate(case.trajectory,
                                                           a, b))
                except Exception:
                    rates.append(None)
                    failed += 1
            self.results.append((cls, rates))
        return len(self.cases) * (1 + len(self.windows)), failed

    def check(self) -> list:
        problems = []
        for case, (cls, rates) in zip(self.cases, self.results):
            if cls is None or None in rates:
                problems.append(f"{case.name}: an operation raised")
                continue
            label = cls.label.value
            if case.label is None:
                if label == "Periodic":
                    problems.append(f"{case.name}: labelled Periodic")
            elif label != case.label:
                problems.append(f"{case.name}: {label}, built as {case.label}")
            if case.groups is not None:
                got = frozenset(frozenset(g) for g in cls.groups)
                if got != case.groups:
                    problems.append(f"{case.name}: groups {cls.groups}")
            for rate in rates:
                dev = max(abs(a - b) for a, b in zip(rate, case.slope))
                if dev > 1e-12:
                    problems.append(f"{case.name}: profit rate off by {dev:.1e}")
        return problems


WORKLOADS = {
    "long-orbit": LongOrbit,
    "regime-sweep": RegimeSweep,
    "equilibrium-atlas": EquilibriumAtlas,
    "tail-classify": TailClassify,
}
