import contextlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import POT_SAMPLE, bits
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kuhn3 import _stepper, cli, dynamics
from kuhn3.analytic_ev import expected_profit_scaled
from kuhn3.catalog import (SOLUTION_IDS, critical_pots, instantiate,
                           rows_at, solutions_for_pot, validity_range)
from kuhn3.cli import main
from kuhn3.dynamics import TRAJECTORY_CSV_HEADER, IntegratorConfig
from kuhn3.game_model import FREQ_NAMES, StrategyProfile
from kuhn3.stability import IM_TOL, RE_TOL, jacobian


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEquilibria:
    def test_triple_range(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria", "--pot", "3.3")
        assert code == 0
        assert "3 solution(s): 2, 3, 4" in out

    def test_lowest_family_instantiation(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria", "--pot", "2.5")
        assert code == 0
        assert "solution 1:" in out
        assert f"b3={4 / 7:.6f}" in out

    def test_small_pot_rejected(self, capsys):
        code, out, err = run_cli(capsys, "equilibria", "--pot", "1.5")
        assert code == 2
        assert "pot must be >= 2" in err

    def test_all_ranges_table(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria", "--pot", "2.0",
                               "--all-ranges")
        assert code == 0
        for sid in ("1a", "2a", "5a", "10a", "10"):
            assert f"\n{sid:>8}  " in out
        assert "critical pots" in out

    def test_json_export(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria", "--pot", "4.35",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["valid_at_query"] == ["7", "8", "9"]
        assert len(doc["solutions"]) == 14


class TestVerify:
    def write_profile(self, path, profile):
        path.write_text(json.dumps(profile.as_dict()))
        return str(path)

    def test_equilibrium_exits_zero(self, capsys, tmp_path):
        f = self.write_profile(tmp_path / "p.json", instantiate("10", 6.0))
        code, out, _ = run_cli(capsys, "verify", "--profile", f,
                               "--pot", "6.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["overall"] is True
        assert all(g <= 1e-12 for g in doc["exploitability"])

    def test_non_equilibrium_exits_one_with_gaps(self, capsys, tmp_path):
        f = self.write_profile(tmp_path / "p.json",
                               StrategyProfile.uniform(0.5))
        code, out, _ = run_cli(capsys, "verify", "--profile", f,
                               "--pot", "4.0")
        assert code == 1
        doc = json.loads(out)
        assert doc["overall"] is False
        assert any(v["gap"] > 0 for v in doc["frequencies"].values())

    def test_out_of_range_frequency_is_usage_error(self, capsys, tmp_path):
        d = StrategyProfile.uniform(0.5).as_dict()
        d["b3"] = 1.2
        f = tmp_path / "p.json"
        f.write_text(json.dumps(d))
        code, _, err = run_cli(capsys, "verify", "--profile", str(f),
                               "--pot", "4.0")
        assert code == 2
        assert "outside" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        d = StrategyProfile.uniform(0.5).as_dict()
        d["a3"] = 1.0
        f = tmp_path / "p.json"
        f.write_text(json.dumps(d))
        code, _, err = run_cli(capsys, "verify", "--profile", str(f),
                               "--pot", "4.0")
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--profile",
                               str(tmp_path / "none.json"), "--pot", "3.0")
        assert code == 2


class TestSimulate:
    def test_periodic_run_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, text, _ = run_cli(capsys, "simulate", "--pot", "2.5",
                                "--seed", "1", "--t-end", "2000",
                                "--out", str(out))
        assert code == 0
        assert "classification: Periodic" in text
        assert "nearest catalog solution: 1" in text
        lines = out.read_text().splitlines()
        assert lines[0] == TRAJECTORY_CSV_HEADER
        assert len(lines) == 4002

    def test_nearest_solution_matches_the_per_family_scan(self):
        # the families at one pot come from one catalog block; the pick,
        # its distance and its profits must be those of a scan over
        # solutions_for_pot, ties going to the first family
        def per_family(pot, rate24):
            best = None
            for sid in solutions_for_pot(pot):
                e = expected_profit_scaled(instantiate(sid, pot), pot)
                dist = max(abs(a - b) for a, b in zip(e, rate24))
                if best is None or dist < best[1]:
                    best = (sid, dist, e)
            return best

        rng = np.random.default_rng(5)
        ends = {end for sid in SOLUTION_IDS for end in validity_range(sid)}
        pots = sorted({*POT_SAMPLE, *ends} - {math.inf})
        assert 3.5 in pots  # family 5a is a point
        for pot in pots:
            profits = [expected_profit_scaled(instantiate(sid, pot), pot)
                       for sid in solutions_for_pot(pot)]
            for rate24 in [*profits, tuple(rng.normal(0.0, 2.0, 3))]:
                sid, dist, e = cli._nearest_solution(pot, rate24)
                want = per_family(pot, rate24)
                assert (sid, dist, tuple(e)) == (want[0], want[1],
                                                 tuple(want[2]))

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "simulate", "--pot", "3.35",
                                 "--seed", "7", "--t-end", "500",
                                 "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format_carries_classification(self, capsys, tmp_path):
        out = tmp_path / "traj.json"
        code, _, _ = run_cli(capsys, "simulate", "--pot", "2.5",
                             "--seed", "1", "--t-end", "2000",
                             "--format", "json", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["classification"]["label"] == "Periodic"
        assert doc["meta"]["seed"] == 1

    def test_init_file(self, capsys, tmp_path):
        init = tmp_path / "init.json"
        init.write_text(json.dumps(StrategyProfile.uniform(0.3).as_dict()))
        out = tmp_path / "t.csv"
        code, text, _ = run_cli(capsys, "simulate", "--pot", "2.5",
                                "--init", str(init), "--t-end", "100",
                                "--out", str(out))
        assert code == 0

    def test_gains_file_slows_a_coordinate(self, capsys, tmp_path):
        gains = tmp_path / "gains.json"
        gains.write_text(json.dumps({"b3": 0.5}))
        init = tmp_path / "init.json"
        init.write_text(json.dumps(StrategyProfile.uniform(0.4).as_dict()))
        fast = tmp_path / "fast.csv"
        slow = tmp_path / "slow.csv"
        for out, extra in ((fast, []), (slow, ["--gains", str(gains)])):
            code, _, _ = run_cli(capsys, "simulate", "--pot", "2.5",
                                 "--init", str(init), "--t-end", "0.5",
                                 "--dt", "0.5", "--out", str(out), *extra)
            assert code == 0
        row_f = [float(x) for x in fast.read_text().splitlines()[-1].split(",")]
        row_s = [float(x) for x in slow.read_text().splitlines()[-1].split(",")]
        # b3 column moves less under the halved rate.  The horizon lies
        # inside b3's first half-swing: later the unit-rate run swings back
        # past its start and the comparison says nothing about the rate.
        b3_col = 1 + 8
        assert abs(row_s[b3_col] - 0.4) < abs(row_f[b3_col] - 0.4)

    def test_bad_gains_file(self, capsys, tmp_path):
        gains = tmp_path / "gains.json"
        # JSON null is neither an object nor a list: not the default gains
        for doc in ({"zz": 1.0}, None, {"a1": float("inf")}):
            gains.write_text(json.dumps(doc))
            code, _, err = run_cli(capsys, "simulate", "--pot", "2.5",
                                   "--seed", "1", "--t-end", "100",
                                   "--gains", str(gains))
            assert code == 2, doc
            assert err.startswith("error: bad gains file"), doc

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code, stdout, err = run_cli(capsys, "simulate", "--pot", "2.5",
                                    "--seed", "1", "--t-end", "10",
                                    "--out", str(out))
        assert code == 2
        assert err == (f"error: cannot write {out}: "
                       "No such file or directory\n")
        assert stdout == ""

    def test_seed_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KUHN3_SEED", "9")
        monkeypatch.chdir(tmp_path)
        code, text, _ = run_cli(capsys, "simulate", "--pot", "2.5",
                                "--t-end", "100")
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()

    def test_requires_some_initial(self, capsys, monkeypatch):
        monkeypatch.delenv("KUHN3_SEED", raising=False)
        code, _, err = run_cli(capsys, "simulate", "--pot", "2.5",
                               "--t-end", "100")
        assert code == 2
        assert "--init" in err

    def test_boundary_init_rejected(self, capsys, tmp_path):
        init = tmp_path / "init.json"
        init.write_text(json.dumps(StrategyProfile.zeros().as_dict()))
        code, _, err = run_cli(capsys, "simulate", "--pot", "2.5",
                               "--init", str(init), "--t-end", "100")
        assert code == 2


class TestSweep:
    def test_profits_sweep_player3_dominates(self, capsys, tmp_path):
        out = tmp_path / "profits.csv"
        code, _, _ = run_cli(capsys, "sweep", "--pot-min", "2", "--pot-max",
                             "6", "--step", "0.01", "--what", "profits",
                             "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "P,solution,E1x24,E2x24,E3x24"
        assert len(lines) > 400
        for line in lines[1:]:
            _, _, e1, e2, e3 = line.split(",")
            assert float(e3) >= max(float(e1), float(e2)) - 1e-12

    def test_stability_sweep_unstable_families(self, capsys, tmp_path):
        out = tmp_path / "stab.csv"
        code, _, _ = run_cli(capsys, "sweep", "--pot-min", "3.0",
                             "--pot-max", "4.5", "--step", "0.05",
                             "--what", "stability", "--out", str(out))
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        unstable = {"2", "3", "6", "7", "8"}
        from kuhn3.catalog import validity_range
        for P, sid, verdict, *_ in rows:
            if sid in unstable:
                # interior of the range (junction pots sit on the margin)
                vlo, vhi = validity_range(sid)
                if vlo + 1e-6 < float(P) < vhi - 1e-6:
                    assert verdict == "Unstable", (P, sid)
            else:
                assert verdict == "CentreManifoldStable", (P, sid)

    def test_sweep_reruns_are_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run_cli(capsys, "sweep", "--pot-min", "2",
                                 "--pot-max", "5", "--step", "0.1",
                                 "--what", "profits", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_frequencies_sweep_schema(self, capsys, tmp_path):
        out = tmp_path / "freq.csv"
        code, _, _ = run_cli(capsys, "sweep", "--pot-min", "5.0",
                             "--pot-max", "5.5", "--step", "0.1",
                             "--what", "frequencies", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("P,solution,a1,")
        assert lines[0].endswith("d3_")
        row = lines[1].split(",")
        assert len(row) == 13

    def test_classification_sweep(self, capsys, tmp_path):
        out = tmp_path / "cls.csv"
        code, _, _ = run_cli(capsys, "sweep", "--pot-min", "2.5",
                             "--pot-max", "3.75", "--step", "1.25",
                             "--what", "classification", "--seed", "1",
                             "--t-end", "4000", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "P,seed,t_end,label"
        labels = {r.split(",")[0]: r.split(",")[-1] for r in lines[1:]}
        assert labels["2.5"] == "Periodic"
        assert labels["3.75"] == "Periodic"

    #: five classification rows: more than there are workers on a host
    #: with fewer than five usable cores
    POOLED = ("--pot-min", "2.2", "--pot-max", "3.0", "--step", "0.2",
              "--what", "classification", "--seed", "1", "--t-end", "150")

    def test_pooled_classification_matches_in_process_rows(self, capsys,
                                                           tmp_path):
        out = tmp_path / "cls.csv"
        code, _, _ = run_cli(capsys, "sweep", *self.POOLED, "--out", str(out))
        assert code == 0
        assert not multiprocessing.active_children()
        want = [cli._SWEEP_HEADERS["classification"]]
        for pot in cli._pot_grid(2.2, 3.0, 0.2):
            want += cli._sweep_rows_classification(pot, 1, 150.0,
                                                   IntegratorConfig())
        assert len(want) == 6
        assert out.read_bytes() == "".join(f"{r}\n" for r in want).encode()

    def test_compiled_core_is_loaded_before_the_fork(self, capsys, tmp_path,
                                                     monkeypatch):
        # the forked workers inherit the loaded core, so a cold cache is
        # built once, not by every worker in a race
        events = []
        load, fork = _stepper.compiled_core, os.fork
        monkeypatch.setattr(_stepper, "compiled_core",
                            lambda: events.append("load") or load())
        monkeypatch.setattr(os, "fork",
                            lambda: events.append("fork") or fork())
        code, _, _ = run_cli(capsys, "sweep", *self.POOLED,
                             "--out", str(tmp_path / "cls.csv"))
        assert code == 0
        assert events[0] == "load" and "fork" in events

    def test_underflow_in_a_worker_is_a_numerical_error(self, capsys,
                                                        tmp_path,
                                                        monkeypatch):
        def underflow(y0, *args):
            return y0[None, :], 0, _stepper.STATUS_STEP_UNDERFLOW, 12.5

        monkeypatch.setattr(_stepper, "integrate_core", underflow)
        out = tmp_path / "cls.csv"
        code, _, err = run_cli(capsys, "sweep", *self.POOLED,
                               "--out", str(out))
        assert code == 3
        assert "numerical failure during sweep" in err
        assert "t=12.5" in err
        assert not out.exists()
        assert not multiprocessing.active_children()

    def test_too_short_to_classify_starts_no_row(self, capsys, tmp_path,
                                                 monkeypatch):
        started = []

        def record(name):
            def call(*args):
                started.append(name)
                raise AssertionError(f"{name} called")
            return call

        monkeypatch.setattr(_stepper, "integrate_core",
                            record("integrate_core"))
        monkeypatch.setattr(os, "fork", record("fork"))
        out = tmp_path / "cls.csv"
        code, _, err = run_cli(capsys, "sweep", *self.POOLED[:-1], "100",
                               "--out", str(out))
        assert code == 2
        assert err == "error: tail has 51 samples, need >= 64\n"
        assert started == []
        assert not out.exists()

    def test_too_long_starts_no_row(self, capsys, tmp_path, monkeypatch):
        started = []

        def record(name):
            def call(*args):
                started.append(name)
                raise AssertionError(f"{name} called")
            return call

        monkeypatch.setattr(_stepper, "integrate_core",
                            record("integrate_core"))
        monkeypatch.setattr(os, "fork", record("fork"))
        out = tmp_path / "cls.csv"
        code, _, err = run_cli(capsys, "sweep", *self.POOLED[:-1], "2e6",
                               "--dt", "7000", "--out", str(out))
        assert code == 2
        assert err == ("error: t_end 2e+06 exceeds the longest integration "
                       "time, 1e+06\n")
        assert started == []
        assert not out.exists()

    def test_directory_as_out_is_a_usage_error(self, capsys, tmp_path):
        code, stdout, err = run_cli(capsys, "sweep", "--pot-min", "2",
                                    "--pot-max", "3", "--step", "0.5",
                                    "--what", "profits", "--out",
                                    str(tmp_path))
        assert code == 2
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"
        assert stdout == ""

    def test_bad_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--pot-min", "4",
                               "--pot-max", "3", "--step", "0.1",
                               "--what", "profits")
        assert code == 2


def reference_row(what: str, pot: float, sid: str) -> str:
    """One catalog sweep row evaluated on its own: ``instantiate``,
    ``expected_profit_scaled`` and one ``eigvals`` call per matrix."""
    prof = instantiate(sid, pot)
    if what == "frequencies":
        vals = [repr(getattr(prof, n)) for n in FREQ_NAMES]
    elif what == "profits":
        vals = [repr(e) for e in expected_profit_scaled(prof, pot)]
    else:
        lam = np.linalg.eigvals(jacobian(prof, pot))
        lam = lam[np.argsort(-lam.real)]
        max_re = float(lam.real.max())
        pairs = np.count_nonzero((np.abs(lam.real) <= RE_TOL)
                                 & (lam.imag > IM_TOL))
        zeros = np.count_nonzero(np.abs(lam) <= RE_TOL)
        verdict = "Unstable" if max_re > RE_TOL else "CentreManifoldStable"
        vals = [verdict, repr(max_re), str(pairs), str(zeros)]
    return ",".join([repr(pot), sid, *vals])


class TestBlockSweep:
    """Catalog sweeps run block by block as arrays; their files must be
    byte-identical to row-by-row evaluation."""

    #: the point-family pots and the critical pots where families meet
    SPECIAL = (2.0, 3.0, 3.5, 5.0, *critical_pots())

    @pytest.fixture
    def grid(self, monkeypatch):
        plain = cli._pot_grid

        def with_special(lo, hi, step):
            return sorted({*plain(lo, hi, step), *self.SPECIAL})

        monkeypatch.setattr(cli, "_pot_grid", with_special)
        grid = with_special(2.0, 8.0, 0.01)
        # several blocks of pots, the last one short
        assert len(grid) > cli.SWEEP_BLOCK and len(grid) % cli.SWEEP_BLOCK
        return grid

    def test_rows_at_lists_every_row_in_order(self, grid):
        pots, ids, F = rows_at(grid)
        want = [(pot, sid) for pot in grid for sid in solutions_for_pot(pot)]
        assert list(zip(pots.tolist(), ids)) == want
        ref = np.array([instantiate(sid, pot).as_tuple() for pot, sid in want])
        assert (bits(F) == bits(ref)).all()
        with pytest.raises(ValueError, match="pot must be"):
            rows_at([3.0, 1.5])

    @pytest.mark.parametrize("what", ["frequencies", "profits", "stability"])
    def test_matches_row_by_row(self, capsys, tmp_path, grid, what):
        out = tmp_path / f"{what}.csv"
        code, _, _ = run_cli(capsys, "sweep", "--pot-min", "2", "--pot-max",
                             "8", "--step", "0.01", "--what", what,
                             "--out", str(out))
        assert code == 0
        want = [cli._SWEEP_HEADERS[what]]
        want += [reference_row(what, pot, sid)
                 for pot in grid for sid in solutions_for_pot(pot)]
        assert out.read_bytes() == "".join(f"{r}\n" for r in want).encode()

    def test_eigvals_failure_is_a_numerical_error(self, capsys, tmp_path,
                                                  monkeypatch):
        eigvals = np.linalg.eigvals

        def fail_on_stacks(a):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", fail_on_stacks)
        out = tmp_path / "stab.csv"
        code, _, err = run_cli(capsys, "sweep", "--pot-min", "3",
                               "--pot-max", "4", "--step", "0.1",
                               "--what", "stability", "--out", str(out))
        assert code == 3
        assert "numerical failure" in err
        assert not out.exists()


@pytest.mark.slow
class TestRegimePattern:
    #: one orbit through the CLI; its defaults are ``IntegratorConfig``'s,
    #: so criterion 7 of test_acceptance integrates and classifies the
    #: same orbits at all six pots
    CASES = [(2.5, 2000, "Periodic")]

    @pytest.mark.parametrize("pot,t_end,label", CASES)
    def test_six_pot_pattern(self, capsys, tmp_path, pot, t_end, label):
        out = tmp_path / "t.csv"
        code, text, _ = run_cli(capsys, "simulate", "--pot", str(pot),
                                "--seed", "1", "--t-end", str(t_end),
                                "--out", str(out))
        assert code == 0
        assert f"classification: {label}" in text

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--pot-min", "2"])
        assert exc.value.code == 2


def test_consecutive_calls_get_only_their_own_arguments(tmp_path,
                                                         monkeypatch):
    parser = cli.build_parser()
    parse, seen = parser.parse_args, []

    def spy(argv):
        args = parse(argv)
        seen.append(vars(args).copy())
        return args

    monkeypatch.setattr(parser, "parse_args", spy)
    out = str(tmp_path / "out")
    icfg = IntegratorConfig()
    simulate = {"command": "simulate", "fn": cli.cmd_simulate, "pot": 2.5,
                "init": None, "seed": 1, "t_end": 1.0, "gains": None,
                "out": out, "format": "csv", "dt": icfg.dt_sample,
                "rtol": icfg.rtol, "atol": icfg.atol, "f_max": icfg.f_max}
    calls = [
        (["simulate", "--pot", "2.5", "--seed", "3", "--t-end", "1",
          "--format", "json", "--dt", "0.25", "--rtol", "1e-6",
          "--atol", "1e-8", "--f-max", "20", "--out", out],
         {**simulate, "seed": 3, "format": "json", "dt": 0.25,
          "rtol": 1e-6, "atol": 1e-8, "f_max": 20.0}),
        (["sweep", "--pot-min", "2", "--pot-max", "3", "--step", "0.5",
          "--what", "profits", "--seed", "4", "--out", out],
         {"command": "sweep", "fn": cli.cmd_sweep, "pot_min": 2.0,
          "pot_max": 3.0, "step": 0.5, "what": "profits", "out": out,
          "seed": 4, "t_end": 20000.0, "dt": icfg.dt_sample}),
        (["equilibria", "--pot", "3", "--all-ranges"],
         {"command": "equilibria", "fn": cli.cmd_equilibria, "pot": 3.0,
          "all_ranges": True, "format": "text"}),
        (["equilibria", "--pot", "4"],
         {"command": "equilibria", "fn": cli.cmd_equilibria, "pot": 4.0,
          "all_ranges": False, "format": "text"}),
        (["simulate", "--pot", "2.5", "--seed", "1", "--t-end", "1",
          "--out", out], simulate),
    ]
    for argv, _ in calls:
        assert _run_quietly(argv) == (0, "")
    assert seen == [want for _, want in calls]


@pytest.mark.parametrize("argv,code,error", [
    (["simulate", "--pot", "1e300", "--seed", "0", "--t-end", "1", "--dt",
      "1", "--rtol", "1e-12", "--atol", "0", "--f-max", "5e-324"],
     3, "error: integration failed: step size underflow at t=0"),
    (["sweep", "--pot-min", "2", "--pot-max", "1.7976931348623157e308",
      "--step", "1e308", "--what", "frequencies"],
     2, "error: pot too large: 1e+308**2 overflows"),
], ids=["simulate-error-norm-nan", "sweep-family-10-overflow"])
def test_failures_print_only_their_error_line(argv, code, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, err = _run_quietly([*argv, "--out", os.devnull])
    assert got == code
    assert err.startswith(error) and err.count("\n") == 1, err


def _run_quietly(argv: list) -> tuple:
    """(exit code, stderr) of ``main(argv)`` with its output captured."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


#: pot and step values a user might mistype, beside plain ones
_ODD = [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, 5e-324, 1e-12,
        1.5, 1e300, 1.7976931348623157e308]


def _plain_or_odd(lo: float, hi: float):
    return st.one_of(st.sampled_from(_ODD), st.floats(lo, hi))


@given(lo=_plain_or_odd(2.0, 8.0), hi=_plain_or_odd(2.0, 8.0),
       step=_plain_or_odd(0.005, 10.0),
       what=st.sampled_from(["frequencies", "profits", "stability"]))
@example(lo=2.0, hi=1e300, step=1e299, what="profits")
@example(lo=2.0, hi=1.7976931348623157e308, step=1e308, what="frequencies")
@example(lo=2.0, hi=3.0, step=math.nan, what="stability")
@example(lo=2.0, hi=3.0, step=5e-324, what="frequencies")
@settings(max_examples=60, deadline=None)
def test_catalog_sweep_arguments_fuzz(lo, hi, step, what):
    # pots in [2, 8] and steps >= 0.005 keep a drawn grid to <= 1201 pots
    argv = ["sweep", f"--pot-min={lo!r}", f"--pot-max={hi!r}",
            f"--step={step!r}", "--what", what, "--out", os.devnull]
    code, err = _run_quietly(argv)
    assert code in (0, 2), (code, err)
    assert (code == 0) == (err == ""), err
    if code == 2:
        assert err.startswith("error: ")


@given(pot=_plain_or_odd(2.0, 8.0),
       t_end=st.one_of(st.sampled_from(_ODD[:8]), st.floats(0.5, 2.0)),
       dt=_plain_or_odd(0.05, 4.0), rtol=_plain_or_odd(1e-14, 1e-2),
       atol=_plain_or_odd(0.0, 1e-2), f_max=_plain_or_odd(1e-3, 1e3),
       seed=st.integers(-3, 2**70), fmt=st.sampled_from(["csv", "json"]))
@example(pot=2.5, t_end=1.0, dt=1e300, rtol=1e-9, atol=1e-11, f_max=40.0,
         seed=1, fmt="csv")
@example(pot=2.5, t_end=1.0, dt=0.5, rtol=0.0, atol=1e-22, f_max=40.0,
         seed=1, fmt="csv")
@settings(max_examples=150, deadline=None)
def test_simulate_arguments_fuzz(pot, t_end, dt, rtol, atol, f_max, seed,
                                 fmt):
    # the odd t_end values stop at 1e-12, so every run stays short
    argv = ["simulate", f"--pot={pot!r}", f"--t-end={t_end!r}",
            f"--dt={dt!r}", f"--rtol={rtol!r}", f"--atol={atol!r}",
            f"--f-max={f_max!r}", f"--seed={seed}", "--format", fmt,
            "--out", os.devnull]
    code, err = _run_quietly(argv)
    assert code in (0, 2, 3), (code, err)
    assert (code == 0) == ("error: " not in err), err
    if code:
        assert err.splitlines()[-1].startswith("error: "), err


#: (pot-min, pot-max, step): grids of 2 to 5 pots in [2, 4.5], or odd ones
_GRIDS = st.one_of(
    st.tuples(st.floats(2.0, 3.0), st.floats(0.2, 0.5), st.integers(1, 3))
    .map(lambda g: (g[0], g[0] + g[1] * g[2], g[1])),
    st.tuples(_plain_or_odd(2.0, 3.0), _plain_or_odd(2.0, 3.0),
              _plain_or_odd(0.3, 1.0)))


@given(grid=_GRIDS, seed=st.integers(-3, 2**70),
       t_end=st.one_of(st.sampled_from(_ODD[:8]), st.floats(1.0, 20.0)),
       dt=_plain_or_odd(0.02, 0.08))
@example(grid=(2.0, 2.5, 0.5), seed=1, t_end=15.0, dt=0.05)
@example(grid=(2.0, 2.5, 0.5), seed=-1, t_end=15.0, dt=0.05)
@example(grid=(2.0, 1e300, 1e300), seed=1, t_end=15.0, dt=0.05)
@settings(max_examples=100, deadline=None)
def test_classification_sweep_arguments_fuzz(grid, seed, t_end, dt):
    # few pots and no run beyond t = 20 (a tail needs t_end / dt >= 255),
    # so the forked workers of an example finish within a second
    lo, hi, step = grid
    argv = ["sweep", f"--pot-min={lo!r}", f"--pot-max={hi!r}",
            f"--step={step!r}", "--what", "classification", f"--seed={seed}",
            f"--t-end={t_end!r}", f"--dt={dt!r}", "--out", os.devnull]
    code, err = _run_quietly(argv)
    assert code in (0, 2, 3), (code, err)
    assert (code == 0) == (err == ""), err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ("simulate", "--pot", "2.5", "--t-end", "10"),
    ("sweep", "--what", "classification", "--pot-min", "2", "--pot-max",
     "2.5", "--step", "0.5", "--t-end", "20", "--dt", "0.05"),
], ids=["simulate", "classification-sweep"])
def test_negative_seed_is_a_usage_error(argv, monkeypatch):
    monkeypatch.setattr(dynamics, "integrate",
                        lambda *a, **kw: pytest.fail("a row started"))
    code, err = _run_quietly([*argv, "--seed", "-1", "--out", os.devnull])
    assert code == 2
    assert err == "error: seed must be non-negative, got -1\n"


_JSON_VALUES = st.one_of(
    st.floats(0.0, 1.0), st.sampled_from(_ODD), st.none(), st.booleans(),
    st.text(max_size=4), st.integers(-10**400, 10**400),
    st.lists(st.floats(0.0, 1.0), max_size=2))


@given(pot=_plain_or_odd(2.0, 8.0), tol=_plain_or_odd(1e-12, 1.0),
       profile=st.one_of(
           st.fixed_dictionaries({n: _JSON_VALUES for n in FREQ_NAMES}),
           st.fixed_dictionaries({n: st.floats(0.0, 1.0)
                                  for n in FREQ_NAMES}),
           st.dictionaries(st.sampled_from([*FREQ_NAMES, "a3"]),
                           st.floats(0.0, 1.0)),
           _JSON_VALUES))
@settings(max_examples=150, deadline=None)
def test_verify_arguments_fuzz(pot, tol, profile, tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "profile.json"
    path.write_text(json.dumps(profile))
    argv = ["verify", "--profile", str(path), f"--pot={pot!r}",
            f"--tol={tol!r}"]
    code, err = _run_quietly(argv)
    assert code in (0, 1, 2), (code, err)
    assert (code == 2) == err.startswith("error: "), err
    assert (code == 2) == (err != ""), err


_SIM = ("simulate", "--pot", "2.5", "--seed", "1", "--t-end", "10")


def test_only_classification_sweeps_import_the_pool(tmp_path,
                                                   subprocess_env):
    code = (
        "import sys\n"
        "from kuhn3 import cli\n"
        "assert cli.main(['simulate', '--pot', '2.5', '--seed', '1',\n"
        "                 '--t-end', '10']) == 0\n"
        "assert cli.main(['sweep', '--pot-min', '2', '--pot-max', '3',\n"
        "                 '--step', '0.5', '--what', 'profits']) == 0\n"
        "loaded = {'multiprocessing', 'concurrent.futures.process'}\n"
        "assert not loaded & set(sys.modules), loaded & set(sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=subprocess_env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    (*_SIM, "--rtol", "nan"),
    (*_SIM, "--rtol", "0", "--atol", "0"),
    (*_SIM, "--dt", "0"),
    (*_SIM, "--f-max", "0"),
    ("simulate", "--pot", "inf", "--seed", "1", "--t-end", "10"),
    ("simulate", "--pot", "2.5", "--seed", "1", "--t-end", "inf"),
    ("equilibria", "--pot", "inf"),
    ("sweep", "--pot-min", "2", "--pot-max", "inf", "--step", "0.5",
     "--what", "profits"),
    (*_SIM, "--dt", "1e-9"),
    (*_SIM, "--dt", "5e-324"),
    ("sweep", "--pot-min", "2", "--pot-max", "3", "--step", "1e-12",
     "--what", "profits"),
    ("sweep", "--pot-min", "2", "--pot-max", "3", "--step", "5e-324",
     "--what", "profits"),
    (*_SIM[:-1], "1e300", "--dt", "1e297"),
    ("sweep", "--pot-min", "2.2", "--pot-max", "2.4", "--step", "0.2",
     "--what", "classification", "--seed", "1", "--t-end", "2e6", "--dt",
     "7000"),
], ids=["rtol-nan", "rtol-atol-zero", "dt-zero", "f-max-zero", "pot-inf",
        "t-end-inf", "equilibria-pot-inf", "sweep-pot-max-inf", "dt-tiny",
        "dt-subnormal", "sweep-step-tiny", "sweep-step-subnormal",
        "t-end-huge", "sweep-t-end-huge"])
def test_bad_input_is_a_usage_error(argv, tmp_path, subprocess_env):
    # a child process, so a hang fails on the timeout and a traceback shows
    proc = subprocess.run([sys.executable, "-m", "kuhn3.cli", *argv],
                          cwd=tmp_path, env=subprocess_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
