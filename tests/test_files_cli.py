import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ksim
from ksim import cli
from ksim.cli import main
from ksim.files import (ParseError, load_configuration, load_hst, load_metric,
                        load_requests)
from ksim.generators import generate, parse_generator
from ksim.harness import default_initial, run_shell
from ksim.metric import build_hst
from ksim.shell import tree_plan
from ksim.verify import CheckReport

GOLDEN = Path(__file__).parent / "golden"


def _ksim(cwd, *args):
    src = Path(ksim.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "ksim.cli", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})


def _uniform_metric(path, n):
    path.write_text(f"{n}\n" + "".join(" ".join(["1"] * (n - 1 - i)) + "\n"
                                       for i in range(n - 1)))
    return str(path)


def _long_options():
    """(subcommand, long option action) for every option but --help."""
    [sub] = [a for a in cli._build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return [(name, action) for name, parser in sub.choices.items()
            for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)]


def _sample(action):
    """A valid value other than the default: (flag text, JSON config value)."""
    if action.choices:
        value = next(c for c in action.choices if c != action.default)
        return value, value
    if action.type is cli._integer:
        return "7", 7
    if action.type is cli._rational:
        return "5/2", "5/2"
    return "x.txt", "x.txt"


def _readme_synopsis():
    """Subcommand -> the long options README's command-line block names."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    names: dict = {}
    command = None
    for line in block.splitlines():
        if line.startswith("ksim "):
            command = line.split()[1]
            names[command] = set()
        if command is not None:
            names[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return names


def test_readme_synopsis_names_every_long_option():
    defined: dict = {}
    for command, action in _long_options():
        defined.setdefault(command, set()).update(
            o for o in action.option_strings if o.startswith("--"))
    assert _readme_synopsis() == defined


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "tree.txt").write_text("# two levels\nmu 3\nbranching 3 4\n")
    (tmp_path / "uniform3.txt").write_text("3\n1 1\n1\n")
    (tmp_path / "reqs.txt").write_text("0 1 0 1\n")
    (tmp_path / "init.txt").write_text("0\n")
    return tmp_path


class TestParsers:
    def test_metric_roundtrip(self, workdir):
        m = load_metric(str(workdir / "uniform3.txt"))
        assert m.n == 3
        assert m.distance(0, 2) == 1

    def test_metric_bad_count(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3\n1 1\n")
        with pytest.raises(ParseError, match="expected 3 distances"):
            load_metric(str(p))

    def test_metric_triangle_violation_diagnosed(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3\n1 5\n1\n")
        with pytest.raises(ParseError, match="triangle"):
            load_metric(str(p))

    def test_metric_bad_token_line_number(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3\n1 1\nx\n")
        with pytest.raises(ParseError, match=r"m\.txt:3"):
            load_metric(str(p))

    def test_hst_roundtrip(self, workdir):
        s = load_hst(str(workdir / "tree.txt"))
        assert s.branching == (3, 4)
        assert s.mu == 3

    def test_hst_rational_mu(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("mu 5/2\nbranching 2 2\n")
        s = load_hst(str(p))
        assert s.leaf_metric.distance(0, 2) == 7

    def test_hst_rejections(self, tmp_path):
        cases = {
            "mu 1\nbranching 2\n": "mu must be > 1",
            "branching 2\n": "missing mu",
            "mu 2\n": "missing branching",
            "mu 2\nbranching 0\n": ">= 1",
            "mu x\nbranching 2\n": "bad mu",
            "mu 2\nbranching 2\nweird 1\n": "unknown field",
        }
        for text, match in cases.items():
            p = tmp_path / "bad.txt"
            p.write_text(text)
            with pytest.raises(ParseError, match=match):
                load_hst(str(p))

    @pytest.mark.parametrize("tok", ["1.5", "1e3", "1/0", "0x2"])
    def test_metric_rejects_inexact_literals(self, tmp_path, tok):
        p = tmp_path / "m.txt"
        p.write_text(f"2\n{tok}\n")
        with pytest.raises(ParseError, match=r"m\.txt:2: bad distance"):
            load_metric(str(p))

    def test_hst_rejects_decimal_mu(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("mu 2.5\nbranching 2 2\n")
        with pytest.raises(ParseError, match="bad mu"):
            load_hst(str(p))

    def test_requests_range_checked(self, tmp_path):
        p = tmp_path / "r.txt"
        p.write_text("0 1 7\n")
        with pytest.raises(ParseError, match="out of range"):
            load_requests(str(p), 3)

    def test_configuration_distinct(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("0 0\n")
        with pytest.raises(ParseError, match="distinct"):
            load_configuration(str(p), 3)

    def test_configuration_repeat_names_its_line(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("0\n1\n0\n")
        with pytest.raises(ParseError, match=r"cfg\.txt:3: .*distinct.*point 0"):
            load_configuration(str(p), 3)

    @pytest.mark.parametrize("load, text, message", [
        (load_metric, "", r"f\.txt:1: empty metric file"),
        (load_metric, "x\n", r"f\.txt:1: bad point count 'x'"),
        (load_metric, "0\n", r"f\.txt:1: point count must be >= 1, got 0"),
        (load_hst, "mu 2 3\nbranching 2\n", r"f\.txt:1: mu line needs exactly one value"),
        (load_hst, "mu 2\nbranching\n", r"f\.txt:2: branching line needs at least one"),
        (load_hst, "mu 2\nbranching 2 x\n", r"f\.txt:2: branching counts must be integers"),
        (load_hst, "mu 2\n# huge\nbranching 3000 3000\n",
         r"f\.txt:3: branching \[3000, 3000\] gives 9000000 leaves, more than the 4096"),
        (lambda path: load_requests(path, 3), "0 1\n2 x\n", r"f\.txt:2: bad point id 'x'"),
    ], ids=["metric-empty", "metric-bad-count", "metric-no-points", "hst-mu-two-values",
            "hst-bare-branching", "hst-branching-not-int", "hst-too-many-leaves",
            "requests-bad-id"])
    def test_refusals(self, tmp_path, load, text, message):
        p = tmp_path / "f.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match=message):
            load(str(p))

    @pytest.mark.parametrize("text, line, message", [
        ("3\n1 0\n1\n", 2, r"dist\(0,2\) = 0, must be positive"),
        ("3\n1 1\n# note\n-1\n", 4, r"dist\(1,2\) = -1, must be positive"),
    ])
    def test_metric_nonpositive_distance_names_its_line(self, tmp_path, text, line, message):
        p = tmp_path / "m.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match=rf"m\.txt:{line}: {message}"):
            load_metric(str(p))

    @pytest.mark.parametrize("text, line, field", [
        ("mu 3\nbranching 2 2\nmu 5\nbranching 3\n", 3, "mu"),
        ("branching 2 2\nmu 3\n# note\nbranching 3\n", 4, "branching"),
    ])
    def test_hst_rejects_repeated_field(self, tmp_path, text, line, field):
        p = tmp_path / "t.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match=rf"t\.txt:{line}: repeated {field} line"):
            load_hst(str(p))


class TestCli:
    def test_opt(self, workdir, capsys):
        rc = main(["opt", "--metric", str(workdir / "uniform3.txt"),
                   "--servers", "1", "--requests", str(workdir / "reqs.txt")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cost 3" in out

    def test_opt_with_initial(self, workdir, capsys):
        rc = main(["opt", "--metric", str(workdir / "uniform3.txt"),
                   "--servers", "1", "--requests", str(workdir / "reqs.txt"),
                   "--initial", str(workdir / "init.txt")])
        assert rc == 0
        assert "cost 3" in capsys.readouterr().out

    def test_demand(self, workdir, capsys):
        rc = main(["demand", "--metric", str(workdir / "uniform3.txt"),
                   "--delta", "2", "--requests", str(workdir / "reqs.txt")])
        assert rc == 0
        assert "demand 2" in capsys.readouterr().out

    def test_demand_at_a_delta_off_the_metric_grid(self, workdir, capsys):
        # opt(ell) + ell/3 over ell = 1, 2, 3: 3 + 1/3, 1 + 2/3 and 0 + 1
        reqs = workdir / "cycle.txt"
        reqs.write_text("0 1 2 0\n")
        rc = main(["demand", "--metric", str(workdir / "uniform3.txt"),
                   "--delta", "1/3", "--requests", str(reqs)])
        assert rc == 0
        assert capsys.readouterr().out == "demand 3\n"

    @pytest.mark.parametrize("delta", ["1.5", "2e0", "1/0"])
    def test_demand_rejects_inexact_delta(self, workdir, capsys, delta):
        rc = main(["demand", "--metric", str(workdir / "uniform3.txt"),
                   "--delta", delta, "--requests", str(workdir / "reqs.txt")])
        assert rc == 1
        assert "--delta: bad rational" in capsys.readouterr().err

    def test_demand_rejects_float_delta_from_config(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"delta": 2.5}))
        rc = main(["--config", str(cfg), "demand", "--metric", str(workdir / "uniform3.txt"),
                   "--requests", str(workdir / "reqs.txt")])
        assert rc == 1
        assert "--delta: bad rational '2.5'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--d", "--delta"])
    def test_probe_demand_rejects_inexact_rationals(self, capsys, flag):
        args = {"--d": "1", "--delta": "2"}
        args[flag] = "0.5"
        rc = main(["probe-demand", "--points", "2", "--max-len", "2",
                   "--d", args["--d"], "--delta", args["--delta"]])
        assert rc == 1
        assert f"{flag}: bad rational '0.5'" in capsys.readouterr().err

    def test_run(self, workdir, capsys):
        rc = main(["run", "--hst", str(workdir / "tree.txt"), "--k", "3",
                   "--gen", "block_sweep:width=3", "--length", "30", "--seed", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total" in out and "phases" in out

    def test_run_with_events_replays(self, workdir, capsys):
        ev1 = workdir / "ev1.log"
        ev2 = workdir / "ev2.log"
        for path in (ev1, ev2):
            rc = main(["run", "--hst", str(workdir / "tree.txt"), "--k", "3",
                       "--gen", "block_sweep:width=3",
                       "--length", "30", "--seed", "4", "--events", str(path)])
            assert rc == 0
        assert ev1.read_bytes() == ev2.read_bytes()
        assert b"jump" in ev1.read_bytes()

    def test_run_events_prints_the_same_lines_as_run(self, workdir, capsys):
        args = ["run", "--hst", str(workdir / "tree.txt"), "--k", "3",
                "--gen", "uniform_random", "--length", "40", "--seed", "4"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--events", str(workdir / "ev.log")]) == 0
        assert capsys.readouterr().out == plain
        assert "opt " in plain and "ratio " in plain and "m_sum " in plain

    def test_run_events_on_a_height_one_tree_writes_no_log(self, tmp_path, capsys):
        # a height-1 tree runs marking, which emits no events
        tree = tmp_path / "t.txt"
        tree.write_text("mu 2\nbranching 4\n")
        args = ["run", "--hst", str(tree), "--k", "3", "--gen", "uniform_random",
                "--length", "20", "--seed", "1"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--events", str(tmp_path / "ev.log")]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain and "total " in plain
        assert "height-1" in captured.err and "no event log" in captured.err
        assert not (tmp_path / "ev.log").exists()

    def test_no_command_selects_an_algorithm(self):
        # the tree picks it: marking at height 1, the nested shell above
        options = {o for _, action in _long_options() for o in action.option_strings}
        assert [o for o in options if "algo" in o] == []

    def test_run_events_rejects_inadmissible_tree(self, tmp_path, capsys):
        tree = tmp_path / "t.txt"
        tree.write_text("mu 2\nbranching 3 3\n")  # mu below both k and degree
        rc = main(["run", "--hst", str(tree), "--k", "3", "--gen", "uniform_random",
                   "--events", str(tmp_path / "ev.log")])
        assert rc == 1
        assert "below both" in capsys.readouterr().err
        assert not (tmp_path / "ev.log").exists()  # no empty log is left behind

    @staticmethod
    def _event_log(tmp_path, mu: str, branching: str) -> bytes:
        tree = tmp_path / "t.txt"
        tree.write_text(f"mu {mu}\nbranching {branching}\n")
        log = tmp_path / "ev.log"
        rc = main(["run", "--hst", str(tree), "--k", "3", "--gen", "uniform_random",
                   "--length", "80", "--seed", "7", "--events", str(log)])
        assert rc == 0
        return log.read_bytes()

    # tests/golden/run_events_<branching>.log were written by the three-way
    # construction this one replaced, and must never change
    @pytest.mark.parametrize("branching", ["2 2 3", "3 3 3", "4 4", "8 8"])
    def test_run_event_log_bytes(self, tmp_path, capsys, branching):
        name = "run_events_" + branching.replace(" ", "_") + ".log"
        assert self._event_log(tmp_path, "3", branching) == (GOLDEN / name).read_bytes()

    def test_run_event_log_bytes_rational_mu(self, tmp_path, capsys):
        # distances 2, 9 and 67/2 have scale 2, so every cost on an event line
        # is converted from the integer unit; the golden was written while
        # the shell still added Fractions
        log = self._event_log(tmp_path, "7/2", "3 3 3")
        assert b"cost=67/2" in log
        assert log == (GOLDEN / "run_events_3_3_3_mu7_2.log").read_bytes()

    @pytest.mark.parametrize("branching", ["2 2 3", "3 3 3"])
    def test_event_log_triggers_are_the_recorded_triggers(self, branching):
        # the run behind the pinned log, replayed through run_shell for its
        # record; a phase_end line carries the phase end's own trigger
        space = build_hst([int(b) for b in branching.split()], 3)
        gen = parse_generator("uniform_random", length=80, seed=7 ^ 0x5EED)
        events = []
        rec = run_shell(tree_plan(space), 3, default_initial(3), generate(gen, space), 7,
                        event_sink=events.append)
        name = "run_events_" + branching.replace(" ", "_") + ".log"
        assert "".join(line + "\n" for line in events).encode() == \
            (GOLDEN / name).read_bytes()
        logged = [int(field[len("trigger="):]) for line in events
                  if line.startswith("phase_end\t")
                  for field in line.split("\t") if field.startswith("trigger=")]
        assert logged and logged == rec.triggers
        assert rec.completed_phases == len(logged) == len(rec.phase_logs) - 1
        for p, trigger in enumerate(logged, start=1):
            assert rec.phase_sequence(p, True)[-1] == trigger
            assert rec.phase_logs[p][0] == trigger  # replayed first in phase p+1

    def test_bench_reproducible(self, workdir, capsys):
        out1 = workdir / "a.csv"
        out2 = workdir / "b.csv"
        for out in (out1, out2):
            rc = main(["bench", "--hst", str(workdir / "tree.txt"), "--k", "3",
                       "--gen", "uniform_random", "--trials", "5",
                       "--length", "25", "--seed", "9", "--out", str(out)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "seed,total,inner,jump,opt,ratio,phases,m_sum"

    def test_probe_demand(self, capsys):
        rc = main(["probe-demand", "--points", "3", "--delta", "2", "--max-len", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "decreases" in out

    def test_probe_demand_refuses_oversized_enumeration(self, capsys, monkeypatch):
        def no_probe(*args, **kwargs):
            raise AssertionError("enumeration started")
        monkeypatch.setattr("ksim.cli.probe_demand_monotonicity", no_probe)
        rc = main(["probe-demand", "--points", "8", "--delta", "2", "--max-len", "12"])
        assert rc == 1
        assert "--max-len" in capsys.readouterr().err

    def test_probe_demand_bounds_prefix_pushes(self, capsys, monkeypatch):
        # one point: 100,000 sequences, but about 5 * 10**9 prefix pushes
        def no_probe(*args, **kwargs):
            raise AssertionError("enumeration started")
        monkeypatch.setattr("ksim.cli.probe_demand_monotonicity", no_probe)
        rc = main(["probe-demand", "--points", "1", "--delta", "2", "--max-len", "100000"])
        assert rc == 1
        assert "--max-len" in capsys.readouterr().err
        monkeypatch.undo()
        assert main(["probe-demand", "--points", "3", "--delta", "2", "--max-len", "3"]) == 0

    @pytest.mark.parametrize("gen, name", [("block_sweep:passes=0", "passes"),
                                           ("uniform_random:foo=1", "foo")])
    def test_run_rejects_bad_generator_parameters(self, tmp_path, capsys, gen, name):
        tree = tmp_path / "t.txt"
        tree.write_text("mu 2\nbranching 2 2\n")
        rc = main(["run", "--hst", str(tree), "--k", "2", "--gen", gen])
        assert rc == 1
        assert name in capsys.readouterr().err

    def test_run_without_servers_is_a_usage_error(self, tmp_path):
        tree = tmp_path / "t.txt"
        tree.write_text("mu 2\nbranching 4\n")
        src = Path(ksim.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "ksim.cli", "run", "--hst", str(tree), "--k", "0",
             "--gen", "uniform_random", "--length", "5"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        assert "error: k must be >= 1, got 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_usage_error_exit_one(self, capsys):
        assert main(["opt", "--metric", "nope.txt", "--servers", "1",
                     "--requests", "nope.txt"]) == 1
        assert main(["run", "--hst", "missing.txt", "--k", "2", "--gen", "x"]) == 1
        assert main(["demand", "--metric", "x"]) == 1  # missing required flags

    def test_check_failure_exit_two(self, workdir, capsys, monkeypatch):
        failing = CheckReport(name="stub", phase=1, lhs=2, rhs=1, passed=False,
                              context={"seed": 0})
        monkeypatch.setattr("ksim.cli.run_lower_bound_suite",
                            lambda **kw: ([failing], False))
        rc = main(["verify", "--suite", "lower", "--runs", "1"])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "ama", "--seeds", "0"],
        ["verify", "--suite", "contract", "--seeds", "0"],
        ["verify", "--suite", "lower", "--runs", "0"],
        ["verify", "--suite", "lower", "--runs", "-1"],
        ["probe-demand", "--delta", "2", "--max-len", "-1"],
    ])
    def test_empty_verification_runs_are_usage_errors(self, capsys, argv):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ")
        assert "passed" not in out and "sequences" not in out

    def test_verify_csv_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "checks.csv"
        assert main(["verify", "--suite", "all", "--seeds", "200", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "verify_all_seeds200.csv").read_bytes()

    def test_verify_summary_lines(self, capsys):
        assert main(["verify", "--suite", "all", "--seeds", "50", "--runs", "2",
                     "--seed", "3"]) == 0
        assert capsys.readouterr().out == ("lower: 88/88 checks passed\n"
                                           "ama: 3/3 checks passed (hard limit ok)\n"
                                           "contract: 3/3 checks passed\n")

    def test_verify_lower_passes(self, workdir, tmp_path, capsys):
        out = tmp_path / "checks.csv"
        rc = main(["verify", "--suite", "lower", "--runs", "2", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("name,phase,lhs,rhs,margin,passed,seed")

    def test_config_file_defaults_and_flag_priority(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"delta": "10", "metric": str(workdir / "uniform3.txt")}))
        rc = main(["--config", str(cfg), "demand",
                   "--metric", str(workdir / "uniform3.txt"),
                   "--requests", str(workdir / "reqs.txt")])
        assert rc == 0
        assert "demand 1" in capsys.readouterr().out  # delta 10 from config
        rc = main(["--config", str(cfg), "demand",
                   "--metric", str(workdir / "uniform3.txt"),
                   "--delta", "2",
                   "--requests", str(workdir / "reqs.txt")])
        assert rc == 0
        assert "demand 2" in capsys.readouterr().out  # explicit flag wins

    @pytest.mark.parametrize("text, message", [
        (None, "config file: .*No such file"),
        ("{", "config file: Expecting property name"),
        ("[1, 2]", "config file must hold a JSON object"),
    ], ids=["unreadable", "invalid-json", "json-list"])
    def test_config_refusals(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        assert main(["--config", str(cfg), "verify", "--suite", "lower", "--runs", "1"]) == 1
        out, err = capsys.readouterr()
        assert re.match(f"error: {message}", err.splitlines()[-1])
        assert out == ""

    @pytest.mark.parametrize("value", [1.9, True, "1.5", "x", [1]])
    def test_config_rejects_non_integer_options(self, workdir, capsys, value):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"servers": value}))
        rc = main(["--config", str(cfg), "opt", "--metric", str(workdir / "uniform3.txt"),
                   "--requests", str(workdir / "reqs.txt")])
        assert rc == 1
        assert "--servers: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1, "1"])
    def test_config_accepts_integer_options(self, workdir, capsys, value):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"servers": value}))
        rc = main(["--config", str(cfg), "opt", "--metric", str(workdir / "uniform3.txt"),
                   "--requests", str(workdir / "reqs.txt")])
        assert rc == 0
        assert "cost 3" in capsys.readouterr().out

    @pytest.mark.parametrize("config", [{"command": "verify"}, {"command": "nope"},
                                        {"config": "x.json", "__class__": 1}])
    def test_config_keys_outside_the_subcommand_change_nothing(self, workdir, capsys,
                                                               config):
        args = ["run", "--hst", str(workdir / "tree.txt"), "--k", "2",
                "--gen", "uniform_random", "--length", "20"]
        rc = main(args)
        plain = capsys.readouterr().out
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["--config", str(cfg)] + args) == rc == 0
        assert capsys.readouterr().out == plain

    def test_config_integer_error_names_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max-len": 2.5}))
        rc = main(["--config", str(cfg), "probe-demand", "--delta", "2"])
        assert rc == 1
        assert "--max-len: expected an integer, got 2.5" in capsys.readouterr().err

    RUN = ["run", "--hst", "tree.txt", "--k", "2", "--gen", "uniform_random", "--length", "20"]

    # a config value passes its flag's choice check (suite), loses to an
    # abbreviated flag (max-len), is text even when a JSON number (gen, out)
    # and is absent when null; `expected` None means the stdout of the same
    # run without the config file
    @pytest.mark.parametrize("config, argv, rc, expected, written", [
        ({"suite": "nope"}, ["verify", "--runs", "1", "--seeds", "1"], 1, "", []),
        ({"max-len": 1}, ["probe-demand", "--delta", "2", "--max", "3"], 0,
         "sequences 39\nprefixes 102\ndecreases 0\nmax_step 1\n"
         "no decrease and max step 1 at this scale\n", []),
        ({"gen": 5}, ["run", "--hst", "tree.txt", "--k", "2"], 1, "", []),
        ({"out": 1}, ["bench", "--hst", "tree.txt", "--k", "2", "--trials", "2"], 0,
         "wrote 2 trials to 1\n", ["1"]),
        ({"seed": None}, RUN, 0, None, []),
        ({"events": None}, RUN, 0, None, []),
    ], ids=["suite", "abbreviated-flag", "gen", "out", "seed-null", "events-null"])
    def test_config_values_parse_like_flags(self, tmp_path, config, argv, rc, expected,
                                           written):
        (tmp_path / "tree.txt").write_text("mu 3\nbranching 3 4\n")
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        proc = _ksim(tmp_path, "--config", "cfg.json", *argv)
        assert proc.returncode == rc
        assert "Traceback" not in proc.stderr
        if rc:
            assert proc.stderr.splitlines()[-1].startswith("error: ")
        if expected is None:
            expected = _ksim(tmp_path, *argv).stdout
        assert proc.stdout == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["cfg.json", "tree.txt"] + written)
        if written:
            assert (tmp_path / "1").read_text().startswith("seed,total,")

    @pytest.mark.parametrize("command, action", _long_options(),
                             ids=lambda x: x if isinstance(x, str) else x.option_strings[0])
    def test_config_key_parses_like_its_flag(self, tmp_path, command, action):
        parser = cli._build_parser()
        flag = action.option_strings[0]
        text, value = _sample(action)
        by_flag = vars(cli._parse_args(parser, [command, flag, text]))
        assert by_flag.pop("config") is None
        assert by_flag[action.dest] != action.default
        for key in (flag[2:], flag[2:].replace("-", "_")):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            by_config = vars(cli._parse_args(parser, ["--config", str(cfg), command]))
            assert by_config.pop("config") == str(cfg)
            assert by_config == by_flag

    def test_solvers_refuse_oversized_inputs(self, workdir, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver started")
        monkeypatch.setattr("ksim.cli.opt_cost", no_solve)
        reqs = workdir / "r.txt"
        # C(22, 7) * 44 * 7 is about 10.5 times the guard
        reqs.write_text(" ".join(str(i % 22) for i in range(44)))
        rc = main(["opt", "--metric", _uniform_metric(workdir / "u22.txt", 22),
                   "--servers", "7", "--requests", str(reqs)])
        assert rc == 1
        assert "22 points, 7 servers and 44 requests" in capsys.readouterr().err
        monkeypatch.undo()
        for argv in (["opt", "--servers", "1"], ["demand", "--delta", "2"]):
            assert main(argv + ["--metric", str(workdir / "uniform3.txt"),
                                "--requests", str(workdir / "reqs.txt")]) == 0

    def test_demand_has_no_size_refusal_of_its_own(self, workdir, capsys):
        # 2**24 * 24 requests was far beyond a refusal by distinct points;
        # the lazy DP keeps three levels over 24 points and answers at once
        reqs = workdir / "r.txt"
        reqs.write_text(" ".join(str(i) for i in range(24)))
        rc = main(["demand", "--metric", _uniform_metric(workdir / "u24.txt", 24),
                   "--delta", "5", "--requests", str(reqs)])
        assert rc == 0
        assert capsys.readouterr().out == "demand 1\n"

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_a_tree_too_tall_to_plan_exits_one(self, workdir, capsys, command):
        # 3,000 levels overflowed Python's stack in `compose_f`
        tree = workdir / "tall.txt"
        tree.write_text("mu 2\nbranching " + "1 " * 2998 + "2 2\n")
        args = [command, "--hst", str(tree), "--k", "2", "--gen", "uniform_random"]
        if command == "bench":
            args += ["--trials", "2", "--out", str(workdir / "b.csv")]
        assert main(args) == 1
        assert not (workdir / "b.csv").exists()
        assert capsys.readouterr().err == \
            "error: tree height 3000 is above the 64 levels a plan may have\n"

    def test_demand_too_high_for_the_dp_exits_with_its_guard(self, workdir, capsys):
        # every server saves more than Delta, so the scan would keep level 6
        # over 30 points: C(30, 6) configurations, above DEMAND_LEVEL_GUARD
        reqs = workdir / "r.txt"
        reqs.write_text(" ".join(str(i) for i in range(30)))
        rc = main(["demand", "--metric", _uniform_metric(workdir / "u30.txt", 30),
                   "--delta", "1/2", "--requests", str(reqs)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: demand DP too large: level 6 ")
