import json
from pathlib import Path

import pytest

from ksim.cli import main
from ksim.files import (ParseError, load_configuration, load_hst, load_metric,
                        load_requests)
from ksim.verify import CheckReport

GOLDEN = Path(__file__).parent / "golden"


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
                       "--algo", "algox", "--gen", "block_sweep:width=3",
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

    def test_run_events_rejects_inadmissible_tree(self, tmp_path, capsys):
        tree = tmp_path / "t.txt"
        tree.write_text("mu 2\nbranching 3 3\n")  # mu below both k and degree
        rc = main(["run", "--hst", str(tree), "--k", "3", "--gen", "uniform_random",
                   "--events", str(tmp_path / "ev.log")])
        assert rc == 1
        assert "below both" in capsys.readouterr().err

    # tests/golden/run_events_<branching>.log were written by the three-way
    # construction this one replaced, and must never change
    @pytest.mark.parametrize("branching", ["2 2 3", "3 3 3"])
    def test_run_event_log_bytes(self, tmp_path, capsys, branching):
        tree = tmp_path / "t.txt"
        tree.write_text(f"mu 3\nbranching {branching}\n")
        log = tmp_path / "ev.log"
        rc = main(["run", "--hst", str(tree), "--k", "3", "--gen", "uniform_random",
                   "--length", "80", "--seed", "7", "--events", str(log)])
        assert rc == 0
        name = "run_events_" + branching.replace(" ", "_") + ".log"
        assert log.read_bytes() == (GOLDEN / name).read_bytes()

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

    def test_config_integer_error_names_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max-len": 2.5}))
        rc = main(["--config", str(cfg), "probe-demand", "--delta", "2"])
        assert rc == 1
        assert "--max-len: expected an integer, got 2.5" in capsys.readouterr().err
