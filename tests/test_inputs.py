"""One rule per kind of input, kept at every entry that takes it.

- Integers in text are `files.parse_int` literals, an optional sign and
  ASCII digits: on the command line, in a config file, in every file format
  and in a generator's text.
- Counts and parameters passed to the library go through `metric.check_int`:
  exactly an int, within the entry's bounds.  A seed is one of them, checked
  where a run or a subroutine starts.
- Rationals passed to the library go through `metric.as_fraction`: an int
  or a Fraction, anything else a TypeError.
- Points are refused in `FiniteMetric.check_point`'s words: `point id X is
  not an int` for a wrong type, `out of range` for an int outside [0, n).
"""

import json
import re

import pytest

from ksim import files, metric
from ksim.cli import main
from ksim.files import ParseError, load_configuration, load_hst, load_metric, load_requests
from ksim.generators import GeneratorSpec, generate, parse_generator
from ksim.harness import probe_demand_monotonicity, run_shell, run_trials
from ksim.marking import Marking, Universe
from ksim.metric import Decomposition, FiniteMetric, HstSpace, build_hst, build_uniform
from ksim.offline import (DemandTracker, UniformDemandTracker, demand, opt_cost,
                          opt_cost_exhaustive)
from ksim.shell import BlockShell, ShellSubroutine, tree_plan
from ksim.verify import run_ama_suite, run_contract_suite, run_lower_bound_suite

# the builtin int reads the first two as 10 and 1; none is a decimal literal
BAD_TEXT = ["1_0", "١", "2.5", "1e3", "0x3"]


class TestTextIntegers:
    def test_parse_int_takes_a_sign_and_ascii_digits_alone(self):
        assert [files.parse_int(t) for t in ("0", "7", "+3", "-12", "007")] == [0, 7, 3, -12, 7]
        for text in BAD_TEXT + ["", "+", "--3", " 3", "3 ", "３"]:
            with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {text}")):
                files.parse_int(text)

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        (tmp_path / "tree.txt").write_text("mu 3\nbranching 3 4\n")
        (tmp_path / "m.txt").write_text("3\n1 1\n1\n")
        (tmp_path / "r.txt").write_text("0 1 0 1\n")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    OPT = ["opt", "--metric", "m.txt", "--requests", "r.txt"]
    BENCH = ["bench", "--hst", "tree.txt", "--k", "2", "--out", "o.csv", "--length", "5"]

    @pytest.mark.parametrize("argv, flag", [(OPT, "--servers"), (BENCH, "--trials")],
                             ids=["servers", "trials"])
    def test_a_flag_refuses_what_is_not_a_literal(self, workdir, capsys, argv, flag):
        for text in BAD_TEXT:
            assert main(argv + [flag, text]) == 1
            assert f"{flag}: expected an integer, got {text}" in capsys.readouterr().err
        assert not (workdir / "o.csv").exists()

    @pytest.mark.parametrize("argv, flag", [(OPT, "--servers"), (BENCH, "--trials")],
                             ids=["servers", "trials"])
    def test_a_config_value_refuses_what_is_not_a_literal(self, workdir, capsys, argv, flag):
        for text in BAD_TEXT:
            (workdir / "cfg.json").write_text(json.dumps({flag[2:]: text}))
            assert main(["--config", "cfg.json"] + argv) == 1
            assert f"{flag}: expected an integer, got {text}" in capsys.readouterr().err
        assert not (workdir / "o.csv").exists()

    # each bad token on the file's third line, after a comment
    @pytest.mark.parametrize("load, text, message", [
        (load_metric, "# points\n\n{}\n1\n", "bad point count {!r}"),
        (load_hst, "mu 2\n# levels\nbranching 2 {}\n", "branching counts must be integers"),
        (lambda path: load_requests(path, 16), "0 1\n# more\n2 {}\n", "bad point id {!r}"),
        (lambda path: load_configuration(path, 16), "0\n# more\n{} 2\n",
         "bad point id {!r}"),
    ], ids=["metric-count", "branching", "requests", "configuration"])
    def test_a_file_refuses_what_is_not_a_literal_on_its_line(self, tmp_path, load, text,
                                                             message):
        p = tmp_path / "f.txt"
        for tok in BAD_TEXT:
            p.write_text(text.format(tok), encoding="utf-8")
            with pytest.raises(ParseError, match=re.escape("f.txt:3: " + message.format(tok))):
                load(str(p))

    @pytest.mark.parametrize("kind, key", [
        ("uniform_random", "length"), ("uniform_random", "seed"), ("block_sweep", "width"),
        ("block_sweep", "passes"), ("phase_stress", "block"), ("phase_stress", "width"),
    ])
    def test_a_generator_parameter_refuses_what_is_not_a_literal(self, kind, key):
        for tok in BAD_TEXT:
            with pytest.raises(ValueError, match=re.escape(
                    f"generator parameter {key}: expected an integer, got {tok}")):
                parse_generator(f"{kind}:{key}={tok}")

    def test_the_gen_flag_names_the_key(self, workdir, capsys):
        run = ["run", "--hst", "tree.txt", "--k", "2", "--length", "5", "--gen"]
        for tok in BAD_TEXT:
            assert main(run + [f"block_sweep:width={tok}"]) == 1
            assert (f"error: generator parameter width: expected an integer, got {tok}"
                    in capsys.readouterr().err)

    def test_a_parsed_spec_holds_ints(self):
        spec = parse_generator("phase_stress:block=-1,width=+3,length=9,seed=-4", seed=5)
        assert (spec.length, spec.seed, spec.params) == (9, -4, {"block": -1, "width": 3})
        # a file's path is text, and a key the kind does not read is left
        # as text for `generate` to refuse
        assert parse_generator("file:path=12").params == {"path": "12"}
        spec = parse_generator("uniform_random:oops=1_0")
        assert spec.params == {"oops": "1_0"}
        with pytest.raises(ValueError, match="unknown uniform_random parameter 'oops'"):
            generate(spec, build_hst([2, 2], 2))


M3 = build_uniform(3, 1)
SPACE = build_hst([2, 2], 2)
SPEC = GeneratorSpec("uniform_random", 5)


def _tracker(cls):
    tracker = DemandTracker(M3, 2) if cls is DemandTracker else cls(M3, 2, 1)
    tracker.push_all([0, 1, 2, 0])
    return tracker


def _params(kind, key):
    return lambda v: generate(GeneratorSpec(kind, 6, params={key: v}), SPACE)


# entry, the name its refusal gives, and its bounds (None for no bound)
COUNTS = [
    ("build_uniform", lambda v: build_uniform(v, 1), "n", 1, None),
    ("build_hst", lambda v: build_hst([2, v], 2), "branching count", 1, None),
    ("length", lambda v: generate(GeneratorSpec("uniform_random", v), SPACE), "length", 0,
     None),
    ("seed", lambda v: generate(GeneratorSpec("uniform_random", 5, seed=v), SPACE), "seed",
     None, None),
    ("passes", _params("block_sweep", "passes"), "block_sweep passes", 1, None),
    ("sweep-width", _params("block_sweep", "width"), "block_sweep width", 0, None),
    ("block", _params("phase_stress", "block"), "phase_stress block", 0, None),
    ("stress-width", _params("phase_stress", "width"), "phase_stress width", 0, None),
    ("trials", lambda v: run_trials(SPACE, 2, "algox", SPEC, v, 0), "trials", 1, None),
    ("run_trials-k", lambda v: run_trials(SPACE, v, "algox", SPEC, 1, 0), "k", 1, None),
    ("BlockShell-k", lambda v: BlockShell(tree_plan(SPACE), v, {0}, 0), "k", 1, None),
    ("opt_cost", lambda v: opt_cost(M3, v, [0, 1]), "server count", 0, 3),
    ("opt_cost_exhaustive", lambda v: opt_cost_exhaustive(M3, v, [0, 1]), "server count",
     0, 3),
    ("dp-opt", lambda v: _tracker(DemandTracker).opt(v), "server count", 0, 3),
    ("dp-saving", lambda v: _tracker(DemandTracker).saving(v), "server count", 1, 3),
    ("uniform-opt", lambda v: _tracker(UniformDemandTracker).opt(v), "server count", 0, 3),
    ("uniform-saving", lambda v: _tracker(UniformDemandTracker).saving(v), "server count",
     1, 3),
    ("max_len", lambda v: probe_demand_monotonicity(M3, 2, max_len=v), "max_len", 1, None),
    ("lower-runs", lambda v: run_lower_bound_suite(runs_per_instance=v), "runs_per_instance",
     1, None),
    ("ama-seeds", lambda v: run_ama_suite(seeds=v), "seeds", 1, None),
    ("contract-seeds", lambda v: run_contract_suite(ks=(), seeds=v, composed_seeds=1),
     "seeds", 1, None),
    ("composed-seeds", lambda v: run_contract_suite(ks=(), seeds=1, composed_seeds=v),
     "composed_seeds", 1, None),
    # a seed of True would run as seed 1
    ("BlockShell-seed", lambda v: BlockShell(tree_plan(SPACE), 2, {0, 2}, v), "seed", None,
     None),
    ("run_shell-seed", lambda v: run_shell(tree_plan(SPACE), 2, {0, 2}, [1, 3], v), "seed",
     None, None),
    ("Universe.start", lambda v: Universe(M3).start(v), "seed", None, None),
    ("Marking", lambda v: Marking(Universe(M3), v), "seed", None, None),
    ("NodePlan.start", lambda v: tree_plan(SPACE).start(v), "seed", None, None),
    ("ShellSubroutine", lambda v: ShellSubroutine(tree_plan(SPACE), v), "seed", None, None),
    ("run_trials-seed", lambda v: run_trials(SPACE, 2, "algox", SPEC, 1, v), "base_seed",
     None, None),
    ("lower-seed", lambda v: run_lower_bound_suite(runs_per_instance=1, base_seed=v),
     "base_seed", None, None),
    ("ama-seed", lambda v: run_ama_suite(seeds=1, base_seed=v), "base_seed", None, None),
    ("contract-seed", lambda v: run_contract_suite(ks=(), seeds=1, composed_seeds=1,
                                                   base_seed=v), "base_seed", None, None),
]


class TestCounts:
    def test_check_int(self):
        assert metric.check_int("x", -5) == -5
        assert metric.check_int("x", 0, 0) == 0
        assert metric.check_int("x", 3, 1, 3) == 3
        for v, message in [(True, "x must be an int, got True"),
                           (3.0, "x must be an int, got 3.0"),
                           ("3", "x must be an int, got '3'"),
                           (0, "x 0 out of range [1, 3]"), (4, "x 4 out of range [1, 3]")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                metric.check_int("x", v, 1, 3)
        with pytest.raises(ValueError, match=re.escape("x must be >= 1, got 0")):
            metric.check_int("x", 0, 1)

    @pytest.mark.parametrize("call, name, least, most", [c[1:] for c in COUNTS],
                             ids=[c[0] for c in COUNTS])
    def test_an_entry_refuses_what_is_not_a_count(self, call, name, least, most):
        # a seed of None would seed the stream from the OS
        odd = (True, 2.0, 2.9, "3") + ((None,) if name.endswith("seed") else ())
        refused = [(v, f"{name} must be an int, got {v!r}") for v in odd]
        if most is not None:
            refused += [(v, f"{name} {v} out of range [{least}, {most}]")
                        for v in (least - 1, most + 1)]
        elif least is not None:
            refused.append((least - 1, f"{name} must be >= {least}, got {least - 1}"))
        for v, message in refused:
            with pytest.raises(ValueError, match=re.escape(message)):
                call(v)

    def test_a_block_wraps_and_a_width_of_zero_is_the_whole_block(self):
        def stress(**params):
            return generate(GeneratorSpec("phase_stress", 6, params=params), SPACE)
        assert stress(block=3) == stress(block=1) == [2, 3, 2, 3, 2, 3]
        assert stress(block=0, width=0) == [0] * 6
        sweep = generate(GeneratorSpec("block_sweep", 6, params={"width": 0, "passes": 1}),
                         SPACE)
        assert sweep == [0, 1, 2, 3, 0, 1]


def not_a_point(r, n: int) -> str:
    """`check_point`'s refusal of `r` on n points, as a pattern."""
    if type(r) is not int:
        return re.escape(f"point id {r!r} is not an int")
    return re.escape(f"point id {r} out of range [0, {n})")


SHELL_PLAN = tree_plan(SPACE)  # 4 points
SUB_PLAN = tree_plan(build_hst([2, 2, 2], 3)).subs[0]  # leaves 0..3 of 8

# entry, and the point count of its metric; the trackers, a shell's and a
# one-point adapter's `serve` and marking are tested with their modules
POINTS = [
    ("shell-start", lambda r: BlockShell(SHELL_PLAN, 2, {2, r}, 0), 4),
    ("one-point-reset", lambda r: ShellSubroutine(SUB_PLAN, 0).reset({r}), 8),
    ("pending-reset", lambda r: ShellSubroutine(SUB_PLAN, 0).reset({2, r}), 8),
    ("opt_cost-request", lambda r: opt_cost(M3, 1, [0, r]), 3),
    ("opt_cost-initial", lambda r: opt_cost(M3, 1, [0], initial=[r]), 3),
    ("exhaustive-request", lambda r: opt_cost_exhaustive(M3, 1, [0, r]), 3),
    ("distance", lambda r: M3.distance(r, 0), 3),
    ("distance-second", lambda r: M3.distance(0, r), 3),
]


@pytest.mark.parametrize("call, n", [p[1:] for p in POINTS], ids=[p[0] for p in POINTS])
def test_an_entry_words_a_non_point_as_check_point(call, n):
    for r in (True, 1.0, "3", -1, n):
        with pytest.raises(ValueError, match=not_a_point(r, n)):
            call(r)


# entry taking a rational; a float, a bool and a str are refused alike
RATIONALS = [
    ("FiniteMetric", lambda v: FiniteMetric([[0, v], [v, 0]])),
    ("from_upper_triangle", lambda v: FiniteMetric.from_upper_triangle(2, [v])),
    ("build_uniform", lambda v: build_uniform(2, v)),
    ("build_hst", lambda v: build_hst([2, 2], v)),
    ("HstSpace", lambda v: HstSpace([2, 2], v)),
    ("Decomposition-Delta", lambda v: Decomposition(M3, [[0], [1], [2]], v, 1)),
    ("Decomposition-delta", lambda v: Decomposition(M3, [[0], [1], [2]], 1, v)),
    ("for_metric", lambda v: DemandTracker.for_metric(M3, v)),
    ("demand", lambda v: demand(M3, v, [0, 1])),
]


@pytest.mark.parametrize("call", [e[1] for e in RATIONALS], ids=[e[0] for e in RATIONALS])
def test_an_entry_refuses_a_rational_that_is_not_an_int_or_a_fraction(call):
    for v in (True, "3", "3/2", 1.5):
        message = f"got {type(v).__name__} {v!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            call(v)
