from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ksim import offline
from ksim.generators import GeneratorSpec, generate, parse_generator
from ksim.harness import (CSV_HEADER, default_initial, probe_demand_monotonicity,
                          reports_to_csv, run_shell, run_trials, solver_guard_ok)
from ksim.marking import Universe
from ksim.metric import FiniteMetric, build_hst, build_uniform
from ksim.offline import INF
from ksim.shell import PLAN_MAX_HEIGHT, tree_plan


class TestGenerators:
    def test_zero_length(self):
        space = build_hst([3], 2)
        assert generate(GeneratorSpec("uniform_random", 0, seed=1), space) == []

    def test_deterministic_per_seed(self):
        space = build_hst([2, 3], 3)
        spec = GeneratorSpec("uniform_random", 40, seed=9)
        assert generate(spec, space) == generate(spec, space)

    def test_unknown_kind(self):
        space = build_hst([3], 2)
        with pytest.raises(ValueError):
            generate(GeneratorSpec("nope", 5), space)

    def test_block_sweep_triggers_jumps(self):
        space = build_hst([3, 3], 3)
        spec = GeneratorSpec("block_sweep", 50, seed=3, params={"width": 3, "passes": 3})
        seq = generate(spec, space)
        rec = run_shell(tree_plan(space), 3, default_initial(3), seq, seed=0)
        assert sum(rec.phase_jump_counts) + rec.total_jump > 0

    def test_phase_stress_turns_marking_phases(self):
        space = build_hst([6], 2)
        k = 3
        spec = GeneratorSpec("phase_stress", 8 * (k + 1), params={"width": k + 1})
        seq = generate(spec, space)
        assert sorted(set(seq)) == [0, 1, 2, 3]
        st = Universe(space.leaf_metric).start(seed=1)
        st.reset(default_initial(k))
        for r in seq:
            st.serve(r)
        assert st.phase_count > 1

    def test_block_sweep_needs_a_pass(self):
        space = build_hst([2, 2], 2)
        for passes in (0, -1):
            spec = GeneratorSpec("block_sweep", 10, params={"passes": passes})
            with pytest.raises(ValueError, match="passes"):
                generate(spec, space)

    @pytest.mark.parametrize("kind, params", [
        ("uniform_random", {"foo": 1}),
        ("uniform_random", {"width": 2}),
        ("block_sweep", {"block": 0}),
        ("phase_stress", {"passes": 2}),
        ("file", {"path": "reqs.txt", "width": 2}),
    ])
    def test_unknown_parameters_are_rejected(self, kind, params):
        space = build_hst([2, 2], 2)
        bad = sorted(set(params) - {"path"})[0]
        with pytest.raises(ValueError, match=f"unknown {kind} parameter '{bad}'"):
            generate(GeneratorSpec(kind, 10, params=params), space)

    @pytest.mark.parametrize("spec, message", [
        (GeneratorSpec("uniform_random", -1), "length must be >= 0"),
        (GeneratorSpec("file", 5), r"file generator needs params\['path'\]"),
    ], ids=["negative-length", "file-without-path"])
    def test_refusals(self, spec, message):
        with pytest.raises(ValueError, match=message):
            generate(spec, build_hst([2, 2], 2))

    @pytest.mark.parametrize("kind, params", [
        ("uniform_random", {}),
        ("block_sweep", {"width": 2}),
        ("phase_stress", {"width": 2}),
        ("file", {"path": "no-such-file.txt"}),
    ])
    @pytest.mark.parametrize("length", [2.5, 3.0, True, False, "3", None])
    def test_a_length_that_is_not_an_int_is_refused(self, kind, params, length):
        # unchecked, 2.5 gives block_sweep 8 requests, True reads as length
        # 1 and "3" raises a bare TypeError; the file is never opened
        spec = GeneratorSpec(kind, length, seed=1, params=params)
        with pytest.raises(ValueError, match=f"length must be an int, got {length!r}"):
            generate(spec, build_hst([2, 2], 2))

    def test_parse_generator(self):
        spec = parse_generator("block_sweep:width=3,passes=2,seed=7", length=50)
        assert spec.kind == "block_sweep"
        assert spec.length == 50
        assert spec.seed == 7
        assert spec.params == {"width": 3, "passes": 2}
        with pytest.raises(ValueError):
            parse_generator("bogus")
        with pytest.raises(ValueError):
            parse_generator("uniform_random:oops")


class TestRunTrials:
    @pytest.mark.parametrize("algo, trials, message", [
        ("algox", 0, "trials must be >= 1"),
        ("greedy", 1, "unknown algorithm 'greedy'"),
    ], ids=["no-trials", "unknown-algo"])
    def test_refusals(self, algo, trials, message):
        spec = GeneratorSpec("uniform_random", 5)
        with pytest.raises(ValueError, match=message):
            run_trials(build_hst([2, 2], 2), 2, algo, spec, trials, 0)

    def test_rejects_no_servers_before_generating(self):
        # the file does not exist: reading it would fail with another error
        spec = GeneratorSpec("file", 0, params={"path": "missing-requests.txt"})
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            run_trials(build_hst([3], 2), 0, "marking", spec, 1, 0)

    def test_trials_repeat_no_set_up_work(self, monkeypatch):
        import ksim.shell
        from ksim.metric import FiniteMetric, HstSpace
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(FiniteMetric, "uniform_cost",
                            counted("uniform_cost", FiniteMetric.uniform_cost))
        monkeypatch.setattr(HstSpace, "subtree_leaf_points",
                            counted("subtree_leaf_points", HstSpace.subtree_leaf_points))
        monkeypatch.setattr(ksim.shell, "node_decompositions",
                            counted("node_decompositions", ksim.shell.node_decompositions))
        space = build_hst([3, 3, 3], 3)
        spec = GeneratorSpec("uniform_random", 60, seed=5)
        per_batch = []
        for trials in (1, 8):
            calls.clear()
            run_trials(space, 3, "algox", spec, trials, base_seed=3)
            per_batch.append(dict(calls))
        assert per_batch[0]["node_decompositions"] == 1
        assert per_batch[0] == per_batch[1]

    def test_empty_sequence_conventions(self):
        space = build_hst([2, 2], 2)
        reports = run_trials(space, 2, "algox",
                             GeneratorSpec("uniform_random", 0, seed=1),
                             trials=1, base_seed=5)
        rep = reports[0]
        assert rep.total == 0
        assert rep.opt == 0
        assert rep.ratio == 1  # zero-cost convention

    def test_seed_derivation(self):
        space = build_hst([2, 2], 2)
        reports = run_trials(space, 2, "algox",
                             GeneratorSpec("uniform_random", 10, seed=1),
                             trials=4, base_seed=12)
        assert [r.seed for r in reports] == [12 ^ 0, 12 ^ 1, 12 ^ 2, 12 ^ 3]

    def test_identical_batches_identical_csv(self):
        space = build_hst([3, 3], 3)
        spec = GeneratorSpec("block_sweep", 30, seed=4, params={"width": 3})
        a = reports_to_csv(run_trials(space, 3, "algox", spec, 6, base_seed=2))
        b = reports_to_csv(run_trials(space, 3, "algox", spec, 6, base_seed=2))
        assert a == b
        assert a.startswith(CSV_HEADER + "\n")
        assert a.endswith("\n")

    def test_totals_split(self):
        space = build_hst([3, 3], 3)
        spec = GeneratorSpec("block_sweep", 40, seed=4, params={"width": 3})
        for rep in run_trials(space, 3, "algox", spec, 5, base_seed=0):
            assert rep.total == rep.inner + rep.jump
            assert rep.ratio >= 1 or rep.opt == 0

    def test_marking_on_uniform_space(self):
        space = build_hst([5], 2)
        spec = GeneratorSpec("phase_stress", 24, params={"width": 4})
        reports = run_trials(space, 3, "marking", spec, 3, base_seed=9)
        assert all(r.jump == 0 for r in reports)
        assert all(r.total > 0 for r in reports)

    def test_marking_rejected_on_tall_space(self):
        space = build_hst([2, 2], 2)
        with pytest.raises(ValueError):
            run_trials(space, 2, "marking",
                       GeneratorSpec("uniform_random", 5, seed=1), 1, 0)

    def test_rejects_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("opt_cost ran on a rejected input")
        monkeypatch.setattr("ksim.harness.opt_cost", no_solve)
        spec = GeneratorSpec("uniform_random", 300, seed=1)
        with pytest.raises(ValueError, match="below both"):
            run_trials(build_hst([4, 4], 2), 4, "algox", spec, 1, 0)
        with pytest.raises(ValueError, match="height-1"):
            run_trials(build_hst([2, 2], 2), 2, "marking", spec, 1, 0)

    def test_the_tallest_plan_runs(self):
        # one chain of unary levels above a [2, 2] tree nests a shell per level
        space = build_hst([1] * (PLAN_MAX_HEIGHT - 2) + [2, 2], 2)
        spec = GeneratorSpec("uniform_random", 60, seed=3)
        for rep in run_trials(space, 2, "algox", spec, 2, base_seed=1):
            assert rep.total == rep.inner + rep.jump and rep.total >= rep.opt > 0

    def test_a_taller_tree_is_refused_before_generating(self, monkeypatch):
        def no_call(*args, **kwargs):
            raise AssertionError("a refused tree reached generate or opt_cost")
        monkeypatch.setattr("ksim.harness.generate", no_call)
        monkeypatch.setattr("ksim.harness.opt_cost", no_call)
        space = build_hst([1] * (PLAN_MAX_HEIGHT - 1) + [2, 2], 2)
        with pytest.raises(ValueError, match=f"tree height {PLAN_MAX_HEIGHT + 1} is above "
                                             f"the {PLAN_MAX_HEIGHT} levels"):
            run_trials(space, 2, "algox", GeneratorSpec("uniform_random", 60, seed=3), 1, 0)

    def test_algox_on_flat_space_degenerates_to_marking(self):
        space = build_hst([5], 2)
        spec = GeneratorSpec("phase_stress", 16, params={"width": 4})
        reports = run_trials(space, 3, "algox", spec, 2, base_seed=3)
        assert all(r.jump == 0 and r.m_sum == 0 for r in reports)

    def test_file_generator(self, tmp_path):
        space = build_hst([2, 2], 2)
        path = tmp_path / "reqs.txt"
        path.write_text("0 3 1 2\n")
        spec = GeneratorSpec("file", 0, params={"path": str(path)})
        assert generate(spec, space) == [0, 3, 1, 2]
        spec = GeneratorSpec("file", 2, params={"path": str(path)})
        assert generate(spec, space) == [0, 3]

    def test_infinite_ratio_rendering(self):
        from ksim.harness import render_rational
        assert render_rational(INF) == "inf"
        assert render_rational(None) == "na"
        assert render_rational(Fraction(7, 2)) == "7/2"

    def test_solver_guard_omits_opt(self):
        # C(64, 8) configurations: far beyond OPT_STATE_GUARD
        space = build_hst([8, 8], 8)
        spec = GeneratorSpec("uniform_random", 12, seed=4)
        assert not solver_guard_ok(space.n_leaves, 8, 12)
        reports = run_trials(space, 8, "algox", spec, 2, base_seed=0)
        assert all(r.opt is None and r.ratio is None for r in reports)
        csv_text = reports_to_csv(reports)
        assert ",na," in csv_text

    def test_rational_rendering_in_csv(self):
        space = build_hst([2, 2], Fraction(5, 2))
        spec = GeneratorSpec("block_sweep", 21, seed=4, params={"width": 2})
        text = reports_to_csv(run_trials(space, 2, "algox", spec, 2, base_seed=1))
        body = text.strip().split("\n")[1:]
        assert any("/" in line for line in body)  # exact rationals surface


GOLDEN = Path(__file__).parent / "golden"

# (branching, mu, k, generator, trials, base_seed); the CSV bytes in
# tests/golden/<name>.csv were rendered before the interval demand tracker
# existed (h3_rational_mu, whose costs have scale 2, before costs were added
# as integers), and must never change
PINNED_BATCHES = {
    "h2_uniform_random": ((4, 4), 4, 4, GeneratorSpec("uniform_random", 120, seed=11), 6, 3),
    "h2_block_sweep": ((4, 4), 4, 4,
                       GeneratorSpec("block_sweep", 120, seed=0, params={"width": 3}), 6, 5),
    "h2_rational_mu": ((4, 4), Fraction(17, 4), 4,
                       GeneratorSpec("uniform_random", 120, seed=13), 6, 7),
    "h3_uniform_random": ((3, 3, 3), 3, 3, GeneratorSpec("uniform_random", 120, seed=12), 6, 9),
    "h3_block_sweep": ((3, 3, 3), 3, 3,
                       GeneratorSpec("block_sweep", 120, seed=0, params={"width": 5}), 6, 1),
    "h3_rational_mu": ((3, 3, 3), Fraction(7, 2), 3, GeneratorSpec("uniform_random", 80, seed=7),
                       6, 7),
    # two levels of nested shells under the root, rendered before each node's
    # structure was planned once per tree
    "h4_uniform_random": ((2, 2, 2, 2), 2, 2, GeneratorSpec("uniform_random", 120, seed=7), 6, 7),
    "h4_block_sweep": ((2, 3, 2, 2), 3, 3,
                       GeneratorSpec("block_sweep", 120, seed=7,
                                     params={"width": 3, "passes": 3}), 4, 9),
    # a sweep over 16 of a root block's points, rendered while the block's
    # configuration DP still kept every server count (4.3 s, now 0.02 s)
    "h3_wide_block_sweep": ((4, 4, 4), 4, 4,
                            GeneratorSpec("block_sweep", 128, seed=0,
                                          params={"width": 16, "passes": 1}), 4, 0),
}


@pytest.mark.parametrize("name", sorted(PINNED_BATCHES))
def test_pinned_csv_bytes(name):
    branching, mu, k, spec, trials, base_seed = PINNED_BATCHES[name]
    reports = run_trials(build_hst(branching, mu), k, "algox", spec, trials, base_seed)
    expected = (GOLDEN / f"{name}.csv").read_bytes()
    assert reports_to_csv(reports).encode() == expected


class TestPointChecks:
    """Valid input makes no `FiniteMetric.check_point` call: serving, shell
    restarts, demand trackers and `opt_cost` test each point themselves and
    call it only to word a refusal."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = FiniteMetric.check_point
        monkeypatch.setattr(FiniteMetric, "check_point",
                            lambda self, p: calls.append(p) or check(self, p))
        return calls

    @pytest.mark.parametrize("branching, k, length, trials", [
        ((3, 3, 3), 3, 200, 8),  # nested shells restart on every jump
        ((8, 8), 8, 500, 1),
    ])
    def test_a_bench_batch(self, checks, branching, k, length, trials):
        spec = GeneratorSpec("uniform_random", length, seed=5)
        run_trials(build_hst(branching, k), k, "algox", spec, trials, base_seed=3)
        assert checks == []

    def test_the_lower_bound_suite(self, checks):
        from ksim.verify import run_lower_bound_suite
        _, passed = run_lower_bound_suite(runs_per_instance=1)
        assert passed and checks == []


class TestBlockDemandWork:
    """A non-uniform block's configuration DP keeps only the server counts
    that its demand scan reads, so sweeps over many of its points stay
    cheap.  The entries the DP steps are counted, and a run fails as soon as
    they pass the bound: keeping every server count stepped 262,140 on the
    first sweep, and the second ran for minutes."""

    @staticmethod
    def run_counted(monkeypatch, bound, branching, mu, k, spec):
        stepped = [0]

        def counted(dp, r, dist, _step=offline._lazy_step):
            stepped[0] += len(dp)
            assert stepped[0] <= bound
            return _step(dp, r, dist)

        monkeypatch.setattr(offline, "_lazy_step", counted)
        space = build_hst(branching, mu)
        run_shell(tree_plan(space), k, default_initial(k), generate(spec, space), seed=0)
        return stepped[0]

    def test_sweep_over_16_points_of_a_64_leaf_tree(self, monkeypatch):
        spec = GeneratorSpec("block_sweep", 64, params={"width": 16, "passes": 1})
        assert self.run_counted(monkeypatch, 10_000, [4, 4, 4], 4, 4, spec) > 0

    def test_sweep_over_a_24_point_root_block(self, monkeypatch):
        spec = GeneratorSpec("block_sweep", 42, params={"width": 26, "passes": 2})
        assert self.run_counted(monkeypatch, 30_000, [2, 2, 3, 4], Fraction(5, 2), 2,
                                spec) > 0

    def test_a_sweep_whose_demand_needs_wide_levels_fails_fast(self, monkeypatch):
        # the passes drive a 36-point root block's demand to k = 6; keeping
        # the levels up to 6 ran for minutes before `DEMAND_LEVEL_GUARD`
        spec = GeneratorSpec("block_sweep", 600, seed=3, params={"width": 36, "passes": 8})
        with pytest.raises(ValueError, match="over 36 distinct points"):
            self.run_counted(monkeypatch, 200_000, [6, 6, 6], 6, 6, spec)


class TestProbe:
    def test_vacuous_cases(self):
        m = build_uniform(2, 1)
        summary = probe_demand_monotonicity(m, 2, sequences=[[0]])
        assert summary.prefixes == 1
        assert summary.decreases == 0
        assert summary.max_step == 1

    def test_abab_steps_bounded(self):
        m = build_uniform(2, 1)
        summary = probe_demand_monotonicity(m, 2, sequences=[[0, 1, 0, 1]])
        assert summary.max_step <= 1
        assert summary.decreases == 0

    def test_exhaustive_small(self):
        m = build_uniform(2, 1)
        summary = probe_demand_monotonicity(m, 2, max_len=4)
        assert summary.sequences == 2 + 4 + 8 + 16
        assert summary.verdict  # always one of the two documented outcomes

    def test_needs_input(self):
        with pytest.raises(ValueError):
            probe_demand_monotonicity(build_uniform(2, 1), 2)
