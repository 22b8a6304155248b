from fractions import Fraction

import pytest

from ksim.generators import GeneratorSpec, generate
from ksim.harness import default_initial, run_shell
from ksim.marking import Universe
from ksim.metric import build_hst, build_uniform
from ksim.offline import opt_cost
from ksim.shell import tree_plan
from ksim.verify import (CheckReport, check_ama_bound, check_lower_bound_demand,
                         check_lower_bound_mp, check_phase_costs_delta,
                         check_subroutine_contract, checks_to_csv,
                         DeskInstance, deterministic_checks, desk_instances,
                         run_contract_suite, run_lower_bound_suite)


def traced_record(extra=()):
    """The hand-traced two-block run: one phase end after six requests."""
    space = build_hst([2, 2], 2)
    seq = [2, 1, 3, 2, 3, 2] + list(extra)
    return run_shell(tree_plan(space), 2, {0, 1}, seq, seed=42)


class TestLowerBoundDemand:
    def test_traced_run_is_tight(self):
        rec = traced_record()
        reports = check_lower_bound_demand(rec)
        assert len(reports) == 2  # completed phase 1 and the running phase 2
        first = reports[0]
        assert first.passed
        # block 0 demands 1 at cost 0, block 1 demands 2 at cost 0,
        # and one server must cross: rhs = Delta * (3 - 2) = 6 = lhs
        assert first.rhs == 6
        assert first.lhs == 6

    def test_every_phase_of_random_runs_passes(self):
        space = build_hst([3, 3], 3)
        seq = generate(GeneratorSpec("block_sweep", 40, seed=2,
                                     params={"width": 3, "passes": 4}), space)
        for seed in range(10):
            rec = run_shell(tree_plan(space), 3, default_initial(3), seq, seed)
            assert all(r.passed for r in check_lower_bound_demand(rec))

    def test_empty_run(self):
        space = build_hst([2, 2], 2)
        rec = run_shell(tree_plan(space), 2, {0, 1}, [], seed=0)
        reports = check_lower_bound_demand(rec)
        assert len(reports) == 1
        assert reports[0].passed  # 0 >= Delta * (0 - k)


class TestLowerBoundMp:
    def test_alone_solves_the_whole_sequence(self):
        rec = traced_record(extra=[0, 1, 3])
        rep = check_lower_bound_mp(rec)
        assert rep.lhs == opt_cost(rec.dec.metric, 2, rec.sequence).cost

    def test_suite_solves_the_whole_sequence_once_per_instance(self, monkeypatch):
        import ksim.verify
        inst = desk_instances()[0]
        whole = inst.sequence()
        solved = []

        def counting_opt_cost(metric, k, sequence, *args, **kwargs):
            solved.append(list(sequence) == whole)
            return opt_cost(metric, k, sequence, *args, **kwargs)

        monkeypatch.setattr(ksim.verify, "opt_cost", counting_opt_cost)
        _, passed = run_lower_bound_suite([inst], runs_per_instance=5)
        assert passed
        assert solved.count(True) == 1
        assert solved.count(False) > 0  # the phase optima are still solved

    def test_single_phase_sum_is_empty(self):
        rec = traced_record()
        rep = check_lower_bound_mp(rec)
        assert rep.passed
        assert rep.rhs == 0  # only phases after the first contribute

    def test_multi_phase_run(self):
        space = build_hst([3, 3], 3)
        seq = generate(GeneratorSpec("block_sweep", 60, seed=5,
                                     params={"width": 3, "passes": 4}), space)
        for seed in range(10):
            rec = run_shell(tree_plan(space), 3, default_initial(3), seq, seed)
            rep = check_lower_bound_mp(rec)
            assert rep.passed
        # at least some seed reaches a second completed phase
        rec = run_shell(tree_plan(space), 3, default_initial(3), seq, 3)
        assert rec.completed_phases >= 1


class TestPhaseCostsDelta:
    def test_non_final_phase_reaches_delta(self):
        rec = traced_record()
        reports = check_phase_costs_delta(rec)
        assert len(reports) == 1
        assert reports[0].lhs == 6  # exactly Delta: the bound is tight here
        assert reports[0].passed

    def test_single_phase_run_vacuous(self):
        space = build_hst([2, 2], 2)
        rec = run_shell(tree_plan(space), 2, {0, 2}, [0, 2, 0, 2], seed=1)
        assert rec.completed_phases == 0
        assert check_phase_costs_delta(rec) == []


class TestAmaBound:
    def make_records(self, seeds, seq=None):
        space = build_hst([3, 4], 3)
        if seq is None:
            seq = generate(GeneratorSpec("block_sweep", 60, seed=5,
                                         params={"width": 3, "passes": 3}), space)
        return [run_shell(tree_plan(space), 3, default_initial(3), seq, s)
                for s in range(seeds)]

    def test_requires_enough_seeds(self):
        records = self.make_records(5)
        with pytest.raises(ValueError, match="at least"):
            check_ama_bound(records, 3)

    def test_requires_identical_sequence(self):
        records = self.make_records(4)
        other = self.make_records(4, seq=[0, 1, 2, 3])
        with pytest.raises(ValueError, match="share"):
            check_ama_bound(records + other, 3, min_seeds=4)

    def test_bound_holds_on_sweep_instance(self):
        records = self.make_records(300)
        reports = check_ama_bound(records, 3, min_seeds=300)
        assert reports, "expected at least one completed phase"
        assert all(r.passed for r in reports)
        assert all(r.context["measured_constant"] <= 1.0986 for r in reports)

    def test_zero_jump_phase_passes_trivially(self):
        # one server per block, demands oscillate to the counts, donors never
        # exist when the phase ends: zero jumps, zero gain
        space = build_hst([2, 2], 2)
        seq = [2] + [0, 1] * 3
        records = [run_shell(tree_plan(space), 2, {0, 2}, seq, s) for s in range(50)]
        assert all(rec.completed_phases >= 1 for rec in records)
        assert all(rec.phase_jump_counts[0] == 0 for rec in records)
        reports = check_ama_bound(records, 2, min_seeds=50)
        assert reports[0].lhs == 0
        assert reports[0].passed
        assert reports[0].advisory  # k = 2: log-degenerate, reported only


class TestSubroutineContract:
    def test_covered_requests_cost_nothing(self):
        metric = build_uniform(3, 1)
        initial = frozenset({0, 1})
        rep = check_subroutine_contract(Universe(metric), [0, 1, 0], range(20), initial)
        assert rep.lhs == 0
        assert rep.passed

    def test_marking_on_adversarial_cycle(self):
        k = 3
        metric = build_uniform(k + 1, 1)
        initial = default_initial(k)
        seq = [i % (k + 1) for i in range(20 * (k + 1))]
        rep = check_subroutine_contract(Universe(metric), seq, range(400), initial)
        assert rep.passed
        assert rep.context["opt"] > 0


class TestReporting:
    def test_csv_shape(self):
        rep = CheckReport(name="x", phase=2, lhs=Fraction(1), rhs=Fraction(3),
                          passed=True, context={"seed": 9})
        text = checks_to_csv([rep])
        lines = text.strip().split("\n")
        assert lines[0] == "name,phase,lhs,rhs,margin,passed,seed"
        assert lines[1] == "x,2,1,3,2,1,9"

    def test_lower_bound_suite_passes(self):
        reports, ok = run_lower_bound_suite(runs_per_instance=2)
        assert ok
        # at most k jumps per phase holds by construction, so it is asserted
        jumps = [r for r in reports if r.name == "jumps_at_most_k"]
        assert len(jumps) == 12 and not any(r.advisory for r in jumps)
        assert any(r.name == "lower_bound_demand" for r in reports)
        assert any(r.name == "lower_bound_mp" for r in reports)
        assert any(r.name == "phase_cost_delta" for r in reports)

    def test_lower_bound_suite_runs_on_height_three(self):
        instances = [
            DeskInstance("h3_222_random", build_hst([2, 2, 2], 3), 3,
                         GeneratorSpec("uniform_random", 40, seed=5)),
            DeskInstance("h3_333_sweep", build_hst([3, 3, 3], 3), 3,
                         GeneratorSpec("block_sweep", 40, seed=6,
                                       params={"width": 4, "passes": 3})),
        ]
        reports, ok = run_lower_bound_suite(instances, runs_per_instance=5)
        assert ok
        assert len(reports) == 70 and all(r.passed for r in reports)
        assert {r.context["instance"] for r in reports} == {"h3_222_random", "h3_333_sweep"}

    def test_lower_bound_suite_refuses_a_flat_tree(self):
        flat = DeskInstance("flat", build_hst([4], 2), 2,
                            GeneratorSpec("uniform_random", 10, seed=1))
        with pytest.raises(ValueError, match="flat: a shell needs a tree of height 2"):
            run_lower_bound_suite([flat], runs_per_instance=1)

    def test_deterministic_checks_bundle(self):
        rec = traced_record()
        names = {r.name for r in deterministic_checks(rec)}
        assert names == {"lower_bound_demand", "lower_bound_mp", "phase_cost_delta"}

    def test_deterministic_checks_solve_each_optimum_once(self, monkeypatch):
        space = build_hst([3, 3], 3)
        seq = generate(GeneratorSpec("block_sweep", 60, seed=12,
                                     params={"width": 3, "passes": 4}), space)
        rec = run_shell(tree_plan(space), 3, default_initial(3), seq, seed=5)
        phases = len(rec.phase_logs)
        assert phases >= 4
        calls = []

        def counted(metric, k, sequence, *args, **kwargs):
            calls.append(tuple(sequence))
            return opt_cost(metric, k, sequence, *args, **kwargs)
        monkeypatch.setattr("ksim.verify.opt_cost", counted)
        reports = deterministic_checks(rec)
        # one solve per distinct sequence: the phase sequences (shared by
        # two checks) and the whole run; this sweep repeats a phase sequence
        distinct = {tuple(rec.phase_sequence(p, p <= rec.completed_phases))
                    for p in range(1, phases + 1)} | {tuple(seq)}
        assert len(distinct) < phases + 1
        assert sorted(calls) == sorted(distinct)
        shared = [r for r in reports if r.name in ("lower_bound_demand", "phase_cost_delta")]
        assert len(shared) == 2 * phases - 1
        for r in shared:
            phase_seq = rec.phase_sequence(r.phase, r.phase <= rec.completed_phases)
            assert r.lhs == opt_cost(rec.dec.metric, 3, phase_seq).cost

    def test_suite_solves_each_sequence_once_per_instance(self, monkeypatch):
        import ksim.verify
        instances = desk_instances()
        calls = []

        def counted(metric, k, sequence, *args, **kwargs):
            calls.append((id(metric), k, tuple(sequence)))
            return opt_cost(metric, k, sequence, *args, **kwargs)

        monkeypatch.setattr(ksim.verify, "opt_cost", counted)
        reports, passed = run_lower_bound_suite(instances, runs_per_instance=4)
        monkeypatch.undo()
        assert passed
        assert len(calls) == len(set(calls))
        # the same rows from records that each start with empty tables
        by_name = {inst.name: inst for inst in instances}
        fresh = []
        for run in (r for r in reports if r.name == "jumps_at_most_k"):
            inst = by_name[run.context["instance"]]
            rec = run_shell(tree_plan(inst.space), inst.k,
                            default_initial(inst.k), inst.sequence(), run.context["seed"])
            fresh.extend(deterministic_checks(rec))
        shared = [r for r in reports if r.name != "jumps_at_most_k"]
        assert len(shared) == len(fresh) > len(calls)
        assert checks_to_csv(shared) == checks_to_csv(fresh)


class TestContractSuite:
    @pytest.mark.parametrize("composed_seeds", [0, -1])
    def test_refuses_no_composed_seeds(self, composed_seeds):
        with pytest.raises(ValueError,
                           match=f"composed_seeds must be >= 1, got {composed_seeds}"):
            run_contract_suite(composed_seeds=composed_seeds)

    def test_composed_contract_plans_the_tree_once(self, monkeypatch):
        import ksim.shell
        import ksim.verify
        plan = ksim.shell.tree_plan
        calls = []

        def counted(space):
            calls.append(space)
            return plan(space)

        # both names: the suite may reach the builder through either module
        monkeypatch.setattr(ksim.shell, "tree_plan", counted)
        monkeypatch.setattr(ksim.verify, "tree_plan", counted, raising=False)
        reports, _ = run_contract_suite(ks=(), seeds=1, composed_seeds=5)
        assert [r.name for r in reports] == ["composed_contract"]
        assert reports[0].context["seeds"] == 5
        assert len(calls) == 1
