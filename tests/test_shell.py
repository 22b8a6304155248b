import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ksim import harness
from ksim.generators import GeneratorSpec, generate
from ksim.harness import default_initial, reports_to_csv, run_shell, run_trials
from ksim.marking import Marking, Universe, marking_f
from ksim.metric import Decomposition, FiniteMetric, build_hst, decompose
from ksim.offline import DemandTracker, UniformDemandTracker
from ksim.shell import (BlockShell, NodePlan, ShellInvariantError, ShellSubroutine,
                        check_hst_admissible, compose_f, tree_plan)


def not_a_point(r, n: int) -> str:
    """`check_point`'s refusal of `r` on n points, as a pattern."""
    if type(r) is not int:
        return re.escape(f"point id {r!r} is not an int")
    return re.escape(f"point id {r} out of range [0, {n})")


def started(space, initial, seed):
    """The whole tree's algorithm, started by its plan and reset to `initial`."""
    algo = tree_plan(space).start(seed)
    algo.reset(initial)
    return algo


def two_block_shell(seed=42, events=None):
    space = build_hst([2, 2], 2)  # blocks {0,1} and {2,3}, Delta = 6
    sink = events.append if events is not None else None
    return BlockShell(tree_plan(space), 2, {0, 1}, seed=seed, event_sink=sink)


def event_fields(lines, kind):
    """The fields of every event line of one kind, as strings."""
    return [dict(f.split("=", 1) for f in line.split("\t")[1:])
            for line in lines if line.split("\t", 1)[0] == kind]


class TestConstruction:
    def test_initial_marks_follow_empty_blocks(self):
        space = build_hst([3, 2], 3)
        sh = BlockShell(tree_plan(space), 2, {0, 2}, seed=0)
        assert [sh.is_marked(b) for b in range(3)] == [False, False, True]

    def test_all_servers_in_one_block_marks_the_rest(self):
        space = build_hst([3, 2], 3)
        sh = BlockShell(tree_plan(space), 2, {0, 1}, seed=0)
        assert [sh.is_marked(b) for b in range(3)] == [False, True, True]

    def test_rejects_small_separation(self):
        # uniform blocks of diameter 2 at cross distance 3: mu_eff = 3/2
        rows = [[0, 2, 3, 3], [2, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]]
        dec = Decomposition(FiniteMetric(rows), [(0, 1), (2, 3)], Delta=3, delta=2)
        plan = NodePlan(dec, tuple(Universe(dec.metric, blk) for blk in dec.blocks))
        with pytest.raises(ValueError, match="separation"):
            BlockShell(plan, 2, {0, 1}, seed=0)

    @pytest.mark.parametrize("nested_block", [0, 1])
    def test_refuses_mixed_block_plans(self, nested_block):
        # blocks {0, 1} and {2, 3} at Delta 2, delta 1: one block gets
        # marking, the other a nested plan on its two points
        rows = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]
        m = FiniteMetric(rows)
        dec = Decomposition(m, [(0, 1), (2, 3)], Delta=2, delta=1)
        subs = [Universe(m, blk) for blk in dec.blocks]
        blk = dec.blocks[nested_block]
        inner = Decomposition(m, [blk[:1], blk[1:]], Delta=1, delta=1)
        subs[nested_block] = NodePlan(inner, tuple(Universe(m, b) for b in inner.blocks))
        with pytest.raises(ValueError, match="all marking universes or all node plans"):
            NodePlan(dec, tuple(subs))

    def test_refuses_a_plan_count_other_than_the_blocks(self):
        # blocks {0, 1} and {2, 3}: with one plan, a request to point 2
        # would find no subroutine for its block
        rows = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]
        m = FiniteMetric(rows)
        dec = Decomposition(m, [(0, 1), (2, 3)], Delta=2, delta=1)
        for blocks in ([(0, 1)], [(0, 1), (2, 3), (0, 1)]):
            with pytest.raises(ValueError,
                               match=f"expected 2 block plans, one per block, got {len(blocks)}"):
                NodePlan(dec, tuple(Universe(m, blk) for blk in blocks))

    def test_refuses_a_separation_below_one(self):
        # blocks of diameter 2 at cross distance 1: no shell starts at
        # mu_eff = 1/2, yet a one-server reset, which builds none, served
        rows = [[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 2], [1, 1, 2, 0]]
        m = FiniteMetric(rows)
        dec = Decomposition(m, [(0, 1), (2, 3)], Delta=1, delta=2)
        with pytest.raises(ValueError, match=re.escape("separation too small: mu_eff=1/2 < 1")):
            NodePlan(dec, tuple(Universe(m, blk) for blk in dec.blocks))
        # one point (a one-leaf subtree, Delta 0) holds one server that
        # never moves, so its plan builds and serves
        point = Decomposition(m, [(2,)], Delta=0, delta=1)
        sub = NodePlan(point, (Universe(m, (2,)),)).start(0)
        sub.reset({2})
        assert sub.serve(2) == 0 and sub.config == {2}

    def test_rejects_wrong_initial_size(self):
        plan = tree_plan(build_hst([2, 2], 2))
        with pytest.raises(ValueError):
            BlockShell(plan, 3, {0, 1}, seed=0)
        with pytest.raises(ValueError):
            BlockShell(plan, 0, set(), seed=0)


class TestTrackerChoice:
    def test_uniform_blocks_get_the_interval_tracker(self):
        space = build_hst([8, 8], 8)
        sh = BlockShell(tree_plan(space), 8, range(8), seed=0)
        assert all(type(sh._new_tracker(s)) is UniformDemandTracker for s in range(2))

    def test_non_uniform_blocks_keep_the_dp(self):
        root = started(build_hst([3, 3, 3], 3), {0, 1, 2}, seed=0).shell
        assert all(type(root._new_tracker(s)) is DemandTracker for s in range(3))
        inner = root._subs[0].shell  # [3,3] node: blocks of three leaves
        assert all(type(inner._new_tracker(s)) is UniformDemandTracker for s in range(3))

    def test_single_point_blocks_count_as_uniform(self):
        plan = tree_plan(build_hst([2, 1], 2))
        assert plan.uniform_d == (0, 0)
        sh = BlockShell(plan, 1, {0}, seed=0)
        assert all(type(sh._new_tracker(s)) is UniformDemandTracker for s in range(2))


class TestTracedTwoBlockRun:
    """Hand-traced run on two blocks with Delta=6, servers starting in block 0."""

    def test_first_request_into_empty_block_jumps(self):
        events = []
        sh = two_block_shell(events=events)
        assert sh.serve(2) == 6
        assert sh.total_jump == 6
        assert sh.total_inner == 0
        jumps = event_fields(events, "jump")
        assert len(jumps) == 1
        assert jumps[0]["to_block"] == "1"
        assert jumps[0]["dst"] == "2"
        assert sh.server_count(0) == 1 and sh.server_count(1) == 1

    def test_donor_server_is_uniform(self):
        counts = Counter()
        for seed in range(2000):
            sh = two_block_shell(seed=seed)
            sh.serve(2)
            (src,) = {0, 1} - sh.positions  # the one server that jumped out
            counts[src] += 1
        assert set(counts) == {0, 1}
        assert 800 < counts[0] < 1200

    def test_full_phase_turnover(self):
        sh = two_block_shell()
        sh.serve(2)
        survivor = sorted(sh.positions & {0, 1})[0]
        sh.serve(survivor)           # demand 1 == count 1: marks block 0
        assert sh.is_marked(0) and sh.is_marked(1)
        for r in [3, 2, 3]:
            sh.serve(r)
            assert sh.phase == 1 and sh.triggers == []
        # fifth block-1 request pushes its demand to 2 with no donor left
        sh.serve(2)
        assert sh.phase == 2
        assert sh.triggers == [2]
        assert sh.dhat == [[2, 0], [1, 1]]
        assert sh.phase_gains() == [1]
        assert sh.phase_jump_counts == [1]
        # the trigger replays as the first request of phase 2
        assert sh.phase_logs[1] == [2]

    def test_phase_sequences(self):
        sh = two_block_shell()
        sh.serve(2)
        survivor = sorted(sh.positions & {0, 1})[0]
        for r in [survivor, 3, 2, 3, 2]:
            sh.serve(r)
        seq = sh.phase_sequence(1, plus=True)
        assert seq[-1] == 2
        assert seq[:-1] == sh.phase_logs[0]
        with pytest.raises(ValueError):
            sh.phase_sequence(2, plus=True)  # still running


class TestInvariants:
    def test_server_conservation_and_jump_pricing(self):
        space = build_hst([3, 3], 3)
        dec = decompose(space, 0)
        gen = GeneratorSpec("block_sweep", 50, seed=3, params={"width": 3, "passes": 3})
        seq = generate(gen, space)
        for seed in range(30):
            events = []
            sh = BlockShell(tree_plan(space), 3, {0, 1, 2}, seed=seed,
                            event_sink=events.append)
            for r in seq:
                inner, jump = sh.total_inner, sh.total_jump
                events.clear()
                cost = sh.serve(r)
                assert sum(sh.server_count(b) for b in range(dec.t)) == 3
                assert cost == sh.total_inner - inner + sh.total_jump - jump
                jumps = event_fields(events, "jump")
                assert all(Fraction(j["cost"]) * dec.metric.scale == dec.price
                           for j in jumps)
                assert sh.total_jump - jump == dec.price * len(jumps)
                assert len(sh.positions) == 3

    def test_empty_blocks_are_marked_throughout(self):
        space = build_hst([2, 3], 4)
        dec = decompose(space, 0)
        seq = generate(GeneratorSpec("uniform_random", 60, seed=8), space)
        for seed in range(20):
            sh = BlockShell(tree_plan(space), 2, {0, 1}, seed=seed)
            for r in seq:
                sh.serve(r)
                for b in range(dec.t):
                    if sh.server_count(b) == 0:
                        assert sh.is_marked(b)

    def test_peak_demand_within_block_size(self):
        space = build_hst([2, 4], 4)
        dec = decompose(space, 0)
        seq = generate(GeneratorSpec("block_sweep", 60, seed=2,
                                     params={"width": 4, "passes": 4}), space)
        sh = BlockShell(tree_plan(space), 2, {0, 4}, seed=5)
        for r in seq:
            sh.serve(r)
            for b in range(dec.t):
                assert sh.peak_demand(b) <= len(dec.blocks[b])

    def test_jumps_per_phase_at_most_k(self):
        # by construction: a jump moves a server into a marked block, which
        # never donates within the phase (see `run_lower_bound_suite`)
        space = build_hst([3, 3], 3)
        seq = generate(GeneratorSpec("block_sweep", 60, seed=13,
                                     params={"width": 3, "passes": 4}), space)
        for seed in range(50):
            sh = BlockShell(tree_plan(space), 3, {0, 1, 2}, seed=seed)
            for r in seq:
                sh.serve(r)
            assert all(c <= 3 for c in sh.phase_jump_counts)

    def test_a_request_on_a_held_point_jumps_to_a_free_one(self):
        # request 10 (point 1) raises block 0's demand to 2 while its one
        # server stands on point 1, so the jump lands on a free point
        space = build_hst([3, 2], 3)  # blocks {0,1}, {2,3}, {4,5}
        dec = decompose(space, 0)
        events = []
        sh = BlockShell(tree_plan(space), 4, {0, 1, 2, 3}, seed=24,
                        event_sink=events.append)
        seq = [0, 1, 1, 0, 3, 1, 0, 4, 3, 1, 5, 0, 2]
        sh.serve_all(seq[:9])
        before = sh._subs[0].config
        assert before == {1}
        events.clear()
        assert sh.serve(seq[9]) == dec.price
        assert events[0] == ("jump\tphase=1\tfrom_block=1\tto_block=0\tsrc=2\tdst=0"
                             "\tcost=8\tdraws=5")
        (jump,) = event_fields(events, "jump")
        dst = int(jump["dst"])
        assert dst in dec.blocks[0] and dst not in before
        assert sh._subs[0].config == before | {dst}
        sh.serve_all(seq[10:])

    def test_marked_blocks_never_donate(self):
        events = []
        space = build_hst([3, 3], 3)
        seq = generate(GeneratorSpec("block_sweep", 60, seed=4,
                                     params={"width": 3, "passes": 4}), space)
        sh = BlockShell(tree_plan(space), 3, {0, 1, 2}, seed=11, event_sink=events.append)
        for r in seq:
            sh.serve(r)
        marked = set()
        for line in events:
            fields = dict(f.split("=", 1) for f in line.split("\t")[1:])
            kind = line.split("\t")[0]
            if kind == "phase_end":
                marked = set()
            elif kind == "mark":
                marked.add(fields["block"])
            elif kind == "jump":
                assert fields["from_block"] not in marked

    def test_repeated_starvation_phases_terminate(self):
        # demand can outgrow k with every other block empty: each such request
        # ends a phase and must still be served in the next one
        space = build_hst([2, 4], 4)
        sh = BlockShell(tree_plan(space), 2, {0, 1}, seed=0)
        seq = [0, 1, 2, 3] * 5
        for r in seq:
            sh.serve(r)
        assert sh.phase > 1
        assert sum(sh.server_count(b) for b in range(2)) == 2

    def test_event_log_replays_bit_identically(self):
        runs = []
        for _ in range(2):
            events = []
            sh = two_block_shell(seed=1234, events=events)
            seq = [2, 0, 3, 2, 3, 2, 1, 0]
            for r in seq:
                sh.serve(r)
            runs.append("\n".join(events))
        assert runs[0] == runs[1]


class TestSubroutineResets:
    def test_subroutines_restart_on_jump(self):
        sh = two_block_shell()
        sh.serve(2)          # jump resets both block subroutines
        sub0 = sh._subs[0]
        assert isinstance(sub0, Marking)
        assert sub0.marked == set()

    def test_request_outside_decomposition(self):
        space = build_hst([2, 2, 2], 3)
        plan = tree_plan(space).subs[0]  # the root's first child
        sh = BlockShell(plan, 1, {plan.dec.points[0]}, seed=0)
        outside = [p for p in range(space.n_leaves) if p not in plan.dec.points][0]
        with pytest.raises(ValueError, match="outside"):
            sh.serve(outside)


class TestServeRejects:
    """`serve` checks the point before it looks up its block, whose dict
    would find point 1's block for 1.0 or True, and changes nothing on a
    reject."""

    @pytest.mark.parametrize("r", [1.0, -1, 27, True, False, "3", Fraction(1), [1]])
    def test_root_rejects_what_is_not_a_point(self, r):
        sh = BlockShell(tree_plan(build_hst([3, 3, 3], 3)), 3, default_initial(3), seed=0)
        with pytest.raises(ValueError, match=not_a_point(r, 27)):
            sh.serve(r)
        assert sh.phase_logs == [[]] and sh.total_inner == sh.total_jump == 0

    def test_a_sub_plan_rejects_a_leaf_outside_its_decomposition(self):
        plan = tree_plan(build_hst([3, 3, 3], 3)).subs[0]  # leaves 0..8
        sh = BlockShell(plan, 2, {0, 3}, seed=0)
        for r in (1.0, True, -1, 27, "3"):
            with pytest.raises(ValueError, match=not_a_point(r, 27)):
                sh.serve(r)
        for r in (9, 13, 26):  # leaves of the metric, outside this subtree
            with pytest.raises(ValueError, match=f"request {r} outside this decomposition"):
                sh.serve(r)
        assert sh.phase_logs == [[]] and sh.total_inner == sh.total_jump == 0


class TestHstAlgorithm:
    def test_height_one_is_marking(self):
        space = build_hst([4], 3)
        algo = started(space, {0, 1, 2}, seed=0)
        assert isinstance(algo, Marking)

    def test_height_two_is_shell_over_marking(self):
        space = build_hst([2, 3], 3)
        algo = started(space, {0, 1, 2}, seed=0)
        assert isinstance(algo, ShellSubroutine)
        inner = algo.shell
        assert all(isinstance(s, Marking) for s in inner._subs)

    def test_height_three_nests_shells(self):
        space = build_hst([2, 2, 2], 3)
        algo = started(space, {0, 1, 2}, seed=0)
        assert isinstance(algo, ShellSubroutine)
        assert any(isinstance(s, ShellSubroutine) for s in algo.shell._subs)

    def test_composed_f(self):
        space = build_hst([2, 3], 3)
        expect = float(marking_f(3)) * (6 * math.log(3) + 8)
        assert tree_plan(space).f(3) == pytest.approx(expect)

    def test_plan_f_composes_once_per_level_above_marking(self):
        space = build_hst([2, 2, 2], 3)
        root = tree_plan(space)
        mid = root.subs[0]
        assert mid.subs[0].f is marking_f  # parent of leaves
        assert mid.f(3) == compose_f(marking_f)(3)
        assert root.f(3) == compose_f(compose_f(marking_f))(3)

    def test_rejects_mu_below_both_thresholds(self):
        space = build_hst([3, 3], 2)  # mu=2 < k=3 and < degree 3
        with pytest.raises(ValueError, match="below both"):
            check_hst_admissible(space, 3)

    def test_mu_at_least_degree_is_admissible(self):
        space = build_hst([2, 2], 2)  # mu=2 < k=3 but >= degree 2
        check_hst_admissible(space, 3)
        algo = started(space, {0, 1, 2}, seed=0)
        seq = generate(GeneratorSpec("uniform_random", 30, seed=1), space)
        total = sum(algo.serve(r) for r in seq)
        assert total >= 0

    def test_serving_moves_costs_and_configuration(self):
        space = build_hst([2, 3], 3)
        algo = started(space, {0, 1, 2}, seed=7)
        cost = algo.serve(4)
        assert cost > 0
        assert 4 in algo.config
        assert len(algo.config) == 3

    def test_reset_to_empty_then_back(self):
        space = build_hst([2, 3], 3)
        algo = started(space, {0, 1}, seed=7)
        algo.reset(())
        with pytest.raises(RuntimeError):
            algo.serve(0)
        algo.reset({3, 4})
        assert algo.serve(3) == 0

    def test_deterministic_per_seed(self):
        space = build_hst([2, 2, 2], 3)
        seq = generate(GeneratorSpec("uniform_random", 40, seed=5), space)
        costs = []
        for _ in range(2):
            algo = started(space, {0, 1, 2}, seed=31)
            costs.append([algo.serve(r) for r in seq])
        assert costs[0] == costs[1]

    def test_different_seeds_vary(self):
        space = build_hst([2, 2], 3)
        seq = [2, 3, 0, 1, 2, 0, 3, 1] * 3
        streams = set()
        for seed in range(6):
            algo = started(space, {0, 1}, seed=seed)
            streams.add(tuple(algo.serve(r) for r in seq))
        assert len(streams) > 1


class TestServeContract:
    """A shell serves like any subroutine: `serve` returns that request's
    cost as an int in the metric's unit, the sum of its event costs."""

    # the inputs of the pinned `ksim run --k 3 --gen uniform_random
    # --length 80 --seed 7` runs whose event logs are in tests/golden
    k, seed = 3, 7

    def pinned(self, branching):
        space = build_hst(branching, 3)
        return space, GeneratorSpec("uniform_random", 80, seed=self.seed ^ 0x5EED)

    @pytest.mark.parametrize("branching", [[2, 2, 3], [3, 3, 3]])
    def test_serve_returns_the_cost_of_its_events(self, branching):
        space, spec = self.pinned(branching)
        k, seed = self.k, self.seed
        seq = generate(spec, space)
        plan, init = tree_plan(space), default_initial(k)
        events = []
        algo = BlockShell(plan, k, init, seed, event_sink=events.append)
        twin = BlockShell(plan, k, init, seed)  # the same random stream, no sink
        scale = space.leaf_metric.scale
        for r in seq:
            events.clear()
            cost = twin.serve(r)
            assert type(cost) is int
            assert algo.serve(r) == cost
            logged = [Fraction(f["cost"]) for kind in ("serve", "jump")
                      for f in event_fields(events, kind)]
            assert Fraction(cost, scale) == sum(logged)

    @pytest.mark.parametrize("branching", [[2, 2, 3], [3, 3, 3]])
    def test_phase_gains_sum_to_the_csv_m_sum(self, branching):
        space, spec = self.pinned(branching)
        k, seed = self.k, self.seed
        events = []
        rec = run_shell(tree_plan(space), k, default_initial(k), generate(spec, space),
                        seed, event_sink=events.append)
        csv = reports_to_csv(run_trials(space, k, "algox", spec, 1, seed))
        assert csv.split("\n")[1].split(",")[-1] == str(sum(rec.phase_gains()))
        # the gains again, from the block counts the jump lines move
        start = list(rec.dhat[0])
        counts = list(start)
        gains = []
        for line in events:
            kind = line.split("\t", 1)[0]
            if kind == "jump":
                (fields,) = event_fields([line], kind)
                counts[int(fields["from_block"])] -= 1
                counts[int(fields["to_block"])] += 1
            elif kind == "phase_end":
                gains.append(sum(max(0, c - b) for b, c in zip(start, counts)))
                start = list(counts)
        assert gains == rec.phase_gains()
        assert len(gains) == rec.completed_phases > 0


def live_shells(shell):
    """A shell and every nested shell now holding servers below it."""
    yield shell
    for sub in shell._subs:
        if isinstance(sub, ShellSubroutine) and sub.shell is not None:
            yield from live_shells(sub.shell)


def fresh_peak(shell, b):
    """A fresh tracker's demand on block b's requests in the running phase
    (the greedy on a uniform block, the DP elsewhere), asking it on every
    prefix: no prefix demand falls, so the last is the phase's peak."""
    dec = shell.dec
    d = dec.metric.uniform_cost(dec.blocks[b])
    tracker = (DemandTracker(dec.metric, dec.price) if d is None
               else UniformDemandTracker(dec.metric, dec.price, d))
    block = set(dec.blocks[b])
    demand = 0
    for q in shell.phase_logs[-1]:
        if q in block:
            tracker.push(q)
            prev, demand = demand, tracker.demand()
            assert demand >= prev, "a prefix demand fell"
            assert demand <= prev + 1, "a prefix demand rose by more than one"
    return demand


class TestDemandMemo:
    """Every shell on a node plan reads block demands from the plan's memo."""

    # a subtree holding one server runs no shell, so the deeper shapes make
    # sure that nested shells of two or more servers are checked too
    SHAPES = [([2, 3], 4), ([3, 3], 3), ([3, 3, 3], 3), ([2, 2, 3], 3), ([2, 2, 2, 2], 2)]

    @staticmethod
    def check_shells_sharing_a_plan(branching, mu, runs):
        """Serve the runs (k, seed, sequence) interleaved on one plan and
        compare every live shell's peak demands with fresh trackers.

        The first two runs get a first request to point 0, which the root
        forwards to the nested shell holding the first k servers: a first
        request elsewhere can jump a server out of that subtree and leave no
        nested shell of two or more servers live."""
        plan = tree_plan(build_hst(branching, mu))
        runs = [(k, seed, [0] + seq) if i < 2 else (k, seed, seq)
                for i, (k, seed, seq) in enumerate(runs)]
        shells = [BlockShell(plan, k, default_initial(k), seed) for k, seed, _ in runs]
        nested = 0
        for i in range(max(len(seq) for _, _, seq in runs)):
            for sh, (_, _, seq) in zip(shells, runs):  # interleaved serves
                if i >= len(seq):
                    continue
                sh.serve(seq[i])
                for live in live_shells(sh):
                    nested += live is not sh
                    for b in range(live.t):
                        assert live.peak_demand(b) == fresh_peak(live, b)
        if len(branching) >= 3 and runs[0][0] >= 2:
            # the first k servers start in one subtree, under a nested shell
            assert nested > 0

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_shells_sharing_a_plan_match_fresh_trackers(self, data):
        branching, mu = data.draw(st.sampled_from(self.SHAPES), label="shape")
        point = st.integers(0, math.prod(branching) - 1)
        base = data.draw(st.lists(point, min_size=1, max_size=30), label="base")
        cut = data.draw(st.integers(0, len(base)), label="cut")
        tail = data.draw(st.lists(point, min_size=1, max_size=10), label="tail")
        k = data.draw(st.integers(1, 4), label="k")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        # the first two runs agree up to `cut`, so the second reads the
        # first's demands from the memo there and then has to catch up
        runs = [(k, seed, base), (k, seed, base[:cut] + tail)]
        for _ in range(2):
            k2 = data.draw(st.integers(1, 4), label="other k")
            seed2 = data.draw(st.integers(0, 2 ** 16), label="other seed")
            runs.append((k2, seed2, data.draw(st.lists(point, max_size=30),
                                               label="other sequence")))
        self.check_shells_sharing_a_plan(branching, mu, runs)

    def test_a_first_jump_out_of_the_nested_shell_still_checks_one(self):
        # without its first request to point 0, this draw's first request
        # jumps a server out of the first subtree, and no nested shell of
        # two or more servers is ever live
        runs = [(2, 0, [6]), (2, 0, [6, 0]), (1, 0, []), (1, 0, [])]
        self.check_shells_sharing_a_plan([2, 2, 3], 3, runs)

    def test_a_falling_demand_is_caught(self, monkeypatch):
        # the theorem in `DemandTracker.demand` rules out a falling demand
        # for the real trackers, so a stand-in's falls.  Block 0's points
        # are 2 apart at price 6, so on requests alternating between them
        # the memo's slack answers the first four and the tracker is
        # consulted on the fifth and the ninth.  The stand-in answers 1
        # before the fifth request, as the true demand is, 2 on it, and 1
        # after it; a second shell on the plan reads the fifth's 2 from the
        # memo, and the consult on the ninth request is caught, with the
        # memo left as it was
        monkeypatch.setattr(DemandTracker, "demand",
                            lambda self: 2 if self.length == 5 else 1)
        first = two_block_shell()
        twin = BlockShell(first._plan, 2, {0, 1}, seed=7)
        for i, r in enumerate((0, 1) * 4):
            for sh in (first, twin):
                sh.serve(r)
                assert sh.peak_demand(0) == (1 if i < 4 else 2)
        assert twin._trackers == [None, None]  # every demand was a memo hit
        nodes = len(first._plan.memo_peak)
        with pytest.raises(ShellInvariantError, match="demand fell from 2 to 1"):
            first.serve(0)
        assert first._trackers[0].length == 9  # consulted on the ninth request
        assert len(first._plan.memo_peak) == nodes

    def test_a_demand_rising_by_two_is_caught(self, monkeypatch):
        # the second theorem in `DemandTracker.demand` rules out a step above
        # one for the real trackers, so a stand-in's rises by two.  As in
        # the test above, the memo's slack answers the first four requests
        # and the tracker is consulted on the fifth, where the stand-in
        # answers 3 after the true demand 1; the consult is caught, with
        # the memo left as it was
        monkeypatch.setattr(DemandTracker, "demand",
                            lambda self: 3 if self.length == 5 else 1)
        sh = two_block_shell()
        for r in (0, 1) * 2:
            sh.serve(r)
            assert sh.peak_demand(0) == 1
        nodes = len(sh._plan.memo_peak)
        with pytest.raises(ShellInvariantError, match="demand rose from 1 to 3"):
            sh.serve(0)
        assert sh._trackers[0].length == 5
        assert len(sh._plan.memo_peak) == nodes

    def test_a_shell_catches_up_after_memo_hits(self):
        space = build_hst([3, 3, 3], 3)
        plan = tree_plan(space)
        # most misses are answered by the memo's slack with no tracker, so
        # the sequence is long enough for 20 catch-ups
        seq = generate(GeneratorSpec("uniform_random", 300, seed=4), space)
        first = BlockShell(plan, 3, default_initial(3), seed=9)
        for r in seq:
            first.serve(r)
        caught_up = 0
        for cut in range(1, len(seq)):
            twin = BlockShell(plan, 3, default_initial(3), seed=9)
            for r in seq[:cut]:
                twin.serve(r)
            assert twin._trackers == [None] * twin.t  # every demand was a hit
            # a request the first run never made after this prefix
            s = twin.dec.block_of[seq[cut]]
            block = twin.dec.blocks[s]
            new = next(p for p in block if p != seq[cut])
            phase = twin.phase
            twin.serve(new)
            assert twin.peak_demand(s) == fresh_peak(twin, s)
            tracker = twin._trackers[s]
            if tracker is None:
                continue  # the slack answered, or an earlier phase had this prefix
            pushed = [q for q in twin.phase_logs[-1] if q in block]
            assert tracker.length == len(pushed)
            if twin.phase == phase and len(pushed) >= 3:
                caught_up += 1
        assert caught_up >= 20

    def test_most_root_misses_consult_no_tracker(self, monkeypatch):
        # the memo's slack certifies most new prefixes' peaks; only the rest
        # ask a tracker for the demand
        plans = []
        monkeypatch.setattr(harness, "tree_plan",
                            lambda space: plans.append(tree_plan(space)) or plans[-1])
        calls = Counter()
        demand = DemandTracker.demand

        def counted(self):
            calls[type(self)] += 1
            return demand(self)
        monkeypatch.setattr(DemandTracker, "demand", counted)
        space = build_hst([3, 3, 3], 3)
        run_trials(space, 3, "algox", GeneratorSpec("uniform_random", 200, seed=5), 8,
                   base_seed=0)
        (plan,) = plans
        # the root's blocks run the DP tracker, the nested shells' the greedy
        assert plan.uniform_d == (None, None, None)
        misses = len(plan.memo_peak) - plan.dec.t  # a node per miss
        assert misses > 100
        assert 3 * calls[DemandTracker] < misses

    def test_trials_share_the_demands(self, monkeypatch):
        # a shell pushes only through `push_all`
        pushes = Counter()
        for cls in (DemandTracker, UniformDemandTracker):
            def counted(self, requests, _push_all=cls.__dict__["push_all"]):
                requests = list(requests)
                pushes["all"] += len(requests)
                return _push_all(self, requests)
            monkeypatch.setattr(cls, "push_all", counted)
        space = build_hst([3, 3, 3], 3)
        spec = GeneratorSpec("uniform_random", 200, seed=5)
        counts = []
        for trials in (1, 8):
            pushes.clear()
            run_trials(space, 3, "algox", spec, trials, base_seed=0)
            counts.append(pushes["all"])
        # each trial pushing its own would make 8 times as many
        assert 0 < counts[1] <= 2 * counts[0]


class TestMemoHitPath:
    """A request whose demand the memo holds and whose block needs no jump
    is served in one pass: no tracker work, and O(1) count checks."""

    def test_a_warmed_plan_replays_with_no_tracker_call(self, monkeypatch):
        space = build_hst([3, 3, 3], 3)
        plan = tree_plan(space)
        seq = generate(GeneratorSpec("uniform_random", 200, seed=5), space)
        first = run_shell(plan, 3, default_initial(3), seq, seed=7)
        calls = Counter()
        for cls, name in ((DemandTracker, "push"), (UniformDemandTracker, "push"),
                          (DemandTracker, "push_all"), (UniformDemandTracker, "push_all"),
                          (DemandTracker, "demand")):
            def counted(self, *args, _orig=cls.__dict__[name], _name=name):
                calls[_name] += 1
                return _orig(self, *args)
            monkeypatch.setattr(cls, name, counted)
        second = run_shell(plan, 3, default_initial(3), seq, seed=7)
        assert calls == Counter()
        assert second == first
        assert first.completed_phases > 0

    def test_config_reads_stay_below_one_per_five_inner_serves(self, monkeypatch):
        reads = Counter()
        config = ShellSubroutine.__dict__["config"].fget

        def counted_config(self):
            reads["config"] += 1
            return config(self)
        monkeypatch.setattr(ShellSubroutine, "config", property(counted_config))
        space = build_hst([3, 3, 3], 3)
        plan = tree_plan(space)
        seq = generate(GeneratorSpec("uniform_random", 200, seed=5), space)
        # a one-server subtree is served in the root's own loop, with no
        # call to count, so the inner serves are bounded from the records:
        # a request that jumps serves nothing inside, and every jump costs
        # Delta, so requests minus jumps is at most the inner serves
        serves = 0
        for seed in range(8):  # the trials of `run_trials` at base seed 0
            rec = run_shell(plan, 3, default_initial(3), seq, seed)
            serves += len(seq) - rec.total_jump / plan.dec.Delta
        # the count check reads no configuration; positions are derived
        # again only for a jump or a reset
        assert serves > 1000
        assert 5 * reads["config"] < serves


def costs_read_between(shell, requests, costs):
    """Yield the requests, appending to `costs` what each one cost: the
    shell's totals are current whenever the next request is read."""
    for r in requests:
        before = shell.total_inner + shell.total_jump
        yield r
        costs.append(shell.total_inner + shell.total_jump - before)


class TestServeAll:
    """One `serve_all` call, `serve_all` on chunks and one `serve` per
    request are the same run: same costs, records, draws and events."""

    SHAPES = [([2, 2, 3], Fraction(5, 2)), ([3, 3, 3], 3), ([4, 2], 4)]

    @staticmethod
    def record(shell, events, costs):
        return (costs, shell.total_inner, shell.total_jump, shell.phase_logs,
                shell.triggers, shell.dhat, shell.phase_jump_counts, shell.draws, events)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_three_ways_of_serving_agree(self, data):
        branching, mu = data.draw(st.sampled_from(self.SHAPES), label="shape")
        plan = tree_plan(build_hst(branching, mu))
        dec = plan.dec
        k = data.draw(st.integers(1, 4), label="k")
        init = data.draw(st.sets(st.sampled_from(dec.points), min_size=k, max_size=k),
                         label="initial")
        seed = data.draw(st.integers(0, 2 ** 32), label="seed")
        sink = data.draw(st.booleans(), label="sink")
        base = data.draw(st.lists(st.sampled_from(dec.points), max_size=20), label="base")
        # k+1 points cycled over the root blocks end phases, and each phase
        # end replays its trigger
        hot = data.draw(st.tuples(*[st.sampled_from(dec.blocks[i % dec.t])
                                    for i in range(k + 1)])
                        .filter(lambda h: len(set(h)) == k + 1), label="hot")
        seq = base + list(hot) * 12
        cuts = sorted(data.draw(st.lists(st.integers(0, len(seq)), max_size=6), label="cuts"))

        def start():
            events = []
            shell = BlockShell(plan, k, init, seed, event_sink=events.append if sink else None)
            return shell, events

        whole, events = start()
        costs = []
        total = whole.serve_all(costs_read_between(whole, seq, costs))
        assert total == sum(costs) == whole.total_inner + whole.total_jump
        assert whole.completed_phases > 0
        expected = self.record(whole, events, costs)

        chunked, events = start()
        costs = []
        for lo, hi in zip([0] + cuts, cuts + [len(seq)]):
            done = len(costs)
            part = chunked.serve_all(costs_read_between(chunked, seq[lo:hi], costs))
            assert part == sum(costs[done:])
        assert self.record(chunked, events, costs) == expected

        single, events = start()
        costs = [single.serve(r) for r in seq]
        assert self.record(single, events, costs) == expected

    def test_a_reject_keeps_the_requests_served_before_it(self):
        plan = tree_plan(build_hst([3, 3, 3], 3))
        seq = [0, 13, 26, 4]
        whole = BlockShell(plan, 3, default_initial(3), seed=2)
        with pytest.raises(ValueError, match="point id True"):
            whole.serve_all(seq + [True, 5])
        single = BlockShell(plan, 3, default_initial(3), seed=2)
        for r in seq:
            single.serve(r)
        assert whole.phase_logs == single.phase_logs == [seq]
        assert (whole.total_inner, whole.total_jump, whole.draws) == \
            (single.total_inner, single.total_jump, single.draws)


class TestStartsAndResets:
    @pytest.mark.parametrize("blocks", [1, 2, 3, 8])
    def test_nested_stream_seed_is_the_draw_after_one_per_block(self, blocks):
        plan = tree_plan(build_hst([blocks, 2], 3))
        for seed in (0, 1, 12345, 2 ** 64 - 1):
            rng = random.Random(seed)
            for _ in range(blocks):
                rng.getrandbits(64)
            expected = random.Random(rng.getrandbits(64))
            assert ShellSubroutine(plan, seed).rng.getstate() == expected.getstate()

    def test_only_a_jump_resets_an_empty_block(self, monkeypatch):
        empty_resets = Counter()

        def reset(self, config, _reset=Marking.reset):
            config = frozenset(config)
            empty_resets["all"] += not config
            return _reset(self, config)
        monkeypatch.setattr(Marking, "reset", reset)
        space = build_hst([4, 3], 4)
        for seed in range(4):
            events = []
            seq = generate(GeneratorSpec("uniform_random", 120, seed=seed), space)
            empty_resets.clear()
            sh = BlockShell(tree_plan(space), 3, {0, 1, 3}, seed=seed,
                            event_sink=events.append)
            for r in seq:
                sh.serve(r)
            counts = [2, 1, 0, 0]
            emptied = 0
            for jump in event_fields(events, "jump"):
                src, dst = int(jump["from_block"]), int(jump["to_block"])
                counts[src] -= 1
                counts[dst] += 1
                emptied += counts[src] == 0
            assert sh.completed_phases > 0 and emptied > 0
            assert empty_resets["all"] == emptied


class TestServerCount:
    def test_subroutine_losing_a_server_is_caught(self):
        class DropsAServer(Marking):
            def serve(self, r):
                cost = super().serve(r)
                self.positions.discard(r)
                return cost

        sh = two_block_shell()
        plan = tree_plan(build_hst([2, 2], 2))
        sh._subs[0] = DropsAServer(plan.subs[0], seed=0)
        sh._subs[0].reset({0, 1})
        with pytest.raises(ShellInvariantError, match="server count"):
            sh.serve(0)

    def test_a_nested_shell_losing_its_servers_is_caught(self):
        # the adapter's `held` reads 0 once its shell is gone, so the
        # request that lost two servers fails, not the next one to the block
        class DropsItsShell(ShellSubroutine):
            def serve(self, r):
                cost = super().serve(r)
                self._shell = None
                return cost

        plan = tree_plan(build_hst([2, 2, 2], 3))
        sh = BlockShell(plan, 3, {0, 1, 4}, seed=0)
        sh._subs[0] = DropsItsShell(plan.subs[0], seed=0)
        sh._subs[0].reset({0, 1})
        with pytest.raises(ShellInvariantError, match="server count"):
            sh.serve(1)

    @pytest.mark.parametrize("skipped", ["donor", "target"])
    def test_a_jump_that_skips_a_count_write_is_caught(self, skipped):
        # the counts change only in `_jump_in`, which checks conservation
        # right after its two writes; a list that drops every write lowering
        # a count (or every one raising it) stands in for a `_jump_in` that
        # skips the donor's decrement (or the target's increment)
        class DropsAWrite(list):
            def __setitem__(self, i, value):
                if (value < self[i]) != (skipped == "donor"):
                    super().__setitem__(i, value)

        sh = two_block_shell()
        sh._counts = DropsAWrite(sh._counts)
        with pytest.raises(ShellInvariantError, match="server count not conserved"):
            sh.serve(2)  # the empty block {2, 3}: a jump
        # caught before the jump is priced or its blocks restart
        assert sh.total_jump == 0
        assert sh._subs[0].config == {0, 1} and sh._subs[1].config == frozenset()

    def test_a_jump_reads_two_configurations(self, monkeypatch):
        # the block subroutines are the only record of the servers' points:
        # a jump reads the donor's and the target's configurations, a phase
        # end each occupied block's, and nothing else reads one
        reads = Counter()
        config = Marking.config

        def counted(self):
            reads["all"] += 1
            return config.fget(self)
        monkeypatch.setattr(Marking, "config", property(counted))
        space = build_hst([8, 8], 8)
        plan = tree_plan(space)
        for seed in range(5):
            seq = generate(GeneratorSpec("uniform_random", 500, seed=seed), space)
            reads.clear()
            record = run_shell(plan, 8, default_initial(8), seq, seed)
            jumps = record.total_jump / plan.dec.Delta
            assert jumps > 0 and record.completed_phases > 0
            assert reads["all"] <= 2 * jumps + plan.dec.t * record.completed_phases

    def test_positions_are_the_subroutines_configurations(self):
        space = build_hst([3, 3, 3], 3)
        plan = tree_plan(space)
        for seed in range(6):
            seq = generate(GeneratorSpec("uniform_random", 80, seed=seed), space)
            sh = BlockShell(plan, 3, default_initial(3), seed=seed)
            for r in seq:
                sh.serve(r)
                configs = [sub.config for sub in sh._subs]
                assert sh.positions == frozenset().union(*configs)
                assert len(sh.positions) == 3 == sum(map(len, configs))


def one_request_before_a_phase_end():
    """The traced two-block run (see TestTracedTwoBlockRun) with both blocks
    marked, one server each: a request to 2 raises block 1's peak to 2 and
    ends the phase."""
    sh = two_block_shell()
    sh.serve(2)
    survivor = sorted(sh.positions & {0, 1})[0]
    for r in [survivor, 3, 2, 3]:
        sh.serve(r)
    return sh


class TestUnreachableStates:
    """Each invariant check the shell makes, shown to fire on a state that
    a correct run never reaches."""

    def test_a_count_off_its_peak_at_a_phase_end_is_caught(self):
        sh = one_request_before_a_phase_end()
        # block 0 now peaks above its one server and stays marked, so the
        # phase still ends, with block 0 off its peak
        sh._plan.memo_peak[sh._node[0]] = 2
        with pytest.raises(ShellInvariantError, match="phase 1: block 0 count 1 is not its peak 2"):
            sh.serve(2)

    def test_a_second_phase_end_for_one_request_is_caught(self, monkeypatch):
        # a phase end that opens an empty log and nothing else leaves every
        # block marked, so the replay of its trigger finds no donor again
        sh = one_request_before_a_phase_end()
        ends = []

        def end_phase(r, s, prev_peak):
            # without the check the replay would end phases forever
            assert not ends, "the replay ended a second phase"
            ends.append(r)
            sh.phase_logs.append([])
        monkeypatch.setattr(sh, "_end_phase", end_phase)
        with pytest.raises(ShellInvariantError, match="phase ended twice for a single request"):
            sh.serve(2)

    def test_a_jump_into_a_full_block_is_caught(self):
        # a subroutine that claims every point of its block, though the
        # shell counts no server there, leaves a jump nowhere to land
        class Full:
            config = frozenset({2, 3})

        sh = two_block_shell()
        sh._subs[1] = Full()
        with pytest.raises(ShellInvariantError, match="no unoccupied point in the demanding block"):
            sh.serve(2)


def node_plans(plan):
    """A plan and every shell plan below it (marking universes excluded)."""
    if isinstance(plan, NodePlan):
        yield plan
        for sub in plan.subs:
            yield from node_plans(sub)


mus = st.one_of(st.integers(2, 5),
                st.fractions(min_value=Fraction(3, 2), max_value=5, max_denominator=4))


class TestPlanValues:
    """A plan carries the metric and the diameter of what it runs on, read
    from its decomposition (a shell's Delta) or its universe."""

    @settings(max_examples=100, deadline=None)
    @given(branching=st.lists(st.integers(1, 4), min_size=1, max_size=4)
           .filter(lambda b: math.prod(b) <= 64), mu=mus)
    @example(branching=[3, 1, 2], mu=Fraction(7, 2))
    @example(branching=[1], mu=2)
    def test_a_plan_carries_its_metric_and_diameter(self, branching, mu):
        space = build_hst(branching, mu)
        metric = space.leaf_metric
        plan = tree_plan(space)
        assert plan.metric is metric
        assert plan.diameter == metric.diameter()
        if space.height == 1:
            assert isinstance(plan, Universe)
            assert plan.diameter == Fraction(plan.d, metric.scale)
        else:
            assert isinstance(plan, NodePlan) and plan.diameter == plan.dec.Delta
        # and so does every plan below the root, over its own points
        for q in node_plans(plan):
            assert q.metric is metric and q.diameter == metric.diameter(q.dec.points)
            for sub in q.subs:
                if isinstance(sub, Universe):
                    assert sub.metric is metric and sub.diameter == metric.diameter(sub.points)


class TestOneServerSubtrees:
    """A subtree that holds one server runs no shell:
    its adapter keeps the point and serves r at dist[p][r], which is what
    `BlockShell(plan, 1, ...)`, the oracle, does."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_point_matches_the_one_server_shell(self, data):
        height = data.draw(st.integers(2, 4), label="height")
        branching = data.draw(st.lists(st.integers(1, 4), min_size=height, max_size=height)
                              .filter(lambda b: 2 <= math.prod(b) <= 64), label="branching")
        space = build_hst(branching, data.draw(mus, label="mu"))
        plans = [p for p in node_plans(tree_plan(space)) if len(p.dec.points) >= 2]
        plan = data.draw(st.sampled_from(plans), label="plan")
        points = st.sampled_from(plan.dec.points)
        seed = data.draw(st.integers(0, 2 ** 32), label="seed")
        sub = ShellSubroutine(plan, seed)
        stream = random.Random()
        stream.setstate(sub.rng.getstate())
        # a mix of resets: the stream advances by one 64-bit draw per
        # nonempty reset, whatever its size; two servers only where every
        # shell they can reach below this plan accepts two
        two = all(q.dec.mu_eff >= min(2, q.dec.t) for q in node_plans(plan)
                  if len(q.dec.points) >= 2)
        for _ in range(data.draw(st.integers(1, 4), label="resets")):
            size = data.draw(st.integers(0, 2 if two else 1), label="size")
            config = data.draw(st.sets(points, min_size=size, max_size=size), label="config")
            sub.reset(config)
            if config:
                stream.getrandbits(64)
            assert sub.rng.getstate() == stream.getstate()
            assert (sub.point is None) == (len(config) != 1)
        p = data.draw(points, label="start")
        sub.reset({p})
        assert sub.shell is None and sub.point == p
        oracle = BlockShell(plan, 1, {p}, data.draw(st.integers(0, 2 ** 32), label="oracle seed"))
        for r in data.draw(st.lists(points, max_size=40), label="requests"):
            assert sub.serve(r) == oracle.serve(r)
            assert sub.config == frozenset(oracle.positions) == {r}

    @pytest.mark.parametrize("branching,k", [([3, 1, 1], 2), ([4, 1, 1, 1], 3)])
    def test_unary_chains_run_as_their_root_blocks(self, branching, k):
        # a one-leaf subtree (Delta 0) can hold one server only, so it
        # never builds the shell that its zero separation would refuse
        space = build_hst(branching, 3)
        seq = generate(GeneratorSpec("uniform_random", 120, seed=k), space)
        dec = decompose(space, 0)
        # marking on each one-leaf block
        flat = NodePlan(dec, tuple(Universe(dec.metric, blk) for blk in dec.blocks))
        plan = tree_plan(space)
        for seed in range(6):
            got = run_shell(plan, k, default_initial(k), seq, seed)
            want = run_shell(flat, k, default_initial(k), seq, seed)
            assert (got.total_inner, got.total_jump, got.phase_logs, got.dhat) == \
                (want.total_inner, want.total_jump, want.phase_logs, want.dhat)
        reports = run_trials(space, k, "algox", GeneratorSpec("uniform_random", 60, seed=1),
                             3, base_seed=0)
        assert len(reports) == 3 and all(r.total > 0 for r in reports)

    def test_only_subtrees_of_two_or_more_servers_build_shells(self, monkeypatch):
        built = Counter()
        init, seed = BlockShell.__init__, random.Random.seed

        def counted(self, plan, k, *args, **kwargs):
            built[k >= 2] += 1
            return init(self, plan, k, *args, **kwargs)

        def seeded(self, *args, **kwargs):
            built["seeds"] += 1
            return seed(self, *args, **kwargs)
        monkeypatch.setattr(BlockShell, "__init__", counted)
        monkeypatch.setattr(random.Random, "seed", seeded)
        trials = 8
        run_trials(build_hst([3, 3, 3], 3), 3, "algox",
                   GeneratorSpec("uniform_random", 200, seed=5), trials, base_seed=0)
        # a root per trial, and a nested shell only where two or three of
        # the servers share a subtree; one per one-server reset made 264
        assert built[False] == 0
        # and only when that subtree serves: 8 nested shells and 33 seeded
        # streams, where a shell built at every reset, with its adapter's
        # stream seeded up front, made 16 and 73
        assert trials < built[True] < 3 * trials
        assert built["seeds"] < 6 * trials

    def test_one_point_rejects_outside_points(self):
        space = build_hst([2, 2, 2], 3)
        plan = tree_plan(space).subs[0]  # the first [2,2] subtree, leaves 0..3
        sub = ShellSubroutine(plan, seed=0)
        with pytest.raises(ValueError, match="outside"):
            sub.reset({5})
        sub.reset({1})
        with pytest.raises(ValueError, match="outside"):
            sub.serve(6)

    @pytest.mark.parametrize("r", [True, 1.0, "3", -1, 27])
    def test_one_point_rejects_what_is_not_a_point(self, r):
        # True and 1.0 would find point 1 in the block's dict by their hash
        algo = started(build_hst([3, 3, 3], 3), {0}, seed=3)
        assert algo.point == 0
        with pytest.raises(ValueError, match=not_a_point(r, 27)):
            algo.serve(r)
        assert algo.point == 0 and type(algo.point) is int

    def test_shell_trackers_skip_the_point_check(self, monkeypatch):
        checks = Counter()
        check = FiniteMetric.check_point

        def counted(self, p):
            checks["all"] += 1
            return check(self, p)
        monkeypatch.setattr(FiniteMetric, "check_point", counted)
        space = build_hst([8, 8], 8)
        plan = tree_plan(space)
        seq = generate(GeneratorSpec("uniform_random", 300, seed=3), space)
        sh = BlockShell(plan, 8, default_initial(8), seed=1)
        checks.clear()
        for r in seq:
            sh.serve(r)
        # a valid request passes `serve_all`'s own type and block test, and
        # the trackers trust the points it passed
        assert checks["all"] == 0


def streams(algo):
    """The state of every random stream in a started algorithm and below
    it, with each shell's draw count and each marking's phase count."""
    if isinstance(algo, Marking):
        return [(algo.rng.getstate(), algo.phase_count)]
    if isinstance(algo, ShellSubroutine):
        return [algo.rng.getstate()] + ([] if algo.shell is None else streams(algo.shell))
    return [(algo.rng.getstate(), algo.draws)] + [x for sub in algo._subs for x in streams(sub)]


def markings(algo):
    """Every marking instance running in a started algorithm and below it
    (a pending shell holds none yet)."""
    if isinstance(algo, Marking):
        return [algo]
    if isinstance(algo, ShellSubroutine):
        return [] if algo._shell is None else markings(algo._shell)
    return [m for sub in algo._subs for m in markings(sub)]


class TestSubroutineServeAll:
    """Every started algorithm's `serve_all(seq)` is one `serve` per request:
    the same total cost, final configuration and random streams."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_serve_all_matches_serve(self, data):
        height = data.draw(st.integers(1, 4), label="height")
        branching = data.draw(st.lists(st.integers(1, 4), min_size=height, max_size=height)
                              .filter(lambda b: 2 <= math.prod(b) <= 64), label="branching")
        plan = tree_plan(build_hst(branching, data.draw(mus, label="mu")))
        points = plan.points if isinstance(plan, Universe) else plan.dec.points
        k = data.draw(st.integers(1, min(4, len(points) - 1)), label="k")  # with misses
        # every shell a run can build accepts k servers (a one-leaf subtree
        # builds no shell)
        assume(all(q.dec.mu_eff >= min(k, q.dec.t) for q in node_plans(plan)
                   if len(q.dec.points) >= 2))
        init = data.draw(st.sets(st.sampled_from(points), min_size=k, max_size=k),
                         label="initial")
        seq = data.draw(st.lists(st.sampled_from(points), max_size=60), label="requests")
        seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
        whole, single = plan.start(seed), plan.start(seed)
        for algo in (whole, single):
            algo.reset(init)
        if isinstance(whole, ShellSubroutine):
            # one server is a point, else a shell runs
            assert (whole.point is not None) == (k == 1)
        total = 0
        for r in seq:
            total += single.serve(r)
            # the marks are a subset of the positions, which lets marking
            # end a phase when it holds k marks
            for m in markings(single):
                assert m.marked <= m.positions
        assert whole.serve_all(seq) == total
        assert whole.config == single.config
        assert streams(whole) == streams(single)

    def test_an_empty_adapter_serves_through_serve(self):
        sub = tree_plan(build_hst([2, 2, 2], 3)).start(seed=0)
        assert sub.held == 0 and sub.serve_all([]) == 0
        with pytest.raises(RuntimeError, match="no servers"):
            sub.serve_all([0])


class EagerShellSubroutine(ShellSubroutine):
    """The oracle for lazy builds: an adapter that takes its draw from a
    stream created up front and builds its shell at every reset to two or
    more points."""

    def __init__(self, plan, seed):
        super().__init__(plan, seed)
        m = len(plan.subs)
        self._rng = random.Random(random.Random(seed).getrandbits(64 * (m + 1)) >> (64 * m))

    def reset(self, config):
        cfg = frozenset(config)
        self._shell = self._pending = self.point = None
        if not cfg:
            return
        seed = self._rng.getrandbits(64)
        if len(cfg) == 1:
            (p,) = cfg
            self._plan.dec.metric.check_point(p)
            if p not in self._plan.dec.block_of:
                raise ValueError(f"server at {p}, outside this decomposition")
            self.point = p
        else:
            self._shell = BlockShell(self._plan, len(cfg), cfg, seed)


class TestLazyShells:
    """A reset to two or more points keeps its configuration pending, and the shell and the adapter's stream are built when the
    subtree first serves; every draw stays the one an eager adapter takes."""

    @staticmethod
    def run(space, k, seq, seeds, eager):
        """Per trial, the root's record and draws, and a record of each
        shell built that served, with the stream states of its adapters;
        and the count of shells built below the roots."""
        built = []
        nested = [0]
        init = BlockShell.__init__

        def recorded(self, *args, **kwargs):
            built.append(self)
            nested[0] += len(built) > 1
            return init(self, *args, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(BlockShell, "__init__", recorded)
            if eager:
                mp.setattr(NodePlan, "start",
                           lambda plan, seed: EagerShellSubroutine(plan, seed))
            plan = tree_plan(space)
            trials = []
            for seed in seeds:
                built.clear()
                root = BlockShell(plan, k, default_initial(k), seed)
                cost = root.serve_all(seq)
                trials.append((cost, root.total_inner, root.total_jump, root.phase_logs,
                               root.dhat, root.draws, root.rng.getstate(), Counter(
                                   (len(sh.dec.points), sh.k, str(sh.phase_logs), str(sh.dhat),
                                    sh.draws, sh.rng.getstate(),
                                    tuple(sub.rng.getstate() for sub in sh._subs
                                          if isinstance(sub, ShellSubroutine)))
                                   for sh in built[1:] if sh.phase_logs != [[]])))
        return trials, nested[0]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_lazy_builds_match_eager_builds(self, data):
        height = data.draw(st.integers(3, 4), label="height")
        branching = data.draw(st.lists(st.integers(1, 4), min_size=height, max_size=height)
                              .filter(lambda b: 4 <= math.prod(b) <= 64), label="branching")
        space = build_hst(branching, data.draw(mus, label="mu"))
        plan = tree_plan(space)
        k = data.draw(st.integers(2, min(4, space.n_leaves - 1)), label="k")
        assume(all(q.dec.mu_eff >= min(k, q.dec.t) for q in node_plans(plan)
                   if len(q.dec.points) >= 2))
        seq = data.draw(st.lists(st.integers(0, space.n_leaves - 1), max_size=80),
                        label="requests")
        seeds = data.draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=3),
                          label="seeds")
        # a lazy shell is built to serve, so each is in both runs; an eager
        # run builds the others too
        lazy, built = self.run(space, k, seq, seeds, eager=False)
        eager, eager_built = self.run(space, k, seq, seeds, eager=True)
        assert lazy == eager
        assert built <= eager_built

    def test_lazy_builds_skip_shells_that_never_serve(self):
        space = build_hst([3, 3, 3], 3)
        seq = generate(GeneratorSpec("uniform_random", 200, seed=5), space)
        lazy, built = self.run(space, 3, seq, range(4), eager=False)
        eager, eager_built = self.run(space, 3, seq, range(4), eager=True)
        assert lazy == eager
        served = sum(sum(trial[-1].values()) for trial in lazy)
        assert 0 < served == built < eager_built

    def test_a_pending_shell_builds_and_seeds_nothing_until_it_serves(self, monkeypatch):
        counts = Counter()
        init, seed_of = BlockShell.__init__, random.Random.seed

        def built(self, *args, **kwargs):
            counts["built"] += 1
            return init(self, *args, **kwargs)

        def seeded(self, *args, **kwargs):
            counts["seeded"] += 1
            return seed_of(self, *args, **kwargs)
        plan = tree_plan(build_hst([2, 2, 2], 3)).subs[0]  # the [2,2] subtree, leaves 0..3
        monkeypatch.setattr(BlockShell, "__init__", built)
        monkeypatch.setattr(random.Random, "seed", seeded)
        sub = ShellSubroutine(plan, seed=7)
        # four nonempty resets, one of them to a single point
        for config in ({0, 2}, {1}, set(), {1, 3}, {0, 1}):
            sub.reset(config)
        assert sub.config == {0, 1} and sub.held == 2 and sub.point is None
        assert counts == Counter()
        sub.reset(())
        assert sub.held == 0 and counts == Counter()
        sub.reset({0, 3})
        assert counts == Counter()
        monkeypatch.undo()
        # the fifth draw of the stream an eager adapter seeds up front
        stream = random.Random(random.Random(7).getrandbits(64 * 3) >> 128)
        for _ in range(4):
            stream.getrandbits(64)
        oracle = BlockShell(plan, 2, {0, 3}, seed=stream.getrandbits(64))
        seq = [1, 2, 0, 3, 2, 1, 0, 2, 3, 1] * 3
        assert [sub.serve(r) for r in seq] == [oracle.serve(r) for r in seq]
        assert sub.shell.rng.getstate() == oracle.rng.getstate()
        assert sub.rng.getstate() == stream.getstate()

    def test_reading_the_stream_keeps_the_pending_seed(self):
        plan = tree_plan(build_hst([2, 2, 2], 3)).subs[0]
        sub, twin = ShellSubroutine(plan, seed=3), ShellSubroutine(plan, seed=3)
        for a in (sub, twin):
            a.reset({0, 1})
            a.reset({2, 3})
        state = sub.rng.getstate()  # creates the stream and takes both draws
        assert sub.rng.getstate() == state and sub.config == {2, 3}
        seq = [0, 1, 3, 2, 0] * 4
        assert [sub.serve(r) for r in seq] == [twin.serve(r) for r in seq]
        assert sub.rng.getstate() == twin.rng.getstate() == state

    def test_a_reset_refuses_what_the_shell_refuses(self):
        rows = [[0, 2, 3, 3], [2, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]]
        dec = Decomposition(FiniteMetric(rows), [(0, 1), (2, 3)], Delta=3, delta=2)
        narrow = NodePlan(dec, tuple(Universe(dec.metric, blk) for blk in dec.blocks))
        wide = tree_plan(build_hst([2, 2, 2], 3)).subs[0]  # leaves 0..3
        for plan, config in ((narrow, {0, 1}), (wide, {0, 5}), (wide, {0, True}),
                             (wide, {0, -1})):
            with pytest.raises(ValueError) as shell_error:
                BlockShell(plan, len(config), config, seed=0)
            sub = ShellSubroutine(plan, seed=0)
            with pytest.raises(ValueError) as reset_error:
                sub.reset(config)
            assert str(reset_error.value) == str(shell_error.value)
            assert sub.held == 0
