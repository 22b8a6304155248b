import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from ksim.generators import GeneratorSpec, generate
from ksim.marking import Marking, marking_f
from ksim.metric import Decomposition, FiniteMetric, build_hst, decompose
from ksim.offline import DemandTracker, UniformDemandTracker
from ksim.shell import (BlockShell, ShellInvariantError, ShellSubroutine,
                        build_hst_algorithm, compose_f, make_node_handle,
                        node_decompositions, node_f)


def two_block_shell(seed=42, events=None):
    space = build_hst([2, 2], 2)  # blocks {0,1} and {2,3}, Delta = 6
    dec = decompose(space, 0)
    sink = events.append if events is not None else None
    return BlockShell(dec, 2, {0, 1}, seed=seed, event_sink=sink)


class TestConstruction:
    def test_initial_marks_follow_empty_blocks(self):
        space = build_hst([3, 2], 3)
        dec = decompose(space, 0)
        sh = BlockShell(dec, 2, {0, 2}, seed=0)
        assert [sh.is_marked(b) for b in range(3)] == [False, False, True]

    def test_all_servers_in_one_block_marks_the_rest(self):
        space = build_hst([3, 2], 3)
        dec = decompose(space, 0)
        sh = BlockShell(dec, 2, {0, 1}, seed=0)
        assert [sh.is_marked(b) for b in range(3)] == [False, True, True]

    def test_rejects_small_separation(self):
        # uniform blocks of diameter 2 at cross distance 3: mu_eff = 3/2
        rows = [[0, 2, 3, 3], [2, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]]
        dec = Decomposition(FiniteMetric(rows), [(0, 1), (2, 3)], Delta=3, delta=2)
        with pytest.raises(ValueError, match="separation"):
            BlockShell(dec, 2, {0, 1}, seed=0)

    def test_rejects_wrong_initial_size(self):
        dec = decompose(build_hst([2, 2], 2), 0)
        with pytest.raises(ValueError):
            BlockShell(dec, 3, {0, 1}, seed=0)
        with pytest.raises(ValueError):
            BlockShell(dec, 0, set(), seed=0)


class TestTrackerChoice:
    def test_uniform_blocks_get_the_interval_tracker(self):
        space = build_hst([8, 8], 8)
        sh = BlockShell(node_decompositions(space)[0], 8, range(8), seed=0)
        assert all(type(sh._new_tracker(s)) is UniformDemandTracker for s in range(2))

    def test_non_uniform_blocks_keep_the_dp(self):
        root = build_hst_algorithm(build_hst([3, 3, 3], 3), 3, {0, 1, 2}, seed=0).shell
        assert all(type(root._new_tracker(s)) is DemandTracker for s in range(3))
        inner = root._subs[0].shell  # [3,3] node: blocks of three leaves
        assert all(type(inner._new_tracker(s)) is UniformDemandTracker for s in range(3))

    def test_single_point_blocks_count_as_uniform(self):
        dec = decompose(build_hst([2, 1], 2), 0)
        assert dec.uniform_blocks == (True, True)
        sh = BlockShell(dec, 1, {0}, seed=0)
        assert all(type(sh._new_tracker(s)) is UniformDemandTracker for s in range(2))


class TestTracedTwoBlockRun:
    """Hand-traced run on two blocks with Delta=6, servers starting in block 0."""

    def test_first_request_into_empty_block_jumps(self):
        sh = two_block_shell()
        rep = sh.serve(2)
        assert rep.jump_cost == 6
        assert rep.inner_cost == 0
        assert len(rep.jumps) == 1
        assert rep.jumps[0].to_block == 1
        assert rep.jumps[0].dst == 2
        assert sh.server_count(0) == 1 and sh.server_count(1) == 1

    def test_donor_server_is_uniform(self):
        counts = Counter()
        for seed in range(2000):
            sh = two_block_shell(seed=seed)
            rep = sh.serve(2)
            counts[rep.jumps[0].src] += 1
        assert set(counts) == {0, 1}
        assert 800 < counts[0] < 1200

    def test_full_phase_turnover(self):
        sh = two_block_shell()
        sh.serve(2)
        survivor = sorted(sh.positions & {0, 1})[0]
        sh.serve(survivor)           # demand 1 == count 1: marks block 0
        assert sh.is_marked(0) and sh.is_marked(1)
        for r in [3, 2, 3]:
            rep = sh.serve(r)
            assert not rep.phase_ended
        # fifth block-1 request pushes its demand to 2 with no donor left
        rep = sh.serve(2)
        assert rep.phase_ended
        assert sh.phase == 2
        assert sh.triggers == [2]
        assert sh.dhat == [[2, 0], [1, 1]]
        trace = sh.mp_trace()
        assert len(trace) == 1
        assert trace[0].gain == 1
        assert trace[0].jumps == 1
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
            sh = BlockShell(dec, 3, {0, 1, 2}, seed=seed)
            for r in seq:
                rep = sh.serve(r)
                assert sum(sh.server_count(b) for b in range(dec.t)) == 3
                assert rep.jump_cost == dec.Delta * len(rep.jumps)
                assert len(sh.positions) == 3

    def test_empty_blocks_are_marked_throughout(self):
        space = build_hst([2, 3], 4)
        dec = decompose(space, 0)
        seq = generate(GeneratorSpec("uniform_random", 60, seed=8), space)
        for seed in range(20):
            sh = BlockShell(dec, 2, {0, 1}, seed=seed)
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
        sh = BlockShell(dec, 2, {0, 4}, seed=5)
        for r in seq:
            sh.serve(r)
            for b in range(dec.t):
                assert sh.peak_demand(b) <= len(dec.blocks[b])

    def test_jumps_per_phase_at_most_k(self):
        # observed across desk runs; every server jumps at most once per phase
        space = build_hst([3, 3], 3)
        dec = decompose(space, 0)
        seq = generate(GeneratorSpec("block_sweep", 60, seed=13,
                                     params={"width": 3, "passes": 4}), space)
        for seed in range(50):
            sh = BlockShell(dec, 3, {0, 1, 2}, seed=seed)
            for r in seq:
                sh.serve(r)
            assert all(c <= 3 for c in sh.phase_jump_counts)

    def test_marked_blocks_never_donate(self):
        events = []
        space = build_hst([3, 3], 3)
        dec = decompose(space, 0)
        seq = generate(GeneratorSpec("block_sweep", 60, seed=4,
                                     params={"width": 3, "passes": 4}), space)
        sh = BlockShell(dec, 3, {0, 1, 2}, seed=11, event_sink=events.append)
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
        dec = decompose(space, 0)
        sh = BlockShell(dec, 2, {0, 1}, seed=0)
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
        dec = decompose(space, space.children[0][0])
        sh = BlockShell(dec, 1, {dec.points[0]}, seed=0)
        outside = [p for p in range(space.n_leaves) if p not in dec.points][0]
        with pytest.raises(ValueError, match="outside"):
            sh.serve(outside)


class TestHstAlgorithm:
    def test_height_one_is_marking(self):
        space = build_hst([4], 3)
        algo = build_hst_algorithm(space, 3, {0, 1, 2}, seed=0)
        assert isinstance(algo, Marking)

    def test_height_two_is_shell_over_marking(self):
        space = build_hst([2, 3], 3)
        algo = build_hst_algorithm(space, 3, {0, 1, 2}, seed=0)
        assert isinstance(algo, ShellSubroutine)
        inner = algo.shell
        assert all(isinstance(s, Marking) for s in inner._subs)

    def test_height_three_nests_shells(self):
        space = build_hst([2, 2, 2], 3)
        algo = build_hst_algorithm(space, 3, {0, 1, 2}, seed=0)
        assert isinstance(algo, ShellSubroutine)
        assert any(isinstance(s, ShellSubroutine) for s in algo.shell._subs)

    def test_composed_f(self):
        space = build_hst([2, 3], 3)
        algo = build_hst_algorithm(space, 3, {0, 1, 2}, seed=0)
        expect = float(marking_f(3)) * (6 * math.log(3) + 8)
        assert algo.f(3) == pytest.approx(expect)

    def test_node_f_composes_once_per_level_above_marking(self):
        space = build_hst([2, 2, 2], 3)
        mid = space.children[0][0]
        assert node_f(space, space.children[mid][0]) is marking_f  # parent of leaves
        assert node_f(space, mid)(3) == compose_f(marking_f)(3)
        assert node_f(space, 0)(3) == compose_f(compose_f(marking_f))(3)
        algo = build_hst_algorithm(space, 3, {0, 1, 2}, seed=0)
        assert algo.f(3) == node_f(space, 0)(3)

    def test_rejects_mu_below_both_thresholds(self):
        space = build_hst([3, 3], 2)  # mu=2 < k=3 and < degree 3
        with pytest.raises(ValueError, match="below both"):
            build_hst_algorithm(space, 3, {0, 1, 2}, seed=0)

    def test_mu_at_least_degree_is_admissible(self):
        space = build_hst([2, 2], 2)  # mu=2 < k=3 but >= degree 2
        algo = build_hst_algorithm(space, 3, {0, 1, 2}, seed=0)
        seq = generate(GeneratorSpec("uniform_random", 30, seed=1), space)
        total = sum(algo.serve(r) for r in seq)
        assert total >= 0

    def test_serving_moves_costs_and_configuration(self):
        space = build_hst([2, 3], 3)
        algo = build_hst_algorithm(space, 3, {0, 1, 2}, seed=7)
        cost = algo.serve(4)
        assert cost > 0
        assert 4 in algo.config
        assert len(algo.config) == 3

    def test_reset_to_empty_then_back(self):
        space = build_hst([2, 3], 3)
        algo = build_hst_algorithm(space, 2, {0, 1}, seed=7)
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
            algo = build_hst_algorithm(space, 3, {0, 1, 2}, seed=31)
            costs.append([algo.serve(r) for r in seq])
        assert costs[0] == costs[1]

    def test_different_seeds_vary(self):
        space = build_hst([2, 2], 3)
        seq = [2, 3, 0, 1, 2, 0, 3, 1] * 3
        streams = set()
        for seed in range(6):
            algo = build_hst_algorithm(space, 2, {0, 1}, seed=seed)
            streams.add(tuple(algo.serve(r) for r in seq))
        assert len(streams) > 1
