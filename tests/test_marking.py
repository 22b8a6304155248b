import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from ksim.marking import Universe, harmonic, marking_f
from ksim.metric import FiniteMetric, build_uniform

import math


def started(metric, initial, seed, points=None):
    """Marking started on the universe of `points` (the whole space by
    default) and reset to `initial`."""
    st = Universe(metric, points).start(seed)
    st.reset(initial)
    return st


class TestConstruction:
    def test_two_servers_no_marks(self):
        st = started(build_uniform(3, 1), {0, 1}, seed=4)
        assert st.k == 2
        assert st.marked == set()
        assert st.config == frozenset({0, 1})

    def test_three_servers(self):
        st = started(build_uniform(5, 2), {0, 1, 2}, seed=4)
        assert st.k == 3
        assert st.d == 2

    def test_rejects_non_uniform(self):
        path = FiniteMetric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(ValueError, match="uniform"):
            Universe(path)

    def test_uniform_subset_of_non_uniform_space_is_fine(self):
        path = FiniteMetric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        st = started(path, {0}, seed=1, points=[0, 1])
        assert st.d == 1

    def test_rejects_servers_outside_universe(self):
        st = Universe(build_uniform(4, 1), [0, 1, 2]).start(seed=1)
        with pytest.raises(ValueError, match="inside"):
            st.reset({0, 3})


class TestServe:
    def test_covered_point_costs_nothing_and_marks(self):
        st = started(build_uniform(3, 1), {0, 1}, seed=0)
        assert st.serve(0) == 0
        assert 0 in st.marked

    def test_fault_costs_uniform_distance(self):
        st = started(build_uniform(3, 1), {0, 1}, seed=0)
        assert st.serve(2) == 1
        assert 2 in st.positions

    def test_victim_uniform_over_unmarked(self):
        counts = Counter()
        for seed in range(2000):
            st = started(build_uniform(3, 1), {0, 1}, seed=seed)
            st.serve(2)
            evicted = ({0, 1} - st.positions).pop()
            counts[evicted] += 1
        assert set(counts) == {0, 1}
        assert 800 < counts[0] < 1200

    def test_stream_is_seeded_on_first_eviction(self, monkeypatch):
        made = []

        class CountingRandom(random.Random):
            def __init__(self, seed=None):
                made.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(random, "Random", CountingRandom)
        st = started(build_uniform(4, 1), {0, 1, 2}, seed=7)
        for r in (0, 1, 2, 1):
            assert st.serve(r) == 0
        assert made == []
        # a new phase, then the first draw of the seed's own stream
        assert st.serve(3) == 1
        assert made == [7]
        evicted = ({0, 1, 2} - st.positions).pop()
        assert evicted == random.Random(7).choice([0, 1, 2])

    def test_cost_is_zero_or_d(self):
        st = started(build_uniform(4, 3), {0, 1}, seed=7)
        for r in [0, 2, 3, 1, 2, 0, 3]:
            assert st.serve(r) in (0, 3)

    def test_positions_count_constant(self):
        st = started(build_uniform(5, 1), {0, 1, 2}, seed=3)
        for r in [3, 4, 0, 1, 2, 3]:
            st.serve(r)
            assert len(st.positions) == 3

    def test_marks_grow_within_phase(self):
        st = started(build_uniform(4, 1), {0, 1, 2}, seed=3)
        seen = set()
        for r in [0, 1, 3]:  # stays within one phase: at most k distinct faults
            st.serve(r)
            assert seen <= st.marked
            seen = set(st.marked)

    def test_cycle_over_k_plus_one_pays_every_round(self):
        # pigeonhole: k+1 distinct points cannot all stay covered
        k = 3
        st = started(build_uniform(k + 1, 1), set(range(k)), seed=12)
        total = Fraction(0)
        rounds = 6
        for i in range(rounds * (k + 1)):
            total += st.serve(i % (k + 1))
        assert total >= rounds
        assert st.phase_count > 1

    def test_rejects_unknown_point(self):
        st = started(build_uniform(3, 1), {0}, seed=0, points=[0, 1])
        with pytest.raises(ValueError):
            st.serve(2)

    def test_deterministic_per_seed(self):
        seq = [2, 0, 3, 1, 2, 3, 0]
        runs = []
        for _ in range(2):
            st = started(build_uniform(4, 1), {0, 1}, seed=99)
            runs.append([st.serve(r) for r in seq])
        assert runs[0] == runs[1]


class TestReset:
    def test_reset_same_config_keeps_hits_free(self):
        st = started(build_uniform(3, 1), {0, 1}, seed=5)
        st.serve(2)
        st.reset(st.config)
        assert st.marked == set()
        covered = next(iter(st.positions))
        assert st.serve(covered) == 0

    def test_reset_grows_server_count(self):
        st = started(build_uniform(4, 1), {0, 1}, seed=5)
        st.reset({0, 1, 2})
        assert st.k == 3

    def test_reset_empty_then_serving_raises(self):
        st = started(build_uniform(3, 1), {0}, seed=5)
        st.reset(())
        assert st.k == 0
        with pytest.raises(RuntimeError):
            st.serve(0)

    def test_started_on_a_universe_it_holds_no_servers(self):
        st = Universe(build_uniform(3, 1)).start(seed=5)
        assert (st.config, st.k, st.marked, st.phase_count) == (frozenset(), 0, set(), 1)
        with pytest.raises(RuntimeError):
            st.serve(0)


class TestRefusesWhatIsNotAPoint:
    """True and 1.0 would find point 1 in a set by their hash, and "3" is
    no point either: each is refused with `check_point`'s wording, as -1 and
    n are.  A point of the metric outside the universe is outside this
    space."""

    BAD = [(True, "point id True is not an int"), (1.0, "point id 1.0 is not an int"),
           (-1, r"point id -1 out of range \[0, 3\)"),
           (3, r"point id 3 out of range \[0, 3\)"), ("3", "point id '3' is not an int")]
    IDS = ["True", "1.0", "-1", "3", "str"]

    @pytest.mark.parametrize("p, message", BAD, ids=IDS)
    def test_constructor(self, p, message):
        with pytest.raises(ValueError, match=message):
            Universe(build_uniform(3, 1), [p, 0])

    @pytest.mark.parametrize("p, message", BAD, ids=IDS)
    def test_reset(self, p, message):
        st = started(build_uniform(3, 1), [0, 2], seed=0)
        with pytest.raises(ValueError, match=message):
            st.reset([p, 0])
        assert st.positions == {0, 2}

    @pytest.mark.parametrize("p, message", BAD, ids=IDS)
    def test_serve(self, p, message):
        st = started(build_uniform(3, 1), [0, 2], seed=0)
        with pytest.raises(ValueError, match=message):
            st.serve(p)
        assert st.positions == {0, 2} and st.marked == set()

    def test_a_metric_point_outside_the_universe_is_outside_this_space(self):
        st = started(build_uniform(4, 1), [0], seed=0, points=[0, 1])
        with pytest.raises(ValueError, match="configuration must lie inside the space"):
            st.reset([3])
        with pytest.raises(ValueError, match="request 2 outside this space"):
            st.serve(2)
        assert st.positions == {0} and st.marked == set()


class TestCompetitiveFunction:
    def test_values(self):
        assert marking_f(1) == 2
        assert marking_f(3) == Fraction(11, 3)
        assert harmonic(4) == Fraction(25, 12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            marking_f(0)

    @pytest.mark.parametrize("value", [True, 2.0, 2.5, "3"])
    def test_rejects_what_is_not_an_int(self, value):
        # True would count as one server, 2.0 as two
        with pytest.raises(ValueError, match=re.escape(f"ell must be an int, got {value!r}")):
            marking_f(value)
        with pytest.raises(ValueError, match=re.escape(f"n must be an int, got {value!r}")):
            harmonic(value)

    def test_nondecreasing(self):
        vals = [marking_f(ell) for ell in range(1, 64)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_weighted_ratio_monotone(self):
        # ell * f(ell) / log(ell) nondecreasing for ell >= 2: the growth
        # property the per-segment cost bound leans on
        vals = [ell * float(marking_f(ell)) / math.log(ell) for ell in range(2, 64)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
