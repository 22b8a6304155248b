import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ksim import offline
from ksim.generators import GeneratorSpec, generate
from ksim.metric import FiniteMetric, build_hst, build_uniform, decompose
from ksim.offline import (INF, DemandTracker, UniformDemandTracker, demand,
                          max_demand_trace, opt_cost, opt_cost_exhaustive)

PATH3 = FiniteMetric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def random_metric(rng: random.Random, n: int) -> FiniteMetric:
    """Random weights repaired into a metric by shortest-path closure."""
    return metric_closure(n, [rng.randint(1, 9) for _ in range(n * (n - 1) // 2)])


def metric_closure(n: int, weights) -> FiniteMetric:
    """Upper-triangle weights (row-major) repaired into a metric by
    shortest-path closure."""
    w = [[0] * n for _ in range(n)]
    it = iter(weights)
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = next(it)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if w[i][k] + w[k][j] < w[i][j]:
                    w[i][j] = w[i][k] + w[k][j]
    return FiniteMetric(w)


class TestOptCost:
    def test_no_requests_cost_zero(self):
        m = build_uniform(4, 1)
        assert opt_cost(m, 3, []).cost == 0

    def test_zero_servers_nonempty_is_infinite(self):
        m = build_uniform(3, 1)
        res = opt_cost(m, 0, [0, 1])
        assert res.cost == INF
        assert res.config is None

    def test_single_server_alternation(self):
        m = build_uniform(3, 1)
        assert opt_cost(m, 1, [0, 1, 0]).cost == 2

    def test_covering_configuration_is_free(self):
        m = build_uniform(2, 1)
        assert opt_cost(m, 2, [0, 1, 0, 1]).cost == 0

    def test_path_metric_walk(self):
        assert opt_cost(PATH3, 1, [0, 2, 0]).cost == 4

    def test_fixed_initial(self):
        m = build_uniform(2, 1)
        assert opt_cost(m, 1, [1], initial={0}).cost == 1
        assert opt_cost(m, 1, [1], initial={1}).cost == 0

    def test_free_beats_or_matches_fixed(self):
        rng = random.Random(3)
        for _ in range(50):
            m = random_metric(rng, 4)
            rho = [rng.randrange(4) for _ in range(5)]
            init = frozenset(rng.sample(range(4), 2))
            free = opt_cost(m, 2, rho).cost
            fixed = opt_cost(m, 2, rho, initial=init).cost
            assert free <= fixed

    def test_rejects_bad_ell(self):
        m = build_uniform(3, 1)
        with pytest.raises(ValueError):
            opt_cost(m, 4, [0])
        with pytest.raises(ValueError):
            opt_cost(m, 2, [0], initial={0})

    def test_argmin_config_serves_final_request(self):
        m = build_uniform(3, 1)
        res = opt_cost(m, 1, [0, 1])
        assert res.config == frozenset({1})

    def test_rejects_bools(self):
        # bool is a subclass of int, but True is not point 1
        m = build_uniform(3, 1)
        with pytest.raises(ValueError, match="point id True"):
            opt_cost(m, 1, [True, False])
        with pytest.raises(ValueError, match="point id False"):
            opt_cost(m, 1, [0], initial={False})


class TestExhaustiveOracle:
    def test_matches_on_spec_example(self):
        m = build_uniform(3, 1)
        assert opt_cost_exhaustive(m, 1, [0, 1, 0]).cost == 2

    def test_free_initial_on_request(self):
        m = build_uniform(2, 1)
        assert opt_cost_exhaustive(m, 1, [0]).cost == 0

    def test_path_metric(self):
        assert opt_cost_exhaustive(PATH3, 1, [0, 2, 0]).cost == 4

    def test_guard_refuses_large_instances(self):
        with pytest.raises(ValueError, match="refused"):
            opt_cost_exhaustive(build_uniform(6, 1), 1, [0])
        with pytest.raises(ValueError, match="refused"):
            opt_cost_exhaustive(build_uniform(5, 1), 4, [0])
        with pytest.raises(ValueError, match="refused"):
            opt_cost_exhaustive(build_uniform(5, 1), 1, [0] * 8)

    def test_agrees_with_dp_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(2, 5)
            m = random_metric(rng, n)
            ell = rng.randint(0, min(3, n))
            rho = [rng.randrange(n) for _ in range(rng.randint(0, 7))]
            assert opt_cost(m, ell, rho).cost == opt_cost_exhaustive(m, ell, rho).cost
            if ell >= 1:
                init = frozenset(rng.sample(range(n), ell))
                assert (opt_cost(m, ell, rho, initial=init).cost
                        == opt_cost_exhaustive(m, ell, rho, initial=init).cost)


class TestDemand:
    def test_empty_sequence_demand_zero(self):
        assert demand(build_uniform(2, 1), 10, []) == 0

    def test_expensive_servers_buy_one(self):
        assert demand(build_uniform(2, 1), 10, [0, 1, 0, 1]) == 1

    def test_cheap_servers_buy_two(self):
        assert demand(build_uniform(2, 1), 2, [0, 1, 0, 1]) == 2

    def test_tie_resolves_to_least(self):
        # opt(1)+Delta = 2+2 = 4 and opt(2)+2*Delta = 0+4 = 4: pick 1
        assert demand(build_uniform(2, 1), 2, [0, 1, 0]) == 1

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            demand(build_uniform(2, 1), 0, [0])

    def test_demand_at_most_distinct_points(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 5)
            m = random_metric(rng, n)
            rho = [rng.randrange(n) for _ in range(rng.randint(1, 8))]
            delta = Fraction(rng.randint(1, 10), rng.choice([1, 2]))
            assert demand(m, delta, rho) <= len(set(rho))


class TestMaxDemandTrace:
    def test_empty(self):
        assert max_demand_trace(build_uniform(2, 1), 2, []) == []

    def test_abab(self):
        assert max_demand_trace(build_uniform(2, 1), 2, [0, 1, 0, 1]) == [1, 1, 1, 2]

    def test_nondecreasing_and_dominates_prefix_demands(self):
        rng = random.Random(9)
        m = build_uniform(3, 1)
        for _ in range(40):
            rho = [rng.randrange(3) for _ in range(rng.randint(1, 8))]
            delta = Fraction(rng.randint(1, 6))
            trace = max_demand_trace(m, delta, rho)
            assert all(a <= b for a, b in zip(trace, trace[1:]))
            for i in range(len(rho)):
                assert trace[i] == demand(m, delta, rho[: i + 1])


class TestDemandTracker:
    def test_matches_fresh_solver_on_every_prefix(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(2, 4)
            m = random_metric(rng, n)
            delta = Fraction(rng.randint(1, 8), rng.choice([1, 2]))
            tracker = DemandTracker.for_metric(m, delta)
            prefix = []
            for _ in range(rng.randint(1, 8)):
                r = rng.randrange(n)
                prefix.append(r)
                tracker.push(r)
                for ell in range(n + 1):
                    assert tracker.opt(ell) == opt_cost(m, ell, prefix).cost

    @pytest.mark.parametrize("r", [True, False])
    def test_a_checked_push_rejects_bools(self, r):
        m = build_uniform(3, 1)
        for tracker in (DemandTracker.for_metric(m, 2),
                        UniformDemandTracker(m, 2 * m.scale, m.uniform_cost())):
            with pytest.raises(ValueError, match=f"point id {r}"):
                tracker.push(r)
            assert tracker.length == 0

    def test_a_negative_server_count_is_refused(self):
        m = build_uniform(4, 1)
        for tracker in (DemandTracker.for_metric(m, 2), UniformDemandTracker(m, 2, 1)):
            for r in [0, 1, 2, 3, 0, 1]:
                tracker.push(r)
            assert tracker.opt(1) == 5
            with pytest.raises(ValueError, match="server count -1"):
                tracker.opt(-1)

    @pytest.mark.parametrize("make", [lambda m: DemandTracker.for_metric(m, 2),
                                      lambda m: UniformDemandTracker(m, 2, 1)],
                             ids=["dp", "uniform"])
    def test_a_server_count_above_the_points_is_refused(self, make):
        # as opt_cost refuses it, rather than read 0
        m = build_uniform(4, 1)
        tracker = make(m)
        for r in [0, 1, 2, 3, 0, 1]:
            tracker.push(r)
        assert tracker.opt(4) == 0
        for ell in (5, 100):
            with pytest.raises(ValueError,
                               match=re.escape(f"server count {ell} out of range [0, 4]")):
                tracker.opt(ell)

    def test_initial_state(self):
        tracker = DemandTracker.for_metric(build_uniform(3, 1), 2)
        assert tracker.demand() == 0
        assert tracker.opt(0) == 0
        assert tracker.opt(2) == 0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_opt_matches_exhaustive_oracle_on_every_prefix(self, data):
        # the oracle allows non-lazy relocations and shares no code with the
        # configuration DP that the tracker and opt_cost run on
        n = data.draw(st.integers(1, 5))
        weights = data.draw(st.lists(rationals, min_size=n * (n - 1) // 2,
                                     max_size=n * (n - 1) // 2))
        m = metric_closure(n, weights)
        rho = data.draw(st.lists(st.integers(0, n - 1), max_size=7))
        tracker = DemandTracker.for_metric(m, data.draw(rationals))
        for i, r in enumerate(rho):
            tracker.push(r)
            for ell in range(min(3, n) + 1):
                assert tracker.opt(ell) == opt_cost_exhaustive(m, ell, rho[: i + 1]).cost


def clustered_metric(offset: int, n: int, d: Fraction, other: Fraction) -> FiniteMetric:
    """Points 0..offset-1 pairwise at `other`, points offset..offset+n-1
    pairwise at `d`, and the two clusters max(d, other) apart."""
    far = max(d, other)
    size = offset + n
    return FiniteMetric([[0 if i == j else d if min(i, j) >= offset
                          else other if max(i, j) < offset else far
                          for j in range(size)] for i in range(size)])


rationals = st.builds(Fraction, st.integers(1, 30), st.integers(1, 6))


class TestUniformDemandTracker:
    """The interval greedy against the configuration DP it replaces on
    uniform blocks; block points are global ids, so the block need not
    start at point 0."""

    @settings(max_examples=600, deadline=None)
    @given(n=st.integers(1, 7), offset=st.integers(0, 4), d=rationals,
           other=rationals, Delta=rationals, data=st.data())
    def test_matches_dp_after_every_push(self, n, offset, d, other, Delta, data):
        m = clustered_metric(offset, n, d, other)
        price = Delta * m.scale  # a Fraction whenever Delta is off the table's grid
        block = list(range(offset, offset + n))
        used = data.draw(st.lists(st.sampled_from(block), min_size=1, unique=True))
        rho = data.draw(st.lists(st.sampled_from(used), max_size=30))
        dp = DemandTracker(m, price)
        greedy = UniformDemandTracker(m, price, m.uniform_cost(block))
        assert greedy.demand() == dp.demand() == 0
        for r in rho:
            dp.push(r)
            greedy.push(r)
            assert [greedy.opt(ell) for ell in range(n + 1)] == \
                [dp.opt(ell) for ell in range(n + 1)]
            assert greedy.demand() == dp.demand()
            assert (greedy.length, greedy.distinct) == (dp.length, dp.distinct)

    def test_checks_points(self):
        with pytest.raises(ValueError, match="out of range"):
            UniformDemandTracker(build_uniform(3, 1), 2, 1).push(3)

    def test_only_a_trusted_tracker_skips_the_check(self):
        m = build_uniform(3, 1)
        for tracker in (DemandTracker(m, 2), UniformDemandTracker(m, 2, 1)):
            with pytest.raises(ValueError, match="out of range"):
                tracker.push(-1)
        checked = DemandTracker(m, 2)
        trusted = [DemandTracker._trusted(m, 2), UniformDemandTracker._trusted(m, 2, 1)]
        for r in (0, 1, 0, 2, 1):
            checked.push(r)
            for tracker in trusted:
                tracker.push(r)
                assert tracker.demand() == checked.demand()


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_opt_monotone_in_servers_and_prefix(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        n = data.draw(st.integers(2, 5))
        m = random_metric(rng, n)
        rho = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
        costs = [opt_cost(m, ell, rho).cost for ell in range(n + 1)]
        finite = [c for c in costs if c != INF]
        assert all(a >= b for a, b in zip(finite, finite[1:]))
        ell = data.draw(st.integers(1, n))
        prefix_costs = [opt_cost(m, ell, rho[:i]).cost for i in range(len(rho) + 1)]
        assert all(a <= b for a, b in zip(prefix_costs, prefix_costs[1:]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_free_start_opt_convex_in_servers(self, data):
        # opt(ell) is a min-cost flow value of ell units, so its savings per
        # added server never grow; DemandTracker.demand stops early on this
        n = data.draw(st.integers(2, 6))
        weights = data.draw(st.lists(rationals, min_size=n * (n - 1) // 2,
                                     max_size=n * (n - 1) // 2))
        m = metric_closure(n, weights)
        rho = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))
        costs = [opt_cost(m, ell, rho).cost for ell in range(1, n + 1)]
        savings = [a - b for a, b in zip(costs, costs[1:])]
        assert all(a >= b for a, b in zip(savings, savings[1:]))


def full_scan_demand(tracker, Delta) -> int:
    """Least argmin of opt(ell) + ell * Delta over every ell up to distinct."""
    if tracker.length == 0:
        return 0
    values = [tracker.opt(ell) + ell * Delta for ell in range(tracker.distinct + 1)]
    return values.index(min(values))


class TestDemandEarlyStop:
    """demand() stops at the first server not worth Delta; it must pick what
    a scan over every server count picks, on every prefix."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), Delta=rationals)
    def test_dp_tracker_matches_full_scan(self, data, Delta):
        n = data.draw(st.integers(1, 6))
        weights = data.draw(st.lists(rationals, min_size=n * (n - 1) // 2,
                                     max_size=n * (n - 1) // 2))
        m = metric_closure(n, weights)
        tracker = DemandTracker.for_metric(m, Delta)
        for r in data.draw(st.lists(st.integers(0, n - 1), max_size=12)):
            tracker.push(r)
            assert tracker.demand() == full_scan_demand(tracker, Delta)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 7), offset=st.integers(0, 3), d=rationals,
           other=rationals, Delta=rationals, data=st.data())
    def test_uniform_tracker_matches_full_scan(self, n, offset, d, other, Delta, data):
        m = clustered_metric(offset, n, d, other)
        block = list(range(offset, offset + n))
        tracker = UniformDemandTracker(m, Delta * m.scale, m.uniform_cost(block))
        for r in data.draw(st.lists(st.sampled_from(block), max_size=30)):
            tracker.push(r)
            assert tracker.demand() == full_scan_demand(tracker, Delta)


class TestDirectScan:
    """demand() reads the kept levels' tables directly and reads on through
    the grow path from level L; the interval tracker's scan must answer as
    the DP's and as a full scan of a third tracker's optima, on every
    prefix, also where the answer reaches and passes `LEVELS`.  A price
    below d buys a server for every distinct point, so the sequences with
    more than `LEVELS` of them run the fall-back."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 10), dist=rationals,
           ratio=st.fractions(Fraction(1, 4), 3, max_denominator=7),
           seq=st.lists(st.integers(0, 9), min_size=1, max_size=40))
    # 15/7 is off the grid of d = 3; six distinct points pass LEVELS
    @example(n=6, dist=Fraction(3, 2), ratio=Fraction(5, 7), seq=list(range(6)) * 2)
    def test_uniform_scan_matches_the_dp_past_the_kept_levels(self, n, dist, ratio, seq):
        m = build_uniform(n, dist)
        d = m.dist[0][1]
        price = d * ratio  # a Fraction wherever d * ratio is off the grid
        greedy = UniformDemandTracker(m, price, d)
        dp = DemandTracker(m, price)
        oracle = DemandTracker(m, price)  # its opt() reads grow every level
        for r in seq:
            r %= n
            for tracker in (greedy, dp, oracle):
                tracker.push(r)
            assert greedy.demand() == dp.demand() == \
                full_scan_demand(oracle, price / m.scale)


# Delta per server; a denominator of 7 is off the grid of every metric drawn
# from `rationals`, so those prices stay Fractions in the metric's unit
prices = st.builds(Fraction, st.integers(1, 30), st.sampled_from([1, 2, 7]))


class TestSavingsNeverFall:
    """The theorem in `DemandTracker.demand`: for every ell >= 1 one more
    server saves at least as much after a request is appended,
    saving_{t+1}(ell) >= saving_t(ell), so the demand never falls as the
    prefix grows.  The shell's memo and `max_demand_trace` rely on it;
    `opt_cost` is the judge."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), Delta=prices)
    def test_savings_and_demands_never_fall(self, data, Delta):
        n = data.draw(st.integers(1, 7))
        weights = data.draw(st.lists(rationals, min_size=n * (n - 1) // 2,
                                     max_size=n * (n - 1) // 2))
        m = metric_closure(n, weights)
        rho = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))
        tracker = DemandTracker.for_metric(m, Delta)
        savings, demand = [0] * n, 0
        for t in range(1, len(rho) + 1):
            # saving_t(ell) for ell = 1..n-1, and saving(n) = 0: n servers
            # cover every point
            opts = [opt_cost(m, ell, rho[:t]).cost for ell in range(1, n + 1)]
            now = [a - b for a, b in zip(opts, opts[1:])] + [0]
            assert all(b >= a for a, b in zip(savings, now))
            tracker.push(rho[t - 1])
            prev, demand = demand, tracker.demand()
            assert demand >= prev
            savings = now


class TestLazyLevels:
    """The trackers keep opt(ell) only for the server counts read so far
    and grow a level by replaying the pushed requests; reads that need a
    grown level must match trackers and solvers that never dropped one."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), Delta=prices)
    def test_dp_demand_alone_matches_fresh_optima(self, data, Delta):
        n = data.draw(st.integers(1, 7))
        weights = data.draw(st.lists(rationals, min_size=n * (n - 1) // 2,
                                     max_size=n * (n - 1) // 2))
        m = metric_closure(n, weights)
        tracker = DemandTracker.for_metric(m, Delta)
        prefix = []
        for r in data.draw(st.lists(st.integers(0, n - 1), max_size=12)):
            prefix.append(r)
            tracker.push(r)
            values = [opt_cost(m, ell, prefix).cost + ell * Delta
                      for ell in range(len(set(prefix)) + 1)]
            assert tracker.demand() == values.index(min(values))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), Delta=prices)
    def test_opt_at_random_server_counts_between_pushes(self, data, Delta):
        n = data.draw(st.integers(1, 7))
        weights = data.draw(st.lists(rationals, min_size=n * (n - 1) // 2,
                                     max_size=n * (n - 1) // 2))
        m = metric_closure(n, weights)
        tracker = DemandTracker.for_metric(m, Delta)
        prefix = []
        for r in data.draw(st.lists(st.integers(0, n - 1), max_size=12)):
            prefix.append(r)
            tracker.push(r)
            for ell in data.draw(st.lists(st.integers(0, n), max_size=2)):
                assert tracker.opt(ell) == opt_cost(m, ell, prefix).cost

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 7), offset=st.integers(0, 3), d=rationals,
           other=rationals, Delta=prices, data=st.data())
    def test_uniform_demand_alone_matches_the_dp(self, n, offset, d, other, Delta, data):
        m = clustered_metric(offset, n, d, other)
        block = list(range(offset, offset + n))
        greedy = UniformDemandTracker(m, Delta * m.scale, m.uniform_cost(block))
        dp = DemandTracker(m, Delta * m.scale)
        for r in data.draw(st.lists(st.sampled_from(block), max_size=30)):
            greedy.push(r)
            dp.push(r)
            assert greedy.demand() == dp.demand()


    @pytest.mark.parametrize("Delta,seq,want,grows", [
        # a server on the 8-point cycle saves two misses, more than Delta;
        # one on a point requested once saves one miss, less than Delta
        (Fraction(3, 2), list(range(8)) * 3 + list(range(8, 13)), 8, [4, 7]),
        (Fraction(1, 2), list(range(13)) * 2, 13, [4, 7]),
        # at L+1 distinct points, opt(L+1) is 0 with no level grown
        (Fraction(1, 2), list(range(4)) * 2, 4, []),
    ])
    def test_dp_demand_grows_as_a_read_on_scan_does(self, monkeypatch, Delta, seq, want, grows):
        # L grows from 3 to 6 and then to every distinct point, once each,
        # as when the scan read opt(L+1) level by level
        grown = []
        grow = DemandTracker._grow

        def counted(self, ell):
            grown.append(ell)
            return grow(self, ell)
        monkeypatch.setattr(DemandTracker, "_grow", counted)
        tracker = DemandTracker.for_metric(build_uniform(13, 1), Delta)
        for r in seq:
            tracker.push(r)
        assert tracker.demand() == want
        assert grown == grows
        oracle = DemandTracker.for_metric(build_uniform(13, 1), Delta)
        for r in seq:
            oracle.push(r)
        assert full_scan_demand(oracle, Delta) == want


class TestSlackBound:
    """The shell answers most demand misses with no tracker, by a slack
    certificate (`BlockShell._memo_miss`) that rests on one bound: for
    prefixes t0 < t and every P >= D_t0, the demand at t0,
    saving_t(P) <= saving_t0(D_t0) + the path length from request t0 to
    request t, where saving(P) = opt(P) - opt(P+1).  The DP tracker's
    optima are the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), Delta=prices)
    def test_a_saving_grows_by_at_most_the_path_walked(self, data, Delta):
        n = data.draw(st.integers(1, 7))
        weights = data.draw(st.lists(rationals, min_size=n * (n - 1) // 2,
                                     max_size=n * (n - 1) // 2))
        m = metric_closure(n, weights)
        rho = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))
        tracker = DemandTracker.for_metric(m, Delta)
        demands, savings = [], []
        for r in rho:
            tracker.push(r)
            d = tracker.demand()
            levels = tracker._levels
            scaled = tracker.saving(d)
            assert tracker._levels == levels  # read from the levels demand() read
            assert tracker._saving == scaled  # the saving the shell reads
            # savings[P] for P = 1..n; opt(n+1) is opt(n), 0
            opts = [tracker.opt(ell) for ell in range(n + 1)] + [0]
            savings.append([None] + [opts[p] - opts[p + 1] for p in range(1, n + 1)])
            assert scaled == savings[-1][d] * m.scale
            demands.append(d)
        # a first request: demand 1, and a second server saves nothing
        assert demands[0] == 1 and savings[0][1] == 0
        walked = [Fraction(0)]
        for a, b in zip(rho, rho[1:]):
            walked.append(walked[-1] + m.distance(a, b))
        for t0, d0 in enumerate(demands):
            for t in range(t0 + 1, len(rho)):
                bound = savings[t0][d0] + walked[t] - walked[t0]
                assert all(savings[t][p] <= bound for p in range(d0, n + 1))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 7), offset=st.integers(0, 3), d=rationals,
           other=rationals, Delta=rationals, data=st.data())
    def test_the_greedy_saving_at_the_demand_is_the_dps(self, n, offset, d, other,
                                                        Delta, data):
        m = clustered_metric(offset, n, d, other)
        block = list(range(offset, offset + n))
        price = Delta * m.scale
        dp = DemandTracker(m, price)
        greedy = UniformDemandTracker(m, price, m.uniform_cost(block))
        for r in data.draw(st.lists(st.sampled_from(block), min_size=1, max_size=30)):
            dp.push(r)
            greedy.push(r)
            demand = greedy.demand()
            levels = greedy._levels
            assert greedy.saving(demand) == dp.saving(demand)
            assert greedy._levels == levels
            assert dp.demand() == demand
            assert greedy._saving == dp._saving == dp.saving(demand)


class TestLevelGuard:
    """A configuration DP that would keep a level of more than
    `DEMAND_LEVEL_GUARD` configurations raises before it does.  The entries
    the DP steps are counted: each run raises after stepping a few tens of
    thousands (about 1.5 us each), where keeping the level would step
    millions per push."""

    @staticmethod
    def counted(monkeypatch):
        stepped = [0]

        def counted(dp, r, dist, _step=offline._lazy_step):
            stepped[0] += len(dp)
            return _step(dp, r, dist)
        monkeypatch.setattr(offline, "_lazy_step", counted)
        return stepped

    def test_a_high_demand_over_many_points_raises_before_growing(self, monkeypatch):
        stepped = self.counted(monkeypatch)
        # a server is worth more than the distance it saves, so the demand
        # is every distinct point, and the scan grows the kept levels
        tracker = DemandTracker.for_metric(build_uniform(30, 1), Fraction(1, 2))
        for r in range(30):
            tracker.push(r)
        with pytest.raises(ValueError, match=r"level 6 over 30 distinct points "
                                             r"holds up to C\(30, 6\) = 593775"):
            tracker.demand()
        assert stepped[0] < 50_000  # the pushes at three levels, no replay
        assert tracker.length == 30

    def test_a_push_past_the_guard_raises_before_stepping(self, monkeypatch):
        monkeypatch.setattr(DemandTracker, "LEVELS", 6)
        stepped = self.counted(monkeypatch)
        tracker = DemandTracker.for_metric(build_uniform(20, 1), 2)
        for r in range(18):  # C(18, 6) = 18564 configurations at most
            tracker.push(r)
        before = stepped[0]
        with pytest.raises(ValueError, match=r"level 6 over 19 distinct points"):
            tracker.push(18)
        assert stepped[0] == before and tracker.length == 18

    def test_the_greedy_keeps_no_configurations(self):
        m = build_uniform(60, 1)
        greedy = UniformDemandTracker(m, Fraction(m.scale, 2), m.uniform_cost())
        for r in range(60):
            greedy.push(r)
        assert greedy.demand() == 60


GOLDEN_CONFIGS = Path(__file__).parent / "golden" / "opt_cost_configs.txt"


def _points(config) -> str:
    return "none" if config is None else " ".join(map(str, sorted(config)))


def render_opt_cost_configs() -> str:
    """opt_cost's cost and argmin configuration (the lexicographically least
    sorted point list among the cheapest final configurations) on seeded
    inputs, then the prefix-demand traces of [3,3,3]'s root blocks."""
    lines = []
    rng = random.Random(2026)
    for i in range(400):
        # small weights and denominators make cost ties, and so tie-breaks, common
        n = rng.randint(1, 9)
        m = metric_closure(n, [Fraction(rng.randint(1, 4), rng.randint(1, 2))
                               for _ in range(n * (n - 1) // 2)])
        ell = rng.randint(0, n)
        rho = [rng.randrange(n) for _ in range(rng.randint(0, 12))]
        starts = [None] if ell == 0 else [None, rng.sample(range(n), ell)]
        for init in starts:
            res = opt_cost(m, ell, rho, initial=init)
            lines.append(f"random {i} n={n} ell={ell} start={_points(init)} "
                         f"cost={res.cost} config={_points(res.config)}")
    # point ids reach 26, beyond any small-int shortcut
    space = build_hst([3, 3, 3], Fraction(7, 2))
    for seed in range(3):
        rho = generate(GeneratorSpec("uniform_random", 30, seed=seed), space) + [26]
        for init in (None, [0, 1, 2], [24, 25, 26]):
            res = opt_cost(space.leaf_metric, 3, rho, initial=init)
            lines.append(f"h3 mu=7/2 seed={seed} start={_points(init)} "
                         f"cost={res.cost} config={_points(res.config)}")
    for mu in (3, Fraction(7, 2)):
        space = build_hst([3, 3, 3], mu)
        dec = decompose(space, 0)
        for seed in range(3):
            rho = generate(GeneratorSpec("uniform_random", 120, seed=seed), space)
            for s, block in enumerate(dec.blocks):
                trace = max_demand_trace(dec.metric, dec.Delta,
                                         [r for r in rho if r in block])
                lines.append(f"h3 mu={mu} seed={seed} block={s} "
                             f"max_demand_trace={' '.join(map(str, trace))}")
    return "\n".join(lines) + "\n"


def test_opt_cost_configs_golden():
    # tests/golden/opt_cost_configs.txt was rendered while configurations
    # were frozensets, before the bitmask DP
    assert render_opt_cost_configs().encode() == GOLDEN_CONFIGS.read_bytes()
