"""Exact offline optimum for serving a request sequence with a server budget.

Two solvers are provided on purpose.  `opt_cost` is the production path: a
dynamic program over server configurations that moves at most one server per
request (a lazy schedule; on finite metrics some lazy schedule is optimal).
`opt_cost_exhaustive` is a deliberately independent oracle that also allows
simultaneous multi-server relocations between requests, so it does not
inherit the laziness assumption; the two must agree wherever the oracle's
size guard admits the instance.

Costs are added in the metric's integer unit (`FiniteMetric.dist`), so
comparisons and argmin ties are exact; results are returned as Fractions.
Inside the configuration DP a configuration is an int bitmask, bit p set
when a server sits on point p.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence

from .metric import FiniteMetric, PointId, as_fraction, check_int

INF = float("inf")

# refuse a demand DP level of more configurations, C(distinct, ell), than
# this: a push steps every kept level, at about 1.5 us per configuration
DEMAND_LEVEL_GUARD = 20_000


@dataclass(frozen=True)
class OptResult:
    """Optimal total movement and one final configuration attaining it.

    cost is +inf exactly when no servers face a nonempty sequence; config is
    None in that case.
    """
    cost: object  # Fraction, or float('inf')
    config: Optional[frozenset]


def _check_inputs(m: FiniteMetric, ell: int, rho: Sequence[PointId],
                  initial: Optional[Iterable[PointId]]) -> Optional[frozenset]:
    check_int("server count", ell, 0, m.n)
    # `check_point` only words the refusal of a point these tests fail
    for r in rho:
        if type(r) is not int or not 0 <= r < m.n:
            m.check_point(r)
    if initial is None:
        return None
    init = frozenset(initial)
    if len(init) != ell:
        raise ValueError(f"initial configuration has {len(init)} points, expected {ell}")
    for p in init:
        if type(p) is not int or not 0 <= p < m.n:
            m.check_point(p)
    return init


def _pad_config(points: Iterable[PointId], ell: int, n: int) -> frozenset:
    cfg = list(points)
    extra = (p for p in range(n) if p not in set(cfg))
    while len(cfg) < ell:
        cfg.append(next(extra))
    return frozenset(cfg)


def _mask(points: Iterable[PointId]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def _members(m: int) -> list[PointId]:
    """The points of a configuration mask, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _lazy_step(dp: dict[int, int], r: PointId, dist) -> dict[int, int]:
    """One request of the lazy configuration DP over configuration masks: a
    configuration holding r stays, any other moves one of its servers onto r.

    A move from s costs dist[r][s], which is dist[s][r]: the metric is
    symmetric."""
    bit = 1 << r
    row = dist[r]
    new_dp: dict[int, int] = {}
    get = new_dp.get
    for m, c in dp.items():
        if m & bit:
            prev = get(m)
            if prev is None or c < prev:
                new_dp[m] = c
        else:
            base = m | bit
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                m2 = base ^ low
                v = c + row[low.bit_length() - 1]
                prev = get(m2)
                if prev is None or v < prev:
                    new_dp[m2] = v
    return new_dp


def opt_cost(m: FiniteMetric, ell: int, rho: Sequence[PointId],
             initial: Optional[Iterable[PointId]] = None) -> OptResult:
    """Minimum total movement serving `rho` in order with `ell` servers.

    With `initial` absent the starting configuration is free (the solver
    chooses it).  Zero servers against a nonempty sequence cost +inf.
    """
    rho = list(rho)
    init = _check_inputs(m, ell, rho, initial)
    if ell == 0:
        if rho:
            return OptResult(INF, None)
        return OptResult(Fraction(0), frozenset())
    if not rho:
        cfg = init if init is not None else _pad_config([], ell, m.n)
        return OptResult(Fraction(0), cfg)

    distinct = set(rho)
    if init is None and ell >= len(distinct):
        return OptResult(Fraction(0), _pad_config(distinct, ell, m.n))

    universe = sorted(distinct | (init if init is not None else set()))
    dist = m.dist

    if init is not None:
        dp = {_mask(init): 0}
    else:
        dp = {_mask(c): 0 for c in combinations(universe, ell)}

    for r in rho:
        dp = _lazy_step(dp, r, dist)

    best = min(dp.values())
    # ties go to the lexicographically least sorted point list
    best_cfg = min(_members(cfg) for cfg, c in dp.items() if c == best)
    return OptResult(Fraction(best, m.scale), frozenset(best_cfg))


EXHAUSTIVE_MAX_N = 5
EXHAUSTIVE_MAX_ELL = 3
EXHAUSTIVE_MAX_LEN = 7


def _relocation_table(dist, configs):
    """Min-cost relocation between configurations: optimal server matching.

    By the triangle inequality, any sequence of moves taking configuration C
    to C' costs at least the min-cost matching between them, and the matching
    itself is realizable by direct moves.
    """
    table = {}
    for src in configs:
        for dst in configs:
            best = None
            for perm in permutations(dst):
                c = sum(dist[a][b] for a, b in zip(src, perm))
                if best is None or c < best:
                    best = c
            table[(src, dst)] = best
    return table


def opt_cost_exhaustive(m: FiniteMetric, ell: int, rho: Sequence[PointId],
                        initial: Optional[Iterable[PointId]] = None) -> OptResult:
    """Independent brute-force optimum allowing arbitrary relocations.

    Enumerates all configuration sequences over the full point set, charging
    each step the optimal matching cost, so non-lazy schedules are covered.
    Refuses instances beyond (n <= 5, ell <= 3, len <= 7) to keep CI bounded.
    """
    rho = list(rho)
    init = _check_inputs(m, ell, rho, initial)
    if m.n > EXHAUSTIVE_MAX_N or ell > EXHAUSTIVE_MAX_ELL or len(rho) > EXHAUSTIVE_MAX_LEN:
        raise ValueError(
            "exhaustive oracle refused: instance exceeds "
            f"n<={EXHAUSTIVE_MAX_N}, ell<={EXHAUSTIVE_MAX_ELL}, len<={EXHAUSTIVE_MAX_LEN}"
        )
    if ell == 0:
        if rho:
            return OptResult(INF, None)
        return OptResult(Fraction(0), frozenset())

    configs = list(combinations(range(m.n), ell))  # sorted tuples
    reloc = _relocation_table(m.dist, configs)

    if init is not None:
        dp = {tuple(sorted(init)): 0}
    else:
        dp = {c: 0 for c in configs}

    for r in rho:
        new_dp = {}
        for dst in configs:
            if r not in dst:
                continue
            best = None
            for src, c in dp.items():
                v = c + reloc[(src, dst)]
                if best is None or v < best:
                    best = v
            if best is not None:
                new_dp[dst] = best
        dp = new_dp

    best_cfg = None
    best = None
    for cfg, c in sorted(dp.items()):
        if best is None or c < best:
            best = c
            best_cfg = cfg
    return OptResult(Fraction(best, m.scale), frozenset(best_cfg))


class DemandTracker:
    """Incremental free-start optimum per server count over a growing sequence.

    Feeds the per-request demand queries of the shell algorithm: after each
    push, opt(ell) is available for every ell and demand() returns the least
    server count minimizing opt(ell) + ell * Delta.  Costs are in the
    metric's integer unit, and `price` is Delta in that unit: an int on a
    decomposition (`Decomposition.price`), a Fraction only for a Delta off
    the metric's grid.

    The DP for ell servers keeps, per configuration over the points seen so
    far, the cheapest lazy schedule ending there.  When a new point first
    appears, each ell-DP is extended by configurations holding a server
    parked on the new point since the start, whose history is exactly an
    (ell-1)-server schedule over the old points.

    Only the levels ell = 1..L are kept, L starting at `LEVELS`.  Level ell
    reads level ell-1 alone, so dropping the levels above L changes none of
    the kept ones.  demand() reads opt(1..D+1) for its answer D, and in the
    shell D exceeds the shell's server count only on the request that ends
    the phase, which drops the block's tracker; so the kept ell-DPs, of
    C(distinct, ell) configurations, stay few.  A read above L grows L by
    replaying the pushed requests (`_grow`).  A high demand over many
    distinct points still needs wide levels: a push or a growth that would
    keep a level of more than `DEMAND_LEVEL_GUARD` configurations raises
    ValueError before it does (`_check_width`), instead of running on.

    A tracker tests its own points: `push` and `push_all` refuse a request
    whose type is not exactly `int` (so 1.0 and True never pass for point
    1 by their hash), and test a point's range on its first push alone,
    the one that enters it in the tracker's seen points.  `check_point`
    runs only to word a refusal, with the metric's message, and a refused
    request leaves the ones pushed before it.
    """

    LEVELS = 3

    def __init__(self, metric: FiniteMetric, price):
        self._metric = metric
        self._price = price
        self._saving = 0  # saving() at the last answer of demand()
        self._restart(self.LEVELS)

    def _restart(self, levels: int) -> None:
        """Empty the tracker, keeping `levels` levels from now on."""
        self._levels = levels
        self._requests: list[PointId] = []
        self._seen: set[PointId] = set()
        # configuration masks of ell = 1..min(distinct, L); index 0 unused
        self._dp: list[dict[int, int]] = [{}]

    def _grow(self, ell: int) -> None:
        """Keep level ell, by replaying every pushed request.

        L at least doubles, so that a scan reading level after level, as
        demand() on a high demand does, replays a few times and not once per
        level.  Once L reaches half the distinct points, it is their count:
        the levels above half hold no more configurations than those below."""
        requests = self._requests
        levels = max(ell, 2 * self._levels)
        seen = len(self._seen)
        levels = levels if 2 * levels < seen else seen
        self._check_width(seen, levels)
        self._restart(levels)
        self.push_all(requests)

    def _check_width(self, distinct: int, levels: int) -> None:
        """Refuse to keep levels 1..min(distinct, levels) over `distinct`
        points when the widest, ell = min(levels, distinct // 2), could hold
        more than `DEMAND_LEVEL_GUARD` configurations."""
        ell = min(levels, distinct // 2)
        width = math.comb(distinct, ell)
        if width > DEMAND_LEVEL_GUARD:
            raise ValueError(
                f"demand DP too large: level {ell} over {distinct} distinct points "
                f"holds up to C({distinct}, {ell}) = {width} configurations, "
                f"above {DEMAND_LEVEL_GUARD}")

    @classmethod
    def for_metric(cls, metric: FiniteMetric, Delta) -> "DemandTracker":
        Delta = as_fraction(Delta)
        if Delta <= 0:
            raise ValueError("Delta must be positive")
        return cls(metric, Delta * metric.scale)

    @property
    def length(self) -> int:
        return len(self._requests)

    @property
    def distinct(self) -> int:
        return len(self._seen)

    def push(self, r: PointId) -> None:
        if type(r) is not int or (r not in self._seen and not 0 <= r < self._metric.n):
            self._metric.check_point(r)
        dist = self._metric.dist
        dp = self._dp
        if r not in self._seen:
            self._check_width(len(self._seen) + 1, self._levels)
            bit = 1 << r
            top = len(self._seen) + 1
            if top <= self._levels:
                dp.append({})
            else:
                top = self._levels
            for ell in range(top, 0, -1):
                if ell - 1 >= 1:
                    lower = dp[ell - 1]
                elif not self._requests:
                    lower = {0: 0}
                else:
                    lower = {}
                # no configuration on level ell holds the new point, and
                # distinct lower ones stay distinct under `| bit`: no key meets
                target = dp[ell]
                for cfg, c in lower.items():
                    target[cfg | bit] = c
            self._seen.add(r)
        for ell in range(1, len(dp)):
            dp[ell] = _lazy_step(dp[ell], r, dist)
        self._requests.append(r)

    def push_all(self, requests: Iterable[PointId]) -> None:
        """One `push` per request, in order."""
        for r in requests:
            self.push(r)

    def _opt_scaled(self, ell: int) -> Optional[int]:
        """Optimum in the metric's integer unit, or None for +inf."""
        if ell == 0:
            return None if self._requests else 0
        if ell >= len(self._seen):
            return 0
        if ell > self._levels:
            self._grow(ell)
        return min(self._dp[ell].values())

    def opt(self, ell: int):
        check_int("server count", ell, 0, self._metric.n)
        v = self._opt_scaled(ell)
        if v is None:
            return INF
        return Fraction(v, self._metric.scale)

    def saving(self, ell: int) -> int:
        """opt(ell) - opt(ell+1) in the metric's integer unit: what one more
        server saves.  Refuses an `ell` outside [1, metric.n], as `opt`
        refuses one outside [0, metric.n]."""
        check_int("server count", ell, 1, self._metric.n)
        return self._opt_scaled(ell) - self._opt_scaled(ell + 1)

    def demand(self) -> int:
        """Least server count minimizing opt(ell) + ell * Delta; 0 when empty.

        A free-start opt(ell) is convex in ell: it is the value of a min-cost
        flow of ell units (Chrobak, Karloff, Payne & Vishwanathan 1991).  So
        opt(ell) + ell * Delta falls strictly up to its least argmin and never
        falls after it, and the scan stops at the first ell >= 1 whose next
        server saves at most Delta.  opt(0) is +inf on a nonempty sequence,
        and opt(distinct) is 0.  The scan reads opt(1), opt(2), ... once
        each through `_opt_scaled`, which grows the kept levels on a read
        above L, up to opt(answer + 1) or opt(distinct).  It keeps
        saving(answer) in `_saving` for the shell's slack, which would
        otherwise read those levels again.

        The answer never falls as requests are pushed.  Write opt_t for the
        optimum over the first t requests r_1..r_t and saving_t(ell) =
        opt_t(ell) - opt_t(ell+1).  Theorem: for every metric, every ell >= 1
        and every t >= 1, saving_{t+1}(ell) >= saving_t(ell).  The answer is
        the least ell >= 1 with saving(ell) <= Delta, so each ell below the
        answer at t saves more than Delta at t+1 too.

        Proof.  Let G_t have an out-copy and an in-copy of each request
        1..t, and an edge out_i -> in_j of cost dist(r_i, r_j) for each
        i < j; M_t(m) is the least cost of a matching of m edges in G_t.
        A schedule splits the requests into chains, one per server, and by
        the triangle inequality a chain costs at least the sum of the
        distances between its consecutive requests, which a server that
        starts on its first request pays.  Servers that share a point gain
        nothing, as a lazy schedule never needs that (see `opt_cost`).  So
        c chains are a matching of t - c edges, each request but a chain's
        first matched from its predecessor, and back; as dropping an edge
        adds no cost, opt_t(ell) = M_t(t - ell) for ell <= t.  For ell >= t,
        saving_t(ell) = 0, and opt never rises with ell.  For m = t - ell,
        1 <= m <= t-1, take optimal matchings A of m+1 edges in G_{t+1} and
        B of m-1 edges in G_t.  The edges in exactly one of them form
        disjoint paths and cycles alternating between A and B; each holds
        as many A edges as B edges or one more of either, and A holds two
        more in all, so at least two are paths with one more A edge.  The
        vertex in_{t+1} lies on at most one of them; let Q be another.
        Exchanging Q's edges between A and B, a whole component, leaves two
        matchings of m edges at the same total cost: A's in G_{t+1}, and
        B's in G_t, since G_{t+1} adds only the edges into in_{t+1} (out_{t+1}
        has none) and Q holds none of them.  So M_{t+1}(m) + M_t(m) <=
        M_{t+1}(m+1) + M_t(m-1), which is opt_{t+1}(ell+1) + opt_t(ell) <=
        opt_{t+1}(ell) + opt_t(ell+1), the theorem.

        The answer also rises by at most one per request.  Theorem: for
        every metric, every ell >= 1 and every t >= 1, saving_{t+1}(ell+1)
        <= saving_t(ell).  At t, the answer D_t saves at most Delta, so
        saving_{t+1}(D_t + 1) <= Delta and D_{t+1} <= D_t + 1.  With the
        theorem above, the savings interlace: saving_t(ell+1) <=
        saving_{t+1}(ell+1) <= saving_t(ell).

        Proof.  For ell >= t both sides are 0.  Otherwise, for m = t - ell,
        1 <= m <= t-1, the claim reads M_{t+1}(m) + M_t(m-1) <= M_t(m) +
        M_{t+1}(m-1).  Take optimal matchings A of m edges in G_t and B of
        m-1 edges in G_{t+1}.  Only in_{t+1} gains edges in G_{t+1}, and
        only B can touch it, at an end of its component in A and B's
        symmetric difference; so that component, which starts with a B
        edge, holds no more A edges than B edges.  A holds one more edge
        than B in all, so some other component Q holds one more A edge than
        B edges.  Exchanging Q's edges between A and B leaves matchings of
        m-1 edges in G_t (Q's B edges avoid in_{t+1}) and m edges in
        G_{t+1}, at the same total cost, which proves the claim.
        """
        if not self._requests:
            return 0
        # exact for a rational price num/den: compare den * saving with num
        num, den = self._price.numerator, self._price.denominator
        seen = len(self._seen)
        ell, cur = 1, self._opt_scaled(1)
        while ell < seen:
            nxt = self._opt_scaled(ell + 1)
            saving = cur - nxt
            if saving * den <= num:
                break
            ell, cur = ell + 1, nxt
        else:
            saving = 0  # every point keeps its server
        self._saving = saving
        return ell


class UniformDemandTracker(DemandTracker):
    """`DemandTracker` for a block whose points are pairwise at one distance
    `d` in the metric's integer unit, in O(distinct * L) per push instead of
    the configuration DP.

    On a uniform block a lazy schedule pays d per miss, so opt(ell) is d
    times the fewest misses.  A request to r at time t whose previous request
    to r was at time a (a = 0 for a first occurrence: the start is free) is a
    hit exactly when r keeps a server through the interval [a+1, t-1]; the
    server on the current request is the ell-th, so the kept intervals may
    overlap at most ell-1 deep.  Keeping the most intervals under that load
    is exact by a greedy pass in order of right endpoint, which is request
    order: each interval goes to the one of ell-1 "machines" whose last
    interval ends latest at or before a, and is a miss when none does (best
    fit; Carlisle & Lloyd 1995).  An empty interval (a = t-1) is always a
    hit.  With seen distinct points, ell = seen keeps every interval, and the
    run for ell = seen+1 is the run for seen plus one idle machine, so a new
    point extends the table by one copied entry while fewer than L levels
    exist.  Each level runs on its own, so the levels above L are dropped
    and grown back by the same replay as the DP's.

    Only `push` and the optimum for 1 <= ell < distinct are replaced; the
    other conventions and the queries are the DP's.  The configuration DP
    stays the oracle (and the path for non-uniform blocks); the two agree
    on opt(ell) and demand().
    """

    def __init__(self, metric: FiniteMetric, price, d: int):
        super().__init__(metric, price)
        self._d = d

    def _restart(self, levels: int) -> None:
        super()._restart(levels)
        self._last: dict[PointId, int] = {}  # time of each seen point's last request
        self._empty_hits = 0  # empty intervals: hits at every ell >= 1
        # index ell-1, for ell = 1..max(min(seen, L), 1): the sorted right
        # ends of the ell-1 machines (0 = idle) and the non-empty intervals
        # kept so far
        self._ends: list[list[int]] = [[]]
        self._kept: list[int] = [0]

    def push(self, r: PointId) -> None:
        self.push_all((r,))

    def push_all(self, requests: Iterable[PointId]) -> None:
        """One greedy step per request, with the tracker's fields bound once.
        Level ell = 1 has no machine (its list of ends stays empty), so its
        count of kept intervals stays 0 and the step skips it."""
        metric, n = self._metric, self._metric.n
        reqs, last, seen = self._requests, self._last, self._seen
        all_ends, kept, levels = self._ends, self._kept, self._levels
        t = len(reqs)
        for r in requests:
            if type(r) is not int:
                metric.check_point(r)
            a = last.get(r)
            if a is None:
                if not 0 <= r < n:
                    metric.check_point(r)
                a = 0
                if seen and len(all_ends) < levels:
                    all_ends.append([0] + all_ends[-1])
                    kept.append(kept[-1])
                seen.add(r)
            reqs.append(r)
            t += 1
            last[r] = t
            if a == t - 1:
                self._empty_hits += 1
                continue
            for i in range(1, len(all_ends)):
                ends = all_ends[i]
                j = bisect_right(ends, a)
                if j:
                    # every end is below t-1, so the list stays sorted
                    del ends[j - 1]
                    ends.append(t - 1)
                    kept[i] += 1

    def _check_width(self, distinct: int, levels: int) -> None:
        pass  # a level keeps at most `levels` machine ends, not configurations

    def _opt_scaled(self, ell: int) -> Optional[int]:
        if 1 <= ell < len(self._seen):
            if ell > self._levels:
                self._grow(ell)
            return self._d * (len(self._requests) - self._empty_hits - self._kept[ell - 1])
        return super()._opt_scaled(ell)


def demand(m: FiniteMetric, Delta, rho: Sequence[PointId]) -> int:
    """Least server count worth buying into an initially empty block at price
    Delta per server, to serve `rho` optimally."""
    tracker = DemandTracker.for_metric(m, Delta)
    tracker.push_all(rho)
    return tracker.demand()


def max_demand_trace(m: FiniteMetric, Delta, rho: Sequence[PointId]) -> list[int]:
    """The prefix demands, one entry per request.  They never fall and rise
    by at most one per request (see `DemandTracker.demand`), so each is also
    the largest demand so far."""
    tracker = DemandTracker.for_metric(m, Delta)
    out: list[int] = []
    for r in rho:
        tracker.push(r)
        out.append(tracker.demand())
    return out
