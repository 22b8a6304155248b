"""Exact offline optimum for serving a request sequence with a server budget.

Two solvers are provided on purpose.  `opt_cost` is the production path: a
dynamic program over server configurations that moves at most one server per
request (a lazy schedule; on finite metrics some lazy schedule is optimal).
`opt_cost_exhaustive` is a deliberately independent oracle that also allows
simultaneous multi-server relocations between requests, so it does not
inherit the laziness assumption; the two must agree wherever the oracle's
size guard admits the instance.

Costs are computed in integers after clearing denominators, so comparisons
and argmin ties are exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence

from .metric import FiniteMetric, PointId, as_fraction

INF = float("inf")


@dataclass(frozen=True)
class OptResult:
    """Optimal total movement and one final configuration attaining it.

    cost is +inf exactly when no servers face a nonempty sequence; config is
    None in that case.
    """
    cost: object  # Fraction, or float('inf')
    config: Optional[frozenset]

    @property
    def finite(self) -> bool:
        return self.cost != INF


class ScaledCosts:
    """Integer view of a metric (and optionally a block separation cost).

    scale = lcm of all denominators; dist[p][q] = scale * metric distance.
    Shared by the solvers and the demand trackers so the conversion happens
    once per space instead of once per phase.
    """

    def __init__(self, metric: FiniteMetric, extra: Iterable = ()):  # extra: rationals to scale
        base_scale, base_table = metric.int_costs()
        extras = [as_fraction(x) for x in extra]
        self.scale = math.lcm(base_scale, *[x.denominator for x in extras]) \
            if extras else base_scale
        self.metric = metric
        factor = self.scale // base_scale
        if factor == 1:
            self.dist = base_table
        else:
            self.dist = tuple(tuple(v * factor for v in row) for row in base_table)
        self.extra = [int(x * self.scale) for x in extras]

    def to_fraction(self, value: int) -> Fraction:
        return Fraction(value, self.scale)


def _ordered_distinct(rho: Sequence[PointId]) -> list[PointId]:
    seen = set()
    out = []
    for r in rho:
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def _check_inputs(m: FiniteMetric, ell: int, rho: Sequence[PointId],
                  initial: Optional[Iterable[PointId]]) -> Optional[frozenset]:
    if not (0 <= ell <= m.n):
        raise ValueError(f"server count {ell} out of range [0, {m.n}]")
    for r in rho:
        m.check_point(r)
    if initial is None:
        return None
    init = frozenset(initial)
    if len(init) != ell:
        raise ValueError(f"initial configuration has {len(init)} points, expected {ell}")
    for p in init:
        m.check_point(p)
    return init


def _pad_config(points: Iterable[PointId], ell: int, n: int) -> frozenset:
    cfg = list(points)
    extra = (p for p in range(n) if p not in set(cfg))
    while len(cfg) < ell:
        cfg.append(next(extra))
    return frozenset(cfg)


def _lazy_step(dp: dict[frozenset, int], r: PointId, dist) -> dict[frozenset, int]:
    """One request of the lazy configuration DP: a configuration holding r
    stays, any other moves one of its servers onto r."""
    new_dp: dict[frozenset, int] = {}
    for cfg, c in dp.items():
        if r in cfg:
            prev = new_dp.get(cfg)
            if prev is None or c < prev:
                new_dp[cfg] = c
        else:
            for s in cfg:
                cfg2 = (cfg - {s}) | {r}
                v = c + dist[s][r]
                prev = new_dp.get(cfg2)
                if prev is None or v < prev:
                    new_dp[cfg2] = v
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

    distinct = _ordered_distinct(rho)
    if init is None and ell >= len(distinct):
        return OptResult(Fraction(0), _pad_config(distinct, ell, m.n))

    universe = sorted(set(distinct) | (set(init) if init is not None else set()))
    costs = ScaledCosts(m)
    dist = costs.dist

    if init is not None:
        dp = {init: 0}
    else:
        dp = {frozenset(c): 0 for c in combinations(universe, ell)}

    for r in rho:
        dp = _lazy_step(dp, r, dist)

    best_cfg = None
    best = None
    for cfg, c in dp.items():
        if best is None or c < best or (c == best and sorted(cfg) < sorted(best_cfg)):
            best = c
            best_cfg = cfg
    return OptResult(costs.to_fraction(best), best_cfg)


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
    if m.n > EXHAUSTIVE_MAX_N or ell > EXHAUSTIVE_MAX_ELL or len(rho) > EXHAUSTIVE_MAX_LEN:
        raise ValueError(
            "exhaustive oracle refused: instance exceeds "
            f"n<={EXHAUSTIVE_MAX_N}, ell<={EXHAUSTIVE_MAX_ELL}, len<={EXHAUSTIVE_MAX_LEN}"
        )
    init = _check_inputs(m, ell, rho, initial)
    if ell == 0:
        if rho:
            return OptResult(INF, None)
        return OptResult(Fraction(0), frozenset())

    costs = ScaledCosts(m)
    configs = list(combinations(range(m.n), ell))  # sorted tuples
    reloc = _relocation_table(costs.dist, configs)

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
    return OptResult(costs.to_fraction(best), frozenset(best_cfg))


class DemandTracker:
    """Incremental free-start optimum per server count over a growing sequence.

    Feeds the per-request demand queries of the shell algorithm: after each
    push, opt(ell) is available for every ell and demand() returns the least
    server count minimizing opt(ell) + ell * Delta.

    The DP for ell servers keeps, per configuration over the points seen so
    far, the cheapest lazy schedule ending there.  When a new point first
    appears, each ell-DP is extended by configurations holding a server
    parked on the new point since the start, whose history is exactly an
    (ell-1)-server schedule over the old points.
    """

    def __init__(self, costs: ScaledCosts, delta_cost: int):
        self._costs = costs
        self._delta = delta_cost  # scaled integer price per server
        self._seen: list[PointId] = []
        self._seen_set: set[PointId] = set()
        self._pushes = 0
        self._dp: list[dict[frozenset, int]] = [{}]  # index 0 unused

    @classmethod
    def for_metric(cls, metric: FiniteMetric, Delta) -> "DemandTracker":
        Delta = as_fraction(Delta)
        if Delta <= 0:
            raise ValueError("Delta must be positive")
        costs = ScaledCosts(metric, extra=[Delta])
        return cls(costs, costs.extra[0])

    @property
    def length(self) -> int:
        return self._pushes

    @property
    def distinct(self) -> int:
        return len(self._seen)

    def push(self, r: PointId) -> None:
        self._costs.metric.check_point(r)
        dist = self._costs.dist
        if r not in self._seen_set:
            self._dp.append({})
            for ell in range(len(self._seen) + 1, 0, -1):
                if ell - 1 >= 1:
                    lower = self._dp[ell - 1]
                elif self._pushes == 0:
                    lower = {frozenset(): 0}
                else:
                    lower = {}
                target = self._dp[ell]
                for cfg, c in lower.items():
                    cfg2 = cfg | {r}
                    prev = target.get(cfg2)
                    if prev is None or c < prev:
                        target[cfg2] = c
            self._seen.append(r)
            self._seen_set.add(r)
        for ell in range(1, len(self._seen) + 1):
            self._dp[ell] = _lazy_step(self._dp[ell], r, dist)
        self._pushes += 1

    def _opt_scaled(self, ell: int) -> Optional[int]:
        """Scaled integer optimum, or None for +inf."""
        if ell == 0:
            return 0 if self._pushes == 0 else None
        if ell >= len(self._seen):
            return 0
        return min(self._dp[ell].values())

    def opt(self, ell: int):
        v = self._opt_scaled(ell)
        if v is None:
            return INF
        return self._costs.to_fraction(v)

    def demand(self) -> int:
        """Least server count minimizing opt(ell) + ell * Delta; 0 when empty."""
        if self._pushes == 0:
            return 0
        best_val = None
        best_ell = 0
        for ell in range(0, len(self._seen) + 1):
            v = self._opt_scaled(ell)
            if v is None:
                continue
            val = v + ell * self._delta
            if best_val is None or val < best_val:
                best_val = val
                best_ell = ell
        return best_ell


class UniformDemandTracker(DemandTracker):
    """`DemandTracker` for a block whose points are pairwise at one scaled
    distance `d`, in O(distinct^2) per push instead of the configuration DP.

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
    point extends the table by one copied entry.

    Only `push` and the optimum for 1 <= ell < distinct are replaced; the
    other conventions and the queries are the DP's.  The configuration DP stays the oracle (and the
    path for non-uniform blocks); the two agree on opt(ell) and demand().
    """

    def __init__(self, costs: ScaledCosts, delta_cost: int, d: int):
        super().__init__(costs, delta_cost)
        self._d = d  # scaled integer distance inside the block
        self._last: dict[PointId, int] = {}  # time of each seen point's last request
        self._empty_hits = 0  # empty intervals: hits at every ell >= 1
        # index ell-1, for ell = 1..max(seen, 1): the sorted right ends of the
        # ell-1 machines (0 = idle) and the non-empty intervals kept so far
        self._ends: list[list[int]] = [[]]
        self._kept: list[int] = [0]

    def push(self, r: PointId) -> None:
        self._costs.metric.check_point(r)
        t = self._pushes + 1
        a = self._last.get(r)
        if a is None:
            a = 0
            if self._seen:
                self._ends.append([0] + self._ends[-1])
                self._kept.append(self._kept[-1])
            self._seen.append(r)
        self._last[r] = t
        self._pushes = t
        if a == t - 1:
            self._empty_hits += 1
            return
        kept = self._kept
        for i, ends in enumerate(self._ends):
            j = bisect_right(ends, a)
            if j:
                # every end is below t-1, so the list stays sorted
                del ends[j - 1]
                ends.append(t - 1)
                kept[i] += 1

    def _opt_scaled(self, ell: int) -> Optional[int]:
        if 1 <= ell < len(self._seen):
            return self._d * (self._pushes - self._empty_hits - self._kept[ell - 1])
        return super()._opt_scaled(ell)


def demand(m: FiniteMetric, Delta, rho: Sequence[PointId]) -> int:
    """Least server count worth buying into an initially empty block at price
    Delta per server, to serve `rho` optimally."""
    tracker = DemandTracker.for_metric(m, Delta)
    for r in rho:
        tracker.push(r)
    return tracker.demand()


def max_demand_trace(m: FiniteMetric, Delta, rho: Sequence[PointId]) -> list[int]:
    """Running maximum of the prefix demands, one entry per request."""
    tracker = DemandTracker.for_metric(m, Delta)
    out: list[int] = []
    peak = 0
    for r in rho:
        tracker.push(r)
        peak = max(peak, tracker.demand())
        out.append(peak)
    return out
