"""Randomized marking algorithm on uniform spaces.

The base-case block subroutine: serve hits for free and mark them; on a miss
evict a uniformly random server standing on an unmarked point; when every
covered point is marked, wipe the marks (a new marking phase) before
evicting.  Its competitive function is twice the harmonic number.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .metric import FiniteMetric, PointId


def harmonic(n: int) -> Fraction:
    if n < 1:
        raise ValueError("harmonic number needs n >= 1")
    total = Fraction(0)
    for i in range(1, n + 1):
        total += Fraction(1, i)
    return total


def marking_f(ell: int) -> Fraction:
    """Competitive function 2*H(ell) of the marking algorithm.

    H(ell) is the standard harmonic sum from 1.  Useful monotonicity, both
    checked in tests: f is nondecreasing, and ell*f(ell)/log(ell) is
    nondecreasing for ell >= 2.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return 2 * harmonic(ell)


class Universe:
    """A validated point set for marking: its sorted points, their set, and
    the common pairwise distance `d` in the metric's integer unit (0 for a
    single point, where no paid move can occur).  Built once per block and
    shared by every `Marking` started on it."""

    __slots__ = ("metric", "points", "point_set", "d")
    f = staticmethod(marking_f)  # competitive function of marking on it

    def __init__(self, metric: FiniteMetric, points: Optional[Sequence[PointId]] = None):
        self.metric = metric
        self.points = tuple(sorted(points)) if points is not None else tuple(metric.points())
        self.point_set = frozenset(self.points)
        for p in self.points:
            metric.check_point(p)
        self.d = metric.uniform_cost(self.points)
        if self.d is None:
            raise ValueError("marking requires a uniform space")


class Marking:
    """Marking state over the uniform restriction of a metric.

    `points` selects the universe (defaults to the whole space); the pairwise
    distances over it must all be equal, since the eviction rule only has a
    guarantee there.  `serve` returns costs in the metric's integer unit
    (`Fraction(cost, metric.scale)` is the distance moved).  Every random
    decision consumes the instance's own seeded stream, so runs replay
    bit-identically per seed.
    """

    def __init__(self, metric: FiniteMetric, initial: Iterable[PointId], seed: int,
                 points: Optional[Sequence[PointId]] = None):
        self._start(Universe(metric, points), seed)
        self.reset(initial)

    @classmethod
    def on(cls, universe: Universe, seed: int) -> "Marking":
        """Marking on a validated universe; `reset` must place the servers
        before it serves."""
        self = cls.__new__(cls)
        self._start(universe, seed)
        return self

    def _start(self, universe: Universe, seed: int) -> None:
        self.universe = universe
        self._point_set = universe.point_set
        self.d = universe.d
        self.rng = random.Random(seed)

    @property
    def config(self) -> frozenset:
        return frozenset(self.positions)

    def reset(self, config: Iterable[PointId]) -> None:
        """Restart from the given configuration: marks cleared, k = |config|."""
        cfg = frozenset(config)
        if not cfg <= self._point_set:
            raise ValueError("configuration must lie inside the space")
        self.positions = set(cfg)
        self.k = len(cfg)
        self.marked = set()
        self.phase_count = 1

    def serve(self, r: PointId) -> int:
        if r not in self._point_set:
            raise ValueError(f"request {r} outside this space")
        if self.k == 0:
            raise RuntimeError("marking state has no servers; caller must move some in first")
        if r in self.positions:
            self.marked.add(r)
            return 0
        if self.positions <= self.marked:
            self.marked = set()
            self.phase_count += 1
        pool = sorted(self.positions - self.marked)
        victim = self.rng.choice(pool)
        self.positions.discard(victim)
        self.positions.add(r)
        self.marked.add(r)
        return self.d
