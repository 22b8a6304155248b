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

from .draws import below, skip_certain
from .metric import FiniteMetric, PointId, check_int


def harmonic(n: int) -> Fraction:
    check_int("n", n, 1)
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
    check_int("ell", ell, 1)
    return 2 * harmonic(ell)


class Universe:
    """A validated point set for marking: its sorted points, their set, and
    the common pairwise distance `d` in the metric's integer unit (0 for a
    single point, where no paid move can occur), which as a distance is its
    `diameter`.  Built once per block and shared by every `Marking` started
    on it."""

    __slots__ = ("metric", "points", "point_set", "d")
    f = staticmethod(marking_f)  # competitive function of marking on it

    def __init__(self, metric: FiniteMetric, points: Optional[Sequence[PointId]] = None):
        self.metric = metric
        points = tuple(points) if points is not None else tuple(metric.points())
        for p in points:  # before sorting, which a str would break
            metric.check_point(p)
        self.points = tuple(sorted(points))
        self.point_set = frozenset(self.points)
        self.d = metric.uniform_cost(self.points)
        if self.d is None:
            raise ValueError("marking requires a uniform space")

    @classmethod
    def _trusted(cls, metric: FiniteMetric, points: tuple[PointId, ...], d: int) -> "Universe":
        """A universe known to be valid: `points` are sorted points of
        `metric` whose pairwise distances all equal `d` (0 below two points),
        as `metric.uniform_cost(points)` would find in O(n^2)."""
        self = cls.__new__(cls)
        self.metric = metric
        self.points = points
        self.point_set = frozenset(points)
        self.d = d
        return self

    @property
    def diameter(self) -> Fraction:
        return Fraction(self.d, self.metric.scale)

    def start(self, seed: int) -> "Marking":
        """Marking on this universe, seeded and holding no servers."""
        return Marking(self, seed)


class Marking:
    """Marking state over a `Universe`, the uniform restriction of a metric
    that the eviction rule has a guarantee on.

    It starts holding no servers; `reset` places them before it serves.
    `serve` returns costs in the metric's integer unit
    (`Fraction(cost, metric.scale)` is the distance moved).  Every random
    decision consumes the instance's own seeded stream, so runs replay
    bit-identically per seed.

    An eviction with one unmarked candidate takes it without a draw and
    owes the draw `below(getrandbits, 1)` would have made; the owed draws
    survive `reset` and are skipped in one `skip_certain` before the next
    eviction that draws, or on a read of `rng`.  So the victims and the
    stream are those of drawing at every eviction, and an instance whose
    evictions are all certain never seeds its stream.
    """

    def __init__(self, universe: Universe, seed: int):
        self.universe = universe
        self._point_set = universe.point_set
        self.d = universe.d
        # most instances on a nested tree never draw, so the stream is
        # seeded on the first eviction that draws (or read of `rng`); the
        # draws are the same either way
        self._seed = seed
        self._rng: Optional[random.Random] = None  # created by `_stream`
        self._owed = 0  # one-candidate evictions whose draw is not yet taken
        self.positions: set[PointId] = set()
        self.k = 0
        self.marked: set[PointId] = set()
        self.phase_count = 1

    def _stream(self) -> random.Random:
        """The stream with every owed draw taken."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._seed)
        if self._owed:
            skip_certain(rng.getrandbits, self._owed)
            self._owed = 0
        return rng

    @property
    def rng(self) -> random.Random:
        """The stream as if every eviction had drawn; reading it creates
        the stream if no eviction drew yet."""
        return self._stream()

    @property
    def config(self) -> frozenset:
        return frozenset(self.positions)

    def reset(self, config: Iterable[PointId]) -> None:
        """Restart from the given configuration: marks cleared, k = |config|.

        A position that is not a point of the metric is refused by
        `check_point`'s message, and a point of the metric outside the
        universe as outside this space."""
        positions = set(config)
        for p in positions:
            # `type`: True and 1.0 would pass the membership test as point 1
            if type(p) is not int or p not in self._point_set:
                self.universe.metric.check_point(p)
                raise ValueError("configuration must lie inside the space")
        self.positions = positions
        self.k = len(positions)
        self.marked = set()
        self.phase_count = 1

    def serve(self, r: PointId) -> int:
        """Serve `r` and return the cost in the metric's integer unit.  A
        request refused as `reset` refuses a position: by `check_point`, or
        as outside this space."""
        # `type`: True and 1.0 would find point 1 in the set by their hash
        if type(r) is not int or r not in self._point_set:
            self.universe.metric.check_point(r)
            raise ValueError(f"request {r} outside this space")
        if self.k == 0:
            raise RuntimeError("marking state has no servers; caller must move some in first")
        if r in self.positions:
            self.marked.add(r)
            return 0
        marked = self.marked
        # the marks are a subset of the positions, so all are marked when
        # there are k of them
        if len(marked) == self.k:
            marked = self.marked = set()
            self.phase_count += 1
        positions = self.positions
        if len(marked) == self.k - 1:
            # one candidate: its draw is certain, so it is owed
            (victim,) = positions - marked
            self._owed += 1
        else:
            rng = self._rng
            if rng is None or self._owed:
                rng = self._stream()
            pool = sorted(positions - marked)
            victim = pool[below(rng.getrandbits, len(pool))]
        positions.discard(victim)
        positions.add(r)
        marked.add(r)
        return self.d

    def serve_all(self, requests: Iterable[PointId]) -> int:
        # through `self.serve`, so a wrapper on it sees every request
        return sum(map(self.serve, requests))
