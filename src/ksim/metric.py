"""Finite metric spaces, separation trees and block decompositions.

All distances are exact.  A metric stores them as integers scaled by the lcm
of their denominators, the one cost unit inside ksim; costs become Fractions
only where reports are rendered (tree parameters such as mu and Delta stay
Fractions).  Exactness matters: the offline solver and the demand
computation resolve ties between candidate costs, and a float epsilon would
silently change which server count wins.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import sub
from typing import Iterable, Optional, Sequence

PointId = int

# a separation tree's leaf metric is a dense n x n table, so a tree of more
# leaves than this is refused before any node is built: 4,096 leaves already
# make a table of 16.8 million exact distances
HST_MAX_LEAVES = 4096


def as_fraction(value) -> Fraction:
    """`value`, an int or a Fraction, as a Fraction.  Anything else is a
    TypeError: a float carries rounding, and a bool or a str such as "3/2"
    is not taken for the number it resembles."""
    if type(value) is not int and not isinstance(value, Fraction):
        raise TypeError(f"expected an int or a Fraction, got {type(value).__name__} {value!r}")
    return Fraction(value)


def check_int(name: str, value, least: Optional[int] = None,
              most: Optional[int] = None) -> int:
    """`value` if it is an int within the bounds, else a ValueError naming it.

    The one check of a count or a parameter that a caller passes in.  The
    type must be exactly `int`: a bool, a float such as 2.0 and a str are
    refused, not taken for the int they resemble.  With `most` the range is
    [least, most]; with `least` alone it is least and up."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if most is not None:
        if not least <= value <= most:
            raise ValueError(f"{name} {value} out of range [{least}, {most}]")
    elif least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


class FiniteMetric:
    """Symmetric distance table over points 0..n-1.

    `dist[p][q]` is `scale` times the distance from p to q, an integer, with
    `scale` the lcm of the distance denominators; `Fraction(v, scale)` turns
    a value in this unit back into a distance.  `FiniteMetric(rows)`
    validates the metric axioms on the table, including the triangle
    inequality over all triples (O(n^3)); it is the constructor for tables
    that come from outside, such as files.  `_trusted(dist, scale)` skips the
    checks and serves only builders whose tables are metrics by construction
    (`build_uniform`, `build_hst`).  Instances are immutable after
    construction and safe to share.
    """

    __slots__ = ("n", "scale", "dist")

    def __init__(self, rows: Sequence[Sequence]):
        # an int or a Fraction is kept as it is; as_fraction refuses the rest
        rows = [[v if type(v) is int or isinstance(v, Fraction) else as_fraction(v)
                 for v in row] for row in rows]
        self.n = n = len(rows)
        self.scale = scale = math.lcm(*(v.denominator for row in rows for v in row))
        self.dist = t = tuple(tuple(v.numerator * (scale // v.denominator) for v in row)
                              for row in rows)
        frac = self._fraction
        if n < 1:
            raise ValueError("a metric needs at least one point")
        for i, row in enumerate(t):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
            if row[i] != 0:
                raise ValueError(f"dist({i},{i}) = {frac(row[i])}, must be 0")
        for i in range(n):
            for j in range(i + 1, n):
                if t[i][j] != t[j][i]:
                    raise ValueError(f"dist({i},{j}) != dist({j},{i})")
                if t[i][j] <= 0:
                    raise ValueError(f"dist({i},{j}) = {frac(t[i][j])}, must be positive")
        for i, ti in enumerate(t):
            for j, tj in enumerate(t):
                # dist(i,k) - dist(j,k) > dist(i,j) for some k breaks the triangle
                if max(map(sub, ti, tj)) > ti[j]:
                    k = next(k for k in range(n) if ti[k] > ti[j] + tj[k])
                    raise ValueError(
                        f"triangle inequality fails on ({i},{j},{k}): "
                        f"{frac(ti[k])} > {frac(ti[j])} + {frac(tj[k])}"
                    )

    @classmethod
    def _trusted(cls, dist: tuple[tuple[int, ...], ...], scale: int) -> "FiniteMetric":
        """A metric on a finished table, unchecked.  The caller guarantees what
        `__init__` would check and compute: `dist` is a square tuple of int
        tuples satisfying the metric axioms, and `scale` is the lcm of the
        denominators of the distances it stands for, so that the table and the
        scale equal those of `FiniteMetric` on the same distances."""
        self = cls.__new__(cls)
        self.n = len(dist)
        self.scale = scale
        self.dist = dist
        return self

    def _fraction(self, value: int) -> Fraction:
        return Fraction(value, self.scale)

    @classmethod
    def from_upper_triangle(cls, n: int, values: Sequence) -> "FiniteMetric":
        """Build from the n*(n-1)/2 upper-triangle entries in row-major order."""
        expected = n * (n - 1) // 2
        if len(values) != expected:
            raise ValueError(f"expected {expected} distances for n={n}, got {len(values)}")
        rows = [[0] * n for _ in range(n)]
        it = iter(values)
        for i in range(n):
            for j in range(i + 1, n):
                d = as_fraction(next(it))
                rows[i][j] = d
                rows[j][i] = d
        return cls(rows)

    def check_point(self, p: PointId) -> None:
        """Refuse what is not a point of this metric: a type other than
        exactly `int` (so True and 1.0 are not taken for point 1) as `point
        id X is not an int`, an int outside [0, n) as out of range.  Every
        entry that takes points words its refusal of a non-point here."""
        if type(p) is not int:
            raise ValueError(f"point id {p!r} is not an int")
        if not 0 <= p < self.n:
            raise ValueError(f"point id {p} out of range [0, {self.n})")

    def distance(self, p: PointId, q: PointId) -> Fraction:
        self.check_point(p)
        self.check_point(q)
        return self._fraction(self.dist[p][q])

    def points(self) -> range:
        return range(self.n)

    def diameter(self, points: Optional[Sequence[PointId]] = None) -> Fraction:
        pts = list(points) if points is not None else list(range(self.n))
        return self._fraction(max((self.dist[a][b] for a, b in combinations(pts, 2)),
                                  default=0))

    def uniform_cost(self, points: Optional[Iterable[PointId]] = None) -> Optional[int]:
        """The common pairwise distance over `points` in the table's unit, the
        unit of every cost inside ksim; 0 for fewer than two points (no move
        between them costs anything), None if the points are not equidistant."""
        pts = list(points) if points is not None else list(range(self.n))
        costs = {self.dist[a][b] for a, b in combinations(pts, 2)}
        if len(costs) > 1:
            return None
        return costs.pop() if costs else 0

    def uniform_distance(self, points: Optional[Iterable[PointId]] = None) -> Optional[Fraction]:
        """`uniform_cost` as a distance."""
        d = self.uniform_cost(points)
        return None if d is None else self._fraction(d)


def build_uniform(n: int, d) -> FiniteMetric:
    """Uniform space: every pair of distinct points at distance d."""
    check_int("n", n, 1)
    d = as_fraction(d)
    if d <= 0:
        raise ValueError("d must be positive")
    # a single point has no distance but 0, so its scale is 1
    scale = d.denominator if n > 1 else 1
    rows = []
    for i in range(n):
        row = [d.numerator] * n
        row[i] = 0
        rows.append(tuple(row))
    return FiniteMetric._trusted(tuple(rows), scale)


class HstSpace:
    """Rooted separation tree whose leaves carry a finite metric.

    Structure: every node at the same depth has the same number of children
    (per-level branching), every child edge of a node has the same weight,
    weights shrink by the factor mu per level, and edges into leaves have
    weight exactly 1.  Leaf-to-leaf distance is twice the weight sum from a
    leaf up to the lowest common ancestor, which makes the distance between
    leaves under different children of any node a single exact value.
    """

    def __init__(self, branching: Sequence[int], mu):
        mu = as_fraction(mu)
        if mu <= 1:
            raise ValueError("mu must be > 1")
        branching = tuple(branching)
        if len(branching) == 0:
            raise ValueError("branching must have at least one level")
        for b in branching:
            check_int("branching count", b, 1)
        leaves = math.prod(branching)
        if leaves > HST_MAX_LEAVES:
            raise ValueError(f"branching {list(branching)} gives {leaves} leaves, "
                             f"more than the {HST_MAX_LEAVES} a separation tree may have")
        self.mu = mu
        self.branching = branching
        self.height = len(branching)

        # breadth-first node ids, root = 0
        self.parent: list[Optional[int]] = [None]
        self.depth: list[int] = [0]
        self.children: list[list[int]] = [[]]
        self.edge_weight: list[Optional[Fraction]] = [None]  # weight of edge to parent
        frontier = [0]
        for level, count in enumerate(branching):
            w = mu ** (self.height - 1 - level)
            nxt = []
            for node in frontier:
                for _ in range(count):
                    nid = len(self.parent)
                    self.parent.append(node)
                    self.depth.append(level + 1)
                    self.children.append([])
                    self.edge_weight.append(w)
                    self.children[node].append(nid)
                    nxt.append(nid)
            frontier = nxt
        self.leaf_nodes: list[int] = frontier
        self.n_leaves = len(frontier)
        self._leaf_index = {node: i for i, node in enumerate(frontier)}
        # distance between leaves whose lowest common ancestor sits at depth
        # j: twice the edge weights from depth j+1 down to the leaves, 2 (the
        # leaf edges) plus mu times the distance at depth j+1, summed from
        # the leaves up in O(height)
        lca = [Fraction(0)] * (self.height + 1)
        for j in reversed(range(self.height)):
            lca[j] = 2 + mu * lca[j + 1]
        self._lca_distance = lca
        self.leaf_metric, self._lca_cost = self._build_leaf_metric()

    # -- tree queries -------------------------------------------------------

    def node_count(self) -> int:
        return len(self.parent)

    def is_leaf(self, node: int) -> bool:
        return not self.children[node]

    def internal_nodes(self) -> list[int]:
        return [v for v in range(self.node_count()) if self.children[v]]

    def max_degree(self) -> int:
        return max(len(ch) for ch in self.children if ch)

    def subtree_leaf_points(self, node: int) -> tuple[PointId, ...]:
        """PointIds of all leaves under `node` (the node itself if a leaf)."""
        out = []
        stack = [node]
        while stack:
            v = stack.pop()
            if self.is_leaf(v):
                out.append(self._leaf_index[v])
            else:
                stack.extend(reversed(self.children[v]))
        return tuple(sorted(out))

    def _lca_depth(self, a: int, b: int) -> int:
        while a != b:
            a = self.parent[a]  # same depth: leaves all sit at depth == height
            b = self.parent[b]
        return self.depth[a]

    def leaf_distance(self, p: PointId, q: PointId) -> Fraction:
        return self._lca_distance[self._lca_depth(self.leaf_nodes[p], self.leaf_nodes[q])]

    def _build_leaf_metric(self) -> tuple[FiniteMetric, list[int]]:
        # Leaves are numbered breadth-first, so the leaves under a depth-j node
        # form one index range of prod(branching[j:]) entries, all at the
        # distance of LCA depth j from each other unless a deeper node holds
        # them too.  Only depths with two or more children are the LCA of a
        # leaf pair; they alone enter the table and its scale.  Returns the
        # table and each such depth's LCA distance in its unit (0 elsewhere).
        n = self.n_leaves
        depths = [j for j, b in enumerate(self.branching) if b > 1]
        scale = math.lcm(*(self._lca_distance[j].denominator for j in depths))
        cost = [0] * (self.height + 1)
        fills = []
        for j in depths:
            size = math.prod(self.branching[j:])
            value = self._lca_distance[j] * scale
            assert value.denominator == 1
            cost[j] = value.numerator
            fills.append((size, [cost[j]] * size))
        rows = []
        for p in range(n):
            row = [0] * n
            for size, fill in fills:
                lo = p - p % size
                row[lo:lo + size] = fill
            row[p] = 0
            rows.append(tuple(row))
        return FiniteMetric._trusted(tuple(rows), scale), cost

    @cached_property
    def _depth_values(self) -> list[tuple]:
        """What `decompose` reads at any depth-j node, per depth j below the
        height, computed once per tree on first use: the id of the first
        depth-j node, the leaf count under a depth-j node and under each of
        its children, and the decomposition's (Delta, delta, mu_eff, price,
        uniform_d).

        The leaves under a depth-j node have as diameter the LCA distance at
        the first depth from j down with two or more children (0 if none),
        and are equidistant when at most one depth from j down has two or
        more children.  Delta is the node's diameter (the LCA distance at
        its depth, or with a single child that child's diameter), delta its
        children's diameter or 1 when they are single leaves, and every
        child block shares the children's common distance."""
        branching, height = self.branching, self.height
        span = [math.prod(branching[j:]) for j in range(height + 1)]
        diameter = [Fraction(0)] * (height + 1)
        cost = [0] * (height + 1)  # the diameter in the table's unit
        uniform: list[Optional[int]] = [0] * (height + 1)
        below = 0  # depths from j down with two or more children
        for j in reversed(range(height)):
            if branching[j] > 1:
                below += 1
                diameter[j], cost[j] = self._lca_distance[j], self._lca_cost[j]
            else:
                diameter[j], cost[j] = diameter[j + 1], cost[j + 1]
            uniform[j] = cost[j] if below <= 1 else None
        values = []
        first = 0
        for j in range(height):
            Delta = diameter[j]
            delta = diameter[j + 1] if span[j + 1] > 1 else Fraction(1)
            values.append((first, span[j], span[j + 1],
                           (Delta, delta, Delta / delta, cost[j],
                            (uniform[j + 1],) * branching[j])))
            first += math.prod(branching[:j])
        return values


def build_hst(branching: Sequence[int], mu) -> HstSpace:
    """Separation tree with the given per-level child counts and ratio mu > 1."""
    return HstSpace(branching, mu)


def validate_hst(space: HstSpace) -> None:
    """Exhaustively re-check the structural invariants of a separation tree.

    Checks, over all edges and root-to-leaf paths: sibling edges share one
    weight, weights fall by exactly mu per level, leaf edges weigh 1, all
    leaves sit at the same depth, and the stored leaf metric equals twice the
    path-weight sum to the lowest common ancestor.
    """
    mu = space.mu
    for node in range(space.node_count()):
        ch = space.children[node]
        if not ch:
            continue
        weights = {space.edge_weight[c] for c in ch}
        if len(weights) != 1:
            raise ValueError(f"node {node} has children with differing edge weights")
    for leaf in space.leaf_nodes:
        if space.depth[leaf] != space.height:
            raise ValueError(f"leaf node {leaf} at depth {space.depth[leaf]} != height")
        if space.edge_weight[leaf] != 1:
            raise ValueError(f"leaf edge weight {space.edge_weight[leaf]} != 1")
        # walk up: weights must grow by factor mu each level
        v = leaf
        while space.parent[v] is not None and space.parent[space.parent[v]] is not None:
            p = space.parent[v]
            if space.edge_weight[p] != space.edge_weight[v] * mu:
                raise ValueError(f"edge weights around node {p} do not scale by mu")
            v = p
    m = space.leaf_metric
    for p in range(space.n_leaves):
        for q in range(space.n_leaves):
            expect = space.leaf_distance(p, q)
            if m.distance(p, q) != expect:
                raise ValueError(f"leaf metric mismatch at ({p},{q})")


class Decomposition:
    """Partition of a metric into blocks with one exact cross-block distance.

    blocks[s] lists the PointIds of block s.  `delta` bounds every block
    diameter, `Delta` is the exact distance between points of different
    blocks, and `mu_eff` = Delta/delta is the separation the shell algorithm
    checks against min(k, t).  `price` is Delta in the metric table's unit,
    the price per server the demand trackers charge: an int whenever there
    are two or more blocks, since validation pins every cross-block distance
    to it.  `uniform_d[s]` is the common distance inside block s in that
    unit (0 below two points), or None if the block is not uniform.
    When every block is a single point, block diameters are 0 and delta is
    fixed at 1 (the leaf-edge scale), keeping mu_eff finite; singleton blocks
    have no intra-block movement to bound.

    `Decomposition(metric, blocks, Delta, delta)` checks the blocks against
    the table in O(n^2) and is the constructor for hand-built blocks;
    `_trusted` skips the scans and serves only `decompose`, whose values
    come from the tree's structure.
    """

    def __init__(self, metric: FiniteMetric, blocks: Sequence[Sequence[PointId]],
                 Delta, delta):
        self.metric = metric
        self.blocks = tuple(tuple(sorted(b)) for b in blocks)
        self.Delta = as_fraction(Delta)
        self.delta = as_fraction(delta)
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        # a one-block decomposition has no cross-block pair to pin Delta
        if self.Delta < 0:
            raise ValueError(f"Delta must be nonnegative, got {self.Delta}")
        self.t = len(self.blocks)
        self.mu_eff = self.Delta / self.delta
        price = self.Delta * metric.scale
        self.price = price.numerator if price.denominator == 1 else price
        self.block_of: dict[PointId, int] = {}
        for s, blk in enumerate(self.blocks):
            for p in blk:
                if p in self.block_of:
                    raise ValueError(f"point {p} appears in two blocks")
                self.block_of[p] = s
        # the decomposed universe; may be a subset of the metric's points
        # (a subtree's decomposition keeps the global ids of its leaves)
        self.points = tuple(sorted(self.block_of))
        self.validate()
        self.uniform_d = tuple(metric.uniform_cost(blk) for blk in self.blocks)

    @classmethod
    def _trusted(cls, metric: FiniteMetric, blocks: tuple[tuple[PointId, ...], ...],
                 Delta: Fraction, delta: Fraction, mu_eff: Fraction, price: int,
                 uniform_d: tuple[Optional[int], ...]) -> "Decomposition":
        """A decomposition whose checks hold by construction.  The caller
        guarantees what `__init__` would check and compute: `blocks` are
        disjoint sorted tuples of points of `metric` that pass `validate`,
        `mu_eff` and `price` follow from the Fractions, and `uniform_d`
        equals `uniform_cost` of each block."""
        self = cls.__new__(cls)
        self.metric = metric
        self.blocks = blocks
        self.Delta = Delta
        self.delta = delta
        self.t = len(blocks)
        self.mu_eff = mu_eff
        self.price = price
        self.uniform_d = uniform_d
        self.block_of = {p: s for s, blk in enumerate(blocks) for p in blk}
        self.points = tuple(sorted(self.block_of))
        return self

    def validate(self) -> None:
        if self.t < 1:
            raise ValueError("need at least one block")
        for p in self.points:
            self.metric.check_point(p)
        dist, price = self.metric.dist, self.price
        # in the table's unit a distance exceeds delta exactly when it exceeds
        # the floor of delta
        delta = math.floor(self.delta * self.metric.scale)
        for s, blk in enumerate(self.blocks):
            for a, b in combinations(blk, 2):
                if dist[a][b] > delta:
                    raise ValueError(f"block {s} has diameter above delta")
        for s1, s2 in combinations(range(self.t), 2):
            for a in self.blocks[s1]:
                row = dist[a]
                for b in self.blocks[s2]:
                    if row[b] != price:
                        raise ValueError(
                            f"cross-block distance d({a},{b}) = "
                            f"{self.metric.distance(a, b)} != Delta = {self.Delta}"
                        )


def decompose(space: HstSpace, node: int) -> Decomposition:
    """Block decomposition at an internal tree node: one block per child
    subtree, read from the tree's structure in time linear in the node's
    leaves.  The leaves under a node form one index range, split evenly
    among its children; Delta, delta and the blocks' common distances are
    the same at every node of one depth (see `HstSpace._depth_values`)."""
    check_int("node", node, 0, space.node_count() - 1)
    if space.is_leaf(node):
        raise ValueError("cannot decompose at a leaf node")
    first, size, span, values = space._depth_values[space.depth[node]]
    lo = (node - first) * size
    blocks = tuple(tuple(range(a, a + span)) for a in range(lo, lo + size, span))
    return Decomposition._trusted(space.leaf_metric, blocks, *values)
