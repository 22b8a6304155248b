"""Finite metric spaces, separation trees and block decompositions.

All distances are exact rationals (fractions.Fraction).  Exactness matters:
the offline solver and the demand computation resolve ties between candidate
costs, and a float epsilon would silently change which server count wins.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

PointId = int


def as_fraction(value) -> Fraction:
    """Coerce to an exact rational.  Floats are rejected: they carry rounding."""
    if isinstance(value, float):
        raise TypeError("distances must be exact rationals, got float %r" % value)
    return Fraction(value)


class FiniteMetric:
    """Symmetric distance table over points 0..n-1.

    Construction validates the metric axioms, including the triangle
    inequality over all triples (intended for desk-scale spaces, n <= 200).
    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("n", "_rows", "_int_cache")

    def __init__(self, rows: Sequence[Sequence], validate: bool = True):
        self.n = len(rows)
        self._rows = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        self._int_cache: Optional[tuple] = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        if self.n < 1:
            raise ValueError("a metric needs at least one point")
        for i, row in enumerate(self._rows):
            if len(row) != self.n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {self.n}")
            if row[i] != 0:
                raise ValueError(f"dist({i},{i}) = {row[i]}, must be 0")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self._rows[i][j] != self._rows[j][i]:
                    raise ValueError(f"dist({i},{j}) != dist({j},{i})")
                if self._rows[i][j] <= 0:
                    raise ValueError(f"dist({i},{j}) = {self._rows[i][j]}, must be positive")
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if self._rows[i][k] > self._rows[i][j] + self._rows[j][k]:
                        raise ValueError(
                            f"triangle inequality fails on ({i},{j},{k}): "
                            f"{self._rows[i][k]} > {self._rows[i][j]} + {self._rows[j][k]}"
                        )

    @classmethod
    def from_upper_triangle(cls, n: int, values: Sequence) -> "FiniteMetric":
        """Build from the n*(n-1)/2 upper-triangle entries in row-major order."""
        expected = n * (n - 1) // 2
        if len(values) != expected:
            raise ValueError(f"expected {expected} distances for n={n}, got {len(values)}")
        rows = [[Fraction(0)] * n for _ in range(n)]
        it = iter(values)
        for i in range(n):
            for j in range(i + 1, n):
                d = as_fraction(next(it))
                rows[i][j] = d
                rows[j][i] = d
        return cls(rows)

    def check_point(self, p: PointId) -> None:
        if not isinstance(p, int) or not (0 <= p < self.n):
            raise ValueError(f"point id {p!r} out of range [0, {self.n})")

    def distance(self, p: PointId, q: PointId) -> Fraction:
        self.check_point(p)
        self.check_point(q)
        return self._rows[p][q]

    def int_costs(self) -> tuple:
        """(scale, table) with table[p][q] = scale * distance as ints.

        scale is the lcm of the distance denominators.  Cached: the solvers
        call this once per query and the table is immutable anyway.
        """
        if self._int_cache is None:
            import math as _math
            denoms = [self._rows[p][q].denominator
                      for p in range(self.n) for q in range(p + 1, self.n)]
            scale = _math.lcm(*denoms) if denoms else 1
            table = tuple(tuple(int(v * scale) for v in row) for row in self._rows)
            self._int_cache = (scale, table)
        return self._int_cache

    def points(self) -> range:
        return range(self.n)

    def diameter(self, points: Optional[Sequence[PointId]] = None) -> Fraction:
        pts = list(points) if points is not None else list(range(self.n))
        best = Fraction(0)
        for a, b in combinations(pts, 2):
            d = self._rows[a][b]
            if d > best:
                best = d
        return best

    def uniform_distance(self, points: Optional[Sequence[PointId]] = None) -> Optional[Fraction]:
        """The common pairwise distance over `points`, or None if not uniform.

        A single point is vacuously uniform; its scale is reported as None-safe
        Fraction(1) would be a guess, so callers handle the singleton case.
        """
        pts = list(points) if points is not None else list(range(self.n))
        common: Optional[Fraction] = None
        for a, b in combinations(pts, 2):
            d = self._rows[a][b]
            if common is None:
                common = d
            elif d != common:
                return None
        return common


def build_uniform(n: int, d) -> FiniteMetric:
    """Uniform space: every pair of distinct points at distance d."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = as_fraction(d)
    if d <= 0:
        raise ValueError("d must be positive")
    rows = [[Fraction(0) if i == j else d for j in range(n)] for i in range(n)]
    return FiniteMetric(rows)


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
        branching = tuple(int(b) for b in branching)
        if len(branching) == 0:
            raise ValueError("branching must have at least one level")
        if any(b < 1 for b in branching):
            raise ValueError("all branching counts must be >= 1")
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
        self.leaf_metric = self._build_leaf_metric()

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
        if p == q:
            return Fraction(0)
        j = self._lca_depth(self.leaf_nodes[p], self.leaf_nodes[q])
        # 2 * sum of edge weights from depth h down to depth j+1
        total = Fraction(0)
        for depth in range(j + 1, self.height + 1):
            total += self.mu ** (self.height - depth)
        return 2 * total

    def _build_leaf_metric(self) -> FiniteMetric:
        n = self.n_leaves
        rows = [[Fraction(0)] * n for _ in range(n)]
        for p in range(n):
            for q in range(p + 1, n):
                d = self.leaf_distance(p, q)
                rows[p][q] = d
                rows[q][p] = d
        return FiniteMetric(rows)


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
    checks against min(k, t).  When every block is a single point, block
    diameters are 0 and delta is fixed at 1 (the leaf-edge scale), keeping
    mu_eff finite; singleton blocks have no intra-block movement to bound.
    """

    def __init__(self, metric: FiniteMetric, blocks: Sequence[Sequence[PointId]],
                 Delta, delta, validate: bool = True):
        self.metric = metric
        self.blocks = tuple(tuple(sorted(b)) for b in blocks)
        self.Delta = as_fraction(Delta)
        self.delta = as_fraction(delta)
        self.t = len(self.blocks)
        self.mu_eff = self.Delta / self.delta
        self.block_of: dict[PointId, int] = {}
        for s, blk in enumerate(self.blocks):
            for p in blk:
                if p in self.block_of:
                    raise ValueError(f"point {p} appears in two blocks")
                self.block_of[p] = s
        # the decomposed universe; may be a subset of the metric's points
        # (a subtree's decomposition keeps the global ids of its leaves)
        self.points = tuple(sorted(self.block_of))
        if validate:
            self.validate()

    def validate(self) -> None:
        if self.t < 1:
            raise ValueError("need at least one block")
        for p in self.points:
            self.metric.check_point(p)
        rows = self.metric._rows
        for s, blk in enumerate(self.blocks):
            for a, b in combinations(blk, 2):
                if rows[a][b] > self.delta:
                    raise ValueError(f"block {s} has diameter above delta")
        for s1, s2 in combinations(range(self.t), 2):
            for a in self.blocks[s1]:
                row = rows[a]
                for b in self.blocks[s2]:
                    if row[b] != self.Delta:
                        raise ValueError(
                            f"cross-block distance d({a},{b}) = "
                            f"{row[b]} != Delta = {self.Delta}"
                        )

    @cached_property
    def uniform_blocks(self) -> tuple[bool, ...]:
        """Per block, whether its points are pairwise equidistant (a single
        point counts as uniform)."""
        return tuple(len(blk) == 1 or self.metric.uniform_distance(blk) is not None
                     for blk in self.blocks)


def decompose(space: HstSpace, node: int) -> Decomposition:
    """Block decomposition at an internal tree node: one block per child subtree."""
    if not (0 <= node < space.node_count()):
        raise ValueError(f"node {node} out of range")
    if space.is_leaf(node):
        raise ValueError("cannot decompose at a leaf node")
    blocks = [space.subtree_leaf_points(c) for c in space.children[node]]
    a = blocks[0][0]
    if len(blocks) > 1:
        Delta = space.leaf_metric.distance(a, blocks[1][0])
    else:
        # degenerate single-block node; separation is the subtree diameter scale
        Delta = space.leaf_metric.diameter(blocks[0])
    if all(len(b) == 1 for b in blocks):
        delta = Fraction(1)
    else:
        delta = max(space.leaf_metric.diameter(b) for b in blocks if len(b) > 1)
    return Decomposition(space.leaf_metric, blocks, Delta, delta)
