import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ksim.marking import Universe
from ksim.metric import (Decomposition, FiniteMetric, build_hst, build_uniform,
                         decompose, validate_hst)
from ksim.shell import tree_plan


class TestBuildUniform:
    def test_single_point(self):
        m = build_uniform(1, 1)
        assert m.n == 1
        assert m.distance(0, 0) == 0

    def test_three_points(self):
        m = build_uniform(3, 1)
        for i in range(3):
            for j in range(3):
                assert m.distance(i, j) == (0 if i == j else 1)

    def test_larger_distance_is_metric(self):
        # construction validates the triangle inequality over all triples
        m = build_uniform(4, 5)
        assert m.distance(1, 3) == 5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_uniform(0, 1)
        with pytest.raises(ValueError):
            build_uniform(3, 0)
        with pytest.raises(ValueError):
            build_uniform(3, -2)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            build_uniform(3, 1.5)


class TestFiniteMetric:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            FiniteMetric([[0, 1], [2, 0]])

    def test_rejects_zero_off_diagonal(self):
        with pytest.raises(ValueError):
            FiniteMetric([[0, 0], [0, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            FiniteMetric([[1, 1], [1, 0]])

    def test_rejects_triangle_violation(self):
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_out_of_range_lookup(self):
        m = build_uniform(3, 1)
        with pytest.raises(ValueError):
            m.distance(0, 3)
        with pytest.raises(ValueError):
            m.distance(-1, 0)

    def test_uniform_distance_detection(self):
        m = build_uniform(4, 2)
        assert m.uniform_distance() == 2
        path = FiniteMetric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert path.uniform_distance() is None
        assert path.uniform_distance([0, 1]) == 1
        # fewer than two points: no move between them costs anything
        assert path.uniform_cost([2]) == path.uniform_cost([]) == 0

    def test_from_upper_triangle(self):
        m = FiniteMetric.from_upper_triangle(3, [1, 2, 1])
        assert m.distance(0, 2) == 2
        assert m.distance(2, 1) == 1
        with pytest.raises(ValueError):
            FiniteMetric.from_upper_triangle(3, [1, 2])


class TestBuildHst:
    def test_height_one_is_uniform_distance_two(self):
        s = build_hst([5], 7)
        assert s.n_leaves == 5
        assert s.leaf_metric.uniform_distance() == 2

    def test_two_level_distances(self):
        s = build_hst([2, 3], 4)
        assert s.n_leaves == 6
        # same parent: two leaf edges of weight 1
        assert s.leaf_metric.distance(0, 1) == 2
        # across the root: 2 * (1 + 4)
        assert s.leaf_metric.distance(0, 3) == 10

    def test_three_level_distances(self):
        s = build_hst([2, 2, 2], 3)
        assert s.leaf_metric.distance(0, 7) == 2 * (1 + 3 + 9)

    def test_rational_mu(self):
        s = build_hst([2, 2], Fraction(5, 2))
        assert s.leaf_metric.distance(0, 2) == 2 * (1 + Fraction(5, 2))

    def test_rejects_bad_mu_and_counts(self):
        with pytest.raises(ValueError):
            build_hst([2, 2], 1)
        with pytest.raises(ValueError):
            build_hst([2, 0], 3)
        with pytest.raises(ValueError):
            build_hst([], 3)
        with pytest.raises(TypeError):
            build_hst([2], 2.5)

    @pytest.mark.parametrize("branching", [[4097], [64, 65], [2] * 13, [3000, 3000],
                                           [16, 16, 17]])
    def test_refuses_more_leaves_than_the_limit(self, branching):
        # before the node loop: [3000, 3000] would take gigabytes
        with pytest.raises(ValueError, match=rf"gives {math.prod(branching)} leaves, "
                                             rf"more than the 4096"):
            build_hst(branching, 3)

    def test_the_leaf_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr("ksim.metric.HST_MAX_LEAVES", 12)
        assert build_hst([3, 4], 3).n_leaves == 12
        for branching in ([13], [2, 7], [2, 2, 2, 2]):
            with pytest.raises(ValueError, match="more than the 12"):
                build_hst(branching, 3)

    @pytest.mark.parametrize("branching", [[2.5, 3], [True, 3], [3, 2.0]])
    def test_rejects_counts_that_are_not_ints(self, branching):
        # int() would build [2, 3], [1, 3] and [3, 2] from these
        with pytest.raises(ValueError, match="branching count must be an int, got "):
            build_hst(branching, 3)

    @settings(max_examples=40, deadline=None)
    @given(branching=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           mu_num=st.integers(3, 9), mu_den=st.integers(1, 2))
    def test_structural_invariants_hold(self, branching, mu_num, mu_den):
        mu = Fraction(mu_num, mu_den)
        if mu <= 1:
            return
        space = build_hst(branching, mu)
        validate_hst(space)


class TestLcaDistances:
    """`HstSpace` sums each LCA distance from the leaves up, in O(height);
    the tables it builds from them must equal the edge weights summed along
    each leaf pair's tree path."""

    @staticmethod
    def path_distance(space, p, q):
        """Twice the edge weights from leaf p up to its LCA with leaf q."""
        a, b, total = space.leaf_nodes[p], space.leaf_nodes[q], Fraction(0)
        while a != b:
            total += space.edge_weight[a]
            a, b = space.parent[a], space.parent[b]
        return 2 * total

    @settings(max_examples=80, deadline=None)
    @given(branching=st.lists(st.integers(1, 3), min_size=1, max_size=7)
           .filter(lambda b: math.prod(b) <= 32),
           mu_excess=st.fractions(min_value=Fraction(1, 7), max_value=8, max_denominator=7))
    def test_tables_equal_the_path_sums(self, branching, mu_excess):
        mu = 1 + mu_excess
        space = build_hst(branching, mu)
        h = space.height
        # the closed form of 2 * (1 + mu + ... + mu^(h-j-1))
        assert space._lca_distance == [2 * (mu ** (h - j) - 1) / (mu - 1)
                                       for j in range(h + 1)]
        m = space.leaf_metric
        for p in range(space.n_leaves):
            for q in range(space.n_leaves):
                expect = self.path_distance(space, p, q)
                assert space.leaf_distance(p, q) == m.distance(p, q) == expect
        validate_hst(space)

    @pytest.mark.parametrize("mu", [2, Fraction(7, 2)])
    def test_a_tree_thousands_of_levels_tall_builds(self, mu):
        # summing every LCA distance from scratch took 1.2 s at height 800
        space = build_hst([1] * 2999 + [2], mu)
        mu = Fraction(mu)
        assert space._lca_distance[::500] == [2 * (mu ** (3000 - j) - 1) / (mu - 1)
                                              for j in range(0, 3001, 500)]
        assert space.leaf_metric.distance(0, 1) == 2 == self.path_distance(space, 0, 1)
        space = build_hst([1] * 3000, 2)
        assert space._lca_distance == [2 * (2 ** (3000 - j) - 1) for j in range(3001)]
        assert space.n_leaves == 1 and space.leaf_metric.scale == 1


def _validated_leaf_metric(space):
    """The leaf table through the checked constructor, from the per-pair
    oracle `leaf_distance`."""
    n = space.n_leaves
    return FiniteMetric([[space.leaf_distance(p, q) for q in range(n)] for p in range(n)])


def _validated_uniform(n, d):
    return FiniteMetric([[0 if i == j else d for j in range(n)] for i in range(n)])


class TestTrustedTables:
    """`build_hst` and `build_uniform` skip the O(n^3) check; their tables and
    scales must equal what the checked constructor makes of the same
    distances."""

    @settings(max_examples=150, deadline=None)
    @given(branching=st.lists(st.integers(1, 4), min_size=1, max_size=3)
           .filter(lambda b: math.prod(b) <= 64),
           mu_excess=st.fractions(min_value=Fraction(1, 6), max_value=8, max_denominator=6))
    def test_hst_table_equals_validated(self, branching, mu_excess):
        space = build_hst(branching, 1 + mu_excess)
        ref = _validated_leaf_metric(space)
        assert space.leaf_metric.dist == ref.dist
        assert space.leaf_metric.scale == ref.scale
        validate_hst(space)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12),
           d=st.fractions(min_value=Fraction(1, 9), max_value=20, max_denominator=9)
           .filter(lambda d: d > 0))
    def test_uniform_table_equals_validated(self, n, d):
        m, ref = build_uniform(n, d), _validated_uniform(n, d)
        assert (m.dist, m.scale) == (ref.dist, ref.scale)

    def test_scale_ignores_depths_without_leaf_pairs(self):
        # the root has one child, so no leaf pair has its LCA there: the
        # distance 2 * (1 + 5/2 + 25/4) never occurs and leaves scale at 1
        space = build_hst([1, 2, 2], Fraction(5, 2))
        ref = _validated_leaf_metric(space)
        assert (space.leaf_metric.dist, space.leaf_metric.scale) == (ref.dist, ref.scale)
        assert space.leaf_metric.scale == 1
        validate_hst(space)

    def test_single_point_scale_is_one(self):
        m = build_uniform(1, Fraction(3, 2))
        assert (m.dist, m.scale) == (((0,),), 1)
        ref = _validated_uniform(1, Fraction(3, 2))
        assert (m.dist, m.scale) == (ref.dist, ref.scale)

    def test_builders_skip_the_cubic_check(self, monkeypatch):
        def refuse(self, rows):
            raise AssertionError("FiniteMetric.__init__ called")
        monkeypatch.setattr(FiniteMetric, "__init__", refuse)
        space = build_hst([12, 12, 12], 12)
        assert space.leaf_metric.n == 1728
        assert space.leaf_metric.distance(0, 1727) == 2 * (1 + 12 + 144)
        assert space.leaf_metric.distance(13, 14) == 2
        uniform = build_uniform(800, 1)
        assert uniform.n == 800 and uniform.distance(0, 799) == 1


class TestDecompose:
    def test_root_of_two_level(self):
        s = build_hst([2, 3], 4)
        dec = decompose(s, 0)
        assert dec.t == 2
        assert dec.Delta == 10
        assert dec.delta == 2
        assert dec.mu_eff == 5
        assert dec.blocks == ((0, 1, 2), (3, 4, 5))

    def test_root_of_height_one_gives_singletons(self):
        s = build_hst([4], 3)
        dec = decompose(s, 0)
        assert dec.t == 4
        assert all(len(b) == 1 for b in dec.blocks)
        assert dec.Delta == 2
        assert dec.delta == 1

    def test_root_of_three_level(self):
        s = build_hst([2, 2, 2], 3)
        dec = decompose(s, 0)
        assert dec.Delta == 26
        assert dec.delta == 2 * (1 + 3)
        assert dec.mu_eff == Fraction(26, 8)

    def test_inner_node(self):
        s = build_hst([2, 2, 2], 3)
        child = s.children[0][0]
        dec = decompose(s, child)
        assert dec.Delta == 2 * (1 + 3)
        assert dec.delta == 2
        assert set(dec.points) == set(s.subtree_leaf_points(child))

    def test_price_is_delta_in_the_table_unit(self):
        s = build_hst([2, 2, 2], Fraction(7, 2))  # distances 2, 9, 67/2: scale 2
        dec = decompose(s, 0)
        assert (dec.Delta, dec.price) == (Fraction(67, 2), 67)
        assert type(dec.price) is int
        # off the table's grid only on a hand-built one-block decomposition
        one = Decomposition(build_uniform(2, 1), [(0, 1)], Delta=Fraction(1, 3), delta=1)
        assert one.price == Fraction(1, 3)

    def test_rejects_leaf(self):
        s = build_hst([2, 2], 3)
        leaf = s.leaf_nodes[0]
        with pytest.raises(ValueError):
            decompose(s, leaf)

    @settings(max_examples=30, deadline=None)
    @given(branching=st.lists(st.integers(2, 3), min_size=1, max_size=3),
           mu=st.integers(2, 6))
    def test_separation_exceeds_mu_everywhere(self, branching, mu):
        space = build_hst(branching, mu)
        for node in space.internal_nodes():
            dec = decompose(space, node)
            dec.validate()  # cross-block uniformity and diameter bounds
            if all(space.is_leaf(c) for c in space.children[node]):
                # singleton blocks: delta pinned to the leaf-edge scale
                assert dec.mu_eff == 2
            else:
                assert dec.mu_eff > mu

    def test_manual_decomposition_validation(self):
        # two uniform blocks, exact cross distance; one corrupted pairing fails
        rows = [[0, 2, 3, 3], [2, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]]
        m = FiniteMetric(rows)
        dec = Decomposition(m, [(0, 1), (2, 3)], Delta=3, delta=2)
        assert dec.mu_eff == Fraction(3, 2)
        with pytest.raises(ValueError):
            Decomposition(m, [(0, 2), (1, 3)], Delta=3, delta=2)

    @pytest.mark.parametrize("delta", [0, -1, Fraction(-1, 2)])
    def test_refuses_a_delta_that_is_not_positive(self, delta):
        # before any division by delta
        with pytest.raises(ValueError, match="delta must be positive"):
            Decomposition(build_uniform(4, 1), [[0, 1], [2, 3]], 1, delta)

    @pytest.mark.parametrize("Delta", [-1, Fraction(-1, 3)])
    def test_refuses_a_negative_Delta(self, Delta):
        # one block has no cross-block pair to pin Delta; a negative one
        # would sell servers at a negative price
        with pytest.raises(ValueError, match="Delta must be nonnegative"):
            Decomposition(build_uniform(2, 1), [[0, 1]], Delta, 1)
        # Delta 0 stays: a one-leaf node has it
        assert Decomposition(build_uniform(1, 1), [[0]], 0, 1).price == 0

    @pytest.mark.parametrize("build, message", [
        (lambda: FiniteMetric([]), "a metric needs at least one point"),
        (lambda: FiniteMetric([[0, 1], [1]]), "row 1 has 1 entries, expected 2"),
        (lambda: Decomposition(build_uniform(4, 1), [[0, 1], [1, 2]], 1, 1),
         "point 1 appears in two blocks"),
        (lambda: Decomposition(build_uniform(2, 1), [], 1, 1), "need at least one block"),
        (lambda: Decomposition(build_uniform(4, 1), [[0, 1], [2, 3]], 2, 1),
         r"cross-block distance d\(0,2\) = 1 != Delta = 2"),
        (lambda: decompose(build_hst([2, 2], 3), 7), "node 7 out of range"),
        # True and 1.0 would otherwise find node 1's depth and blocks
        (lambda: decompose(build_hst([2, 2], 2), True), "node must be an int, got True"),
        (lambda: decompose(build_hst([2, 2], 2), 1.0), "node must be an int, got 1.0"),
        (lambda: decompose(build_hst([2, 2], 2), "1"), "node must be an int, got '1'"),
    ], ids=["no-points", "ragged-row", "point-in-two-blocks", "no-blocks",
            "cross-distance-not-Delta", "node-out-of-range", "node-bool", "node-float",
            "node-str"])
    def test_refusals(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


def _checked_decomposition(space, node):
    """The decomposition at `node` from scans of the leaf table, through the
    checked constructor: blocks from a walk of each child subtree, Delta from
    a cross-block distance (the block's diameter when there is one block),
    delta from the largest block diameter."""
    metric = space.leaf_metric
    blocks = [space.subtree_leaf_points(c) for c in space.children[node]]
    if len(blocks) > 1:
        Delta = space.leaf_distance(blocks[0][0], blocks[1][0])
    else:
        Delta = metric.diameter(blocks[0])
    if all(len(b) == 1 for b in blocks):
        delta = Fraction(1)
    else:
        delta = max(metric.diameter(b) for b in blocks if len(b) > 1)
    return Decomposition(metric, blocks, Delta, delta)


def _leaf_parent_universes(space, plan, node=0):
    """(node, Universe) for every parent of leaves, read off `tree_plan`."""
    if isinstance(plan, Universe):
        return [(node, plan)]
    return [pair for child, sub in zip(space.children[node], plan.subs)
            for pair in _leaf_parent_universes(space, sub, child)]


class TestStructuralDecompositions:
    """`decompose` reads blocks, Delta, delta and the blocks' uniformity off
    the tree's structure; the scans of the leaf table stay as its oracle."""

    @settings(max_examples=150, deadline=None)
    @given(branching=st.lists(st.integers(1, 4), min_size=1, max_size=4)
           .filter(lambda b: math.prod(b) <= 64),
           mu=st.one_of(st.integers(2, 9).map(Fraction),
                        st.fractions(min_value=Fraction(7, 6), max_value=8,
                                     max_denominator=6).filter(lambda m: m.denominator > 1)))
    def test_structure_equals_the_scans(self, branching, mu):
        space = build_hst(branching, mu)
        metric = space.leaf_metric
        for node in space.internal_nodes():
            dec, ref = decompose(space, node), _checked_decomposition(space, node)
            assert dec.metric is ref.metric
            assert (dec.t, dec.blocks, dec.points) == (ref.t, ref.blocks, ref.points)
            assert dec.block_of == ref.block_of
            assert (dec.Delta, dec.delta, dec.mu_eff) == (ref.Delta, ref.delta, ref.mu_eff)
            assert dec.price == ref.price and type(dec.price) is type(ref.price) is int
            assert dec.uniform_d == ref.uniform_d == tuple(
                metric.uniform_cost(b) for b in dec.blocks)
            dec.validate()
            if None in dec.uniform_d:
                with pytest.raises(ValueError, match="uniform"):
                    Universe(metric, dec.blocks[dec.uniform_d.index(None)])
            else:
                for blk, d in zip(dec.blocks, dec.uniform_d):
                    checked = Universe(metric, blk)
                    assert (blk, frozenset(blk), d) == (
                        checked.points, checked.point_set, checked.d)
        universes = _leaf_parent_universes(space, tree_plan(space))
        assert len(universes) == sum(1 for v in space.internal_nodes()
                                     if space.depth[v] == space.height - 1)
        for node, universe in universes:
            checked = Universe(metric, space.subtree_leaf_points(node))
            assert universe.metric is metric
            assert (universe.points, universe.point_set, universe.d) == (
                checked.points, checked.point_set, checked.d)

    def test_plans_skip_the_scans(self, monkeypatch):
        def refuse(name):
            def method(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return method
        monkeypatch.setattr(Decomposition, "validate", refuse("Decomposition.validate"))
        monkeypatch.setattr(FiniteMetric, "diameter", refuse("FiniteMetric.diameter"))
        monkeypatch.setattr(FiniteMetric, "uniform_cost", refuse("FiniteMetric.uniform_cost"))
        deep = tree_plan(build_hst([12, 12, 12], 12))
        assert (deep.dec.t, len(deep.dec.points), deep.dec.Delta) == (12, 1728, 2 * (1 + 12 + 144))
        assert deep.uniform_d == (None,) * 12
        assert deep.subs[0].uniform_d == (2,) * 12
        assert deep.subs[0].subs[0].d == 2
        space = build_hst([8, 8], 8)
        wide = tree_plan(space)
        assert (wide.dec.t, wide.dec.price, wide.uniform_d) == (8, 18, (2,) * 8)
        assert [u.d for u in wide.subs] == [2] * 8
        assert wide.subs[7].points == tuple(range(56, 64))
