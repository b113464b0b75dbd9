"""Refinement order: edges, degrees, least upper bounds, Hasse graphs."""

import math

import numpy as np
import pytest

from mtshapes import (
    InvalidShapeError,
    TreeShape,
    covers,
    deg_minus,
    deg_plus,
    degree,
    diameter,
    generate_all,
    lattice_distance,
    lub,
    lub_fmatrix,
    max_degree,
    max_degree_tree,
    present_edges,
    refine_node,
    refinements_below,
    split_count,
)
from mtshapes import lattice
from test_shapes import FX, FY

STAR7 = TreeShape((0,), (7,))


def fmatrix_edges(shape):
    """Edge test straight off the F-matrix rows (oracle for e >= 2)."""
    f = shape.fmatrix()
    k = shape.n_internal
    out = []
    if k >= 2:
        out.append(1)
    for e in range(2, k):
        if np.array_equal(f[e - 1, : e - 1], f[e, : e - 1]):
            out.append(e)
    return tuple(out)


class TestPresentEdges:
    def test_star(self):
        assert present_edges(STAR7) == ()

    def test_two_edge_example(self):
        s = TreeShape((0, 1, 1, 3, 3), (0, 2, 1, 2, 2))
        assert s.n_tips == 7 and s.n_internal == 5
        assert present_edges(s) == (1, 3)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_string_and_matrix_tests_agree(self, n):
        for s in generate_all(n):
            assert present_edges(s) == fmatrix_edges(s)


class TestCoversAndRefinements:
    def test_star_covers_nothing(self):
        assert covers(STAR7) == set()

    def test_two_edge_example_covers(self):
        s = TreeShape((0, 1, 1, 3, 3), (0, 2, 1, 2, 2))
        cs = covers(s)
        assert len(cs) == 2
        assert all(c.n_internal == 4 and c.n_tips == 7 for c in cs)

    def test_binary_has_no_refinements(self):
        for s in generate_all(6, 5):
            assert refinements_below(s) == set()

    @pytest.mark.parametrize("n", range(4, 9))
    def test_star_refinements(self, n):
        refs = refinements_below(TreeShape((0,), (n,)))
        assert len(refs) == n - 2
        assert all(r.n_internal == 2 for r in refs)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_counts_match_degree_formulas(self, n):
        for s in generate_all(n):
            assert len(covers(s)) == deg_plus(s)
            assert len(refinements_below(s)) == deg_minus(s)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_refinement_inverts_collapse(self, n):
        for s in generate_all(n):
            for r in refinements_below(s):
                assert s in covers(r)


class TestSplitCount:
    def test_bifurcations_are_rigid(self):
        assert split_count(1, 1) == 0
        assert split_count(2, 0) == 0
        assert split_count(0, 2) == 0

    def test_leaf_only_nodes(self):
        for l in range(2, 12):
            assert split_count(0, l) == l - 2

    def test_closed_form_matches_double_sum(self):
        # oracle: sum over split sizes s and moved-leaf counts j of the
        # number of ways to move s - j of k rank-distinct children
        for k in range(0, 9):
            for l in range(0, 9):
                if k + l < 2 or (k, l) == (1, 0):
                    continue
                total = sum(
                    math.comb(k, s - j)
                    for s in range(2, k + l)
                    for j in range(max(0, s - k), min(s, l) + 1)
                )
                assert split_count(k, l) == total, (k, l)

    def test_invalid_profiles(self):
        for k, l in [(0, 0), (1, 0), (0, 1), (-1, 3)]:
            with pytest.raises(ValueError):
                split_count(k, l)


class TestDegrees:
    def test_star(self):
        for n in range(4, 9):
            star = TreeShape((0,), (n,))
            assert deg_plus(star) == 0
            assert deg_minus(star) == n - 2

    @pytest.mark.parametrize("n", range(2, 8))
    def test_formulas_match_graph(self, n, hasse):
        g = hasse[n]
        plus, minus = g.degrees()
        for i, v in enumerate(g.vertices):
            assert deg_plus(v) == plus[i]
            assert deg_minus(v) == minus[i]

    def test_max_degree_sequence(self):
        assert [max_degree_tree(n)[1] for n in range(4, 10)] == [3, 5, 8, 12, 19, 27]
        assert [deg_minus(max_degree_tree(n)[0]) for n in range(4, 10)] == [
            2, 4, 7, 11, 18, 26,
        ]

    def test_max_degree_tree_shape(self):
        tree, m = max_degree_tree(9)
        assert tree == TreeShape((0, 1, 1, 1), (3, 2, 2, 2))
        assert deg_plus(tree) == 1
        assert m == degree(tree)

    def test_max_degree_tree_domain(self):
        with pytest.raises(ValueError):
            max_degree_tree(3)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_argmax_is_unique(self, n):
        tree, m = max_degree_tree(n)
        tops = [s for s in generate_all(n) if degree(s) == m]
        assert tops == [tree]
        assert all(degree(s) <= m for s in generate_all(n))


class TestRefineNode:
    def test_split_star(self):
        star = TreeShape((0,), (6,))
        assert refine_node(star, 1, (), 2) == TreeShape((0, 1), (4, 2))
        assert refine_node(star, 1, (), 5) == TreeShape((0, 1), (1, 5))

    def test_bad_split_sizes(self):
        star = TreeShape((0,), (6,))
        with pytest.raises(ValueError):
            refine_node(star, 1, (), 1)
        with pytest.raises(ValueError):
            refine_node(star, 1, (), 6)

    def test_bad_split_arguments(self):
        s = TreeShape((0, 1, 1), (2, 2, 2))
        with pytest.raises(ValueError, match="node"):
            refine_node(s, 4, (), 2)
        with pytest.raises(ValueError, match="children"):
            refine_node(s, 2, (3,), 1)  # node 3 is not a child of node 2
        assert refine_node(s, 1, (2,), 1).n_internal == 4


class TestLub:
    def test_invalid_end_state_raises(self, monkeypatch):
        # a real error, not an assert, so it also fires under python -O
        monkeypatch.setattr(lattice, "_violating_columns", lambda m: [])
        with pytest.raises(InvalidShapeError) as exc:
            lub_fmatrix(FX, FY)
        assert exc.value.constraint == "F1"

    def test_worked_example_trace(self):
        trace = []
        result = lub_fmatrix(FX, FY, trace=trace)
        assert result.tolist() == [[7, 0], [6, 8]]
        expected = [
            [
                [2, 0, 0, 0, 0],
                [1, 3, 0, 0, 0],
                [0, 2, 4, 0, 0],
                [0, 1, 2, 7, 0],
                [0, 1, 2, 6, 8],
            ],
            [[2, 0, 0, 0], [1, 3, 0, 0], [0, 1, 7, 0], [0, 1, 6, 8]],
            [[2, 0, 0], [0, 7, 0], [0, 6, 8]],
            [[7, 0], [6, 8]],
        ]
        assert [m.tolist() for m in trace] == expected

    def test_worked_example_shapes(self):
        tx, ty = TreeShape.from_fmatrix(FX), TreeShape.from_fmatrix(FY)
        assert lub(tx, ty) == TreeShape((0, 1), (6, 2))
        assert lub(ty, tx) == lub(tx, ty)

    def test_identity(self):
        for s in generate_all(6):
            assert lub(s, s) == s

    def test_star_is_maximum(self):
        star = TreeShape((0,), (6,))
        for s in generate_all(6):
            assert lub(s, star) == star

    def test_mismatched_tips(self):
        with pytest.raises(ValueError):
            lub(TreeShape((0,), (5,)), TreeShape((0,), (6,)))

    @pytest.mark.parametrize("n", [4, 5])
    def test_against_order_closure(self, n, hasse):
        # oracle: reachability sets through the covering graph give the
        # common upper bounds; their unique minimal element is the join
        g = hasse[n]
        above = []
        for i in range(g.n_vertices):  # coarser shapes have lower indices
            s = {i}
            for j in g.up[i]:
                s |= above[j]
            above.append(s)
        for i in range(g.n_vertices):
            for j in range(i, g.n_vertices):
                ub = above[i] & above[j]
                least = [u for u in ub if all(v in above[u] for v in ub)]
                assert len(least) == 1
                assert lub(g.vertices[i], g.vertices[j]) == g.vertices[least[0]]


class TestLatticeDistance:
    def test_zero_iff_equal(self):
        shapes = list(generate_all(5))
        for a in shapes:
            for b in shapes:
                d = lattice_distance(a, b)
                assert (d == 0) == (a == b)
                assert d == lattice_distance(b, a)

    def test_binary_to_star(self):
        for n in range(4, 8):
            star = TreeShape((0,), (n,))
            for b in generate_all(n, n - 1):
                assert lattice_distance(b, star) == n - 2

    def test_bounds(self):
        shapes = list(generate_all(5))
        for a in shapes:
            for b in shapes:
                if a == b:
                    continue
                ka, kb = a.n_internal, b.n_internal
                assert abs(ka - kb) <= lattice_distance(a, b) <= ka + kb - 2


class TestHasse:
    def test_n4_structure(self, hasse):
        g = hasse[4]
        assert g.n_vertices == 5
        assert g.n_edges == 5
        assert [str(v) for v in g.vertices] == [
            "0|4", "0,1|1,3", "0,1|2,2", "0,1,1|0,2,2", "0,1,2|1,1,2",
        ]
        pairs = {
            (str(g.vertices[i]), str(g.vertices[j]))
            for i in range(g.n_vertices)
            for j in g.up[i]
        }
        assert pairs == {
            ("0,1|1,3", "0|4"),
            ("0,1|2,2", "0|4"),
            ("0,1,1|0,2,2", "0,1|2,2"),
            ("0,1,2|1,1,2", "0,1|1,3"),
            ("0,1,2|1,1,2", "0,1|2,2"),
        }

    @pytest.mark.parametrize("n", range(2, 8))
    def test_vertex_count(self, n, hasse):
        from mtshapes import count_space

        assert hasse[n].n_vertices == count_space(n)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_handshake(self, n, hasse):
        plus, minus = hasse[n].degrees()
        assert plus.sum() == minus.sum() == hasse[n].n_edges

    @pytest.mark.parametrize("n", range(2, 8))
    def test_connected_with_unique_maximum(self, n, hasse):
        g = hasse[n]
        assert g.is_connected()
        maxima = [v for i, v in enumerate(g.vertices) if not g.up[i]]
        assert maxima == [TreeShape((0,), (n,))]

    @pytest.mark.parametrize("n", range(3, 8))
    def test_binaries_are_minimal(self, n, hasse):
        g = hasse[n]
        for i, v in enumerate(g.vertices):
            assert (len(g.down[i]) == 0) == (v.n_internal == n - 1)

    def test_total_degree_bound(self, hasse):
        for n in range(4, 8):
            plus, minus = hasse[n].degrees()
            total = int((plus + minus).sum())
            assert total <= hasse[n].n_vertices * max_degree(n)


class TestDiameter:
    def test_exact_small_values(self, hasse):
        assert diameter(hasse[4]) == 3
        assert diameter(hasse[5]) == 5

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_lower_bound(self, n, hasse):
        assert diameter(hasse[n]) >= 2 * (n - 3)
