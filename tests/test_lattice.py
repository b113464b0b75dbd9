"""Refinement order: edges, degrees, least upper bounds, Hasse graphs."""

import math
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtshapes import (
    UNIFORM_MEASURE,
    InvalidShapeError,
    TreeShape,
    collapse_edge_fmatrix,
    covers,
    deg_minus,
    deg_plus,
    diameter,
    generate_all,
    lattice_distance,
    lub,
    lub_fmatrix,
    max_degree_tree,
    present_edges,
    refinements_below,
    sample_topologies,
    validate_string,
)
from mtshapes.chains import ChainState, semi_random_init, step_random_walk
from mtshapes.lattice import Neighborhood, max_degree, split_count
from mtshapes import lattice
from mtshapes import shapes as shapes_module
from test_moves import reference_split
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
        assert m == Neighborhood(tree).degree

    def test_max_degree_tree_domain(self):
        with pytest.raises(ValueError):
            max_degree_tree(3)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_max_degree_domain(self, n):
        with pytest.raises(ValueError, match=f"^n must be >= 2, got {n}$"):
            max_degree(n)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_argmax_is_unique(self, n):
        tree, m = max_degree_tree(n)
        degrees = {s: Neighborhood(s).degree for s in generate_all(n)}
        assert [s for s, d in degrees.items() if d == m] == [tree]
        assert max(degrees.values()) == m


class TestRefineNode:
    def test_split_star(self):
        # the in-test reference_split, which other tests use as an oracle,
        # against worked splits and the library's refinement set
        star = TreeShape((0,), (6,))
        assert reference_split(star, 1, (), 2) == TreeShape((0, 1), (4, 2))
        assert reference_split(star, 1, (), 5) == TreeShape((0, 1), (1, 5))
        assert refinements_below(star) == {
            reference_split(star, 1, (), j) for j in range(2, 6)
        }
        s = TreeShape((0, 1, 1), (2, 2, 2))
        assert reference_split(s, 1, (2,), 1) == TreeShape((0, 1, 2, 1), (1, 1, 2, 2))
        assert reference_split(s, 1, (2,), 1) in refinements_below(s)


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

    def test_checks_each_encoding_once(self, monkeypatch):
        tx, ty = TreeShape.from_fmatrix(FX), TreeShape.from_fmatrix(FY)
        expected = TreeShape((0, 1), (6, 2))
        calls = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(shapes_module, "validate_fmatrix")
        count(lattice, "validate_fmatrix")
        count(shapes_module, "validate_string")
        count(shapes_module, "_as_matrix")
        assert lub(tx, ty) == expected
        # only the result is checked: the inputs come from valid shapes
        assert calls == {"validate_fmatrix": 1, "_as_matrix": 1}

    @pytest.mark.parametrize(
        "fx",
        [
            [[2.7, 0], [1.2, 3]],  # would truncate to [[2, 0], [1, 3]]
            [[2, 5], [1, 3]],  # not lower triangular
        ],
    )
    def test_inputs_are_read_as_fmatrices(self, fx):
        with pytest.raises(ValueError):
            lub_fmatrix(fx, [[2, 0], [1, 3]])
        with pytest.raises(ValueError):
            lub_fmatrix([[2, 0], [1, 3]], fx)

    def test_inputs_must_have_the_same_tips(self):
        with pytest.raises(ValueError, match="^shapes must have the same number of tips$"):
            lub_fmatrix([[2, 0], [1, 3]], [[4]])

    @pytest.mark.parametrize("fx, fy", [([[3, 0], [0, 5]], [[5]]), ([[5]], [[3, 0], [0, 5]])])
    def test_inputs_must_pass_the_f_rules(self, fx, fy):
        # [[3, 0], [0, 5]] breaks F1: its subdiagonal entry is not 3 - 1
        with pytest.raises(InvalidShapeError) as exc:
            lub_fmatrix(fx, fy)
        assert exc.value.constraint == "F1"

    def test_collapse_input_must_pass_the_f_rules(self):
        # the same matrix, unchecked, would collapse to the star [[5]]
        with pytest.raises(InvalidShapeError) as exc:
            collapse_edge_fmatrix([[3, 0], [0, 5]], 1)
        assert exc.value.constraint == "F1"

    def test_violating_columns_match_loop(self):
        # the per-column loop the vectorised pass replaced
        def reference(m):
            bad = []
            for j in range(m.shape[0]):
                col = m[j:, j]
                if len(col) >= 2 and (
                    col[0] - 1 != col[1] or np.any(col[:-1] - col[1:] >= 2)
                ):
                    bad.append(j)
            return bad

        rng = np.random.default_rng(5)
        for _ in range(500):
            k = int(rng.integers(1, 12))
            m = np.tril(rng.integers(0, 6, size=(k, k)))
            assert lattice._violating_columns(m) == reference(m)

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

    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_hasse_bfs_distance(self, n, hasse):
        # every pair, against breadth-first search over the covering
        # graph; N = 7 (25878 pairs) is left out for its run time
        g = hasse[n]
        for start in range(g.n_vertices):
            dist = {start: 0}
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for w in g.neighbors(v):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        queue.append(w)
            for other in range(start + 1, g.n_vertices):
                assert lattice_distance(
                    g.vertices[start], g.vertices[other]
                ) == dist[other]


@st.composite
def shape_triples(draw):
    """Three shapes with the same N = 2..50 tips.  Each is a semi-random or
    a Beta(1, 1) coalescent draw, or the shape before it moved by a few
    random-walk steps, so that some pairs lie close in the lattice."""
    n = draw(st.integers(2, 50))
    shapes = []
    for _ in range(3):
        rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
        source = draw(st.sampled_from(["semi-random", "coalescent", "walk"]))
        if source == "walk" and shapes and n > 2:  # N = 2 has one shape
            state = ChainState(shapes[-1])
            for _ in range(draw(st.integers(1, 8))):
                step_random_walk(state, rng)
            shapes.append(state.shape)
        elif source == "coalescent":
            shapes.append(sample_topologies(n, UNIFORM_MEASURE, 1, rng)[0])
        else:
            shapes.append(semi_random_init(n, draw(st.integers(1, n - 1)), rng))
    return tuple(shapes)


class TestLatticeLaws:
    @settings(deadline=None, derandomize=True)
    @given(shape_triples())
    def test_lub_is_a_join(self, abc):
        a, b, c = abc
        ab = lub(a, b)
        assert validate_string(ab.t, ab.l, a.n_tips) is None
        assert lub(b, a) == ab
        assert lub(a, a) == a
        assert np.array_equal(lub_fmatrix(a.fmatrix(), a.fmatrix()), a.fmatrix())
        assert lub(a, lub(b, c)) == lub(ab, c)
        assert lub(a, ab) == ab and lub(b, ab) == ab

    @settings(deadline=None, derandomize=True)
    @given(shape_triples())
    def test_distance_is_a_metric(self, abc):
        a, b, c = abc
        d_ab = lattice_distance(a, b)
        assert d_ab == lattice_distance(b, a)
        assert lattice_distance(a, c) <= d_ab + lattice_distance(b, c)


def graph_from_covers(n, vertices, up, down):
    """A hand-built ``LatticeGraph`` over ``vertices``, in which vertex i is
    covered by the vertices ``up[i]`` and covers ``down[i]``.  Its columns
    and edge arrays are written out from those lists, and the shapes and
    lists that it derives on first read are checked against them."""
    ks = np.array([v.n_internal for v in vertices], dtype=np.int64)
    t, l = np.zeros((2, len(vertices), max(ks, default=1)), dtype=np.int64)
    for i, v in enumerate(vertices):
        t[i, : v.n_internal], l[i, : v.n_internal] = v.t, v.l
    lower = np.array([i for i, ups in enumerate(up) for _ in ups], dtype=np.intp)
    upper = np.array([j for ups in up for j in ups], dtype=np.intp)
    g = lattice.LatticeGraph(n, ks, t, l, lower, upper)
    assert (g.vertices, g.up, g.down) == (tuple(vertices), tuple(up), tuple(down))
    assert g.index == {v: i for i, v in enumerate(vertices)}
    return g


def reference_build_hasse(n):
    """The covering graph built shape by shape through ``covers``, one
    collapse and one shape lookup per covering edge."""
    vertices = tuple(generate_all(n))
    index = {v: i for i, v in enumerate(vertices)}
    up = tuple(tuple(sorted(index[c] for c in covers(v))) for v in vertices)
    down = [[] for _ in vertices]
    for i, ups in enumerate(up):
        for j in ups:
            down[j].append(i)
    return graph_from_covers(n, vertices, up, tuple(tuple(d) for d in down))


class TestHasse:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_equals_the_cover_by_cover_build(self, n):
        got, want = lattice.build_hasse(n), reference_build_hasse(n)
        assert got.vertices == tuple(generate_all(n))
        # the edge arrays list the reference's cover pairs in its order
        pairs = [(i, j) for i, ups in enumerate(want.up) for j in ups]
        assert list(zip(got.lower.tolist(), got.upper.tolist())) == pairs
        assert got.n == want.n
        assert got.vertices == want.vertices
        assert got.up == want.up
        assert got.down == want.down
        assert list(got.index.items()) == list(want.index.items())
        assert all(type(u) is tuple for u in got.up + got.down)

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


def reference_diameter(graph):
    """Diameter by a separate breadth-first search from every vertex."""
    best = 0
    for start in range(graph.n_vertices):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in graph.up[v] + graph.down[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if len(dist) != graph.n_vertices:
            raise ValueError("graph is not connected")
        best = max(best, max(dist.values()))
    return best


class TestDiameter:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_all_pairs_reference(self, n, hasse):
        assert diameter(hasse[n]) == reference_diameter(hasse[n])

    @pytest.mark.parametrize("n", range(4, 9))
    def test_is_2n_minus_5(self, n, hasse):
        g = hasse[n] if n in hasse else lattice.build_hasse(n)
        assert diameter(g) == 2 * n - 5

    def test_one_and_two_vertices(self, hasse):
        assert hasse[2].n_vertices == 1 and diameter(hasse[2]) == 0
        assert hasse[3].n_vertices == 2 and diameter(hasse[3]) == 1

    def test_exact_small_values(self, hasse):
        assert diameter(hasse[4]) == 3
        assert diameter(hasse[5]) == 5

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_lower_bound(self, n, hasse):
        assert diameter(hasse[n]) >= 2 * (n - 3)

    def test_disconnected_graph(self):
        a, b = TreeShape((0,), (4,)), TreeShape((0, 1), (2, 2))
        g = graph_from_covers(4, (a, b), up=((), ()), down=((), ()))
        assert g.is_connected() is False
        with pytest.raises(ValueError, match="not connected"):
            diameter(g)

    def test_two_components_with_edges(self):
        # 0 - 1 and 2 - 3 - 4: every vertex has a neighbour, yet no row of
        # the all-sources search ever fills.
        shapes = tuple(TreeShape((0,), (m,)) for m in range(2, 7))
        g = graph_from_covers(
            0, shapes, up=((1,), (), (3,), (4,), ()), down=((), (0,), (), (2,), (3,))
        )
        assert g.is_connected() is False
        with pytest.raises(ValueError, match="not connected"):
            reference_diameter(g)
        with pytest.raises(ValueError, match="not connected"):
            diameter(g)
