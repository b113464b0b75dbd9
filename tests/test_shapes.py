"""Encodings, validation, collapse, and serialization of tree shapes."""

import copy
import dataclasses
import itertools
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtshapes import (
    EdgeNotPresentError,
    InvalidShapeError,
    ParseError,
    TreeShape,
    collapse_edge,
    collapse_edge_fmatrix,
    generate_all,
    lattice_distance,
    lub,
    present_edges,
    string_to_dmatrix,
    validate_fmatrix,
    validate_string,
)
from mtshapes.chains import MAX_CHAIN_TIPS, RunResult, semi_random_init
from mtshapes.coalescent import UNIFORM_MEASURE, sample_topologies
from mtshapes.enumeration import _compositions
from mtshapes.shapes import fmatrix_to_string, string_to_fmatrix
from mtshapes import shapes as shapes_module

# 7x7 binary pair used in the worked least-upper-bound example.
FX = np.array(
    [
        [2, 0, 0, 0, 0, 0, 0],
        [1, 3, 0, 0, 0, 0, 0],
        [0, 2, 4, 0, 0, 0, 0],
        [0, 2, 3, 5, 0, 0, 0],
        [0, 1, 2, 4, 6, 0, 0],
        [0, 1, 2, 4, 5, 7, 0],
        [0, 1, 2, 3, 4, 6, 8],
    ]
)
FY = np.array(
    [
        [2, 0, 0, 0, 0, 0, 0],
        [1, 3, 0, 0, 0, 0, 0],
        [0, 2, 4, 0, 0, 0, 0],
        [0, 2, 3, 5, 0, 0, 0],
        [0, 1, 2, 4, 6, 0, 0],
        [0, 1, 2, 4, 5, 7, 0],
        [0, 1, 2, 4, 5, 6, 8],
    ]
)

FIG3 = TreeShape((0, 1, 2, 3, 3), (3, 1, 2, 3, 3))


def all_shapes(n):
    return list(generate_all(n))


def fmatrix_candidates(n):
    """Every lower-triangular matrix whose diagonal and subdiagonal obey
    F1 (diagonal ending at n) and whose other entries lie in
    0..F[j][j]."""
    for k in range(1, n):
        free = [(i, j) for j in range(k) for i in range(j + 2, k)]
        for head in itertools.combinations(range(2, n), k - 1):
            diag = head + (n,)
            for values in itertools.product(*(range(diag[j] + 1) for _, j in free)):
                m = np.diag(diag)
                m[range(1, k), range(k - 1)] = np.array(diag[:-1]) - 1
                for (i, j), x in zip(free, values):
                    m[i, j] = x
                yield m


class TestValidateString:
    def test_star(self):
        assert validate_string((0,), (4,)) is None

    def test_twelve_tip_example(self):
        assert validate_string((0, 1, 2, 3, 3), (3, 1, 2, 3, 3), n=12) is None

    def test_s3_violation(self):
        # node 2 has no internal children, so one leaf is too few
        assert validate_string((0, 1), (2, 1)) == "S3"

    def test_s1_violations(self):
        assert validate_string((1,), (2,)) == "S1"
        assert validate_string((0, 2), (1, 2)) == "S1"
        assert validate_string((0, 0), (1, 2)) == "S1"

    def test_s2_violations(self):
        assert validate_string((0, 1), (-1, 4)) == "S2"
        assert validate_string((0,), (4,), n=5) == "S2"

    def test_s4_violation(self):
        # node 1 has exactly one internal child and no leaf
        assert validate_string((0, 1, 1), (0, 2, 2)) is None
        assert validate_string((0, 1), (0, 4)) == "S4"

    def test_structural_errors(self):
        with pytest.raises(ValueError):
            validate_string((0, 1), (4,))
        with pytest.raises(ValueError):
            validate_string((), ())
        with pytest.raises(TypeError):
            validate_string((0.5,), (4,))


def reference_validate_string(t, l, n=None):
    """``validate_string`` before its one-pass rewrite: S1 over ``t``, then
    S2, then S3/S4 from each node's fewest allowed leaves."""
    k = len(t)
    if t[0] != 0:
        return "S1"
    for i in range(1, k):
        if not 1 <= t[i] <= i:
            return "S1"
    if any(x < 0 for x in l):
        return "S2"
    if n is not None and sum(l) != n:
        return "S2"
    counts = [0] * (k + 1)
    for x in t:
        counts[x] += 1
    mins = [2 - c if c < 2 else 0 for c in counts[1:]]
    if any(m > x for m, x in zip(mins, l)):
        return "S3" if any(m == 2 and x < 2 for m, x in zip(mins, l)) else "S4"
    return None


def vector_pairs(n):
    """Pairs (t, l) with n leaves and K <= n - 1, where t[0] is 0 or 1 and
    t[i] lies in 0..i+1.  A t that passes S1 meets every leaf vector; one
    that breaks S1 meets only the first, since S1 is checked first."""
    for k in range(1, n):
        leaves = list(_compositions(n, k))
        for t in itertools.product((0, 1), *(range(i + 2) for i in range(1, k))):
            s1 = t[0] == 0 and all(1 <= p <= i for i, p in enumerate(t) if i)
            for l in leaves if s1 else leaves[:1]:
                yield t, l


class TestValidateStringReference:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_small_pair_matches_reference(self, n):
        seen = set()
        for t, l in vector_pairs(n):
            got = validate_string(t, l, n)
            assert got == reference_validate_string(t, l, n), (t, l)
            seen.add(got)
        assert seen == ({None, "S1", "S3", "S4"} if n > 2 else {None, "S1"})

    def test_seeded_perturbed_pairs_match_reference(self):
        rng = np.random.default_rng(20)
        seen = set()
        for _ in range(3000):
            s = semi_random_init(20, int(rng.integers(1, 20)), rng)
            t, l = list(s.t), list(s.l)
            for _ in range(int(rng.integers(1, 4))):
                v = t if rng.random() < 0.5 else l
                i = int(rng.integers(len(v)))
                v[i] += int(rng.integers(-2, 3))
            for n in (20, None):
                got = validate_string(t, l, n)
                assert got == reference_validate_string(t, l, n), (t, l, n)
                seen.add(got)
        assert seen == {None, "S1", "S2", "S3", "S4"}


class TestValidateFmatrix:
    def test_worked_example_matrices(self):
        assert validate_fmatrix(FX) is None
        assert validate_fmatrix(FY, n=8) is None

    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    def test_one_by_one(self, n):
        assert validate_fmatrix([[n]]) is None

    def test_one_by_one_too_small(self):
        assert validate_fmatrix([[1]]) == "F1"

    def test_subdiagonal_violation(self):
        assert validate_fmatrix([[3, 0], [1, 4]]) == "F1"

    def test_first_column_violation(self):
        m = [[2, 0, 0], [1, 3, 0], [0, 2, 4]]
        assert validate_fmatrix(m) is None
        m[2][0] = 2  # exceeds the entry above
        assert validate_fmatrix(m) == "F2"

    def test_structural_errors(self):
        with pytest.raises(ValueError):
            validate_fmatrix([[2, 0, 0], [1, 3, 0]])
        with pytest.raises(ValueError):
            validate_fmatrix([[2, 1], [1, 3]])
        with pytest.raises(ValueError):
            validate_fmatrix([[2, 0], [-1, 3]])

    @pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan"), 1e300, 2.5])
    def test_float_entry_must_be_an_int64_integer(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast of inf, nan or 1e300
            with pytest.raises(ValueError, match="^matrix entries must be integers$"):
                validate_fmatrix([[x]])

    def test_integral_float_entries_are_read_as_ints(self):
        assert validate_fmatrix([[2.0]]) is None
        assert validate_fmatrix([[2.0, 0.0], [1.0, 3.0]], n=3) is None
        assert validate_fmatrix([[1.0]]) == "F1"

    def test_every_generated_fmatrix_is_valid(self):
        for n in range(2, 8):
            for s in all_shapes(n):
                assert validate_fmatrix(s.fmatrix(), n=n) is None

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rules_accept_only_generated_fmatrices(self, n):
        # Completeness: no matrix outside the shape space passes F1-F3c.
        accepted = {
            tuple(map(tuple, m.tolist()))
            for m in fmatrix_candidates(n)
            if validate_fmatrix(m, n=n) is None
        }
        generated = {tuple(map(tuple, s.fmatrix().tolist())) for s in all_shapes(n)}
        assert accepted == generated


def reference_validate_fmatrix(f, n=None):
    """The F-rule check on index grids and zero-padded shifted copies,
    kept as an independent oracle for ``validate_fmatrix``."""
    m = np.asarray(f, dtype=np.int64)
    k = m.shape[0]
    d = np.diag(m)
    if d[0] < 2 or np.any(np.diff(d) <= 0):
        return "F1"
    if n is not None and d[-1] != n:
        return "F1"
    idx = np.arange(k - 1)
    if np.any(m[idx + 1, idx] != d[:-1] - 1):
        return "F1"
    step0 = m[1:-1, 0] - m[2:, 0]
    if np.any((step0 < 0) | (step0 > 1)):
        return "F2"
    rows, cols = np.indices((k, k))
    interior = (rows >= 3) & (cols >= 1) & (cols <= rows - 2)
    left = np.zeros_like(m)
    left[:, 1:] = m[:, :-1]
    if np.any(interior & (m < left)):
        return "F3a"
    up = np.zeros_like(m)
    up[1:, :] = m[:-1, :]
    if np.any(interior & ((m < up - 1) | (m > up))):
        return "F3b"
    upleft = np.zeros_like(m)
    upleft[1:, 1:] = m[:-1, :-1]
    grid = (up - m) - (upleft - left)
    if np.any(interior & ((grid < 0) | (grid > 1))):
        return "F3c"
    return None


def perturbed_fmatrix(n, k, seed, changes):
    """A valid F-matrix with some lower-triangle entries shifted by
    -2..2 (clipped at 0); ``changes`` holds (row, columns left of the
    diagonal, delta) draws, reduced into the triangle."""
    m = semi_random_init(n, k, np.random.default_rng(seed)).fmatrix()
    for row, back, delta in changes:
        i = row % k
        j = max(0, i - back)
        m[i, j] = max(0, m[i, j] + delta)
    return m


def assert_decodes_to_itself(m):
    """An accepted matrix decodes to a valid shape that re-encodes to it:
    the decoder trusts the F rules to leave one parent per row."""
    t, l = fmatrix_to_string(m)
    assert validate_string(t, l) is None
    assert np.array_equal(string_to_fmatrix(t, l), m)


class TestValidateFmatrixReference:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_candidate_matches_reference(self, n):
        for m in fmatrix_candidates(n):
            assert validate_fmatrix(m, n=n) == reference_validate_fmatrix(m, n=n)

    def test_seeded_perturbations_reach_every_rule(self):
        rng = np.random.default_rng(8)
        seen = set()
        for _ in range(4000):
            n = int(rng.integers(2, 51))
            k = int(rng.integers(1, n))
            # mostly near the diagonal, where the rules meet
            changes = [
                (int(rng.integers(k)), int(rng.geometric(0.3)) - 1, int(rng.integers(-2, 3)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            m = perturbed_fmatrix(n, k, int(rng.integers(2**32)), changes)
            got = validate_fmatrix(m)
            assert got == reference_validate_fmatrix(m)
            if got is None:
                assert_decodes_to_itself(m)
            seen.add(got)
        assert seen == {None, "F1", "F2", "F3a", "F3b", "F3c"}

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 50),
        k_frac=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
        changes=st.lists(
            st.tuples(st.integers(0, 48), st.integers(0, 48), st.integers(-2, 2)),
            max_size=4,
        ),
    )
    def test_perturbed_matrices_match_reference(self, n, k_frac, seed, changes):
        k = 1 + int(k_frac * (n - 2))
        m = perturbed_fmatrix(n, k, seed, changes)
        assert validate_fmatrix(m) == reference_validate_fmatrix(m)
        assert validate_fmatrix(m, n=n) == reference_validate_fmatrix(m, n=n)
        if validate_fmatrix(m) is None:
            assert_decodes_to_itself(m)


class TestConversions:
    def test_star(self):
        assert string_to_fmatrix((0,), (7,)).tolist() == [[7]]
        assert fmatrix_to_string([[7]]) == ((0,), (7,))

    def test_four_tip_caterpillar(self):
        f = string_to_fmatrix((0, 1, 2), (1, 1, 2))
        assert f.tolist() == [[2, 0, 0], [1, 3, 0], [1, 2, 4]]

    def test_twelve_tip_example_fmatrix(self):
        assert FIG3.fmatrix().tolist() == [
            [4, 0, 0, 0, 0],
            [3, 5, 0, 0, 0],
            [3, 4, 8, 0, 0],
            [3, 4, 7, 10, 0],
            [3, 4, 6, 9, 12],
        ]
        assert FIG3.fmatrix()[4, 4] == 12

    def test_worked_example_binary_pair(self):
        tx = TreeShape.from_fmatrix(FX)
        ty = TreeShape.from_fmatrix(FY)
        for s in (tx, ty):
            assert s.n_tips == 8 and s.n_internal == 7
            assert all(k + l == 2 for k, l in s.children_counts())
        assert tx.to_text() == "0,1,1,3,2,5,4|0,1,1,1,1,2,2"
        assert ty.to_text() == "0,1,1,3,2,5,6|0,1,1,2,1,1,2"

    @pytest.mark.parametrize("n", range(2, 8))
    def test_roundtrip_exhaustive(self, n):
        for s in all_shapes(n):
            f = s.fmatrix()
            assert TreeShape.from_fmatrix(f) == s

    @pytest.mark.parametrize("convert", [string_to_dmatrix, string_to_fmatrix])
    @pytest.mark.parametrize("t, l, rule", [((0, 5), (2, 2), "S1"), ((0, 1), (0, 0), "S3")])
    def test_vectors_must_pass_the_s_rules(self, convert, t, l, rule):
        with pytest.raises(InvalidShapeError) as exc:
            convert(t, l)
        assert exc.value.constraint == rule

    def test_entries_must_fit_int64(self):
        # every D- and F-matrix entry is at most N, so N < 2**63 is exact
        top = TreeShape((0, 1), (2**62 - 1, 2**62))
        assert top.fmatrix().tolist() == [[2**62, 0], [2**62 - 1, 2**63 - 1]]
        a = TreeShape((0, 1), (2**62, 2**62))
        b = TreeShape((0, 1), (2**62 - 1, 2**62 + 1))
        routes = [
            a.fmatrix,
            lambda: string_to_dmatrix(a.t, a.l),
            lambda: string_to_fmatrix(a.t, a.l),
            lambda: lub(a, b),
            lambda: lattice_distance(a, TreeShape((0,), (2**63,))),
        ]
        for route in routes:
            with pytest.raises(ValueError, match=r"^int64 F-matrix entries need n < 2\*\*63, got 9223372036854775808$"):
                route()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_dmatrix_invariants(self, n):
        # per-furcation child counts: last row sums to the tip count,
        # diagonal >= 2, column steps in {0, 1}, one drop per row
        for s in all_shapes(n):
            d = string_to_dmatrix(s.t, s.l)
            k = s.n_internal
            assert d[k - 1, :].sum() == n
            assert all(d[i, i] >= 2 for i in range(k))
            for i in range(1, k):
                steps = d[i - 1, :i] - d[i, :i]
                assert set(np.unique(steps)) <= {0, 1}
                assert steps.sum() == 1


class TestCollapse:
    def test_edge_one_always_collapsible(self):
        for n in range(3, 8):
            for s in all_shapes(n):
                if s.n_internal >= 2:
                    c = collapse_edge(s, 1)
                    assert c.n_internal == s.n_internal - 1
                    assert c.n_tips == n

    def test_smallest_case(self):
        assert collapse_edge(TreeShape((0, 1), (1, 3)), 1) == TreeShape((0,), (4,))

    def test_absent_edge(self):
        s = TreeShape((0, 1, 1), (0, 2, 2))
        with pytest.raises(EdgeNotPresentError):
            collapse_edge(s, 2)
        with pytest.raises(EdgeNotPresentError):
            collapse_edge_fmatrix(s.fmatrix(), 2)

    def test_out_of_range_is_not_edge_error(self):
        s = TreeShape((0, 1), (2, 2))
        with pytest.raises(ValueError) as err:
            collapse_edge(s, 5)
        assert not isinstance(err.value, EdgeNotPresentError)
        with pytest.raises(ValueError):
            collapse_edge(s, 0)

    def test_rank_shift(self):
        # collapsing (e, e+1) decrements parent ranks above e by one
        s = TreeShape((0, 1, 2, 3, 3), (3, 1, 2, 3, 3))
        c = collapse_edge(s, 2)
        assert c.t == (0, 1, 2, 2)
        assert c.l == (3, 3, 3, 3)

    def test_routes_agree_exhaustively(self):
        for n in range(3, 8):
            for s in all_shapes(n):
                f = s.fmatrix()
                for e in present_edges(s):
                    via_string = collapse_edge(s, e)
                    via_matrix = TreeShape.from_fmatrix(
                        collapse_edge_fmatrix(f, e)
                    )
                    assert via_string == via_matrix

    def test_collapse_to_star(self):
        # repeatedly collapsing edge (1, 2) reaches the star in K-1 steps
        for s in all_shapes(7):
            steps = 0
            while s.n_internal > 1:
                s = collapse_edge(s, 1)
                steps += 1
            assert s == TreeShape((0,), (7,))

    def test_illegal_deletion_detected(self):
        # removing a row/column that is not an edge leaves a diagonal
        # entry two above its subdiagonal, which validation rejects
        s = TreeShape((0, 1, 1), (0, 2, 2))
        f = s.fmatrix()
        e = 2
        bad = np.delete(np.delete(f, e - 1, axis=0), e - 1, axis=1)
        assert bad[e - 2, e - 2] == bad[e - 1, e - 2] + 2
        assert validate_fmatrix(bad) == "F1"


def str_join_text(s):
    """The text form as ``str`` of every count: the reference for
    ``to_text``, which formats from a table of decimal strings."""
    return ",".join(map(str, s.t)) + "|" + ",".join(map(str, s.l))


class TestSerialization:
    def test_star_text(self):
        assert TreeShape((0,), (4,)).to_text() == "0|4"
        assert TreeShape.from_text("0|4") == TreeShape((0,), (4,))

    def test_twelve_tip_example_text(self):
        assert FIG3.to_text() == "0,1,2,3,3|3,1,2,3,3"

    @pytest.mark.parametrize("n", range(2, 9))
    def test_roundtrip(self, n):
        for s in all_shapes(n):
            assert s.to_text() == str_join_text(s)
            assert TreeShape.from_text(s.to_text()) == s
            assert TreeShape.from_json(s.to_json()) == s

    def test_to_text_past_the_decimal_table(self):
        table = shapes_module._decimal.__self__
        kept = shapes_module._KEPT_DECIMALS
        # every count of a shape that run_chains accepts is kept
        assert kept > MAX_CHAIN_TIPS
        for s in (
            TreeShape((0, 1), (1023, 1024)),
            TreeShape((0, 1), (kept - 1, kept)),
            TreeShape((0,), (10**6,)),
            TreeShape((0, 1), (10**6, kept - 1)),
        ):
            assert s.to_text() == str_join_text(s)
        assert table[1024] == "1024" and table[kept - 1] == str(kept - 1)
        assert kept not in table and 10**6 not in table
        assert len(table) <= kept

    def test_samples_decode_counts_past_1023(self):
        shapes = [
            TreeShape((0,), (1500,)),
            TreeShape((0, 1), (1023, 1024)),
            TreeShape((0, 1), (10**6, 1023)),
            FIG3,
        ]
        result = RunResult([[s.to_text() for s in shapes]], [math.nan])
        assert result.samples == [shapes]
        for decoded in result.samples[0]:
            assert all(type(x) is int for x in decoded.t + decoded.l)

    def test_parse_errors_carry_offsets(self):
        with pytest.raises(ParseError) as err:
            TreeShape.from_text("0,1")
        assert err.value.offset == 3
        with pytest.raises(ParseError) as err:
            TreeShape.from_text("0|1|2")
        assert err.value.offset == 3
        with pytest.raises(ParseError) as err:
            TreeShape.from_text("0,x|2,2")
        assert err.value.offset == 2
        with pytest.raises(ParseError) as err:
            TreeShape.from_text("0,1|2,zz")
        assert err.value.offset == 6
        with pytest.raises(ParseError) as err:
            TreeShape.from_text("0|2,\u00b2")  # a digit to isdigit, not to int()
        assert err.value.offset == 4

    def test_json_errors(self):
        with pytest.raises(ParseError):
            TreeShape.from_json("{not json")
        with pytest.raises(ParseError):
            TreeShape.from_json({"t": [0]})
        with pytest.raises(ParseError):
            TreeShape.from_json({"t": [0], "l": [4], "x": 1})

    @pytest.mark.parametrize(
        "data",
        [
            {"t": "0", "l": "4"},
            {"t": 0, "l": [4]},
            {"t": [0.5], "l": [4]},
            {"t": [0], "l": [True]},
            {"t": [0], "l": None},
        ],
    )
    def test_json_vectors_must_be_integer_lists(self, data):
        with pytest.raises(ParseError, match="must be a list of integers"):
            TreeShape.from_json(data)
        with pytest.raises(ParseError, match="must be a list of integers"):
            TreeShape.from_json(json.dumps(data))

    def test_invalid_shape_is_not_parse_error(self):
        with pytest.raises(InvalidShapeError) as err:
            TreeShape.from_text("0,1|2,1")
        assert err.value.constraint == "S3"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.text(alphabet="0123-,|x \u00b2\u0663", max_size=12))
    def test_parser_matches_token_loop(self, text):
        # the per-token scan the one-pattern parser must agree with, on
        # the values it returns and on every error's type and message
        def reference(text):
            if text.count("|") != 1:
                bad = text.find("|", text.find("|") + 1)
                raise ParseError(
                    "expected exactly one '|' separator",
                    bad if bad >= 0 else len(text),
                )
            left, right = text.split("|")
            sides = []
            for side, base in ((left, 0), (right, len(left) + 1)):
                out, pos = [], 0
                for tok in side.split(","):
                    if not tok or not tok.lstrip("-").isdecimal() or tok.startswith("--"):
                        raise ParseError(f"expected an integer, got {tok!r}", base + pos)
                    out.append(int(tok))
                    pos += len(tok) + 1
                sides.append(tuple(out))
            return tuple(sides)

        def outcome(parse):
            try:
                return parse(text)
            except ValueError as e:
                return type(e), str(e), getattr(e, "offset", None)

        got = outcome(lambda x: tuple(map(tuple, shapes_module._parse_text(x))))
        assert got == outcome(reference)


class TestTreeShape:
    def test_equality_and_hash(self):
        a = TreeShape((0, 1), (2, 2))
        b = TreeShape([0, 1], [2, 2])
        assert a == b and hash(a) == hash(b)
        assert a != TreeShape((0, 1), (1, 3))

    def test_hash_agrees_across_constructors(self):
        for shape in all_shapes(6):
            t, l = shape.t, shape.l
            built = [
                TreeShape(list(t), list(l)),
                TreeShape._trusted(t, l),
                TreeShape.from_text(shape.to_text()),
            ]
            assert all(b == shape and hash(b) == hash(shape) for b in built)
            assert hash(shape) == hash((t, l))
            assert len({shape, *built}) == 1

    def test_ordering_matches_generation(self):
        shapes = all_shapes(6)
        assert shapes == sorted(shapes)

    def test_immutable(self):
        s = TreeShape((0,), (4,))
        with pytest.raises(AttributeError):
            s.t = (0, 1)

    def test_slotted_record_of_k_t_l(self):
        s = TreeShape((0, 1), (2, 2))
        assert not hasattr(s, "__dict__")
        assert [f.name for f in dataclasses.fields(TreeShape)] == ["n_internal", "t", "l"]
        for name in ("n_internal", "t", "l"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, (0,))

    @pytest.mark.parametrize("copier", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy])
    def test_copies_round_trip(self, copier):
        for shape in all_shapes(6):
            for built in (TreeShape(shape.t, shape.l), TreeShape._trusted(shape.t, shape.l)):
                back = copier(built)
                assert back == built and hash(back) == hash(built)
                assert (back.n_internal, back.t, back.l) == (len(built.t), built.t, built.l)

    def test_children_counts(self):
        assert FIG3.children_counts() == ((1, 3), (1, 1), (2, 2), (0, 3), (0, 3))

    def test_invalid_construction(self):
        with pytest.raises(InvalidShapeError):
            TreeShape((0, 1), (2, 1))

    def test_numpy_integers_accepted(self):
        arr = np.array([0, 1], dtype=np.int32)
        s = TreeShape(arr, np.array([2, 2], dtype=np.int64))
        assert s == TreeShape((0, 1), (2, 2))
        assert type(s.t) is tuple and type(s.t[1]) is int

    def test_normalised_and_validated_once(self, monkeypatch):
        calls = []
        validate = shapes_module.validate_string

        def counting_validate(*args):
            calls.append(args)
            return validate(*args)

        monkeypatch.setattr(shapes_module, "validate_string", counting_validate)
        TreeShape([0, 1, 1], [0, 2, 2])
        assert len(calls) == 1
        TreeShape.from_text("0,1,1|0,2,2")
        assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_shape_roundtrips(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n))
    s = semi_random_init(n, k, rng)
    assert s.n_tips == n and s.n_internal == k
    f = s.fmatrix()
    assert validate_fmatrix(f, n=n) is None
    assert TreeShape.from_fmatrix(f) == s
    assert TreeShape.from_text(s.to_text()) == s
    assert TreeShape.from_json(s.to_json()) == s


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_to_text_matches_str_join(n, seed):
    rng = np.random.default_rng(seed)
    shapes = [
        semi_random_init(n, int(rng.integers(1, n)), rng),
        *sample_topologies(n, UNIFORM_MEASURE, 2, rng),
    ]
    for s in shapes:
        assert s.to_text() == str_join_text(s)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_collapse_properties(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, n))
    s = semi_random_init(n, k, rng)
    edges = present_edges(s)
    e = edges[int(rng.integers(0, len(edges)))]
    c = collapse_edge(s, e)
    assert c.n_internal == s.n_internal - 1
    assert c.n_tips == s.n_tips
    assert TreeShape.from_fmatrix(collapse_edge_fmatrix(s.fmatrix(), e)) == c
