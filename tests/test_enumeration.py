"""Counting recursions, closed forms, and the exhaustive generator."""

import inspect
import itertools
import math
import sys
import tracemalloc
from collections import Counter

import pytest

from mtshapes import (
    count_labeled_binary,
    count_labeled_ranked,
    count_shapes,
    count_space,
    generate_all,
    pair_table,
    validate_string,
)
from mtshapes import build_hasse, enumeration
from mtshapes.shapes import _min_leaves

# Per-K counts, checked against the published table and against two
# independent oracles below.  The published per-N totals disagree with
# their own cells at N = 5, 11, 12 (by one); the totals here are the
# cell sums, which is what any correct implementation must return.
TABLE_CELLS = {
    4: {3: 2},
    5: {3: 6, 4: 5},
    6: {3: 12, 4: 21, 5: 16},
    7: {3: 20, 4: 54, 5: 87, 6: 61},
    8: {3: 30, 4: 110, 5: 276, 6: 413, 7: 272},
    9: {3: 42, 4: 195, 5: 670, 6: 1574, 7: 2218, 8: 1385},
    10: {3: 56, 4: 315, 5: 1380, 6: 4470, 7: 9931, 8: 13291, 9: 7936},
    11: {
        3: 72, 4: 476, 5: 2541, 6: 10555, 7: 32475,
        8: 68715, 9: 87963, 10: 50521,
    },
    12: {
        3: 90, 4: 684, 5: 4312, 6: 21931, 7: 86885,
        8: 255386, 9: 517692, 10: 637329, 11: 353792,
    },
}
CONSISTENT_TOTALS = {
    2: 1, 3: 2, 4: 5, 5: 15, 6: 54, 7: 228, 8: 1108,
    9: 6092, 10: 37388, 11: 253328, 12: 1878112,
}
ZIGZAG = [1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792]  # G(N, N-1), N=3..12

K8_SEQUENCE = [1, 120, 768, 423, 496, 1494, 426, 294, 741, 156, 98, 22, 1]
EULERIAN_ROW_7 = [1, 120, 1191, 2416, 1191, 120, 1]


def eulerian(n, k):
    """Independent Eulerian-number recursion (oracle)."""
    if k < 1 or k > n:
        return 0
    if n == 1:
        return 1 if k == 1 else 0
    return (n - k + 1) * eulerian(n - 1, k - 1) + k * eulerian(n - 1, k)


def all_t_vectors(k):
    """Every valid parent vector of length k (oracle enumeration)."""
    if k == 1:
        yield (0,)
        return
    for rest in itertools.product(*(range(1, i) for i in range(2, k + 1))):
        yield (0,) + rest


def k0_k1(t):
    """How many ranks are absent from ``t[1:]`` and how many appear there
    exactly once (the placeholder 0 is never counted)."""
    seen = Counter(t[1:])
    ranks = range(1, len(t) + 1)
    return sum(seen[r] == 0 for r in ranks), sum(seen[r] == 1 for r in ranks)


def count_by_t_sum(n, k):
    """G(N, K) by direct summation over all (k-1)! parent vectors,
    independent of the pair-table recursion."""
    total = 0
    for t in all_t_vectors(k):
        k0, k1 = k0_k1(t)
        top = n - 2 * k0 - k1 + k - 1
        if top >= k - 1 >= 0:
            total += math.comb(top, k - 1)
    return total


def valid_pairs(k):
    """All (k0, k1) pairs achievable by a length-``k`` parent vector,
    written out by hand: ``(k - 1)**2 // 4 + 1`` of them."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k == 2:
        return frozenset({(1, 1)})
    pairs = {(1, k - 1), (k - 1, 0)}
    for k0 in range(2, k - 1):
        for k1 in range(max(0, k - 2 * k0 + 1), k - k0):
            pairs.add((k0, k1))
    return frozenset(pairs)


def reference_pair_tables(k_max):
    """The pair tables for k = 2..``k_max`` as (k, entries), each pulled
    from the one before over ``valid_pairs`` by the three-term recursion
    (the library pushes instead)."""
    table = {(1, 1): 1}
    yield 2, tuple(table.items())
    for kk in range(3, k_max + 1):
        table = {
            (k0, k1): table.get((k0 - 1, k1), 0) * (kk - k0 - k1)
            + table.get((k0 - 1, k1 + 1), 0) * (k1 + 1)
            + table.get((k0, k1 - 1), 0) * k0
            for k0, k1 in valid_pairs(kk)
        }
        yield kk, tuple(sorted(table.items()))


def reference_pair_entries(k):
    """The pair table for ``k``, with no table shared between calls."""
    *_, (_, entries) = reference_pair_tables(k)
    return entries


def reference_count_shapes(n, k, entries):
    """G(N, K) summed pair by pair over ``entries``, the pair table for
    ``k`` (ignored for k = 1)."""
    if not 1 <= k <= n - 1:
        return 0
    if k == 1:
        return 1
    total = 0
    for (k0, k1), a in entries:
        top = n - 2 * k0 - k1 + k - 1
        if top >= k - 1:
            total += a * math.comb(top, k - 1)
    return total


class TestK0K1:
    def test_examples(self):
        assert k0_k1((0, 1, 1)) == (2, 0)
        assert k0_k1((0, 1, 2)) == (1, 2)
        assert k0_k1((0,)) == (1, 0)


class TestValidPairs:
    def test_k3(self):
        assert valid_pairs(3) == {(2, 0), (1, 2)}

    def test_k4(self):
        assert valid_pairs(4) == {(1, 3), (2, 1), (3, 0)}

    def test_k8_cardinality(self):
        assert len(valid_pairs(8)) == 13

    @pytest.mark.parametrize("k", range(2, 21))
    def test_cardinality_formula(self, k):
        assert len(valid_pairs(k)) == (k - 1) ** 2 // 4 + 1

    @pytest.mark.parametrize("k", range(2, 11))
    def test_matches_enumerated_vectors(self, k):
        seen = {k0_k1(t) for t in all_t_vectors(k)}
        assert seen == set(valid_pairs(k))

    def test_domain(self):
        with pytest.raises(ValueError):
            valid_pairs(1)


class TestPairTable:
    def test_k4(self):
        assert dict(pair_table(4).entries) == {(1, 3): 1, (2, 1): 4, (3, 0): 1}

    def test_k8_sequence(self):
        assert [v for _, v in pair_table(8).entries] == K8_SEQUENCE

    def test_k8_row_sums_are_eulerian(self):
        sums = pair_table(8).row_sums()
        assert [sums[k0] for k0 in range(1, 8)] == EULERIAN_ROW_7

    @pytest.mark.parametrize("k", range(2, 12))
    def test_row_sums_match_eulerian_oracle(self, k):
        for k0, total in pair_table(k).row_sums().items():
            assert total == eulerian(k - 1, k0)

    @pytest.mark.parametrize("k", range(2, 12))
    def test_total_is_factorial(self, k):
        assert sum(v for _, v in pair_table(k).entries) == math.factorial(k - 1)

    @pytest.mark.parametrize("k", range(3, 12))
    def test_extreme_entries_are_one(self, k):
        table = dict(pair_table(k).entries)
        assert table[(1, k - 1)] == 1
        assert table[(k - 1, 0)] == 1

    @pytest.mark.parametrize("k", range(2, 10))
    def test_matches_direct_enumeration(self, k):
        direct = Counter(k0_k1(t) for t in all_t_vectors(k))
        assert dict(direct) == dict(pair_table(k).entries)


class TestAgainstReference:
    def test_pair_tables(self):
        for k, entries in reference_pair_tables(149):
            assert pair_table(k).entries == entries, k
            assert {pair for pair, _ in entries} == valid_pairs(k), k
            assert all(a > 0 for _, a in entries), k

    def test_counts(self):
        for k in range(1, 41):
            entries = reference_pair_entries(k) if k >= 2 else ()
            for n in range(2, 61):
                assert count_shapes(n, k) == reference_count_shapes(n, k, entries), (n, k)

    def test_large_k_needs_no_deep_recursion(self):
        expected = reference_count_shapes(160, 150, reference_pair_entries(150))
        enumeration._pair_entries.cache_clear()
        enumeration._weight_sums.cache_clear()
        limit = sys.getrecursionlimit()
        depth = len(inspect.stack(0))
        sys.setrecursionlimit(depth + 50)
        try:
            got = count_shapes(160, 150)
        finally:
            sys.setrecursionlimit(limit)
        assert got == expected


class TestCountCap:
    def test_count_space_refuses_past_cap_before_any_table(self):
        enumeration._pair_entries.cache_clear()
        n = enumeration.MAX_COUNT_TIPS + 1
        with pytest.raises(ValueError, match=f"^n must be <= MAX_COUNT_TIPS = 150, got {n}$"):
            count_space(n)
        assert enumeration._pair_entries.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "call",
        [lambda: count_shapes(10**6, 151), lambda: pair_table(151), lambda: pair_table(10**9)],
        ids=["count_shapes", "pair_table", "pair_table-huge"],
    )
    def test_k_past_cap_refused_before_any_table(self, call, monkeypatch):
        def fail(k):
            raise AssertionError(f"table {k} built")

        monkeypatch.setattr(enumeration, "_pair_entries", fail)
        monkeypatch.setattr(enumeration, "_weight_sums", fail)
        with pytest.raises(ValueError, match=r"^k must be <= MAX_COUNT_TIPS = 150, got \d+$"):
            call()


class TestCountShapes:
    def test_published_cells(self):
        for n, row in TABLE_CELLS.items():
            for k, value in row.items():
                assert count_shapes(n, k) == value

    @pytest.mark.parametrize("n", range(2, 21))
    def test_small_k(self, n):
        assert count_shapes(n, 1) == 1
        if n >= 3:
            assert count_shapes(n, 2) == n - 2
        if n >= 4:
            assert count_shapes(n, 3) == (n - 2) * (n - 3)

    def test_binary_column_is_zigzag(self):
        assert [count_shapes(n, n - 1) for n in range(3, 13)] == ZIGZAG

    def test_out_of_range_is_zero(self):
        assert count_shapes(6, 0) == 0
        assert count_shapes(6, 6) == 0
        assert count_shapes(6, 99) == 0
        assert count_shapes(10, 151) == 0  # past MAX_COUNT_TIPS, still just zero

    def test_domain(self):
        with pytest.raises(ValueError):
            count_shapes(1, 1)

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_against_t_sum_oracle(self, n):
        for k in range(1, n):
            assert count_shapes(n, k) == count_by_t_sum(n, k)

    def test_upper_bound(self):
        for n in range(4, 16):
            for k in range(2, n):
                assert count_shapes(n, k) <= n ** (k - 1)

    def test_polynomials(self):
        # closed polynomial forms of G(N, K) for K = 4..8
        polys = {
            4: lambda n: (n - 3) * (n - 4) * (2 * n - 5) // 2,
            5: lambda n: (n - 4) * (n - 5) * (2 * n * n - 13 * n + 22) // 2,
            6: lambda n: (n - 5) * (n - 6)
            * (6 * n**3 - 72 * n**2 + 296 * n - 419) // 6,
            7: lambda n: (n - 6) * (n - 7)
            * (24 * n**4 - 456 * n**3 + 3315 * n**2 - 10955 * n + 13912) // 24,
            8: lambda n: (n - 7) * (n - 8)
            * (
                120 * n**5 - 3300 * n**4 + 36871 * n**3
                - 209525 * n**2 + 606234 * n - 715020
            ) // 120,
        }
        for k, poly in polys.items():
            for n in range(k + 1, 21):
                assert count_shapes(n, k) == poly(n), (n, k)


class TestCountSpace:
    def test_totals_consistent_with_cells(self):
        for n, total in CONSISTENT_TOTALS.items():
            assert count_space(n) == total
            assert total == sum(count_shapes(n, k) for k in range(1, n))

    def test_large_value_computes(self):
        totals = [count_space(n) for n in range(2, 21)]
        assert all(a < b for a, b in zip(totals, totals[1:]))
        # log G(N) grows like O(N log N), far below the crude bound
        assert math.log(totals[-1]) < 20 * math.log(20)


class TestLabeledCounts:
    def test_ranked_multifurcating(self):
        assert count_labeled_ranked(1) == 1
        assert count_labeled_ranked(8) == 10_270_696
        assert count_labeled_ranked(12) == 237_106_822_506_952

    def test_ranked_multifurcating_matches_stirling_triangle(self):
        # f(m) = sum_k S(m, k) f(k), read off the whole Stirling triangle
        n = 120
        stirling = [[1]]
        for m in range(1, n + 1):
            row = [0] * (m + 1)
            for k in range(1, m + 1):
                prev = stirling[m - 1]
                row[k] = k * (prev[k] if k < m else 0) + prev[k - 1]
            stirling.append(row)
        f = [0] * (n + 1)
        f[1] = 1
        for m in range(2, n + 1):
            f[m] = sum(stirling[m][k] * f[k] for k in range(1, m))
        assert [count_labeled_ranked(m) for m in range(1, n + 1)] == f[1:]

    def test_ranked_multifurcating_keeps_one_row(self):
        tracemalloc.start()
        try:
            count_labeled_ranked(400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_ranked_multifurcating_column(self):
        expected = [4, 32, 436, 9012, 262760, 10270696, 518277560]
        assert [count_labeled_ranked(n) for n in range(3, 10)] == expected

    def test_ranked_binary(self):
        assert count_labeled_binary(2) == 1
        assert count_labeled_binary(3) == 3
        assert count_labeled_binary(8) == 1_587_600

    def test_domain(self):
        with pytest.raises(ValueError):
            count_labeled_ranked(0)
        with pytest.raises(ValueError):
            count_labeled_binary(0)


class TestGenerateAll:
    def test_four_tips(self):
        assert [s.to_text() for s in generate_all(4)] == [
            "0|4",
            "0,1|1,3",
            "0,1|2,2",
            "0,1,1|0,2,2",
            "0,1,2|1,1,2",
        ]

    def test_counts_match_formula(self):
        for n in range(2, 9):
            per_k = Counter(s.n_internal for s in generate_all(n))
            for k in range(1, n):
                assert per_k[k] == count_shapes(n, k)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_shape_passes_validate_string(self, n):
        # generate_all builds its shapes without validating them
        for s in generate_all(n):
            assert validate_string(s.t, s.l, n) is None, s
            assert type(s.t) is tuple and type(s.l) is tuple

    def test_no_duplicates(self):
        shapes = list(generate_all(8))
        assert len(shapes) == len(set(shapes)) == count_space(8)

    def test_fixed_k(self):
        shapes = list(generate_all(7, 4))
        assert len(shapes) == 54
        assert all(s.n_internal == 4 for s in shapes)

    def test_histogram_matches_pair_table(self):
        # distinct t vectors seen during generation, bucketed by (k0, k1);
        # every pair satisfies 2*k0 + k1 <= 8, so none is truncated away
        distinct = Counter(
            k0_k1(t) for t in {s.t for s in generate_all(8, 5)}
        )
        assert dict(distinct) == dict(pair_table(5).entries)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            list(generate_all(10))
        assert sum(1 for _ in generate_all(10, 2)) == 8

    def test_cap_is_a_shape_count(self):
        cap = enumeration.MAX_GENERATED_SHAPES
        assert count_space(9) <= cap < count_space(10)
        with pytest.raises(ValueError, match=r"^exhaustive generation at n=10 yields 37388 shapes"):
            next(generate_all(10))
        with pytest.raises(ValueError, match="37388 shapes"):
            build_hasse(10)
        with pytest.raises(ValueError, match="n=12, k=8 yields 255386 shapes"):
            next(generate_all(12, 8))
        assert sum(1 for _ in generate_all(30, 3)) == count_shapes(30, 3)

    def test_large_k_refused_before_counting(self):
        # 2^(K-2) passes the cap at K = 16; no pair table that size is built
        enumeration._pair_entries.cache_clear()
        with pytest.raises(ValueError, match=r"n=1000, k=500 yields at least 2\^498 shapes"):
            next(generate_all(1000, 500))
        with pytest.raises(ValueError, match=r"n=400 yields at least 2\^397 shapes"):
            next(generate_all(400))
        assert enumeration._pair_entries.cache_info().currsize <= 15

    def test_lower_bound_behind_refusal(self):
        # The 2^(K-2) parent vectors with t_i in {i-2, i-1} each need exactly
        # K + 1 tips, so G(n, K) >= 2^(K-2) for every n > K.
        for k in range(2, 10):
            heads = itertools.product(*([i - 2, i - 1] for i in range(3, k + 1)))
            for rest in heads:
                t = (0, 1) + rest
                assert sum(_min_leaves(t)) == k + 1
        for n in range(3, 15):
            for k in range(2, n):
                assert count_shapes(n, k) >= 2 ** (k - 2)

    def test_deterministic_order(self):
        shapes = list(generate_all(6))
        assert shapes == sorted(shapes)
        assert shapes == list(generate_all(6))
