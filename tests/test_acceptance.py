"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with ``pytest -s``;
``pytest -v`` shows the same verdicts as test outcomes).

Three reference values asserted here are internally inconsistent with
the published data they accompany and are refuted by the independent
oracles this suite computes:

* the per-N totals 16 (N=5), 253327 (N=11) and 1878111 (N=12) disagree
  with the sums of their own per-K cells (15, 253328, 1878112) -- the
  cells are confirmed by two independent enumerations;
* a uniform per-shape frequency of 1/16 at N=5 presumes that miscount
  (the space has 15 shapes);
* the claimed exhaustive bottleneck ratios (1/M_N for the symmetric
  chain, 1 for the random walk) are attained by the degree-1 singleton
  subset but are not the minimum over all subsets.

Those assertions are kept verbatim and marked strict xfail; each is
paired with a passing companion asserting the consistent value.  So is
one bound that the exact layer refutes: the lazy random walk's upper
bound 8 log(4 M_N G(N)) is below the lower bound (t_rel - 1) log 2 on its
mixing time at N = 8.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from mtshapes import (
    TreeShape,
    UNIFORM_MEASURE,
    aggregate,
    build_hasse,
    count_labeled_binary,
    count_labeled_ranked,
    count_shapes,
    count_space,
    deg_minus,
    deg_plus,
    diameter,
    exact_bottleneck,
    exact_gap,
    exact_kernel,
    generate_all,
    lattice_distance,
    lub,
    lub_fmatrix,
    max_degree_tree,
    mixing_bounds,
    pair_table,
    run_chains,
    sample_topologies,
    shape_stats,
    stationary_distribution,
    validate_fmatrix,
)
from mtshapes.chains import (
    ChainState,
    semi_random_init,
    step_mh_uniform,
)
from mtshapes.lattice import Neighborhood, max_degree
from test_chains import semi_random_fmatrix
from test_enumeration import TABLE_CELLS, eulerian
from test_shapes import FX, FY

STATED_TOTALS = {
    4: 5, 5: 16, 6: 54, 7: 228, 8: 1108,
    9: 6092, 10: 37388, 11: 253327, 12: 1878111,
}


def report(line):
    print(f"\nACCEPTANCE {line}", flush=True)


@pytest.fixture(scope="module")
def graphs():
    return {n: build_hasse(n) for n in range(4, 8)}


@pytest.fixture(scope="module")
def mh5_frequencies():
    """Pooled 10^6 Metropolis-Hastings steps at N=5 (10 chains x 10^5)."""
    n_chains, steps = 10, 100_000
    counts = Counter()
    for i, seq in enumerate(np.random.SeedSequence(1).spawn(n_chains)):
        rng = np.random.Generator(np.random.PCG64(seq))
        state = ChainState(semi_random_init(5, (i % 4) + 1, rng))
        for _ in range(steps):
            step_mh_uniform(state, rng)
            counts[state.shape] += 1
    total = n_chains * steps
    return {s: c / total for s, c in counts.items()}, total


@pytest.fixture(scope="module")
def uniform20():
    """19 chains x 200*N steps of uniform MH sampling at N=20."""
    return run_chains(20, n_chains=19, n_steps=4000, seed=2024)


def test_c01_enumeration_cells():
    start = time.perf_counter()
    for n, row in TABLE_CELLS.items():
        for k, value in row.items():
            assert count_shapes(n, k) == value, (n, k)
        assert count_shapes(n, 1) == 1
        assert count_shapes(n, 2) == n - 2
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(f"1 (enumeration: every published per-K cell, {elapsed:.2f}s): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="published totals at N=5,11,12 disagree with their own per-K "
    "cells by one; count_space returns the cell sums (15, 253328, 1878112)",
)
def test_c01_enumeration_totals_as_stated():
    computed = {n: count_space(n) for n in STATED_TOTALS}
    report(
        "1 (Total column as stated): FAIL expected -- stated "
        f"{STATED_TOTALS} vs cell sums {computed}"
    )
    assert computed == STATED_TOTALS


def test_c01_enumeration_totals_consistent():
    for n, row in TABLE_CELLS.items():
        cells = sum(row.values()) + 1 + (n - 2)
        assert count_space(n) == cells
    assert count_space(5) == 15
    assert count_space(11) == 253328
    assert count_space(12) == 1878112
    report("1 (totals equal their own cell sums): PASS")


def test_c02_exhaustive_generation_matches_counts():
    start = time.perf_counter()
    for n in range(2, 9):
        shapes = list(generate_all(n))
        assert len(set(shapes)) == len(shapes)
        per_k = Counter(s.n_internal for s in shapes)
        for k in range(1, n):
            assert per_k[k] == count_shapes(n, k), (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(f"2 (exhaustive generation N<=8 vs counts, {elapsed:.2f}s): PASS")


def test_c03_labeled_counts():
    assert count_labeled_binary(8) == 1_587_600
    assert count_labeled_ranked(8) == 10_270_696
    assert count_labeled_ranked(12) == 237_106_822_506_952
    report("3 (labeled-space counts at N=8 and N=12): PASS")


def test_c04_sequences():
    assert [v for _, v in pair_table(8).entries] == [
        1, 120, 768, 423, 496, 1494, 426, 294, 741, 156, 98, 22, 1,
    ]
    for k in range(2, 12):
        for k0, total in pair_table(k).row_sums().items():
            assert total == eulerian(k - 1, k0)
    for k in range(2, 21):
        assert len(pair_table(k).entries) == (k - 1) ** 2 // 4 + 1
    report("4 (pair-count table, Eulerian row sums, pair-set sizes): PASS")


def test_c05_lub_golden_trace():
    trace = []
    result = lub_fmatrix(FX, FY, trace=trace)
    assert [m.tolist() for m in trace] == [
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
    assert result.tolist() == [[7, 0], [6, 8]]
    report("5 (least-upper-bound worked example, bit-exact trace): PASS")


def test_c06_lattice_properties():
    start = time.perf_counter()
    for n in range(3, 7):
        g = build_hasse(n)
        v = g.n_vertices
        above = []
        for i in range(v):  # vertices are sorted by K; coarser come first
            s = {i}
            for j in g.up[i]:
                s |= above[j]
            above.append(s)
        ks = [x.n_internal for x in g.vertices]
        dist = np.zeros((v, v), dtype=int)
        for i in range(v):
            for j in range(i, v):
                ub = above[i] & above[j]
                least = [u for u in ub if all(w in above[u] for w in ub)]
                assert len(least) == 1, "least upper bound not unique"
                m = lub(g.vertices[i], g.vertices[j])
                assert g.index[m] == least[0]
                d = ks[i] + ks[j] - 2 * ks[least[0]]
                assert d == lattice_distance(g.vertices[i], g.vertices[j])
                dist[i, j] = dist[j, i] = d
                if i != j:
                    assert abs(ks[i] - ks[j]) <= d <= ks[i] + ks[j] - 2
        assert np.all(np.diag(dist) == 0)
        assert np.all((dist > 0) | np.eye(v, dtype=bool))
        assert np.all(dist[:, None, :] <= dist[:, :, None] + dist[None, :, :])
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(f"6 (unique joins and metric axioms, N<=6, {elapsed:.2f}s): PASS")


def test_c07_degrees(graphs):
    for n in range(4, 8):
        g = graphs[n]
        plus, minus = g.degrees()
        for i, s in enumerate(g.vertices):
            assert deg_plus(s) == plus[i]
            assert deg_minus(s) == minus[i]
    assert [deg_minus(max_degree_tree(n)[0]) for n in range(4, 10)] == [
        2, 4, 7, 11, 18, 26,
    ]
    assert max_degree(4) == 3 and max_degree(5) == 5
    for n in range(4, 10):
        tree, m = max_degree_tree(n)
        tops = [s for s in generate_all(n) if Neighborhood(s).degree == m]
        assert tops == [tree]
    report("7 (degree formulas vs graphs N<=7; maximum-degree shapes N<=9): PASS")


def test_c08_exact_kernels(graphs):
    for n in (4, 5):
        g = graphs[n]
        p = exact_kernel(g, "symmetric")
        assert np.array_equal(p, p.T)
        assert np.allclose(p.sum(axis=0), 1, atol=1e-14)
        pi = stationary_distribution(g, "symmetric")
        assert np.abs(pi @ p - pi).max() < 1e-12
        p = exact_kernel(g, "random-walk")
        pi = stationary_distribution(g, "random-walk")
        assert np.abs(pi @ p - pi).max() < 1e-12
        q = pi[:, None] * p
        assert np.abs(q - q.T).max() < 1e-14
    report("8 (exact kernels: symmetry, stationarity, detailed balance): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="the degree-1 singleton attains 1/M_N (symmetric) and 1 (walk) "
    "but the exhaustive minimum over subsets is smaller: 4/35 and 1/5 at "
    "N=5, 1/3 and 1/2 at N=4",
)
def test_c08_bottleneck_as_stated(graphs):
    values = {
        (n, kind): exact_bottleneck(graphs[n], kind).phi_star
        for n in (4, 5)
        for kind in ("symmetric", "random-walk")
    }
    report(f"8 (bottleneck ratios as stated): FAIL expected -- exhaustive minima {values}")
    for n in (4, 5):
        assert values[(n, "symmetric")] == Fraction(1, max_degree(n))
        assert values[(n, "random-walk")] == 1


def test_c08_bottleneck_exhaustive(graphs):
    # exhaustively computed minima, plus the singleton ratios the stated
    # values correspond to
    assert exact_bottleneck(graphs[4], "symmetric").phi_star == Fraction(1, 3)
    assert exact_bottleneck(graphs[4], "random-walk").phi_star == Fraction(1, 2)
    assert exact_bottleneck(graphs[5], "symmetric").phi_star == Fraction(4, 35)
    assert exact_bottleneck(graphs[5], "random-walk").phi_star == Fraction(1, 5)
    for n in (4, 5):
        g = graphs[n]
        singletons = [
            i for i in range(g.n_vertices)
            if len(g.up[i]) + len(g.down[i]) == 1
        ]
        assert len(singletons) == 1  # one degree-1 shape; its cut ratio:
        assert Fraction(1, max_degree(n)) >= exact_bottleneck(g, "symmetric").phi_star
        assert 1 >= exact_bottleneck(g, "random-walk").phi_star
    res4 = exact_bottleneck(graphs[4], "symmetric")
    deg1 = graphs[4].vertices[
        [i for i in range(5) if len(graphs[4].up[i]) + len(graphs[4].down[i]) == 1][0]
    ]
    assert (deg1,) in [tuple(m) for m in res4.minimizers]
    report("8 (exhaustive bottleneck minima; singleton ratios as upper bounds): PASS")


def test_c08_cheeger_sandwich(graphs):
    for n in (4, 5):
        for kind in ("symmetric", "random-walk"):
            phi_lazy = exact_bottleneck(graphs[n], kind).phi_star / 2
            gamma = exact_gap(graphs[n], kind, lazy=True).gamma
            assert float(phi_lazy**2 / 2) <= gamma + 1e-12
            assert gamma <= float(2 * phi_lazy) + 1e-12
    report("8 (Cheeger sandwich for the lazy kernels, N=4,5): PASS")


def test_c09_bound_formulas(graphs):
    for n in range(4, 21):
        b = mixing_bounds(n)
        assert b.symmetric_lower <= b.symmetric_lazy_upper
        assert b.random_walk_lower <= b.random_walk_lazy_upper
    assert mixing_bounds(5).symmetric_lower == 1.25
    assert mixing_bounds(10).random_walk_lower == 7
    for n in (5, 6, 7):
        assert diameter(graphs[n]) >= 2 * (n - 3)
    report("9 (bound formulas ordered, N=4..20; diameters >= 2(N-3)): PASS")


@pytest.fixture(scope="module")
def lazy_walk_t_rel(graphs):
    """The lazy random walk's relaxation time at N = 7 and 8, to
    ``GAP_DIGITS`` certified digits."""
    return {
        n: exact_gap(graphs.get(n) or build_hasse(n), "random-walk", lazy=True).t_rel
        for n in (7, 8)
    }


@pytest.mark.xfail(
    strict=True,
    reason="at N=8 the lazy walk's t_mix is at least (t_rel - 1) log 2 = 185.9 "
    "(Levin, Peres & Wilmer, Thm 12.5), above the stated 8 log(4 M_N G(N)) = 90.7",
)
def test_c09_lazy_walk_upper_bound_as_stated(lazy_walk_t_rel):
    upper = mixing_bounds(8).random_walk_lazy_upper
    lower = (lazy_walk_t_rel[8] - 1) * math.log(2)
    report(
        f"9 (lazy walk upper bound at N=8): FAIL expected -- "
        f"stated {upper:.1f} below the t_mix lower bound {lower:.1f}"
    )
    assert upper >= lower


def test_c09_lazy_walk_relaxation_times(lazy_walk_t_rel):
    assert lazy_walk_t_rel == {7: 97.509859, 8: 269.22377}
    upper = mixing_bounds(8).random_walk_lazy_upper
    lower = (lazy_walk_t_rel[8] - 1) * math.log(2)
    assert round(upper, 1) == 90.7 and round(lower, 1) == 185.9
    report(
        f"9 (lazy walk t_rel 97.509859 at N=7, 269.22377 at N=8; "
        f"t_mix >= {lower:.1f} > stated {upper:.1f}): PASS"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the space at N=5 has 15 shapes, so uniform frequencies sit at "
    "1/15, more than 4 standard errors from 1/16",
)
def test_c10a_mh_uniformity_as_stated(mh5_frequencies):
    freqs, total = mh5_frequencies
    se = math.sqrt((1 / 16) * (15 / 16) / total)
    worst = max(abs(f - 1 / 16) for f in freqs.values())
    report(
        f"10a (per-shape frequency within 4 SE of 1/16): FAIL expected -- "
        f"worst deviation {worst:.5f} vs band {4 * se:.5f}"
    )
    assert len(freqs) == 16
    for f in freqs.values():
        assert abs(f - 1 / 16) <= 4 * se


def test_c10a_mh_uniformity(mh5_frequencies):
    freqs, total = mh5_frequencies
    shapes = list(generate_all(5))
    target = 1 / len(shapes)
    se = math.sqrt(target * (1 - target) / total)
    assert len(freqs) == len(shapes) == 15
    for s in shapes:
        assert abs(freqs[s] - target) <= 4 * se
    report("10a (per-shape frequency within 4 SE of uniform over all 15 shapes): PASS")


def test_c10b_mh_acceptance_rate(uniform20):
    rate = float(np.mean(uniform20.acceptance_rates))
    assert 0.85 <= rate <= 0.95
    report(f"10b (N=20 acceptance rate {rate:.3f} in [0.85, 0.95]): PASS")


def test_c11_table_statistics(uniform20):
    rng = np.random.Generator(np.random.PCG64(99))
    beta = aggregate(
        shape_stats(s)
        for s in sample_topologies(20, UNIFORM_MEASURE, 40_000, rng)
    )
    assert abs(beta.mean_k - 9.09) <= 0.15
    assert abs(beta.mean_max_block - 7.74) <= 0.2
    assert abs(beta.mean_avg_block - 3.45) <= 0.1
    uni = aggregate(shape_stats(s) for s in uniform20.pooled())
    assert uni.count == 19 * 4000
    assert abs(uni.mean_k - 16.14) <= 0.3
    assert abs(uni.mean_max_block - 3.31) <= 0.15
    assert abs(uni.mean_avg_block - 2.19) <= 0.05
    assert abs(uni.scaled_cherries[2] - 0.31) <= 0.03
    report(
        "11 (sampled statistics at N=20: coalescent mean K/M/A "
        f"{beta.mean_k:.2f}/{beta.mean_max_block:.2f}/{beta.mean_avg_block:.2f}, "
        f"uniform {uni.mean_k:.2f}/{uni.mean_max_block:.2f}/{uni.mean_avg_block:.2f}, "
        f"scaled 2-cherries {uni.scaled_cherries[2]:.3f}): PASS"
    )


def test_c12_roundtrips_and_validation():
    rng = np.random.Generator(np.random.PCG64(12))
    for _ in range(100_000):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, n))
        assert validate_fmatrix(semi_random_fmatrix(n, k, rng), n=n) is None
    for n in range(2, 8):
        for s in generate_all(n):
            assert TreeShape.from_fmatrix(s.fmatrix()) == s
    rng = np.random.Generator(np.random.PCG64(13))
    for s in sample_topologies(50, UNIFORM_MEASURE, 10_000, rng):
        f = s.fmatrix()
        assert validate_fmatrix(f, n=50) is None
        assert TreeShape.from_fmatrix(f) == s
    report("12 (10^5 diagonal draws validate; round-trips N<=7 and at N=50): PASS")
