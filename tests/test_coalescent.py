"""Beta-measure merger rates, size distributions, and the topology sampler."""

import hashlib
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtshapes import (
    UNIFORM_MEASURE,
    BetaMeasure,
    TreeShape,
    generate_all,
    sample_topologies,
    validate_string,
)
from mtshapes import coalescent
from mtshapes.coalescent import _block_draws, merger_distribution


def rng_from(seed):
    return np.random.Generator(np.random.PCG64(seed))


def log_beta(x, y):
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def merger_rate(b, k, measure):
    """Rate at which any fixed k-subset of b lineages merges (2 <= k <= b):
    the Beta integral as a ratio of Beta functions, in log space.  For the
    uniform measure this is (k-2)!(b-k)!/(b-1)!."""
    a, c = measure.a, measure.b
    return math.exp(log_beta(k - 2 + a, b - k + c) - log_beta(a, c))


def rate_by_quadrature(b, k, measure):
    """Numerical integral of x^(k-2) (1-x)^(b-k) against the Beta density.

    Tanh-sinh quadrature copes with the endpoint singularities of the
    unnormalized density; the normalizer is integrated the same way.
    """
    a, bb = mpmath.mpf(measure.a), mpmath.mpf(measure.b)
    with mpmath.workdps(40):
        kernel = mpmath.quad(
            lambda x: x ** (k - 2 + a - 1) * (1 - x) ** (b - k + bb - 1), [0, 1]
        )
        norm = mpmath.quad(
            lambda x: x ** (a - 1) * (1 - x) ** (bb - 1), [0, 1]
        )
        return float(kernel / norm)


# merger-size laws give P(k=2)=2/3, P(3)=2/9, P(4)=1/9 at b=4 and
# P(k=2)=3/4 at b=3; with uniform subsets the four-tip shape law follows:
FOUR_TIP_LAW = {
    "0|4": Fraction(1, 9),
    "0,1|1,3": Fraction(2, 9),
    "0,1|2,2": Fraction(1, 6),
    "0,1,1|0,2,2": Fraction(1, 6),
    "0,1,2|1,1,2": Fraction(1, 3),
}


def uniform_merger_size(b, k):
    """P(next merger has size k | b lineages) under Beta(1, 1), exactly.

    The k-mergers' total rate is C(b, k) (k-2)! (b-k)! / (b-1)!
    = b / (k (k-1)); over k = 2..b these sum to b - 1."""
    return Fraction(b, (b - 1) * k * (k - 1))


def exact_shape_law(n):
    """Exact Beta(1, 1) law of the ranked shape with ``n`` tips.

    Recursion over merger events: each event picks its size k with
    ``uniform_merger_size`` and a uniform k-subset of the extant
    lineages.  Original tips are exchangeable, so a subset is the number
    j of tips it takes plus the set S of earlier events' lineages, and
    C(tips, j) of the C(b, k) subsets give that pair.  Backward event e
    of K is the node of rank K - e + 1.
    """
    law = Counter()

    def finish(events, p):
        k = len(events)
        t, l = [0] * k, [0] * k
        for e, (j, merged) in enumerate(events, start=1):
            l[k - e] = j
            for child in merged:
                t[k - child] = k - e + 1
        law[TreeShape(t, l)] += p

    def walk(tips, extant, events, p):
        b = tips + len(extant)
        if b == 1:
            finish(events, p)
            return
        event = len(events) + 1
        for k in range(2, b + 1):
            pk = uniform_merger_size(b, k) / math.comb(b, k)
            for r in range(max(0, k - tips), min(k, len(extant)) + 1):
                j = k - r
                for merged in combinations(extant, r):
                    rest = tuple(x for x in extant if x not in merged)
                    walk(
                        tips - j,
                        rest + (event,),
                        events + [(j, merged)],
                        p * pk * math.comb(tips, j),
                    )

    walk(n, (), [], Fraction(1))
    return dict(law)


class TestBetaMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            BetaMeasure(0, 1)
        with pytest.raises(ValueError):
            BetaMeasure(1, -2)

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_parameters_must_be_finite(self, a, b):
        with pytest.raises(ValueError, match="finite and positive"):
            BetaMeasure(a, b)

    def test_alpha_family(self):
        assert BetaMeasure.from_alpha(1.0) == UNIFORM_MEASURE
        m = BetaMeasure.from_alpha(1.5)
        assert m.a == pytest.approx(0.5) and m.b == pytest.approx(1.5)
        with pytest.raises(ValueError):
            BetaMeasure.from_alpha(2.0)


class TestMergerRate:
    def test_pair_of_two(self):
        assert merger_rate(2, 2, UNIFORM_MEASURE) == pytest.approx(1.0)

    def test_three_lineages(self):
        assert merger_rate(3, 2, UNIFORM_MEASURE) == pytest.approx(0.5)
        assert merger_rate(3, 3, UNIFORM_MEASURE) == pytest.approx(0.5)

    def test_uniform_measure_factorial_form(self):
        for b in range(2, 12):
            for k in range(2, b + 1):
                expected = (
                    math.factorial(k - 2)
                    * math.factorial(b - k)
                    / math.factorial(b - 1)
                )
                assert merger_rate(b, k, UNIFORM_MEASURE) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_against_quadrature(self):
        rng = rng_from(42)
        for _ in range(20):
            b = int(rng.integers(2, 30))
            k = int(rng.integers(2, b + 1))
            m = BetaMeasure(float(rng.uniform(0.1, 4)), float(rng.uniform(0.1, 4)))
            assert merger_rate(b, k, m) == pytest.approx(
                rate_by_quadrature(b, k, m), rel=1e-10
            )

    def test_large_counts_stay_finite(self):
        r = merger_rate(500, 250, UNIFORM_MEASURE)
        assert 0 < r < 1


class TestMergerDistribution:
    def test_two_lineages_point_mass(self):
        assert merger_distribution(2, UNIFORM_MEASURE).tolist() == [1.0]

    def test_three_lineages(self):
        assert merger_distribution(3, UNIFORM_MEASURE) == pytest.approx(
            [0.75, 0.25]
        )

    @pytest.mark.parametrize("b", [2, 3, 7, 20, 100])
    def test_normalized(self, b):
        for m in (UNIFORM_MEASURE, BetaMeasure(0.5, 1.5), BetaMeasure(3, 2)):
            d = merger_distribution(b, m)
            assert d.sum() == pytest.approx(1, abs=1e-12)
            assert (d >= 0).all()

    @pytest.mark.parametrize("b", [2, 3, 7, 20, 100])
    def test_proportional_to_binomial_times_rate(self, b):
        for m in (UNIFORM_MEASURE, BetaMeasure(0.5, 1.5), BetaMeasure(3, 2)):
            w = [math.comb(b, k) * merger_rate(b, k, m) for k in range(2, b + 1)]
            expected = [x / math.fsum(w) for x in w]
            assert merger_distribution(b, m) == pytest.approx(expected, rel=1e-10)

    def test_empirical_first_merger_sizes(self):
        b = 7
        d = merger_distribution(b, UNIFORM_MEASURE)
        rng = rng_from(5)
        draws = rng.choice(np.arange(2, b + 1), size=1_000_000, p=d)
        counts = np.bincount(draws, minlength=b + 1)[2:]
        se = np.sqrt(d * (1 - d) / 1_000_000)
        assert (np.abs(counts / 1_000_000 - d) <= 3 * se + 1e-9).all()


class TestExactShapeLaw:
    def test_merger_sizes_match_merger_distribution(self):
        for b in range(2, 7):
            exact = [uniform_merger_size(b, k) for k in range(2, b + 1)]
            assert sum(exact) == 1
            assert merger_distribution(b, UNIFORM_MEASURE) == pytest.approx(
                [float(p) for p in exact], rel=1e-12
            )

    def test_four_tips_match_hand_derivation(self):
        law = {s.to_text(): p for s, p in exact_shape_law(4).items()}
        assert law == FOUR_TIP_LAW

    @pytest.mark.parametrize("n", range(2, 7))
    def test_is_a_law_on_every_shape(self, n):
        law = exact_shape_law(n)
        assert sum(law.values()) == 1
        assert all(p > 0 for p in law.values())
        assert set(law) == set(generate_all(n))


class TestSampleTopology:
    def test_two_tips(self):
        rng = rng_from(0)
        for _ in range(5):
            shape = sample_topologies(2, UNIFORM_MEASURE, 1, rng)[0]
            assert shape == TreeShape((0,), (2,))

    def test_three_tips_star_probability(self):
        rng = rng_from(1)
        shapes = sample_topologies(3, UNIFORM_MEASURE, 40_000, rng)
        stars = sum(1 for s in shapes if s.n_internal == 1)
        # star requires a first (and only) triple merger: probability 1/4
        assert stars / 40_000 == pytest.approx(0.25, abs=0.009)

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_exact_law_in_total_variation(self, n):
        law = exact_shape_law(n)
        draws = 100_000
        counts = Counter(
            sample_topologies(n, UNIFORM_MEASURE, draws, rng_from(2026))
        )
        assert set(counts) <= set(law)
        tv = sum(abs(counts[s] / draws - float(p)) for s, p in law.items()) / 2
        # Bretagnolle-Huber-Carol: P(TV >= eps) <= 2^S exp(-2 D eps^2)
        # over a support of S shapes and D draws.  S = 15 (N = 5) and
        # 54 (N = 6); at D = 1e5 and a 1e-6 failure chance,
        # eps = sqrt((S ln 2 + ln 1e6) / (2 D)) = 0.0110 and 0.0160.
        # E[TV] <= sqrt(S / D) / 2 = 0.0061 and 0.0116 (Cauchy-Schwarz).
        eps = math.sqrt((len(law) * math.log(2) + math.log(1e6)) / (2 * draws))
        assert tv < eps

    def test_four_tip_distribution(self):
        expected = FOUR_TIP_LAW
        rng = rng_from(9)
        n = 60_000
        counts = Counter(
            s.to_text() for s in sample_topologies(4, UNIFORM_MEASURE, n, rng)
        )
        assert set(counts) == set(expected)
        for text, p in expected.items():
            p = float(p)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[text] / n - p) < 4 * se, text

    def test_sampled_shapes_valid(self):
        rng = rng_from(3)
        for s in sample_topologies(25, BetaMeasure(0.7, 1.3), 300, rng):
            assert validate_string(s.t, s.l, n=25) is None
            assert s.n_tips == 25

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 50),
        alpha=st.floats(0, 2, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_draw_is_valid_and_round_trips(self, n, alpha, seed):
        # sample_topologies builds its shapes without validating them
        for s in sample_topologies(n, BetaMeasure.from_alpha(alpha), 5, rng_from(seed)):
            assert validate_string(s.t, s.l, n) is None
            assert TreeShape.from_text(s.to_text()) == s

    def test_pairwise_only_paths_are_binary(self):
        # samples in which every merger was pairwise have K = N - 1 and
        # every node a bifurcation
        rng = rng_from(8)
        binaries = [
            s
            for s in sample_topologies(6, UNIFORM_MEASURE, 4000, rng)
            if s.n_internal == 5
        ]
        assert binaries
        for s in binaries:
            assert all(k + l == 2 for k, l in s.children_counts())

    def test_merger_sizes_sum(self):
        # K events with sizes b_j satisfy sum (b_j - 1) = N - 1
        rng = rng_from(2)
        for s in sample_topologies(15, UNIFORM_MEASURE, 200, rng):
            sizes = [k + l for k, l in s.children_counts()]
            assert sum(x - 1 for x in sizes) == 14

    def test_split_calls_continue_the_stream(self):
        for measure in (UNIFORM_MEASURE, BetaMeasure(0.7, 1.3)):
            whole = sample_topologies(12, measure, 70, rng_from(31))
            rng = rng_from(31)
            parts = sample_topologies(12, measure, 25, rng)
            parts += sample_topologies(12, measure, 45, rng)
            assert parts == whole

    def test_deterministic(self):
        a = sample_topologies(10, UNIFORM_MEASURE, 50, rng_from(77))
        b = sample_topologies(10, UNIFORM_MEASURE, 50, rng_from(77))
        assert a == b

    def test_numpy_integer_arguments(self):
        n, count = np.int64(10), np.int64(50)
        assert sample_topologies(n, UNIFORM_MEASURE, count, rng_from(77)) == (
            sample_topologies(10, UNIFORM_MEASURE, 50, rng_from(77))
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_topologies(1, UNIFORM_MEASURE, 1, rng_from(0))[0]
        with pytest.raises(ValueError):
            sample_topologies(5, UNIFORM_MEASURE, 0, rng_from(0))

    @pytest.mark.parametrize("n", [2049, 10**6])
    def test_merger_table_past_cap_refused_before_any_row(self, n, monkeypatch):
        def refuse(b, measure):
            raise AssertionError("merger_distribution was called")

        monkeypatch.setattr(coalescent, "merger_distribution", refuse)
        with pytest.raises(ValueError, match=r"cap is 64 MB \(sampling takes n <= 2048\)$"):
            sample_topologies(n, UNIFORM_MEASURE, 1, rng_from(0))

    def test_merger_table_at_cap_is_built(self, monkeypatch):
        # n = 2048 passes the cap: its first row is computed (and here refused)
        def first_row(b, measure):
            raise LookupError(b)

        monkeypatch.setattr(coalescent, "merger_distribution", first_row)
        with pytest.raises(LookupError, match="^2$"):
            sample_topologies(2048, BetaMeasure(1.5, 0.5), 1, rng_from(0))


def reference_topologies(n, measure, count, rng):
    """The per-draw sampler that the lockstep one replaced, as its oracle:
    each draw reads ``rng.random(3 * n)`` and runs its events one at a
    time.  Returns ``(t, l)`` pairs."""
    cums = [None, None] + [
        list(accumulate(merger_distribution(b, measure).tolist()))
        for b in range(2, n + 1)
    ]
    out = []
    for _ in range(count):
        u = rng.random(3 * n).tolist()
        pos = 0
        lineages = [0] * n  # 0 for a tip, else the 1-based event that formed it
        up = []  # up[e - 1]: the event that merged event e's lineage
        tips = []  # tips[e - 1]: original tips merged at event e
        b = n
        while b > 1:
            cum = cums[b]
            k = bisect_right(cum, u[pos] * cum[-1]) + 2
            pos += 1
            event = len(up) + 1
            leaves = 0
            for m in range(b, b - k, -1):
                i = int(u[pos] * m)
                pos += 1
                x = lineages[i]
                lineages[i] = lineages[m - 1]
                if x:
                    up[x - 1] = event
                else:
                    leaves += 1
            del lineages[b - k + 1 :]
            lineages[b - k] = event
            up.append(0)
            tips.append(leaves)
            b -= k - 1
        k_nodes = len(up)
        t = [k_nodes + 1 - e if e else 0 for e in reversed(up)]
        out.append((tuple(t), tuple(reversed(tips))))
    return out


def assert_matches_reference(n, measure, count, seed):
    rng, ref_rng = rng_from(seed), rng_from(seed)
    got = sample_topologies(n, measure, count, rng)
    assert [(s.t, s.l) for s in got] == reference_topologies(n, measure, count, ref_rng)
    # both read the same slice of the stream, no more
    assert rng.bit_generator.state == ref_rng.bit_generator.state


ORACLE_MEASURES = {
    "alpha=0.5": BetaMeasure.from_alpha(0.5),
    "alpha=1": UNIFORM_MEASURE,
    "alpha=1.9": BetaMeasure.from_alpha(1.9),
    "beta(0.7,1.3)": BetaMeasure(0.7, 1.3),
}


class TestLockstepOracle:
    """The lockstep sampler gives exactly the shapes of the per-draw loop."""

    @pytest.mark.parametrize("measure", list(ORACLE_MEASURES))
    @pytest.mark.parametrize("n", [2, 3, 5, 20, 50, 100])
    def test_equals_per_draw_loop_across_block_edges(self, n, measure):
        block = _block_draws(n)
        for count in (1, block - 1, block, block + 1, 2 * block + 7):
            assert_matches_reference(
                n, ORACLE_MEASURES[measure], count, seed=n * 1000 + count
            )

    def test_block_shrinks_for_large_n(self):
        assert _block_draws(20) == _block_draws(682) == 512
        assert _block_draws(683) == 511 and _block_draws(10**6) == 1
        assert_matches_reference(700, UNIFORM_MEASURE, _block_draws(700) + 3, seed=4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 50),
        alpha=st.floats(0, 2, exclude_min=True, exclude_max=True),
        count=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_draw_loop(self, n, alpha, count, seed):
        assert_matches_reference(n, BetaMeasure.from_alpha(alpha), count, seed)

    def test_block_memory_is_bounded(self):
        # the block's arrays are freed before the next block: what the call
        # holds beyond the shapes it returns stays within four times the
        # uniforms of one block of 512 draws (4.9 MB), however many it makes
        n, count = 100, 20_000
        budget = 4 * 512 * 3 * n * 8
        rng = rng_from(12)
        sample_topologies(n, UNIFORM_MEASURE, 1, rng)  # the merger table, cached
        tracemalloc.start()
        try:
            shapes = sample_topologies(n, UNIFORM_MEASURE, count, rng)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(shapes) == count
        assert peak - retained < budget


# sha256 of the "\n"-joined to_text lines of
# sample_topologies(n, measure, 200, PCG64(2506)).  Any change here alters
# the seeded stream and belongs in CHANGES.md.  At n = 2 every draw is
# "0|2", so those two pin only that the sampler still runs.
GOLDEN_STREAMS = {
    ("beta(1,1)", 2): "a59f963d7e2ea835012fbeb9de0b4c4a75736545d909a4e31893d6b680787b91",
    ("beta(1,1)", 5): "6ad22b6dff03a3b9f3a21454bd3f14de8d903de4b2cb7a399baa266666ec5d5b",
    ("beta(1,1)", 20): "fd084be1eacf481fccfd4f5a5d2a5eaa513cf942e88a97d1dcacd793ea1c1be8",
    ("beta(1,1)", 100): "69baeb097b20b2548442da5ea19b4ae8eeabd274da33a804d39885e094891736",
    ("beta(0.7,1.3)", 2): "a59f963d7e2ea835012fbeb9de0b4c4a75736545d909a4e31893d6b680787b91",
    ("beta(0.7,1.3)", 5): "26f1cca1d81d16904a3c52668b0e756335c5d2cd7b1f8a8cb97aca5f0c6fd006",
    ("beta(0.7,1.3)", 20): "ba9bc5be872e8fefc9b5a9e1306a4ae50343dd9c78b9fe95102096c329c974aa",
    ("beta(0.7,1.3)", 100): "351985eee36ad9fbd1563a1a219219aaf9cd37b5f39ca12f2f54e466364c7d78",
}
MEASURES = {"beta(1,1)": UNIFORM_MEASURE, "beta(0.7,1.3)": BetaMeasure(0.7, 1.3)}


@pytest.mark.parametrize("measure, n", list(GOLDEN_STREAMS))
def test_seeded_stream_is_pinned(measure, n):
    shapes = sample_topologies(n, MEASURES[measure], 200, rng_from(2506))
    text = "\n".join(s.to_text() for s in shapes)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_STREAMS[measure, n]
