"""Block-size and cherry statistics, and sample aggregation."""

import numpy as np
import pytest

from mtshapes import TreeShape, aggregate, generate_all, shape_stats
from mtshapes.chains import ChainState, semi_random_init, step_mh_uniform
from mtshapes.treestats import ShapeStats


class TestShapeStats:
    def test_star(self):
        st = shape_stats(TreeShape((0,), (9,)))
        assert (st.n, st.k, st.max_block, st.avg_block) == (9, 1, 9, 9.0)
        assert st.cherries == ((9, 1),)

    def test_binary(self):
        for s in generate_all(6, 5):
            st = shape_stats(s)
            assert st.max_block == 2
            assert st.avg_block == 2.0
            assert all(m == 2 for m, _ in st.cherries)

    def test_twelve_tip_example(self):
        # blocks per node: (4, 2, 4, 3, 3); two 3-tip cherries
        st = shape_stats(TreeShape((0, 1, 2, 3, 3), (3, 1, 2, 3, 3)))
        assert st.k == 5
        assert st.max_block == 4
        assert st.avg_block == pytest.approx((12 + 5 - 1) / 5)
        assert st.cherries == ((3, 2),)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_block_sum_identity(self, n):
        # total children = N leaves + K - 1 internal nodes
        for s in generate_all(n):
            st = shape_stats(s)
            blocks = [k + l for k, l in s.children_counts()]
            assert sum(blocks) == n + st.k - 1
            assert st.avg_block == pytest.approx(sum(blocks) / st.k)
            assert st.max_block == max(blocks)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_cherry_tips_bounded(self, n):
        for s in generate_all(n):
            st = shape_stats(s)
            assert sum(m * c for m, c in st.cherries) <= n

    def test_random_shapes(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, n))
            st = shape_stats(semi_random_init(n, k, rng))
            assert st.avg_block == pytest.approx((n + k - 1) / k)
            assert 2 <= st.max_block <= n


def median_k(ks):
    """``aggregate``'s median K over shapes with these K values."""
    return aggregate([ShapeStats(9, k, 2, 1.0, ()) for k in ks]).median_k


class TestLowerMedian:
    def test_odd(self):
        assert median_k([3, 1, 2]) == 2

    def test_even_takes_lower(self):
        assert median_k([4, 1, 2, 3]) == 2

    def test_empty(self):
        with pytest.raises(ValueError):
            median_k([])


class TestAggregate:
    def test_single_sample_is_identity(self):
        st = shape_stats(TreeShape((0, 1), (2, 3)))
        summary = aggregate([st])
        assert summary.count == 1
        assert summary.mean_k == summary.median_k == st.k
        assert summary.mean_max_block == st.max_block
        assert summary.mean_avg_block == pytest.approx(st.avg_block)
        assert summary.mean_cherries[3] == 1.0
        assert summary.scaled_cherries[3] == pytest.approx(1 / 5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([])

    @pytest.mark.parametrize("tips", [2**53, 2**53 + 1, 10**30])
    def test_refuses_2_to_the_53_tips(self, tips):
        ok = shape_stats(TreeShape((0,), (2**53 - 1,)))
        assert aggregate([ok]).mean_avg_block == 2**53 - 1
        big = shape_stats(TreeShape((0,), (tips,)))
        message = f"^stats takes shapes with fewer than 2\\*\\*53 tips, got {tips}$"
        with pytest.raises(ValueError, match=message):
            aggregate([ok, big, ok])

    def test_cherry_range_configurable(self):
        st = shape_stats(TreeShape((0,), (9,)))
        summary = aggregate([st], cherry_sizes=range(2, 10))
        assert summary.mean_cherries[9] == 1.0
        assert 9 not in aggregate([st]).mean_cherries

    def test_exhaustive_uniform_five_tips_vs_sampler(self):
        # exact uniform means over all 15 shapes, then a Metropolis
        # estimate of the same quantities
        exact = aggregate(shape_stats(s) for s in generate_all(5))
        assert exact.count == 15
        assert exact.mean_k == pytest.approx(3.0)
        rng = np.random.default_rng(21)
        state = ChainState(TreeShape((0,), (5,)))
        stats = []
        for _ in range(120_000):
            step_mh_uniform(state, rng)
            stats.append(shape_stats(state.shape))
        est = aggregate(stats)
        assert est.mean_k == pytest.approx(exact.mean_k, abs=0.02)
        assert est.mean_max_block == pytest.approx(exact.mean_max_block, abs=0.02)
        assert est.mean_avg_block == pytest.approx(exact.mean_avg_block, abs=0.02)

    def test_medians_use_lower_convention(self):
        stats = [
            shape_stats(TreeShape((0,), (4,))),
            shape_stats(TreeShape((0, 1, 2), (1, 1, 2))),
        ]
        summary = aggregate(stats)
        assert summary.median_k == 1  # lower of {1, 3}
