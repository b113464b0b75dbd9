"""Patched neighbourhood moves, direct bit-generator draws and the
one-step laws they give the three chains.

A chain prices a proposal with ``Neighborhood._plan(r)`` and moves by
patching its neighbourhood (``_apply``, or ``move(r)`` on a copy) instead
of rebuilding it, and reads its randomness through the bit generator's
ctypes interface.  These tests hold both to the
construction they replace: a fresh ``Neighborhood`` of the moved-to
shape, the rank order of the former ``neighbor(r)``, and the Generator
calls ``rng.integers(0, 2**32, dtype=np.uint64)`` and ``rng.random()``.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtshapes import TreeShape, collapse_edge, generate_all, present_edges, run_chains
from mtshapes import chains
from mtshapes.chains import (
    ChainState,
    random_below,
    semi_random_init,
    step_mh_uniform,
    step_random_walk,
    step_symmetric,
)
from mtshapes.coalescent import BetaMeasure, sample_topologies
from mtshapes.lattice import (
    Neighborhood,
    _unrank_split,
    max_degree,
    max_degree_tree,
    split_count,
)

STEPPERS = {
    "mh-uniform": step_mh_uniform,
    "symmetric": step_symmetric,
    "random-walk": step_random_walk,
}


def rng_from(seed, bit_generator=np.random.PCG64):
    return np.random.Generator(bit_generator(seed))


def state_of(rng):
    """The bit generator's state, with arrays (MT19937 keeps one) as lists."""

    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x

    return plain(rng.bit_generator.state)


def fields(nbhd):
    return nbhd.shape, nbhd.edges, nbhd.profile, nbhd.splits, nbhd.degree


# -- the construction the patched moves replace ---------------------------


def reference_unrank_combination(items, size, rank):
    out = []
    start = 0
    for _ in range(size):
        for pos in range(start, len(items)):
            block = math.comb(len(items) - pos - 1, size - len(out) - 1)
            if rank < block:
                out.append(items[pos])
                start = pos + 1
                break
            rank -= block
    return tuple(out)


def reference_unrank_split(k, l, rank):
    """The rank-th split of a (k internal, l leaf) child profile, walked
    one (size, moved leaves) cell at a time."""
    for size in range(2, k + l):
        for j in range(max(0, size - k), min(size, l) + 1):
            cell = math.comb(k, size - j)
            if rank < cell:
                return size - j, j, rank
            rank -= cell
    raise ValueError("rank exceeds the node's split count")


def reference_split(shape, node, moved, leaves):
    """Split ``node``: a new node of rank ``node + 1`` takes the internal
    children ``moved`` (old ranks) and ``leaves`` of its leaves.  Built by
    renumbering the ranks, through the validating constructor."""

    def new_rank(r):
        return r if r <= node else r + 1

    parents = {new_rank(c): new_rank(p) for c, p in enumerate(shape.t[1:], start=2)}
    parents.update({new_rank(c): node + 1 for c in moved})
    parents[node + 1] = node
    t = (0,) + tuple(parents[r] for r in range(2, len(shape.t) + 2))
    l = list(shape.l)
    l[node - 1] -= leaves
    l.insert(node, leaves)
    return TreeShape(t, l)


def reference_neighbor(shape, rank):
    """The rank-th neighbour, unranked as before moves were patched: the
    collapses by edge, then each node's splits by size, moved leaves and
    the lexicographic rank of the moved internal children."""
    edges = present_edges(shape)
    if rank < len(edges):
        return collapse_edge(shape, edges[rank])
    rank -= len(edges)
    for node, (ki, li) in enumerate(shape.children_counts(), start=1):
        w = split_count(ki, li)
        if rank >= w:
            rank -= w
            continue
        for s in range(2, ki + li):
            for j in range(max(0, s - ki), min(s, li) + 1):
                cell = math.comb(ki, s - j)
                if rank < cell:
                    children = [c for c, p in enumerate(shape.t, 1) if p == node]
                    moved = reference_unrank_combination(children, s - j, rank)
                    return reference_split(shape, node, moved, j)
                rank -= cell
    raise ValueError("rank exceeds the degree")


def reference_random_below(rng, n):
    """Uniform integer in [0, n) from scalar Generator draws."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        return 0
    bits = n.bit_length()
    words = (bits + 31) // 32
    while True:
        r = 0
        for _ in range(words):
            r = (r << 32) | int(rng.integers(0, 1 << 32, dtype=np.uint64))
        r >>= words * 32 - bits
        if r < n:
            return r


def reference_accepts(u, deg, deg_p):
    if deg >= deg_p:
        return True
    if deg_p < 2**52:
        return u < deg / deg_p
    return Fraction(u) < Fraction(deg, deg_p)


def reference_step_mh_uniform(state, rng):
    """An MH step that rebuilds the proposal's neighbourhood and draws
    through the Generator."""
    here = Neighborhood(state.shape)
    proposal = reference_neighbor(state.shape, reference_random_below(rng, here.degree))
    deg_p = Neighborhood(proposal).degree
    state.proposed += 1
    if reference_accepts(rng.random(), here.degree, deg_p):
        state.shape = proposal
        state.accepted += 1
    return state


def reference_step_symmetric(state, rng):
    deg = Neighborhood(state.shape).degree
    r = reference_random_below(rng, max_degree(state.shape.n_tips))
    if r < deg:
        state.shape = reference_neighbor(state.shape, r)
    return state


def reference_step_random_walk(state, rng):
    deg = Neighborhood(state.shape).degree
    state.shape = reference_neighbor(state.shape, reference_random_below(rng, deg))
    return state


REFERENCE_STEPPERS = {
    "mh-uniform": reference_step_mh_uniform,
    "symmetric": reference_step_symmetric,
    "random-walk": reference_step_random_walk,
}


# -- the patch oracle ------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 8))
def test_every_move_equals_a_fresh_build(n):
    for shape in generate_all(n):
        nbhd = Neighborhood(shape)
        for r in range(nbhd.degree):
            moved = nbhd.move(r)
            assert fields(moved) == fields(Neighborhood(moved.shape))
            assert moved.shape == reference_neighbor(shape, r)
            assert nbhd.neighbor(r) == moved.shape


@pytest.mark.parametrize("n", range(2, 8))
def test_every_plan_prices_the_proposal_and_leaves_the_source(n):
    for shape in generate_all(n):
        nbhd = Neighborhood(shape)
        before = fields(nbhd)
        for r in range(nbhd.degree):
            assert nbhd._plan(r)[0] == Neighborhood(reference_neighbor(shape, r)).degree
            assert fields(nbhd) == before  # a plan never applied
            nbhd.move(r)
            assert fields(nbhd) == before
        assert nbhd.shape is shape


def rank_of(nbhd, y):
    """The rank r with ``nbhd.move(r).shape == y`` for a neighbour y of
    x = ``nbhd.shape``, worked out from x and y alone in the rank order
    that ``Neighborhood`` documents."""
    x = nbhd.shape
    if y.n_internal < x.n_internal:
        # y is the collapse of one present edge of x
        return next(r for r, e in enumerate(present_edges(x)) if collapse_edge(x, e) == y)
    # y splits node v of x, so x is the collapse of y's edge v, and y's
    # node v + 1 holds the moved internal children (x's ranks are one
    # lower past v + 1) and j moved leaves.
    v = next(e for e in present_edges(y) if collapse_edge(y, e) == x)
    moved = [c - 1 for c, p in enumerate(y.t[v + 1 :], start=v + 2) if p == v + 1]
    m, j = len(moved), y.l[v]
    profile = x.children_counts()
    k, l = profile[v - 1]
    rank = len(present_edges(x)) + sum(split_count(*p) for p in profile[: v - 1])
    # the (size, moved leaves) cells before (m + j, j), each of comb(k, size - leaves)
    for size in range(2, m + j + 1):
        for leaves in range(max(0, size - k), min(size, l) + 1):
            if (size, leaves) == (m + j, j):
                break
            rank += math.comb(k, size - leaves)
    # the lexicographic rank of the moved subset among m-subsets of v's children
    children = [c for c, p in enumerate(x.t, start=1) if p == v]
    start = 0
    for i, pos in enumerate(map(children.index, moved)):
        rank += sum(math.comb(k - q - 1, m - i - 1) for q in range(start, pos))
        start = pos + 1
    return rank


@settings(deadline=None, derandomize=True)
@given(
    n=st.integers(3, 100),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.5, 1.0, 1.5]),
)
def test_every_move_has_exactly_one_reverse_move(n, seed, alpha):
    # For every collapse rank and a sample of split ranks r, the move back
    # from y = move(r) to x exists, and no other rank of x reaches y.
    rng = rng_from(seed)
    shapes = [semi_random_init(n, 1 + seed % (n - 1), rng)]
    shapes += sample_topologies(n, BetaMeasure.from_alpha(alpha), 2, rng)
    pick = random.Random(seed)
    for x in shapes:
        nbhd = Neighborhood(x)
        ranks = list(range(len(nbhd.edges)))
        splits = range(len(nbhd.edges), nbhd.degree)
        if splits:
            ranks += [splits[0], splits[-1], *(pick.choice(splits) for _ in range(20))]
        for r in ranks:
            there = nbhd.move(r)
            assert there.move(rank_of(there, x)).shape == x
            assert rank_of(nbhd, there.shape) == r


def test_move_rank_out_of_range():
    nbhd = Neighborhood(TreeShape((0, 1), (2, 2)))
    for r in (-1, nbhd.degree):
        with pytest.raises(ValueError, match="rank must be in"):
            nbhd.move(r)


def test_unrank_split_matches_the_cell_walk():
    for k in range(8):
        for l in range(13):
            if k + l < 2 or (k, l) == (1, 0):
                continue
            count = split_count(k, l)
            for r in range(count):
                assert _unrank_split(k, l, r) == reference_unrank_split(k, l, r), (k, l, r)
            with pytest.raises(ValueError, match="rank exceeds"):
                _unrank_split(k, l, count)


@pytest.mark.parametrize("k, l", [(0, 3000), (3, 3000), (12, 40)])
def test_unrank_split_at_many_leaves(k, l):
    count = split_count(k, l)
    for r in (0, 1, 2**k - 1, 2**k, count // 2, count - 2**k, count - 1):
        assert _unrank_split(k, l, r) == reference_unrank_split(k, l, r), r


def walk_and_check(state, stepper, rng, steps):
    for _ in range(steps):
        stepper(state, rng)
        assert state.cached.shape is state.shape
        assert fields(state.cached) == fields(Neighborhood(state.shape))


@settings(deadline=None, derandomize=True)
@given(
    n=st.integers(3, 50),
    seed=st.integers(0, 2**32 - 1),
    sampler=st.sampled_from(sorted(STEPPERS)),
)
def test_walk_keeps_patched_fields_fresh(n, seed, sampler):
    rng = rng_from(seed)
    state = ChainState(semi_random_init(n, 1 + seed % (n - 1), rng))
    walk_and_check(state, STEPPERS[sampler], rng, 30)


@pytest.mark.parametrize("sampler", sorted(STEPPERS))
@pytest.mark.parametrize("n", [100, 130])
def test_long_walk_keeps_patched_fields_fresh(n, sampler):
    rng = rng_from(n)
    start = max_degree_tree(n)[0] if n == 130 else semi_random_init(n, n // 3, rng)
    walk_and_check(ChainState(start), STEPPERS[sampler], rng, 300)


# -- the seeded stream -----------------------------------------------------


@pytest.mark.parametrize("sampler", sorted(STEPPERS))
@pytest.mark.parametrize("n", [5, 20, 100, 130])
def test_same_trajectory_as_rebuilt_generator_steps(n, sampler):
    steps = 2000 if sampler == "mh-uniform" else 500
    ours, theirs = rng_from(n + 1), rng_from(n + 1)
    if n == 130:
        start = max_degree_tree(n)[0]
        assert Neighborhood(start).degree >= 2**64  # ranks read three words
    else:
        start = semi_random_init(n, n // 2, rng_from(n))
    a, b = ChainState(start), ChainState(start)
    for _ in range(steps):
        STEPPERS[sampler](a, ours)
        REFERENCE_STEPPERS[sampler](b, theirs)
        assert a.shape == b.shape
    assert (a.accepted, a.proposed) == (b.accepted, b.proposed)
    assert state_of(ours) == state_of(theirs)


@pytest.mark.parametrize("deg_p", [2**52 - 1, 2**52])
def test_acceptance_at_the_exact_comparison_boundary(deg_p):
    for deg in (1, 3, 2**51 + 1, deg_p - 1):
        q = deg / deg_p
        for u in (q, math.nextafter(q, 0), math.nextafter(q, 1)):
            assert chains._accepts(u, deg, deg_p) == reference_accepts(u, deg, deg_p)
            if deg_p >= 2**52:
                assert chains._accepts(u, deg, deg_p) == (Fraction(u) < Fraction(deg, deg_p))
    assert chains._accepts(0.999, deg_p, deg_p)
    assert chains._accepts(0.999, deg_p + 1, deg_p)


def test_acceptance_is_exact_where_floats_round():
    # deg / deg' rounds down to u, so a float test would reject u < deg / deg'.
    deg, deg_p = 2**52, 2**52 + 1
    u = 1 - 2**-52
    assert u == deg / deg_p and Fraction(u) < Fraction(deg, deg_p)
    assert chains._accepts(u, deg, deg_p)


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64],
)
def test_ctypes_reads_match_generator_calls(bit_generator):
    ours, theirs = rng_from(11, bit_generator), rng_from(11, bit_generator)
    assert ours.choice(7) == theirs.choice(7)
    c = ours.bit_generator.ctypes
    # Odd runs of words leave a buffered half word where generators keep one.
    for words in (1, 3, 2, 1, 5, 0, 1):
        for _ in range(words):
            assert c.next_uint32(c.state) == theirs.integers(0, 2**32, dtype=np.uint64)
        assert c.next_double(c.state) == theirs.random()
    assert state_of(ours) == state_of(theirs)
    for n in (1, 2, 1525, 2**32 + 1, 2**70 + 5):
        assert random_below(ours, n) == reference_random_below(theirs, n)
    assert state_of(ours) == state_of(theirs)


# -- exact one-step laws ---------------------------------------------------


def mh_kernel(n):
    """P(x, y) = sum over ranks r reaching y of (1/deg x) min(1, deg x / deg y),
    the rejected mass held at x; rows built from ``move``."""
    p = {}
    for x in generate_all(n):
        nbhd = Neighborhood(x)
        row = p[x] = {x: Fraction(0)}
        for r in range(nbhd.degree):
            there = nbhd.move(r)
            accept = min(Fraction(1), Fraction(nbhd.degree, there.degree))
            step = Fraction(1, nbhd.degree)
            row[there.shape] = row.get(there.shape, 0) + step * accept
            row[x] += step * (1 - accept)
    return p


@pytest.mark.parametrize("n", [5, 6])
def test_mh_one_step_law_is_symmetric_and_stochastic(n, hasse):
    p = mh_kernel(n)
    g = hasse[n]
    for x, row in p.items():
        assert sum(row.values()) == 1
        assert all(v > 0 for y, v in row.items() if y != x)
        assert {g.index[y] for y in row if y != x} == set(g.neighbors(g.index[x]))
        for y, v in row.items():
            assert p[y][x] == v
    # A symmetric stochastic kernel is doubly stochastic: uniform is stationary.
    for y in p:
        assert sum(p[x].get(y, 0) for x in p) == 1


def symmetric_kernel(n):
    """Each rank r below M_N moves to ``move(r)`` while r < deg x, and
    holds at x otherwise; every rank has mass 1/M_N."""
    m = max_degree(n)
    p = {}
    for x in generate_all(n):
        nbhd = Neighborhood(x)
        row = p[x] = {x: Fraction(0)}
        for r in range(m):
            y = nbhd.move(r).shape if r < nbhd.degree else x
            row[y] = row.get(y, 0) + Fraction(1, m)
    return p


@pytest.mark.parametrize("n", [5, 6])
def test_symmetric_one_step_law(n):
    p = symmetric_kernel(n)
    for x, row in p.items():
        assert sum(row.values()) == 1
        assert all(v == Fraction(1, max_degree(n)) for y, v in row.items() if y != x)
        for y, v in row.items():
            assert p[y][x] == v


# -- small spaces ------------------------------------------------------------


def test_max_degree_below_four():
    assert (max_degree(2), max_degree(3)) == (0, 1)
    for n in (2, 3):
        assert max(Neighborhood(s).degree for s in generate_all(n)) == max_degree(n)
    with pytest.raises(ValueError, match="n must be >= 4, got 3"):
        max_degree_tree(3)


@pytest.mark.parametrize("sampler", sorted(STEPPERS))
def test_every_chain_runs_at_three_tips(sampler):
    if sampler == "mh-uniform":
        shapes = run_chains(3, n_chains=2, n_steps=20, seed=0).pooled()
    else:
        state, rng = ChainState(TreeShape((0,), (3,))), rng_from(0)
        shapes = [STEPPERS[sampler](state, rng).shape for _ in range(20)]
    assert set(shapes) <= set(generate_all(3))


@pytest.mark.parametrize("sampler", sorted(STEPPERS))
def test_single_shape_space_refused_alike(sampler):
    if sampler == "mh-uniform":
        with pytest.raises(ValueError, match=r"^shape has no neighbors \(single-shape space\)$"):
            run_chains(2, n_chains=1, n_steps=1, seed=0)
    with pytest.raises(ValueError, match=r"^shape has no neighbors \(single-shape space\)$"):
        STEPPERS[sampler](ChainState(TreeShape((0,), (2,))), rng_from(0))
