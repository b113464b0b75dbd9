"""Markov kernels, samplers, and exact small-space diagnostics."""

import hashlib
import itertools
import math
import multiprocessing
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtshapes import (
    TreeShape,
    build_hasse,
    covers,
    deg_minus,
    deg_plus,
    exact_bottleneck,
    exact_gap,
    exact_kernel,
    generate_all,
    mixing_bounds,
    present_edges,
    refinements_below,
    run_chains,
    stationary_distribution,
    validate_fmatrix,
    validate_string,
)
from mtshapes import chains
from mtshapes.chains import (
    ChainState,
    random_below,
    semi_random_init,
    step_mh_uniform,
    step_random_walk,
    step_symmetric,
)
from mtshapes.lattice import LatticeGraph, Neighborhood, max_degree, split_count
from mtshapes.shapes import _fmatrix_vectors
from test_moves import reference_split


def rng_from(seed):
    return np.random.Generator(np.random.PCG64(seed))


def semi_random_fmatrix(n, k, rng):
    """The diagonal draw as a matrix: k - 1 distinct values from {2..n-1},
    sorted, then n, each column filled downward by max(0, previous - 1)
    (the matrix route ``semi_random_init`` reads its vectors off)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1}, got {k}")
    diag = np.empty(k, dtype=np.int64)
    diag[-1] = n
    if k > 1:
        diag[:-1] = np.sort(rng.choice(np.arange(2, n), size=k - 1, replace=False))
    rows = np.arange(k)[:, None]
    cols = np.arange(k)[None, :]
    return np.tril(np.maximum(0, diag[None, :] - (rows - cols)))


def semi_random_by_matrix(n, k, rng):
    """``semi_random_init`` by the matrix route: build, then decode."""
    return TreeShape._trusted(*_fmatrix_vectors(semi_random_fmatrix(n, k, rng)))


class FixedChoice:
    """Stands in for a Generator whose one ``choice`` call picks the given
    positions of its population, in reverse order (both routes sort)."""

    def __init__(self, picks):
        self.picks = list(picks)
        self.calls = 0

    def choice(self, a, size, replace):
        assert (size, replace) == (len(self.picks), False)
        self.calls += 1
        population = np.arange(a) if isinstance(a, int) else a
        return population[self.picks[::-1]]


def reference_refinements(shape):
    """Every refinement, enumerated node by node with itertools (the
    construction the neighborhood ranks must reproduce)."""
    children = [[] for _ in shape.t]
    for c, p in enumerate(shape.t[1:], start=2):
        children[p - 1].append(c)
    out = set()
    for i, (ki, li) in enumerate(shape.children_counts(), start=1):
        for s in range(2, ki + li):
            for j in range(max(0, s - ki), min(s, li) + 1):
                for moved in itertools.combinations(children[i - 1], s - j):
                    out.add(reference_split(shape, i, moved, j))
    return out


def scratch_degree(shape):
    """deg_plus + deg_minus straight from the definitions."""
    t = shape.t
    plus = sum(1 for e in range(1, len(t)) if t[e] == e)
    return plus + sum(split_count(k, l) for k, l in shape.children_counts())


def reference_kernel(graph, kind, lazy=False):
    """Dense kernel built row by row, one branch per kind."""
    v = graph.n_vertices
    p = np.zeros((v, v))
    if kind == "symmetric":
        m_n = max_degree(graph.n)
        for i in range(v):
            nbrs = graph.neighbors(i)
            p[i, list(nbrs)] = 1.0 / m_n
            p[i, i] = 1.0 - len(nbrs) / m_n
    else:
        for i in range(v):
            nbrs = graph.neighbors(i)
            p[i, list(nbrs)] = 1.0 / len(nbrs)
    if lazy:
        p = (np.eye(v) + p) / 2.0
    return p


def reference_stationary(graph, kind):
    """Uniform for the symmetric chain, degree-proportional for the walk."""
    if kind == "symmetric":
        return np.full(graph.n_vertices, 1.0 / graph.n_vertices)
    plus, minus = graph.degrees()
    deg = plus + minus
    return deg / deg.sum()


def reference_bottleneck(graph, kind):
    """(phi_star, minimizing subsets) by enumerating every subset, with
    the per-kind eligibility and denominator written out."""
    v = graph.n_vertices
    adj = np.zeros((v, v), dtype=np.int64)
    for i in range(v):
        adj[i, list(graph.neighbors(i))] = 1
    deg = adj.sum(axis=1)
    best, arg = None, []
    for size in range(1, v + 1):
        for subset in itertools.combinations(range(v), size):
            inside = np.zeros(v, dtype=bool)
            inside[list(subset)] = True
            cut = int(adj[inside][:, ~inside].sum())
            if kind == "symmetric":
                if 2 * size > v:
                    continue
                phi = Fraction(cut, max_degree(graph.n) * size)
            else:
                vol = int(deg[inside].sum())
                if 2 * vol > deg.sum():
                    continue
                phi = Fraction(cut, vol)
            if best is None or phi < best:
                best, arg = phi, [subset]
            elif phi == best:
                arg.append(subset)
    # Subset S is mask sum(2**i for i in S); list the minimizers by mask.
    arg.sort(key=lambda subset: sum(1 << i for i in subset))
    return best, [tuple(graph.vertices[i] for i in s) for s in arg]


def reference_random_below(rng, n):
    """The multi-word draw for every n, one array call per attempt."""
    bits = n.bit_length()
    words = (bits + 31) // 32
    while True:
        r = 0
        for w in rng.integers(0, 1 << 32, size=words, dtype=np.uint64):
            r = (r << 32) | int(w)
        r >>= words * 32 - bits
        if r < n:
            return r


class TestRandomBelow:
    def test_range_and_determinism(self):
        r1 = [random_below(rng_from(3), 10) for _ in range(50)]
        r2 = [random_below(rng_from(3), 10) for _ in range(50)]
        assert r1 == r2
        assert all(0 <= x < 10 for x in r1)

    def test_big_integers(self):
        n = 3 * 2**200 + 7
        xs = [random_below(rng_from(i), n) for i in range(40)]
        assert all(0 <= x < n for x in xs)
        assert any(x > 2**150 for x in xs)

    def test_uniform_ish(self):
        rng = rng_from(0)
        counts = Counter(random_below(rng, 3) for _ in range(30000))
        for v in counts.values():
            assert abs(v - 10000) < 400

    def test_domain(self):
        with pytest.raises(ValueError):
            random_below(rng_from(0), 0)

    @pytest.mark.parametrize("n", [2, 3, 10, 1525, 2**31, 2**32 - 1, 2**32, 2**40 + 3])
    def test_same_stream_as_array_draws(self, n):
        a, b = rng_from(n), rng_from(n)
        assert [random_below(a, n) for _ in range(200)] == [
            reference_random_below(b, n) for _ in range(200)
        ]
        assert a.random() == b.random()


class TestNeighborEnumeration:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_ranks_cover_all_neighbors_once(self, n):
        for s in generate_all(n):
            refs = reference_refinements(s)
            assert refinements_below(s) == refs
            expect = covers(s) | refs
            got = [
                Neighborhood(s).neighbor(r)
                for r in range(deg_plus(s) + deg_minus(s))
            ]
            assert len(got) == len(set(got))
            assert set(got) == expect

    def test_rank_out_of_range(self):
        s = TreeShape((0, 1), (2, 2))
        with pytest.raises(ValueError):
            Neighborhood(s).neighbor(deg_plus(s) + deg_minus(s))

    def test_uniform_neighbor_returns_degree(self):
        s = TreeShape((0, 1), (2, 2))
        nbhd = Neighborhood(s)
        nbr = nbhd.neighbor(random_below(rng_from(1), nbhd.degree))
        assert nbhd.degree == 3
        assert nbr in covers(s) | refinements_below(s)


@st.composite
def walked_shapes(draw):
    """A semi-random shape at N = 4..50 moved by a few random-walk steps,
    with the generator that drew it."""
    n = draw(st.integers(4, 50))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    state = ChainState(semi_random_init(n, draw(st.integers(1, n - 1)), rng))
    for _ in range(draw(st.integers(0, 6))):
        step_random_walk(state, rng)
    return state.shape, rng


def probe_ranks(nbhd, rng):
    """Every rank of a small neighborhood; else every collapse, the first
    and last split of each node, and 32 uniform ranks."""
    if nbhd.degree <= 64:
        return range(nbhd.degree)
    ranks = set(range(len(nbhd.edges)))
    start = len(nbhd.edges)
    for w in nbhd.splits:
        if w:
            ranks |= {start, start + w - 1}
        start += w
    ranks |= {random_below(rng, nbhd.degree) for _ in range(32)}
    return sorted(ranks)


class TestNeighborhoodProperties:
    @settings(deadline=None, derandomize=True)
    @given(walked_shapes())
    def test_neighbors_are_valid_and_adjacent(self, drawn):
        shape, rng = drawn
        n, k = shape.n_tips, shape.n_internal
        nbhd = Neighborhood(shape)
        assert nbhd.edges == present_edges(shape)
        for r in probe_ranks(nbhd, rng):
            nbr = nbhd.neighbor(r)
            assert all(type(x) is int for x in nbr.t + nbr.l)
            assert validate_string(nbr.t, nbr.l, n) is None
            if r < len(nbhd.edges):
                assert nbr.n_internal == k - 1 and nbr in covers(shape)
            else:
                assert nbr.n_internal == k + 1 and shape in covers(nbr)

    @settings(deadline=None, derandomize=True)
    @given(walked_shapes())
    def test_degree_matches_definitions(self, drawn):
        shape, _ = drawn
        assert Neighborhood(shape).degree == scratch_degree(shape)
        assert deg_plus(shape) + deg_minus(shape) == scratch_degree(shape)

    @settings(deadline=None, derandomize=True)
    @given(walked_shapes())
    def test_mh_cached_degree_stays_fresh(self, drawn):
        shape, rng = drawn
        state = ChainState(shape)
        for _ in range(20):
            step_mh_uniform(state, rng)
            assert state.cached.shape is state.shape
            assert state.cached.degree == scratch_degree(state.shape)


# sha256 over each chain's to_text lines joined by newlines, each chain
# followed by "\n--\n", then repr(acceptance_rates), for
# run_chains(n, sampler, n_chains=3, n_steps=400, seed=2506).  Any change
# here alters the seeded stream and belongs in CHANGES.md.
GOLDEN_STREAMS = {
    ("mh-uniform", 5): "90410b1fd694f7154621154840add3f6eddc2549de4a104c8eaf7b5f8412ef1e",
    ("mh-uniform", 20): "31fb7e0bd39ad2f1fd53b09f559f4d8c9af88c44604494bad56f09af5278cb8f",
    ("mh-uniform", 100): "abaef226a883627c77c45433952b2308d8a7bce64eca0b7d86277eb30dbeae94",
    ("symmetric", 5): "9a732f2ae5c44e8d547ffcee428d993e77369f6743905685cd793b14c4bb081e",
    ("symmetric", 20): "7a0803d48199ecc182b57d0a0670c5b46bbf6df0d8bc13de1512e400972318e1",
    ("symmetric", 100): "157f7cc279e9a745abfb78482d9b259bc59ab40010b55a43114f24c517a1eaa7",
    ("random-walk", 5): "5ef4cf950f0d3b1770d2efaccedf30e9c40e3530cab4fabcdaab6286699f7c28",
    ("random-walk", 20): "3a9735011ef2054d0c4b715575ada8e7c045f219aa97cc4076bddf7219dac34a",
    ("random-walk", 100): "f48949e30e3947aaf24f924944c1a3dca220def7321b70d342423c34491385e6",
}


@pytest.mark.parametrize("sampler, n", list(GOLDEN_STREAMS))
def test_seeded_stream_is_pinned(sampler, n):
    r = run_chains(n, sampler, n_chains=3, n_steps=400, seed=2506)
    h = hashlib.sha256()
    for chain in r.samples:
        h.update(("\n".join(s.to_text() for s in chain) + "\n--\n").encode())
    h.update(repr(r.acceptance_rates).encode())
    assert h.hexdigest() == GOLDEN_STREAMS[sampler, n]


@pytest.fixture
def pool_starts(monkeypatch):
    """Two usable CPUs whatever the host has; records each pool context made."""
    monkeypatch.setattr(chains, "_usable_cpus", lambda: 2)
    started = []
    real = multiprocessing.get_context

    def get_context(method=None):
        started.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return started


@pytest.fixture
def no_pool(monkeypatch):
    def get_context(method=None):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", get_context)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
class TestWorkerProcesses:
    @pytest.mark.parametrize("threads", [2, 5], ids=["threads-2", "threads-over-chains"])
    @pytest.mark.parametrize("sampler, n", list(GOLDEN_STREAMS))
    def test_pinned_stream_reproduced(self, sampler, n, threads, pool_starts):
        r = run_chains(n, sampler, n_chains=3, n_steps=400, seed=2506, threads=threads)
        h = hashlib.sha256()
        for chain in r.samples:
            h.update(("\n".join(s.to_text() for s in chain) + "\n--\n").encode())
        h.update(repr(r.acceptance_rates).encode())
        assert h.hexdigest() == GOLDEN_STREAMS[sampler, n]
        assert pool_starts == ["fork"]

    @pytest.mark.parametrize("sampler", list(chains._STEPPERS))
    def test_result_equals_serial(self, sampler, pool_starts):
        # symmetric and random-walk chains make no MH proposal, so their
        # rates are NaN, each a new float once pickled back from a worker
        kw = dict(n_chains=3, n_steps=120, seed=41, thin=2)
        forked = run_chains(20, sampler, threads=2, **kw)
        assert pool_starts == ["fork"]
        serial = run_chains(20, sampler, threads=1, **kw)
        assert forked == serial
        assert repr(forked.acceptance_rates) == repr(serial.acceptance_rates)
        assert forked != run_chains(20, sampler, threads=1, **(kw | {"seed": 42}))

    def test_result_equality_counts_nan_rates_equal(self):
        result = chains.RunResult([["0|4", "0,1|2,2"]], [float("nan")])
        assert result == chains.RunResult([["0|4", "0,1|2,2"]], [float("nan")])
        assert result != chains.RunResult([["0|4", "0,1|1,3"]], [float("nan")])
        assert result != chains.RunResult([["0|4", "0,1|2,2"]], [0.5])

    def test_worker_error_reaches_caller(self, pool_starts):
        with pytest.raises(ValueError, match=r"^shape has no neighbors \(single-shape space\)$"):
            run_chains(2, "symmetric", n_chains=2, n_steps=1, seed=0, threads=2)
        assert pool_starts == ["fork"]


class TestSerialFallback:
    kw = dict(n_chains=3, n_steps=50, seed=7)

    def test_one_usable_cpu(self, monkeypatch, no_pool):
        monkeypatch.setattr(chains, "_usable_cpus", lambda: 1)
        serial = run_chains(8, **self.kw)
        assert run_chains(8, threads=4, **self.kw) == serial

    def test_one_chain(self, monkeypatch, no_pool):
        monkeypatch.setattr(chains, "_usable_cpus", lambda: 4)
        kw = self.kw | {"n_chains": 1}
        assert run_chains(8, threads=4, **kw) == run_chains(8, **kw)

    def test_no_fork_start_method(self, monkeypatch, no_pool):
        monkeypatch.setattr(chains, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert run_chains(8, threads=4, **self.kw) == run_chains(8, **self.kw)


class TestSteps:
    def test_symmetric_empirical_matches_kernel(self, hasse):
        g = hasse[5]
        p = exact_kernel(g, "symmetric")
        rng = rng_from(7)
        state = ChainState(g.vertices[0])
        counts = np.zeros((g.n_vertices, g.n_vertices))
        prev = 0
        steps = 200_000
        for _ in range(steps):
            step_symmetric(state, rng)
            cur = g.index[state.shape]
            counts[prev, cur] += 1
            prev = cur
        emp = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
        # every row is visited thousands of times; 1.5e-2 is ~5 sigma
        assert np.abs(emp - p).max() < 1.5e-2

    def test_symmetric_self_loop_masses(self, hasse):
        g = hasse[5]
        p = exact_kernel(g, "symmetric")
        m = max_degree(5)
        for i, v in enumerate(g.vertices):
            deg = deg_plus(v) + deg_minus(v)
            assert p[i, i] == pytest.approx(1 - deg / m)
        # the maximum-degree shape never holds; a degree-1 shape almost always does
        from mtshapes import max_degree_tree

        top, m5 = max_degree_tree(5)
        assert p[g.index[top], g.index[top]] == pytest.approx(0)
        deg1 = [v for v in g.vertices if deg_plus(v) + deg_minus(v) == 1]
        assert p[g.index[deg1[0]], g.index[deg1[0]]] == pytest.approx(1 - 1 / m5)

    def test_random_walk_reflects(self):
        star = TreeShape((0,), (6,))
        binary = next(iter(generate_all(6, 5)))
        rng = rng_from(2)
        for _ in range(25):
            assert step_random_walk(ChainState(star), rng).shape.n_internal == 2
            assert step_random_walk(ChainState(binary), rng).shape.n_internal == 4

    def test_random_walk_stationary_proportional_to_degree(self, hasse):
        g = hasse[5]
        pi = stationary_distribution(g, "random-walk")
        rng = rng_from(11)
        state = ChainState(g.vertices[0])
        visits = np.zeros(g.n_vertices)
        for _ in range(200_000):
            step_random_walk(state, rng)
            visits[g.index[state.shape]] += 1
        assert np.abs(visits / visits.sum() - pi).max() < 5e-3

    def test_mh_uniform_close_to_uniform(self, hasse):
        g = hasse[5]
        rng = rng_from(3)
        state = ChainState(g.vertices[0])
        visits = Counter()
        steps = 200_000
        for _ in range(steps):
            step_mh_uniform(state, rng)
            visits[state.shape] += 1
        target = 1 / g.n_vertices
        se = math.sqrt(target * (1 - target) / steps)
        for v in g.vertices:
            assert abs(visits[v] / steps - target) < 6 * se
        assert 0 < state.acceptance_rate < 1
        assert state.proposed == steps

    def test_mh_acceptance_rule(self):
        # from the 4-tip star (degree 2): neighbor "0,1|1,3" also has
        # degree 2 (ratio 1, always accepted), neighbor "0,1|2,2" has
        # degree 3 (accepted w.p. 2/3); staying thus has mass 1/6
        star = TreeShape((0,), (4,))
        rng = rng_from(0)
        landed = Counter(
            step_mh_uniform(ChainState(star), rng).shape for _ in range(9000)
        )
        assert landed[TreeShape((0, 1), (1, 3))] / 9000 == pytest.approx(1 / 2, abs=0.02)
        assert landed[TreeShape((0, 1), (2, 2))] / 9000 == pytest.approx(1 / 3, abs=0.02)
        assert landed[star] / 9000 == pytest.approx(1 / 6, abs=0.02)
        # from the degree-1 binary the unique proposal has degree 3:
        # moves happen with probability 1/3, never deterministically
        s = TreeShape((0, 1, 1), (0, 2, 2))
        moved = sum(
            step_mh_uniform(ChainState(s), rng).shape != s for _ in range(900)
        )
        assert moved / 900 == pytest.approx(1 / 3, abs=0.06)


class TestSemiRandom:
    def test_validity_bulk(self):
        rng = rng_from(8)
        for _ in range(2000):
            n = int(rng.integers(2, 41))
            k = int(rng.integers(1, n))
            f = semi_random_fmatrix(n, k, rng)
            assert validate_fmatrix(f, n=n) is None

    def test_star_and_forced_binary(self):
        rng = rng_from(0)
        assert semi_random_init(6, 1, rng) == TreeShape((0,), (6,))
        assert semi_random_init(4, 3, rng) == TreeShape((0, 1, 1), (0, 2, 2))

    def test_exact_internal_count(self):
        rng = rng_from(4)
        for k in range(1, 8):
            s = semi_random_init(8, k, rng)
            assert s.n_internal == k and s.n_tips == 8

    @settings(deadline=None, derandomize=True)
    @given(st.data())
    def test_init_decodes_a_valid_matrix(self, data):
        # semi_random_init builds its shape unchecked from the drawn matrix.
        n = data.draw(st.integers(2, 50))
        seed = data.draw(st.integers(0, 2**32 - 1))
        for k in range(1, n):
            m = semi_random_fmatrix(n, k, rng_from(seed))
            assert validate_fmatrix(m, n=n) is None
            s = semi_random_init(n, k, rng_from(seed))
            assert validate_string(s.t, s.l, n=n) is None
            assert np.array_equal(s.fmatrix(), m)

    def test_domain(self):
        rng = rng_from(0)
        for route in (semi_random_init, semi_random_fmatrix):
            with pytest.raises(ValueError, match=r"^k must be in 1\.\.4, got 5$"):
                route(5, 5, rng)
            with pytest.raises(ValueError, match=r"^k must be in 1\.\.4, got 0$"):
                route(5, 0, rng)
            with pytest.raises(ValueError, match=r"^n must be >= 2, got 1$"):
                route(1, 1, rng)
        assert rng.bit_generator.state == rng_from(0).bit_generator.state

    def test_every_diagonal_to_n12_matches_matrix_route(self):
        seen = 0
        for n in range(2, 13):
            for k in range(1, n):
                for picks in itertools.combinations(range(n - 2), k - 1):
                    a, b = FixedChoice(picks), FixedChoice(picks)
                    assert semi_random_init(n, k, a) == semi_random_by_matrix(n, k, b)
                    assert a.calls == b.calls == (k > 1)
                    seen += 1
        assert seen == 2047

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(st.integers(2, 300), st.data())
    def test_matches_matrix_route_to_n300(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        a, b = rng_from(seed), rng_from(seed)
        assert semi_random_init(n, k, a) == semi_random_by_matrix(n, k, b)
        assert a.bit_generator.state == b.bit_generator.state

    # Past a population of 10,000, numpy's choice without replacement
    # switches from Floyd's algorithm to a tail shuffle once the size
    # passes population // 50: k = 400 and 401 at n = 20000.
    @pytest.mark.parametrize("n, k", [(10002, 2), (10002, 200), (20000, 400), (20000, 401)])
    def test_matches_matrix_route_on_large_populations(self, n, k):
        a, b = rng_from(n + k), rng_from(n + k)
        assert semi_random_init(n, k, a) == semi_random_by_matrix(n, k, b)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("n, k", [(3000, 2999), (10**7, 2)])
    def test_memory_is_bounded(self, n, k):
        # the matrix route holds K x K int64 arrays (225 MB at K = 2999),
        # and choosing from np.arange(2, n) holds n int64 (80 MB at n = 10^7)
        rng = rng_from(1)
        tracemalloc.start()
        try:
            s = semi_random_init(n, k, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.n_internal == k and s.n_tips == n
        assert peak < 8e6


class TestRunChains:
    def test_deterministic_and_thread_invariant(self):
        kw = dict(n_chains=4, n_steps=150, seed=99)
        a = run_chains(7, "mh-uniform", **kw)
        b = run_chains(7, "mh-uniform", **kw)
        c = run_chains(7, "mh-uniform", threads=4, **kw)
        assert a.samples == b.samples == c.samples
        assert a.acceptance_rates == c.acceptance_rates

    def test_chain_i_starts_semi_random_with_k_cycling(self):
        # the start and steps of chain i, replayed by hand from its stream
        n, n_chains, seed = 5, 6, 12
        r = run_chains(n, "symmetric", n_chains=n_chains, n_steps=3, seed=seed)
        for i, seq in enumerate(np.random.SeedSequence(seed).spawn(n_chains)):
            rng = np.random.Generator(np.random.PCG64(seq))
            state = ChainState(semi_random_init(n, (i % (n - 1)) + 1, rng))
            path = [step_symmetric(state, rng).shape for _ in range(3)]
            assert r.samples[i] == path

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_must_be_positive(self, threads):
        with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
            run_chains(5, n_chains=1, n_steps=1, seed=0, threads=threads)

    @pytest.mark.parametrize("field", ["n_chains", "n_steps", "thin"])
    def test_counts_must_be_positive(self, field):
        kw = dict(n_chains=1, n_steps=1, thin=1) | {field: 0}
        with pytest.raises(ValueError, match="^n_chains, n_steps and thin must be positive$"):
            run_chains(5, seed=0, **kw)

    def test_lines_decode_to_samples(self):
        r = run_chains(9, "mh-uniform", n_chains=3, n_steps=60, seed=8, thin=3)
        assert r.samples is r.samples
        assert r.lines == [[s.to_text() for s in chain] for chain in r.samples]
        for line, s in zip([x for chain in r.lines for x in chain], r.pooled()):
            assert s == TreeShape.from_text(line)
            assert type(s.t) is tuple and type(s.l) is tuple
            assert {type(x) for x in s.t + s.l} == {int}

    def test_pooled_size_with_thinning(self):
        r = run_chains(6, "random-walk", n_chains=3, n_steps=100, seed=1, thin=10)
        assert [len(s) for s in r.samples] == [10, 10, 10]
        assert len(r.pooled()) == 30

    def test_semi_random_init_cycles_k(self):
        r = run_chains(6, "random-walk", n_chains=5, n_steps=1, seed=5)
        assert len(r.samples) == 5

    def test_acceptance_rates_only_for_mh(self):
        r = run_chains(6, "random-walk", n_chains=2, n_steps=10, seed=3)
        assert all(math.isnan(x) for x in r.acceptance_rates)
        r = run_chains(6, "mh-uniform", n_chains=2, n_steps=50, seed=3)
        assert all(0 <= x <= 1 for x in r.acceptance_rates)

    def test_bad_sampler(self):
        with pytest.raises(ValueError):
            run_chains(6, "bogus", n_chains=1, n_steps=1, seed=0)

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_too_few_tips(self, n):
        with pytest.raises(ValueError, match=f"^n must be >= 2, got {n}$"):
            run_chains(n, "mh-uniform", n_chains=2, n_steps=1, seed=0)


def dense_kernel(graph, kind, lazy):
    """``exact_kernel`` through a boolean V x V adjacency, as it was once
    built: each row is the adjacency over w(x), the diagonal 1 - deg/w."""
    w = chains._weights(graph, kind)
    v = graph.n_vertices
    adj = np.zeros((v, v), dtype=bool)
    lower, upper = chains._edges(graph)
    adj[lower + upper, upper + lower] = True
    p = adj / w[:, None]
    diag = np.arange(v)
    p[diag, diag] = 1.0 - adj.sum(axis=1) / w
    if lazy:
        p[diag, diag] += 1.0
        p /= 2.0
    return p


class TestExactKernels:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_bytes_match_dense_adjacency_route(self, n, hasse):
        g = hasse[n] if n in hasse else build_hasse(n)
        for kind, lazy in itertools.product(["symmetric", "random-walk"], [False, True]):
            p = exact_kernel(g, kind, lazy=lazy)
            assert p.dtype == np.float64
            assert p.tobytes() == dense_kernel(g, kind, lazy).tobytes()

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("kind", ["symmetric", "random-walk"])
    def test_stochastic_and_stationary(self, n, kind, hasse):
        g = hasse[n]
        p = exact_kernel(g, kind)
        pi = stationary_distribution(g, kind)
        assert np.allclose(p.sum(axis=1), 1, atol=1e-14)
        assert np.abs(pi @ p - pi).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 5])
    def test_symmetric_kernel_is_symmetric_doubly_stochastic(self, n, hasse):
        p = exact_kernel(hasse[n], "symmetric")
        assert np.array_equal(p, p.T)
        assert np.allclose(p.sum(axis=0), 1, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_walk_detailed_balance(self, n, hasse):
        g = hasse[n]
        p = exact_kernel(g, "random-walk")
        pi = stationary_distribution(g, "random-walk")
        q = pi[:, None] * p
        assert np.abs(q - q.T).max() < 1e-15

    @pytest.mark.parametrize("kind", ["symmetric", "random-walk"])
    def test_irreducible(self, kind, hasse):
        g = hasse[5]
        p = exact_kernel(g, kind)
        reach = np.linalg.matrix_power(p + np.eye(g.n_vertices), g.n_vertices)
        assert np.all(reach > 0)

    def test_single_shape_space_rejected(self, hasse):
        with pytest.raises(ValueError, match="isolated"):
            exact_kernel(hasse[2], "random-walk")

    def test_lazy_halves_off_diagonal(self, hasse):
        g = hasse[4]
        p = exact_kernel(g, "random-walk")
        lazy = exact_kernel(g, "random-walk", lazy=True)
        assert np.allclose(lazy, (np.eye(g.n_vertices) + p) / 2)

    @pytest.mark.parametrize(
        "exact", [exact_kernel, stationary_distribution, exact_bottleneck, exact_gap]
    )
    def test_unknown_kind_rejected(self, exact, hasse):
        with pytest.raises(ValueError, match="kind must be one of"):
            exact(hasse[4], "mh-uniform")

    @pytest.mark.parametrize(
        "exact", [exact_kernel, stationary_distribution, exact_bottleneck, exact_gap]
    )
    def test_symmetric_at_three_tips_is_the_random_walk(self, exact, hasse):
        # M_3 = 1 and both shapes at N = 3 have degree 1, so the chains agree.
        sym, rw = exact(hasse[3], "symmetric"), exact(hasse[3], "random-walk")
        if isinstance(sym, np.ndarray):
            assert np.array_equal(sym, rw)
        elif isinstance(sym, chains.GapResult):
            assert (sym.gamma, sym.gamma_star, sym.t_rel) == (rw.gamma, rw.gamma_star, rw.t_rel)
            assert np.array_equal(sym.eigenvalues, rw.eigenvalues)
        else:
            assert (sym.phi_star, sym.minimizers) == (rw.phi_star, rw.minimizers)
        with pytest.raises(ValueError, match="isolated shape"):
            exact(hasse[2], "symmetric")

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("kind", ["symmetric", "random-walk"])
    def test_matches_row_by_row_reference(self, n, kind, hasse):
        g = hasse[n]
        for lazy in (False, True):
            assert np.array_equal(
                exact_kernel(g, kind, lazy=lazy), reference_kernel(g, kind, lazy)
            )
        assert np.array_equal(
            stationary_distribution(g, kind), reference_stationary(g, kind)
        )

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("kind", ["symmetric", "random-walk"])
    def test_bottleneck_matches_reference(self, n, kind, hasse):
        res = exact_bottleneck(hasse[n], kind)
        phi, minimizers = reference_bottleneck(hasse[n], kind)
        assert res.phi_star == phi
        assert len(res.minimizers) == len(minimizers)
        assert set(res.minimizers) == set(minimizers)
        assert res.minimizers == minimizers

    def test_bottleneck_refuses_an_unconfirmed_float_pick(self, hasse, monkeypatch):
        # The float argmin is only a candidate; a pick that the integer
        # cross-multiplication beats must not be returned.
        monkeypatch.setattr(np, "argmin", lambda a: len(a) - 1)
        with pytest.raises(ArithmeticError, match="missed the exact"):
            exact_bottleneck(hasse[5], "symmetric")


class TestBottleneck:
    # Exhaustively computed minima.  The singleton containing the unique
    # degree-1 binary shape attains 1/M_N (symmetric) and 1 (random
    # walk), but larger subsets do better from N = 4 (walk) / 5 (both).
    def test_exact_values(self, hasse):
        assert exact_bottleneck(hasse[4], "symmetric").phi_star == Fraction(1, 3)
        assert exact_bottleneck(hasse[4], "random-walk").phi_star == Fraction(1, 2)
        assert exact_bottleneck(hasse[5], "symmetric").phi_star == Fraction(4, 35)
        assert exact_bottleneck(hasse[5], "random-walk").phi_star == Fraction(1, 5)

    def test_n4_symmetric_minimizers_include_degree_one_singleton(self, hasse):
        g = hasse[4]
        res = exact_bottleneck(g, "symmetric")
        deg1 = [v for v in g.vertices if deg_plus(v) + deg_minus(v) == 1]
        assert (deg1[0],) in [tuple(m) for m in res.minimizers]

    @pytest.mark.parametrize("n", [4, 5])
    def test_degree_one_singleton_ratios(self, n, hasse):
        # the ratio of the singleton cut itself, for both kernels
        g = hasse[n]
        deg1 = [
            i
            for i, v in enumerate(g.vertices)
            if len(g.up[i]) + len(g.down[i]) == 1
        ]
        assert len(deg1) == 1
        m_n = max_degree(n)
        assert Fraction(1, m_n * 1) <= Fraction(1, 2)  # eligible singleton
        # symmetric: cut = 1 edge, pi uniform -> 1 / M_N; walk: cut/vol = 1
        assert exact_bottleneck(g, "symmetric").phi_star <= Fraction(1, m_n)
        assert exact_bottleneck(g, "random-walk").phi_star <= 1

    def test_refuses_large_spaces(self, hasse):
        with pytest.raises(ValueError):
            exact_bottleneck(hasse[6], "symmetric")

    @staticmethod
    def path_graph(v):
        """A hand-built path on ``v`` vertices: 0 - 1 - ... - (v - 1)."""
        shapes = tuple(TreeShape((0,), (m,)) for m in range(2, v + 2))
        return LatticeGraph(
            n=0,
            vertices=shapes,
            up=tuple((i + 1,) if i + 1 < v else () for i in range(v)),
            down=tuple((i - 1,) if i else () for i in range(v)),
            index={s: i for i, s in enumerate(shapes)},
        )

    def test_cap_is_fifteen_vertices(self):
        # The 15-vertex path has degrees 1, 2, ..., 2, 1 (total 28); a
        # prefix of 7 vertices holds volume 13 behind one cut edge.
        res = exact_bottleneck(self.path_graph(15), "random-walk")
        assert res.phi_star == Fraction(1, 13)
        assert len(res.minimizers) == 2
        with pytest.raises(ValueError, match="over 16 vertices .* cap is 15$"):
            exact_bottleneck(self.path_graph(16), "random-walk")


class TestGapAndBounds:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("kind", ["symmetric", "random-walk"])
    def test_cheeger_sandwich_lazy(self, n, kind, hasse):
        g = hasse[n]
        phi_lazy = exact_bottleneck(g, kind).phi_star / 2
        gap = exact_gap(g, kind, lazy=True)
        assert float(phi_lazy**2 / 2) <= gap.gamma + 1e-12
        assert gap.gamma <= float(2 * phi_lazy) + 1e-12

    @pytest.mark.parametrize("kind", ["symmetric", "random-walk"])
    def test_lazy_eigenvalues_nonnegative(self, kind, hasse):
        gap = exact_gap(hasse[5], kind, lazy=True)
        assert gap.eigenvalues.min() >= -1e-12
        assert gap.gamma == pytest.approx(gap.gamma_star)

    def test_nonlazy_walk_is_periodic(self, hasse):
        # the covering graph is bipartite by K, so -1 is an eigenvalue
        gap = exact_gap(hasse[5], "random-walk")
        assert gap.eigenvalues.min() == pytest.approx(-1)
        assert gap.gamma_star == pytest.approx(0, abs=1e-10)
        assert gap.t_rel == math.inf

    def test_bound_values(self):
        b5 = mixing_bounds(5)
        assert b5.symmetric_lower == 1.25
        assert b5.m_n == 5 and b5.g_n == 15
        assert mixing_bounds(10).random_walk_lower == 7

    @pytest.mark.parametrize("n", range(4, 21))
    def test_lower_below_upper(self, n):
        b = mixing_bounds(n)
        assert b.symmetric_lower <= b.symmetric_lazy_upper
        assert b.random_walk_lower <= b.random_walk_lazy_upper

    def test_include_exact_beyond_subset_cap(self, hasse):
        b = mixing_bounds(6, include_exact=True)
        assert b.exact["diameter"] == 7
        for kind in ("symmetric", "random-walk"):
            gap = exact_gap(hasse[6], kind, lazy=True)
            assert b.exact[kind] == {"lazy_gamma": gap.gamma, "lazy_t_rel": gap.t_rel}

    def test_include_exact(self):
        b = mixing_bounds(5, include_exact=True)
        assert b.exact["diameter"] == 5
        sym = b.exact["symmetric"]
        assert sym["phi_star"] == pytest.approx(4 / 35)
        assert sym["lazy_gamma"] > 0
