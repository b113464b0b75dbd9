"""Markov kernels, samplers, and exact small-space diagnostics."""

import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import os
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
from mtshapes import chains, cli
from mtshapes.chains import (
    ChainState,
    random_below,
    semi_random_init,
    step_mh_uniform,
    step_random_walk,
    step_symmetric,
)
from mtshapes.lattice import Neighborhood, max_degree, split_count
from mtshapes.shapes import _fmatrix_vectors
from test_lattice import graph_from_covers
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


def reference_kernel(graph, kind):
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

    @pytest.mark.parametrize("n", [0, -1, -(2**40)])
    def test_draw_loop_refuses_an_empty_range_unread(self, n):
        # No r < n exists below 1, so the rejection loop would spin forever.
        calls = itertools.count()

        def word():
            next(calls)
            return 0

        assert chains._below(word, 1) == 0
        with pytest.raises(ValueError, match=f"^n must be positive, got {n}$"):
            chains._below(word, n)
        assert next(calls) == 0

    @pytest.mark.parametrize("n", [2, 3, 10, 1525, 2**31, 2**32 - 1, 2**32, 2**40 + 3])
    def test_same_stream_as_array_draws(self, n):
        a, b = rng_from(n), rng_from(n)
        assert [random_below(a, n) for _ in range(200)] == [
            reference_random_below(b, n) for _ in range(200)
        ]
        assert a.random() == b.random()


def buffered_after_choice(seed):
    """A PCG64 right after ``choice`` calls, the last of which left the
    upper half of a 64-bit output buffered (``has_uint32 == 1``)."""
    bitgen = np.random.PCG64(seed)
    rng = np.random.Generator(bitgen)
    rng.choice(17, size=3, replace=False)
    while not bitgen.state["has_uint32"]:
        rng.choice(17, size=3, replace=False)
    return bitgen


class TestRawDraws:
    """``_RawDraws`` serves, from ``random_raw`` blocks, the words and
    doubles that the bit generator's ctypes interface would."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["half-buffered", "fresh"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_ctypes_on_a_twin(self, seed, buffered):
        if buffered:
            a, b = buffered_after_choice(seed), buffered_after_choice(seed)
        else:
            a, b = np.random.PCG64(seed), np.random.PCG64(seed)
        assert a.state == b.state and a.state["has_uint32"] == buffered
        draws, c = chains._RawDraws(a), b.ctypes
        twin = np.random.Generator(b)
        big = 3 * 2**70 + 1
        # A random interleaving, long enough to cross two raw blocks.
        for op in np.random.default_rng(seed).integers(0, 3, size=3 * chains._RAW_BLOCK):
            if op == 0:
                assert draws.uint32() == c.next_uint32(c.state)
            elif op == 1:
                assert draws.double() == c.next_double(c.state)
            else:
                assert chains._below(draws.uint32, big) == random_below(twin, big)

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.PCG64DXSM])
    def test_other_bit_generators_refused(self, bitgen):
        with pytest.raises(TypeError, match="^expected a PCG64 bit generator, got "):
            chains._RawDraws(bitgen(0))


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
# followed by "\n--\n", then repr(acceptance_rates), for 3 chains of 400
# steps from seed 2506: run_chains(n, ...) for the MH chain, and
# ``replay`` of run_chains's per-chain loop for the symmetric chain and
# the walk.  Any change here alters the seeded stream and belongs in
# CHANGES.md.
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


MH_STREAMS = [key for key in GOLDEN_STREAMS if key[0] == "mh-uniform"]
REPLAYED = {"symmetric": step_symmetric, "random-walk": step_random_walk}


def replay(stepper, n, *, n_chains=3, n_steps=400, seed=2506):
    """``run_chains``'s per-chain loop with ``stepper`` in place of the MH
    step: chain i starts semi-random with (i mod (N-1)) + 1 internal
    nodes from its own spawned stream, and every state is kept."""
    lines, rates = [], []
    for i, seq in enumerate(np.random.SeedSequence(seed).spawn(n_chains)):
        rng = np.random.Generator(np.random.PCG64(seq))
        state = ChainState(semi_random_init(n, (i % (n - 1)) + 1, rng))
        lines.append([stepper(state, rng).shape.to_text() for _ in range(n_steps)])
        rates.append(state.acceptance_rate)
    return chains.RunResult(lines, rates)


def stream_digest(r):
    h = hashlib.sha256()
    for chain in r.samples:
        h.update(("\n".join(s.to_text() for s in chain) + "\n--\n").encode())
    h.update(repr(r.acceptance_rates).encode())
    return h.hexdigest()


@pytest.mark.parametrize("sampler, n", list(GOLDEN_STREAMS))
def test_seeded_stream_is_pinned(sampler, n):
    if sampler == "mh-uniform":
        r = run_chains(n, n_chains=3, n_steps=400, seed=2506)
    else:
        r = replay(REPLAYED[sampler], n)
    assert stream_digest(r) == GOLDEN_STREAMS[sampler, n]


@pytest.mark.parametrize("sampler, n", MH_STREAMS)
def test_public_stepper_gives_the_pinned_stream(sampler, n):
    # run_chains reads each chain's PCG64 in raw blocks; step_mh_uniform
    # reads the caller's Generator through ctypes.  One stream either way.
    assert stream_digest(replay(step_mh_uniform, n)) == GOLDEN_STREAMS[sampler, n]


@pytest.fixture
def pool_starts(monkeypatch):
    """Two usable CPUs whatever the host has; records each context made
    for worker processes."""
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
        raise AssertionError("worker processes were started")

    monkeypatch.setattr(multiprocessing, "get_context", get_context)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
class TestWorkerProcesses:
    @pytest.mark.parametrize("threads", [2, 5], ids=["threads-2", "threads-over-chains"])
    @pytest.mark.parametrize("sampler, n", MH_STREAMS)
    def test_pinned_stream_reproduced(self, sampler, n, threads, pool_starts):
        r = run_chains(n, n_chains=3, n_steps=400, seed=2506, threads=threads)
        assert stream_digest(r) == GOLDEN_STREAMS[sampler, n]
        assert pool_starts == ["fork"]

    def test_result_equals_serial(self, pool_starts):
        kw = dict(n_chains=3, n_steps=120, seed=41, thin=2)
        forked = run_chains(20, threads=2, **kw)
        assert pool_starts == ["fork"]
        serial = run_chains(20, threads=1, **kw)
        assert forked == serial
        assert repr(forked.acceptance_rates) == repr(serial.acceptance_rates)
        assert forked != run_chains(20, threads=1, **(kw | {"seed": 42}))

    def test_worker_error_reaches_caller(self, pool_starts):
        with pytest.raises(ValueError, match=r"^shape has no neighbors \(single-shape space\)$"):
            run_chains(2, n_chains=2, n_steps=1, seed=0, threads=2)
        assert pool_starts == ["fork"]


@pytest.fixture
def three_cpus(monkeypatch):
    """Three usable CPUs, so run_chains forks two children; records each
    child it terminates, and after the test none may still be alive."""
    monkeypatch.setattr(chains, "_usable_cpus", lambda: 3)
    terminated = []
    real = multiprocessing.context.ForkProcess.terminate

    def terminate(self):
        terminated.append(self.pid)
        real(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "terminate", terminate)
    yield terminated
    assert multiprocessing.active_children() == []


def _fail_where(monkeypatch, in_parent):
    """Make the chains run in the calling process (``in_parent``), or else
    those run in its children, start in the one-shape space N = 2, where
    the first step raises."""
    parent, real = os.getpid(), chains._run_one_chain

    def run_one_chain(n, n_steps, thin, k, seed_seq):
        if (os.getpid() == parent) == in_parent:
            n, k = 2, 1
        return real(n, n_steps, thin, k, seed_seq)

    monkeypatch.setattr(chains, "_run_one_chain", run_one_chain)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
class TestNoChildOutlivesTheRun:
    @pytest.mark.parametrize("n_chains", [3, 7], ids=["even-shares", "uneven-shares"])
    def test_success(self, n_chains, three_cpus):
        kw = dict(n_chains=n_chains, n_steps=60, seed=5, thin=3)
        assert run_chains(12, threads=3, **kw) == run_chains(12, **kw)
        assert three_cpus == []  # joined, never terminated

    @pytest.mark.parametrize("sampler, n", MH_STREAMS)
    def test_pinned_stream_reproduced(self, sampler, n, three_cpus):
        r = run_chains(n, n_chains=3, n_steps=400, seed=2506, threads=3)
        assert stream_digest(r) == GOLDEN_STREAMS[sampler, n]
        assert three_cpus == []

    def test_error_in_a_child(self, monkeypatch, three_cpus):
        _fail_where(monkeypatch, in_parent=False)
        with pytest.raises(ValueError, match=r"^shape has no neighbors \(single-shape space\)$"):
            run_chains(8, n_chains=7, n_steps=50, seed=0, threads=3)
        assert len(three_cpus) == 2

    def test_error_only_in_the_callers_share(self, monkeypatch, three_cpus):
        _fail_where(monkeypatch, in_parent=True)
        with pytest.raises(ValueError, match=r"^shape has no neighbors \(single-shape space\)$"):
            run_chains(8, n_chains=7, n_steps=50, seed=0, threads=3)
        assert len(three_cpus) == 2


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

    def test_n_must_fit_int64(self):
        # s_j = d_j + j reaches n + k - 1 < 2n, which int64 holds up to n = 2**62
        rng = rng_from(0)
        for n, k in [(2**62 + 1, 2), (2**63 - 1, 2), (2**63, 1), (2**64, 3)]:
            with pytest.raises(ValueError, match=rf"^n must be <= 2\*\*62, got {n}$"):
                semi_random_init(n, k, rng)
        assert rng.bit_generator.state == rng_from(0).bit_generator.state
        for k in (1, 2, 5):
            s = semi_random_init(2**62, k, rng)
            assert s.n_internal == k and validate_string(s.t, s.l, n=2**62) is None

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
        a = run_chains(7, **kw)
        b = run_chains(7, **kw)
        c = run_chains(7, threads=4, **kw)
        assert a.samples == b.samples == c.samples
        assert a.acceptance_rates == c.acceptance_rates

    def test_chain_i_starts_semi_random_with_k_cycling(self):
        # the start and steps of chain i, replayed from its stream; this
        # also ties ``replay`` to run_chains's loop
        kw = dict(n_chains=6, n_steps=40, seed=12)
        assert run_chains(5, **kw) == replay(step_mh_uniform, 5, **kw)

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
        r = run_chains(9, n_chains=3, n_steps=60, seed=8, thin=3)
        assert r.samples is r.samples
        assert r.lines == [[s.to_text() for s in chain] for chain in r.samples]
        for line, s in zip([x for chain in r.lines for x in chain], r.pooled()):
            assert s == TreeShape.from_text(line)
            assert type(s.t) is tuple and type(s.l) is tuple
            assert {type(x) for x in s.t + s.l} == {int}

    def test_pooled_size_with_thinning(self):
        r = run_chains(6, n_chains=3, n_steps=100, seed=1, thin=10)
        assert [len(s) for s in r.samples] == [10, 10, 10]
        assert len(r.pooled()) == 30

    def test_semi_random_init_cycles_k(self):
        r = run_chains(6, n_chains=5, n_steps=1, seed=5)
        assert len(r.samples) == 5

    def test_acceptance_rates_only_for_mh(self):
        r = run_chains(6, n_chains=2, n_steps=50, seed=3)
        assert all(0 <= x <= 1 for x in r.acceptance_rates)

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_too_few_tips(self, n):
        with pytest.raises(ValueError, match=f"^n must be >= 2, got {n}$"):
            run_chains(n, n_chains=2, n_steps=1, seed=0)

    @pytest.mark.parametrize("n", [chains.MAX_CHAIN_TIPS + 1, 10**6, 2**62, 2**64])
    def test_too_many_tips_refused_before_any_chain(self, n, monkeypatch):
        def start(*args):
            raise AssertionError("a chain started")

        monkeypatch.setattr(chains, "semi_random_init", start)
        cap = chains.MAX_CHAIN_TIPS
        with pytest.raises(ValueError, match=f"^n must be <= MAX_CHAIN_TIPS = {cap}, got {n}$"):
            run_chains(n, n_chains=2, n_steps=1, seed=0)

    def test_cap_itself_runs(self):
        r = run_chains(chains.MAX_CHAIN_TIPS, n_chains=1, n_steps=2, seed=0)
        assert [s.n_tips for s in r.pooled()] == [chains.MAX_CHAIN_TIPS] * 2


def dense_kernel(graph, kind):
    """``exact_kernel`` through a boolean V x V adjacency, as it was once
    built: each row is the adjacency over w(x), the diagonal 1 - deg/w."""
    w = chains._weights(graph, kind)
    v = graph.n_vertices
    adj = np.zeros((v, v), dtype=bool)
    for i, ups in enumerate(graph.up):
        for j in ups:
            adj[i, j] = adj[j, i] = True
    p = adj / w[:, None]
    diag = np.arange(v)
    p[diag, diag] = 1.0 - adj.sum(axis=1) / w
    return p


class TestExactKernels:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_bytes_match_dense_adjacency_route(self, n, hasse):
        g = hasse[n] if n in hasse else build_hasse(n)
        for kind in ["symmetric", "random-walk"]:
            p = exact_kernel(g, kind)
            assert p.dtype == np.float64
            assert p.tobytes() == dense_kernel(g, kind).tobytes()

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
            assert sym == rw
        else:
            assert (sym.phi_star, sym.minimizers) == (rw.phi_star, rw.minimizers)
        with pytest.raises(ValueError, match="isolated shape"):
            exact(hasse[2], "symmetric")

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("kind", ["symmetric", "random-walk"])
    def test_matches_row_by_row_reference(self, n, kind, hasse):
        g = hasse[n]
        assert np.array_equal(exact_kernel(g, kind), reference_kernel(g, kind))
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

    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("kind", ["symmetric", "random-walk"])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_stationary_exactly_in_fractions(self, n, kind, lazy, hasse):
        # P(x, y) = 1/w(x) on covers, the rest of x's row on x, and pi
        # proportional to w: pi P = pi holds exactly, which is why `exact`
        # prints a stationarity residual of 0.
        g = hasse[n]
        nbrs = [g.up[i] + g.down[i] for i in range(g.n_vertices)]
        w = [max_degree(n)] * g.n_vertices if kind == "symmetric" else [len(y) for y in nbrs]
        assert chains._weights(g, kind).tolist() == w
        pi = [Fraction(x, sum(w)) for x in w]
        pi_p = [Fraction(0)] * g.n_vertices
        for x, ys in enumerate(nbrs):
            stay, move = 1 - Fraction(len(ys), w[x]), Fraction(1, w[x])
            if lazy:
                stay, move = (1 + stay) / 2, move / 2
            assert stay >= 0
            pi_p[x] += pi[x] * stay
            for y in ys:
                pi_p[y] += pi[x] * move
        assert pi_p == pi

    def test_weight_below_degree_refused(self):
        # M_3 = 1, but the middle of a 4-vertex path has two neighbours:
        # that row would hold with mass 1 - 2/1 < 0.
        g = dataclasses.replace(TestBottleneck.path_graph(4), n=3)
        for exact in (exact_kernel, stationary_distribution, exact_gap):
            with pytest.raises(ValueError, match=r"more than w\(x\) neighbours$"):
                exact(g, "symmetric")

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
        return graph_from_covers(
            0,
            shapes,
            up=tuple((i + 1,) if i + 1 < v else () for i in range(v)),
            down=tuple((i - 1,) if i else () for i in range(v)),
        )

    def test_cap_is_fifteen_vertices(self):
        # The 15-vertex path has degrees 1, 2, ..., 2, 1 (total 28); a
        # prefix of 7 vertices holds volume 13 behind one cut edge.
        res = exact_bottleneck(self.path_graph(15), "random-walk")
        assert res.phi_star == Fraction(1, 13)
        assert len(res.minimizers) == 2
        with pytest.raises(ValueError, match="over 16 vertices .* cap is 15$"):
            exact_bottleneck(self.path_graph(16), "random-walk")


def oracle_spectrum(graph, kind, lazy):
    """The spectrum solved the dense way, as ``exact_gap`` once did: the
    V x V kernel (made lazy here as (P + I)/2), the sqrt(pi) similarity,
    one eigvalsh.  Each eigenvalue is within delta = V 2^-52."""
    p = exact_kernel(graph, kind)
    if lazy:
        p = (p + np.eye(graph.n_vertices)) / 2
    root = np.sqrt(stationary_distribution(graph, kind))
    p *= root[:, None]
    p /= root[None, :]
    return np.linalg.eigvalsh(p)


def rounded(x):
    return float(f"{x:.{chains.GAP_DIGITS - 1}e}")


def check_against_oracle(g, kind, lazy, monkeypatch):
    """``exact_gap``'s enclosures, read from its calls to ``_certified``,
    hold the dense oracle's values within the oracle's own error delta,
    and the values it returns are the oracle's rounded."""
    enclosures = []
    certified = chains._certified
    monkeypatch.setattr(chains, "_certified", lambda lo, hi: enclosures.append((lo, hi)) or certified(lo, hi))
    gap = exact_gap(g, kind, lazy=lazy)
    ref, delta = oracle_spectrum(g, kind, lazy), g.n_vertices * 2.0**-52
    gamma, gamma_star = 1 - ref[-2], 1 - max(abs(ref[0]), ref[-2])
    (lo, hi), *t_rel = enclosures
    assert lo <= hi and lo - delta <= gamma <= hi + delta
    assert gap.gamma == rounded(gamma)
    if t_rel:  # [1/hi, 1/lo] around 1/gamma_star
        (lo, hi), = t_rel
        assert 1 / hi - delta <= gamma_star <= 1 / lo + delta
        assert (gap.gamma_star, gap.t_rel) == (rounded(gamma_star), rounded(1 / gamma_star))
    else:  # the plain walk is periodic, and says so exactly
        assert kind == "random-walk" or g.n == 3
        assert not lazy and abs(gamma_star) <= delta
        assert (gap.gamma_star, gap.t_rel) == (0.0, math.inf)


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
        # The oracle's lazy spectrum is >= 0, which is why exact_gap's lazy
        # gamma_star is its gamma.
        assert oracle_spectrum(hasse[5], kind, lazy=True).min() >= -1e-12
        gap = exact_gap(hasse[5], kind, lazy=True)
        assert gap.gamma == gap.gamma_star

    def test_nonlazy_walk_is_periodic(self, hasse):
        # the covering graph is bipartite by K, so -1 is an eigenvalue
        assert oracle_spectrum(hasse[5], "random-walk", lazy=False).min() == pytest.approx(-1)
        gap = exact_gap(hasse[5], "random-walk")
        assert gap.gamma_star == 0.0
        assert gap.t_rel == math.inf

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("lazy", [False, True])
    def test_half_size_walk_matches_dense_oracle(self, n, lazy, hasse, monkeypatch):
        # The half-size route's enclosure of 1 - sigma_2 holds the dense
        # value, and the printed values are the dense ones rounded.
        g = hasse[n] if n in hasse else build_hasse(n)
        check_against_oracle(g, "random-walk", lazy, monkeypatch)

    @staticmethod
    def mu2_interval(g, tol):
        deg = np.add(*g.degrees())
        odd = np.array([s.n_internal % 2 for s in g.vertices], dtype=bool)
        small = odd if 2 * odd.sum() <= odd.size else ~odd
        lower, upper = (np.array(e, dtype=np.intp) for e in chains._edges(g))
        return chains._mu2_interval(g, deg, small, lower, upper, tol)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_symmetric_gap_matches_dense_oracle(self, n, hasse, monkeypatch):
        # The certified interval around mu_2 of the Laplacian L = m (I - P)
        # holds the dense eigvalsh value, which is itself good to delta =
        # V 2^-52 on S's scale, m delta on L's.  The interval's half-width
        # is within the dense bound.  (At N = 3, M_3 = 1 and the symmetric
        # chain is the walk, which exact_gap solves on the walk's route.)
        g = hasse[n] if n in hasse else build_hasse(n)
        m, delta = max_degree(n), g.n_vertices * 2.0**-52
        if n > 3:
            lo, hi = self.mu2_interval(g, m * delta / 2)
            assert 0 < lo < hi <= lo + 2 * m * delta
            ref = oracle_spectrum(g, "symmetric", lazy=False)
            assert lo - m * delta <= m * (1 - ref[-2]) <= hi + m * delta
        for lazy in (False, True):
            check_against_oracle(g, "symmetric", lazy, monkeypatch)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_symmetric_gap_refuses_alpha_above_mu3(self, n, hasse, monkeypatch, capsys):
        # A Lanczos step whose tridiagonal eigensolve reports theta_2 = 2 a -
        # mu_2 (below min deg(E) = 1 here) puts alpha = (rho + theta_2) / 2 at
        # about a.  The Schur count certifies mu_3 >= alpha for a between
        # mu_2 and mu_3, and refuses it between mu_3 and mu_4, where
        # exact_gap prints nothing.
        g = hasse[n] if n in hasse else build_hasse(n)
        mu = max_degree(n) * (1 - np.linalg.eigvalsh(exact_kernel(g, "symmetric"))[::-1])
        eigh = np.linalg.eigh

        def ritz_step(t):
            theta, vec = eigh(t)
            return np.concatenate([theta[:1], [2 * a - mu[1]], theta[2:]]), vec

        monkeypatch.setattr(chains.np.linalg, "eigh", ritz_step)
        for a in ((mu[1] + mu[2]) / 2, (mu[2] + mu[3]) / 2):
            assert 2 * a - mu[1] < 1
            if a < mu[2]:
                lo, hi = self.mu2_interval(g, 1e-12)
                assert lo - 1e-12 <= mu[1] <= hi + 1e-12
                continue
            for lazy in (False, True):
                with pytest.raises(ArithmeticError, match="not certified"):
                    exact_gap(g, "symmetric", lazy=lazy)
            with pytest.raises(ArithmeticError, match="not certified"):
                cli.main(["exact", "--n", str(n), "--chain", "sym"])
        assert capsys.readouterr().out == ""

    def test_symmetric_gap_builds_no_dense_kernel(self):
        # The dense route held a V x V kernel and its eigensolve's copy
        # (19.8 MB traced at N = 8); the Lanczos route stays under half a kernel.
        g = build_hasse(8)
        tracemalloc.start()
        try:
            exact_gap(g, "symmetric", lazy=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * g.n_vertices**2 / 2

    def test_certified_rounding(self):
        assert chains._certified(0.1234567849 - 1e-12, 0.1234567849 + 1e-12) == 0.12345678
        assert chains._certified(1.0 - 1e-12, 1.0 + 1e-12) == 1.0
        with pytest.raises(ArithmeticError, match="straddles a 8-digit boundary"):
            chains._certified(0.123456785 - 1e-12, 0.123456785 + 1e-12)

    def test_gap_refuses_an_uncertain_digit(self, monkeypatch):
        # At 10 digits the plain walk's gamma at N = 8, 0.0074287645884951
        # +- 2.5e-13, lies within its error bound of a rounding boundary.
        g = build_hasse(8)
        monkeypatch.setattr(chains, "GAP_DIGITS", 10)
        with pytest.raises(ArithmeticError, match="straddles a 10-digit boundary"):
            exact_gap(g, "random-walk")

    @pytest.mark.parametrize("n", range(4, 9))
    def test_nonlazy_walk_has_eigenvalue_minus_one_exactly(self, n):
        # Every covering edge joins shapes whose K differ by one, so
        # f = (-1)^K gives Af = -Wf in integers, with A the covering
        # adjacency and W = diag(deg).  The walk's kernel is W^-1 A (its
        # holding weight is deg), so -1 is an exact eigenvalue, and
        # `exact` prints gamma_star 0 and t_rel inf as exact values.
        g = build_hasse(n)
        f = [(-1) ** v.n_internal for v in g.vertices]
        af = [0] * g.n_vertices
        for i, ups in enumerate(g.up):
            for j in ups:
                af[i] += f[j]
                af[j] += f[i]
        plus, minus = g.degrees()
        w = [int(d) for d in plus + minus]
        assert af == [-d * x for d, x in zip(w, f)]
        assert chains._weights(g, "random-walk").tolist() == w

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
