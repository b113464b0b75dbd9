"""The four benchmark workloads.

Each workload is a closed loop with one caller: iteration ``i`` makes its
inputs from ``(seed, i)``, runs them through ``mtshapes.cli.main`` (or,
for ``lattice-n50``, the library), and the next iteration starts when
the previous one returns.  ``execute`` is the timed body; ``check``
verifies every output afterwards and is never timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import numpy as np

import checks
from mtshapes import cli, lattice
from mtshapes.chains import semi_random_init
from mtshapes.coalescent import UNIFORM_MEASURE, sample_topologies
from mtshapes.shapes import TreeShape


def derived_seed(seed: int, *words: int) -> int:
    """A 31-bit seed for ``mtshapes`` commands, from the run seed."""
    return int(np.random.SeedSequence([seed, *words]).generate_state(1)[0] >> 1)


@dataclass
class CliResult:
    rc: int
    out: str
    err: str
    seconds: float


class Context:
    """Calls into the program, as top-level spans when a tracer is set."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def call(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def cli(self, argv: list[str], stdout_path=None) -> CliResult:
        err = io.StringIO()
        t0 = perf_counter()
        with contextlib.ExitStack() as stack:
            out = (
                stack.enter_context(open(stdout_path, "w"))
                if stdout_path is not None
                else io.StringIO()
            )
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            rc = self.call("cli.main", cli.main, argv)
            text = "" if stdout_path is not None else out.getvalue()
        return CliResult(rc, text, err.getvalue(), perf_counter() - t0)


@dataclass
class Checked:
    """What one iteration did and how much of it was correct."""

    attempted: int
    failed: int
    units: int  # throughput unit: shapes, pairs or solutions
    latencies: list[float]  # seconds per unit-level operation
    lines_out: int = 0
    extras: dict = field(default_factory=dict)  # inputs to per-layer metrics
    digests: dict = field(default_factory=dict)  # argv key -> sha256 of stdout


def _argv_key(argv) -> str:
    return " ".join(argv)


def _read_lines(path) -> tuple[list[str], str]:
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode().splitlines(), hashlib.sha256(data).hexdigest()


def _parse_valid(lines, n):
    """Parsed shapes, or None if any line is malformed or not an n-tip shape."""
    shapes = []
    for line in lines:
        try:
            t, l = checks.parse_shape(line)
        except ValueError:
            return None
        if not checks.is_valid(t, l, n):
            return None
        shapes.append((t, l))
    return shapes


def _summary_ok(res: CliResult, shapes, n) -> bool:
    if res.rc != 0:
        return False
    try:
        got = json.loads(res.out)
    except json.JSONDecodeError:
        return False
    return checks.same_summary(got, checks.shape_summary(shapes, n))


class _SamplerWorkload:
    """``sample-* --n 20`` to a file, then ``stats --in <file> --json``."""

    n = 20

    def __init__(self, seed: int, workdir, size: dict):
        self.seed = seed
        self.path = workdir / f"{self.name}.txt"
        self.replay_path = workdir / f"{self.name}-replay.txt"
        self.size = size
        self.first_sample = None

    def sample_argv(self, seed_i: int) -> list[str]:
        raise NotImplementedError

    def prepare(self, i: int):
        return self.sample_argv(derived_seed(self.seed, i))

    def execute(self, argv, ctx: Context):
        sampled = ctx.cli(argv, stdout_path=self.path)
        stats = ctx.cli(["stats", "--in", str(self.path), "--json"])
        return sampled, stats

    def expected_lines(self) -> int:
        raise NotImplementedError

    def check_sample(self, sampled: CliResult, shapes, extras) -> bool:
        raise NotImplementedError

    def check(self, argv, result) -> Checked:
        sampled, stats = result
        lines, digest = _read_lines(self.path)
        shapes = _parse_valid(lines, self.n)
        extras = {}
        sample_ok = (
            sampled.rc == 0
            and shapes is not None
            and len(shapes) == self.expected_lines()
            and self.check_sample(sampled, shapes, extras)
        )
        stats_ok = shapes is not None and _summary_ok(stats, shapes, self.n)
        if self.first_sample is None:
            self.first_sample = (argv, digest)
        units = len(lines)
        return Checked(
            attempted=2,
            failed=(not sample_ok) + (not stats_ok),
            units=units,
            latencies=[(sampled.seconds + stats.seconds) / max(units, 1)],
            lines_out=units + len(stats.out.splitlines()),
            extras=extras,
            digests={_argv_key(argv): digest},
        )

    def finish(self, ctx: Context) -> tuple[int, int]:
        """Replay the first sampler command; a differing stdout digest is
        a failed operation.  Returns (attempted, failed)."""
        if self.first_sample is None:  # no iteration got as far as a check
            return 1, 1
        argv, digest = self.first_sample
        try:
            res = ctx.cli(argv, stdout_path=self.replay_path)
            _, replay = _read_lines(self.replay_path)
        except Exception:
            traceback.print_exc()
            return 1, 1
        return 1, int(res.rc != 0 or replay != digest)


class UniformN20(_SamplerWorkload):
    name = "uniform-n20"
    FULL = {"chains": 19, "steps": 1000, "thin": 2, "threads": 2}

    def sample_argv(self, seed_i):
        s = self.size
        return [
            "sample-uniform", "--n", str(self.n), "--chains", str(s["chains"]),
            "--steps", str(s["steps"]), "--thin", str(s["thin"]),
            "--seed", str(seed_i), "--threads", str(s["threads"]),
        ]

    def expected_lines(self):
        s = self.size
        return s["chains"] * s["steps"] // s["thin"]

    def check_sample(self, sampled, shapes, extras):
        rates = None
        for line in sampled.err.splitlines():
            if line.startswith("acceptance rates:"):
                try:
                    rates = [float(x) for x in line.split(":", 1)[1].split()]
                except ValueError:
                    return False
        if not rates or len(rates) != self.size["chains"]:
            return False
        rate = sum(rates) / len(rates)
        ks = np.array([len(t) for t, _ in shapes]).reshape(self.size["chains"], -1)
        extras.update(
            mh_steps=self.size["chains"] * self.size["steps"],
            acceptance_rate=rate,
            ess_k=checks.bulk_ess(ks),
        )
        lo, hi = checks.C10B_ACCEPTANCE
        return lo <= rate <= hi


class CoalescentN20(_SamplerWorkload):
    name = "coalescent-n20"
    FULL = {"count": 4000}

    def __init__(self, *args):
        super().__init__(*args)
        self.pooled = {key: 0.0 for key in checks.C11_COALESCENT}
        self.pooled_count = 0

    def sample_argv(self, seed_i):
        return [
            "sample-coalescent", "--n", str(self.n),
            "--count", str(self.size["count"]), "--seed", str(seed_i),
        ]

    def expected_lines(self):
        return self.size["count"]

    def check_sample(self, sampled, shapes, extras):
        summary = checks.shape_summary(shapes, self.n)
        for key in self.pooled:
            self.pooled[key] += summary[key] * summary["count"]
        self.pooled_count += summary["count"]
        extras.update(draws=len(shapes), events=sum(len(t) for t, _ in shapes))
        return True

    def finish(self, ctx):
        """Also checks the c11 means over every draw of the run."""
        attempted, failed = super().finish(ctx)
        for key, (ref, tol) in checks.C11_COALESCENT.items():
            if not self.pooled_count or abs(self.pooled[key] / self.pooled_count - ref) > tol:
                failed += 1
        return attempted + 1, failed


class LatticeN50:
    """All-pairs ``lattice_distance`` over N = 50 shapes parsed from text:
    half semi-random (K drawn from 1..49), half Beta(1,1) coalescent."""

    name = "lattice-n50"
    n = 50
    FULL = {"shapes": 64, "probes": 24}

    def __init__(self, seed, workdir, size):
        self.seed = seed
        self.size = size

    def prepare(self, i):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, i])))
        m = self.size["shapes"]
        texts = [
            semi_random_init(self.n, int(k), rng).to_text()
            for k in rng.integers(1, self.n, size=m - m // 2)
        ]
        texts += [s.to_text() for s in sample_topologies(self.n, UNIFORM_MEASURE, m // 2, rng)]
        order = rng.permutation(m)
        return i, [texts[j] for j in order]

    def execute(self, inp, ctx: Context):
        _, texts = inp
        shapes = [TreeShape.from_text(s) for s in texts]
        dist = lattice.lattice_distance
        out = []
        for a in range(len(shapes)):
            x = shapes[a]
            for b in range(a + 1, len(shapes)):
                t0 = perf_counter()
                d = ctx.call("lattice.lattice_distance", dist, x, shapes[b])
                out.append((a, b, d, perf_counter() - t0))
        return shapes, out

    def check(self, inp, result) -> Checked:
        i, texts = inp
        shapes, out = result
        parsed = [checks.parse_shape(s) for s in texts]
        failed = sum((s.t, s.l) != p for s, p in zip(shapes, parsed))
        ks = [len(t) for t, _ in parsed]
        m = len(shapes)
        dmat = np.zeros((m, m), dtype=np.int64)
        for a, b, d, _ in out:
            ka, kb = ks[a], ks[b]
            ok = (
                isinstance(d, int)
                and abs(ka - kb) <= d <= ka + kb - 2
                and (d - ka - kb) % 2 == 0
            )
            failed += not ok
            dmat[a, b] = dmat[b, a] = d
        # d(a,c) <= d(a,b) + d(b,c) over every triple
        triangle = dmat[:, None, :] <= dmat[:, :, None] + dmat[None, :, :]
        failed += int(not triangle.all())
        attempted = m + len(out) + 1
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, i, 1])))
        for _ in range(self.size["probes"]):
            a, b = (int(x) for x in rng.choice(m, size=2, replace=False))
            x, y = shapes[a], shapes[b]
            join = lattice.lub(x, y)
            ok = (
                lattice.lattice_distance(x, x) == 0
                and lattice.lattice_distance(y, x) == dmat[a, b]
                and join.n_internal <= min(ks[a], ks[b])
                and lattice.lub(x, join) == join
            )
            attempted += 4
            failed += not ok
        return Checked(
            attempted=attempted,
            failed=failed,
            units=len(out),
            latencies=[lat for *_, lat in out],
        )

    def finish(self, ctx):
        return 0, 0


class ExactN8:
    """Exact small-N analysis through the CLI; no sampler runs."""

    name = "exact-n8"
    COMMANDS = [
        ["exact", "--n", "8", "--chain", "rw", "--json"],
        ["exact", "--n", "8", "--chain", "sym", "--lazy", "--json"],
        ["hasse", "--n", "9", "--out", None],
        ["enumerate", "--n", "60"],
        ["bounds", "--n", "5", "--exact", "--json"],
    ]
    FULL = {}

    def __init__(self, seed, workdir, size):
        self.hasse_path = workdir / "hasse9.txt"

    def prepare(self, i):
        # Fixed inputs: the seed changes nothing here.  A seeded command
        # order was tried and dropped, because peak RSS depends on it.
        return [[str(self.hasse_path) if a is None else a for a in c] for c in self.COMMANDS]

    def execute(self, cmds, ctx: Context):
        return [(argv, ctx.cli(argv)) for argv in cmds]

    def check(self, cmds, result) -> Checked:
        failed, lines_out, residuals = 0, 0, []
        for argv, res in result:
            check = getattr(self, "_check_" + argv[0])
            try:
                ok = res.rc == 0 and check(argv, res, residuals)
            except (ValueError, KeyError, TypeError, OSError):  # malformed or missing output
                ok = False
            failed += not ok
            lines_out += len(res.out.splitlines())
        try:
            with open(self.hasse_path) as fh:
                lines_out += sum(1 for _ in fh)
        except OSError:  # hasse wrote nothing; its check has failed it
            pass
        return Checked(
            attempted=len(result),
            failed=failed,
            units=1,  # one solution: all five commands
            latencies=[sum(res.seconds for _, res in result)],
            lines_out=lines_out,
            extras={"stationarity_residual": max(residuals, default=0.0)},
        )

    @staticmethod
    def _check_exact(argv, res, residuals):
        out = json.loads(res.out)
        residuals.append(out["stationarity_residual"])
        return (
            out["n_shapes"] == 1108
            and out["stationarity_residual"] < 1e-12
            and out["diameter"] == 11
        )

    def _check_hasse(self, argv, res, residuals):
        vertices, pairs = set(), set()
        with open(self.hasse_path) as fh:
            for line in fh:
                parent_text, child_text = line.rstrip("\n").split("\t")
                parent = checks.parse_shape(parent_text)
                child = checks.parse_shape(child_text)
                if not (checks.is_valid(*parent, 9) and checks.is_valid(*child, 9)):
                    return False
                if parent not in checks.collapses(*child):
                    return False
                pairs.add((parent, child))
                vertices.update((parent, child))
        covering = sum(len(checks.collapses(*v)) for v in vertices)
        return len(vertices) == checks.CONSISTENT_TOTALS[9] and len(pairs) == covering

    @staticmethod
    def _check_enumerate(argv, res, residuals):
        rows = [line.split(",") for line in res.out.splitlines()[1:]]
        if [int(r[0]) for r in rows] != list(range(2, 61)):
            return False
        for r in rows:
            n, cells, total = int(r[0]), [int(x) for x in r[1:-1]], int(r[-1])
            if sum(cells) != total:
                return False
            if n in checks.CONSISTENT_TOTALS and total != checks.CONSISTENT_TOTALS[n]:
                return False
        return True

    @staticmethod
    def _check_bounds(argv, res, residuals):
        exact = json.loads(res.out)["exact"]
        return math.isclose(
            exact["symmetric"]["phi_star"], float(Fraction(4, 35)), rel_tol=1e-12
        ) and math.isclose(
            exact["random-walk"]["phi_star"], float(Fraction(1, 5)), rel_tol=1e-12
        )

    def finish(self, ctx):
        return 0, 0


WORKLOADS = {w.name: w for w in (UniformN20, CoalescentN20, LatticeN50, ExactN8)}
