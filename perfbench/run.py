"""mtshapes benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload uniform-n20 --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports ``mtshapes`` from
``./src`` and writes scratch files and its digest record under
``./.bench_build/perfbench``.  The last stdout line is the result
object; the line before it holds the run's metadata.

With ``--trace 0`` the loop times untraced iterations and reports the
end-to-end metrics.  With ``--trace 1`` every iteration runs twice on
the same inputs, untraced and then traced, and the run reports the
per-layer metrics, including the tracing overhead.  ``--seconds`` bounds
the measuring loop, output checks included; the iteration in flight at
the deadline completes, and at least one always runs.

Iteration times are reported at a reference speed.  The shared machine
this benchmark was written on switches for minutes at a time between
speeds up to 1.5 times apart.  So a fixed pure-Python reference task
runs three times before each measured iteration, and ``wall_s``,
``ops_per_s`` and ``op_p50_us`` are scaled by ``REF_SECONDS`` over the
run's median task time: the figures are for a machine where the task
takes ``REF_SECONDS``.  Set-up is timed in fresh interpreters that have
imported numpy first: a cold import's time swung up to 2.5 times
between runs, numpy is three quarters of it, and numpy is not the
package's code.  Each interpreter times the task just before the import
and ``setup_s`` is scaled the same way.  The unscaled samples and the
factors are in the metadata line.  Per-layer times are unscaled.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

WORKLOAD_NAMES = ("uniform-n20", "coalescent-n20", "lattice-n50", "exact-n8")
SETUP_REPEATS = 7  # fresh interpreters
REF_SECONDS = 0.02  # the reference task's median time, 2-vCPU Xeon VM at its usual speed
BUILD_DIR = Path(".bench_build") / "perfbench"

# Set-up as a CLI user pays it, numpy aside: import the package and the
# CLI, build the argument parser.  Prints the seconds taken and the
# median time of the reference task, run just before.
_SETUP_CODE = """\
import sys, time
{reference_task}
sys.path.insert(0, sys.argv[1])
import numpy
ref = []
for _ in range(3):
    t0 = time.perf_counter()
    _reference_task()
    ref.append(time.perf_counter() - t0)
t0 = time.perf_counter()
import mtshapes, mtshapes.cli
mtshapes.cli.build_parser()
print(time.perf_counter() - t0, sorted(ref)[1])
"""


def _reference_task() -> int:
    """Fixed pure-Python work of the kind the package does: format and
    parse shape-like text, count into a dict, sort."""
    total = 0
    for i in range(1200):
        text = (",".join(str((i * j) % (j + 1)) for j in range(12)) + "|"
                + ",".join(str(j % 3 + 1) for j in range(12)))
        left, right = text.split("|")
        t = tuple(int(x) for x in left.split(","))
        l = tuple(int(x) for x in right.split(","))
        counts = {}
        for x in t:
            counts[x] = counts.get(x, 0) + 1
        total += sum(sorted(l)) + len(counts)
    return total


def _time_reference(samples: list[float], repeats: int = 3):
    for _ in range(repeats):
        t0 = perf_counter()
        _reference_task()
        samples.append(perf_counter() - t0)


def _import_package(src: Path):
    """Import ``mtshapes`` from ``src``; raises ImportError if the checkout
    has no such package."""
    sys.path.insert(0, str(src))
    import mtshapes
    import mtshapes.cli

    if Path(mtshapes.__file__).resolve().parent != (src / "mtshapes").resolve():
        raise ImportError(f"mtshapes was imported from {mtshapes.__file__}, not {src}")


def _child_setup(src: Path) -> tuple[float, float]:
    """(set-up seconds, reference task seconds) in a fresh interpreter."""
    code = _SETUP_CODE.format(reference_task=inspect.getsource(_reference_task))
    done = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    setup, ref = done.stdout.split()
    return float(setup), float(ref)


def _clear_caches():
    """Empty the package's functools caches, which a CLI process starts
    without."""
    for name, mod in list(sys.modules.items()):
        if name == "mtshapes" or name.startswith("mtshapes."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:  # runtime thread count of the OpenBLAS that numpy loaded
        import ctypes
        import glob

        libs = Path(np.__file__).parent.parent / "numpy.libs"
        for lib in glob.glob(str(libs / "*openblas*")):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def _metadata(root: Path, src: Path, seed: int) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    git_sha = "unknown"
    if (root / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "git_sha": git_sha,
        "source_sha256": _source_digest(src),
        "seed": seed,
    }


def _check_digests(store_path: Path, source: str, digests: dict) -> int:
    """Compare this run's sampler-output digests with those recorded by
    earlier runs of the same source and argv; record new ones.  Returns
    the number that differ."""
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    mismatches = 0
    for argv, digest in digests.items():
        key = f"{source} {argv}"
        if store.setdefault(key, digest) != digest:
            mismatches += 1
    tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, store_path)
    return mismatches


def _percentile(values, q) -> float:
    """Linear-interpolated percentile; 0.0 when every iteration failed."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def add(self, checked):
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.digests.update(checked.digests)


def _run_once(workload, inp, ctx, tally):
    """Time one execution; returns (seconds, Checked), or None if it or
    its check raised."""
    t0 = perf_counter()
    try:  # a program fault fails the operation, not the run
        out = workload.execute(inp, ctx)
        seconds = perf_counter() - t0
        checked = workload.check(inp, out)
    except Exception:
        traceback.print_exc()
        tally.attempted += 1
        tally.failed += 1
        return None
    tally.add(checked)
    return seconds, checked


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, size=None):
    """Run one workload; returns (result dict, metadata dict).  ``size``
    overrides the workload's full-size parameters (the self-check uses
    it)."""
    src = root / "src"
    _import_package(src)
    setup, setup_reference = zip(*(_child_setup(src) for _ in range(SETUP_REPEATS)))

    import layers
    import workloads
    from tracing import Tracer

    build = root / BUILD_DIR
    build.mkdir(parents=True, exist_ok=True)
    workdir = build / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        cls = workloads.WORKLOADS[name]
        workload = cls(seed, workdir, cls.FULL if size is None else size)
        meta = _metadata(root, src, seed)
        plain = workloads.Context()
        tally = Tally()
        times, rates, latencies, reference = [], [], [], []
        traced = []
        deadline = perf_counter() + seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            inp = workload.prepare(i)
            _clear_caches()
            _time_reference(reference)
            done = _run_once(workload, inp, plain, tally)
            if done is not None:
                dt, checked = done
                times.append(dt)
                rates.append(checked.units / dt)
                latencies.extend(checked.latencies)
            if trace and done is not None:
                _clear_caches()
                tracer = Tracer()
                with tracer:
                    again = _run_once(workload, inp, workloads.Context(tracer), tally)
                if again is not None:
                    traced.append(layers.trace_iteration(tracer, again[1], done[0], again[0]))
            i += 1
        attempted, failed = workload.finish(plain)
        tally.attempted += attempted
        tally.failed += failed
        tally.failed += _check_digests(build / "digests.json", meta["source_sha256"], tally.digests)
        scale = REF_SECONDS / statistics.median(reference)
        setup_scale = REF_SECONDS / statistics.median(setup_reference)
        if trace:
            metrics = layers.per_layer(times, traced)
            metrics["run.speed_scale"] = (scale, "ratio")
            # The tail is too noisy on a shared machine to gate on, so it
            # is reported here, from the untraced iterations.
            metrics["run.op_p99_us"] = (_percentile(latencies, 99) * 1e6, "us")
            metrics["run.latency_samples"] = (len(latencies), "count")
        else:
            metrics = {
                "setup_s": (statistics.median(setup) * setup_scale, "s"),
                "wall_s": (_percentile(times, 50) * scale, "s"),
                "ops_per_s": (_percentile(rates, 50) / scale, "1/s"),
                "op_p50_us": (_percentile(latencies, 50) * 1e6 * scale, "us"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        meta.update(
            iterations=i,
            latency_samples=len(latencies),
            speed_scale=scale,
            reference_median_s=statistics.median(reference),
            reference_s=reference,  # three per iteration, in order
            setup_scale=setup_scale,
            unscaled_setup_s=setup,
            unscaled_wall_s=times,
        )
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, meta
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (ImportError, OSError, subprocess.SubprocessError) as e:
        print(f"benchmark cannot run here: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
