"""Print every end-to-end metric of every workload, by name and with its
unit, and optionally the per-layer metrics of a traced run.

    python3 perfbench/report.py --seed 1 [--heldout-seed 2] [--trace]

Each workload runs as ``perfbench/run.py`` in a fresh process, from the
current directory, which must be the root of a source checkout, for
the ``run_seconds`` that ``BENCHMARK.json`` sets.  With
``--heldout-seed`` every run is repeated on that seed and its figures are
printed beside the main seed's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# The names the metrics go by where the workload gives them a meaning of
# their own: an operation is a shape sampled and summarised, a pair's
# lattice_distance, or one run of the five exact-analysis commands.
ALIASES = {
    ("uniform-n20", "ops_per_s"): "shapes_per_s",
    ("coalescent-n20", "ops_per_s"): "shapes_per_s",
    ("lattice-n50", "ops_per_s"): "pairs_per_s",
    ("lattice-n50", "op_p50_us"): "pair_p50_us",
    ("lattice-n50", "run.op_p99_us"): "pair_p99_us",
}


def run_one(workload: str, seed: int, trace: bool) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    *_, meta_line, result_line = done.stdout.strip().splitlines()
    return json.loads(result_line), json.loads(meta_line)["meta"]


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--heldout-seed", type=int)
    parser.add_argument("--trace", action="store_true", help="also run traced")
    args = parser.parse_args(argv)
    seeds = [args.seed] + ([args.heldout_seed] if args.heldout_seed is not None else [])
    modes = [False, True] if args.trace else [False]
    meta = None
    rows = []
    for trace in modes:
        names = SPEC["per_layer" if trace else "end_to_end"]
        for w in SPEC["workloads"]:
            results = []
            for seed in seeds:
                result, meta = run_one(w["name"], seed, trace)
                results.append(result)
            for m in names:
                alias = ALIASES.get((w["name"], m["name"]), "")
                values = [_fmt(r["metrics"][m["name"]]["value"]) for r in results]
                rows.append((w["name"], m["name"], alias, m["unit"], *values))
            rows.append((w["name"], "error_rate", "", "ratio",
                         *(_fmt(r["failed"] / r["attempted"]) for r in results)))
            rows.append((w["name"], "attempted", "", "count",
                         *(str(r["attempted"]) for r in results)))
            if trace:
                for r in results:
                    tm = {k: v["value"] for k, v in r["metrics"].items()}
                    gap, overhead = abs(tm["trace.unaccounted_s"]), abs(tm["trace.overhead_s"])
                    print(f"{w['name']}: self-time sum {tm['trace.self_sum_s']:.4g} s vs untraced "
                          f"wall {tm['trace.untraced_wall_s']:.4g} s; gap {gap:.4g} s "
                          f"{'within' if gap <= overhead else 'OUTSIDE'} tracing overhead {overhead:.4g} s")
    header = ("workload", "metric", "as", "unit", *(f"seed {s}" for s in seeds))
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(wd) for c, wd in zip(r, widths)))
    meta = {k: v for k, v in meta.items() if k in ("nproc", "cpu_model", "python", "numpy", "blas", "git_sha")}
    print(json.dumps(meta))
    return 0


if __name__ == "__main__":
    sys.exit(main())
