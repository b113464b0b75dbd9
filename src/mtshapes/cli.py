"""Command-line interface.

One executable with a subcommand per capability.  Data goes to stdout,
diagnostics to stderr; exit status is 0 on success, 1 on a domain error
(invalid shape, absent edge, out-of-range argument), 2 on a usage error.
Every stochastic subcommand requires an explicit --seed and its output
is a pure function of the argument vector.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .chains import (
    exact_bottleneck,
    exact_gap,
    exact_kernel,
    mixing_bounds,
    run_chains,
    semi_random_init,
    stationary_distribution,
)
from .coalescent import BetaMeasure, sample_topologies
from .enumeration import count_shapes, count_space
from .lattice import (
    build_hasse,
    covers,
    deg_minus,
    deg_plus,
    diameter,
    lattice_distance,
    lub,
)
from .shapes import TreeShape
from .treestats import aggregate, shape_stats


def _load_shape(value: str) -> TreeShape:
    """A shape from a literal (text or JSON form) or from a file path."""
    text = value
    if os.path.exists(value):
        with open(value) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines:
            raise ValueError(f"{value}: empty shape file")
        text = lines[0]
    if text.lstrip().startswith("{"):
        return TreeShape.from_json(text)
    return TreeShape.from_text(text)


def _read_shapes(path: str) -> list[TreeShape]:
    handle = sys.stdin if path == "-" else open(path)
    try:
        shapes = []
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("{"):
                    shapes.append(TreeShape.from_json(line))
                else:
                    shapes.append(TreeShape.from_text(line))
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from e
        return shapes
    finally:
        if handle is not sys.stdin:
            handle.close()


def _fmatrix_rows(shape: TreeShape) -> list[list[int]]:
    return [[int(x) for x in row] for row in shape.fmatrix()]


def _emit(line: str = ""):
    sys.stdout.write(line + "\n")


# -- subcommand handlers ------------------------------------------------


def cmd_enumerate(args) -> int:
    ns = range(2, args.n + 1)
    ks = range(1, args.n)
    if args.json:
        rows = [
            {
                "n": n,
                "counts": {str(k): count_shapes(n, k) for k in ks if k < n},
                "total": count_space(n),
            }
            for n in ns
        ]
        _emit(json.dumps({"rows": rows}))
        return 0
    writer = csv.writer(sys.stdout)
    writer.writerow(["n"] + [f"k{k}" for k in ks] + ["total"])
    for n in ns:
        writer.writerow(
            [n] + [count_shapes(n, k) for k in ks] + [count_space(n)]
        )
    return 0


def cmd_validate(args) -> int:
    try:
        shape = _load_shape(args.tree)
    except ValueError as e:
        constraint = getattr(e, "constraint", None)
        if constraint is None:
            raise
        _emit(f"violation: {constraint}")
        return 1
    _emit(f"ok: n={shape.n_tips} k={shape.n_internal}")
    return 0


def cmd_convert(args) -> int:
    shape = _load_shape(args.tree)
    if args.to == "text":
        _emit(shape.to_text())
    elif args.to == "json":
        _emit(shape.to_json())
    elif args.to == "fmatrix":
        for i, row in enumerate(_fmatrix_rows(shape)):
            _emit(",".join(str(x) for x in row[: i + 1]))
    else:  # fmatrix-json
        _emit(json.dumps({"f": _fmatrix_rows(shape)}))
    return 0


def cmd_lub(args) -> int:
    a, b = _load_shape(args.a), _load_shape(args.b)
    m = lub(a, b)
    if args.json:
        _emit(
            json.dumps(
                {"lub": m.to_text(), "f": _fmatrix_rows(m), "k": m.n_internal}
            )
        )
    else:
        _emit(m.to_text())
    return 0


def cmd_distance(args) -> int:
    a, b = _load_shape(args.a), _load_shape(args.b)
    d = lattice_distance(a, b)
    _emit(json.dumps({"distance": d}) if args.json else str(d))
    return 0


def cmd_degree(args) -> int:
    shape = _load_shape(args.tree)
    plus, minus = deg_plus(shape), deg_minus(shape)
    if args.json:
        _emit(
            json.dumps(
                {"deg_plus": plus, "deg_minus": minus, "total": plus + minus}
            )
        )
    else:
        _emit(f"deg_plus={plus} deg_minus={minus} total={plus + minus}")
    return 0


def cmd_hasse(args) -> int:
    graph = build_hasse(args.n, cap=args.cap)
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        for child in graph.vertices:
            for parent in sorted(covers(child)):
                out.write(f"{parent.to_text()}\t{child.to_text()}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_bounds(args) -> int:
    report = mixing_bounds(args.n, include_exact=args.exact)
    if args.json:
        _emit(json.dumps(report.to_dict()))
    else:
        for key, value in report.to_dict().items():
            _emit(f"{key}: {value}")
    return 0


def cmd_exact(args) -> int:
    kind = {"sym": "symmetric", "rw": "random-walk"}[args.chain]
    graph = build_hasse(args.n, cap=args.cap)
    p = exact_kernel(graph, kind)
    pi = stationary_distribution(graph, kind)
    residual = float(np.abs(pi @ p - pi).max())
    gap = exact_gap(graph, kind, lazy=args.lazy)
    result = {
        "n": args.n,
        "chain": kind,
        "lazy": args.lazy,
        "n_shapes": graph.n_vertices,
        "stationarity_residual": residual,
        "gamma": gap.gamma,
        "gamma_star": gap.gamma_star,
        "t_rel": gap.t_rel,
        "diameter": diameter(graph),
    }
    if graph.n_vertices <= 20:
        bottleneck = exact_bottleneck(graph, kind)
        result["phi_star"] = float(bottleneck.phi_star)
        result["phi_star_exact"] = str(bottleneck.phi_star)
        result["n_minimizers"] = len(bottleneck.minimizers)
    if args.json:
        _emit(json.dumps(result))
    else:
        for key, value in result.items():
            _emit(f"{key}: {value}")
    return 0


def cmd_sample_uniform(args) -> int:
    result = run_chains(
        args.n,
        "mh-uniform",
        n_chains=args.chains,
        n_steps=args.steps,
        seed=args.seed,
        thin=args.thin,
        threads=args.threads,
    )
    if args.jsonl:
        for chain_id, chain in enumerate(result.samples):
            for idx, shape in enumerate(chain):
                _emit(
                    json.dumps(
                        {
                            "chain": chain_id,
                            "step": (idx + 1) * args.thin,
                            "shape": shape.to_text(),
                        }
                    )
                )
    else:
        for shape in result.pooled():
            _emit(shape.to_text())
    rates = " ".join(f"{r:.4f}" for r in result.acceptance_rates)
    print(f"acceptance rates: {rates}", file=sys.stderr)
    return 0


def cmd_sample_coalescent(args) -> int:
    if args.alpha is not None:
        measure = BetaMeasure.from_alpha(args.alpha)
    else:
        measure = BetaMeasure(args.a, args.b)
    rng = np.random.Generator(np.random.PCG64(args.seed))
    for shape in sample_topologies(args.n, measure, args.count, rng):
        _emit(shape.to_text())
    return 0


def cmd_semi_random(args) -> int:
    rng = np.random.Generator(np.random.PCG64(args.seed))
    ks = (
        [args.k] * args.count
        if args.k is not None
        else [(i % (args.n - 1)) + 1 for i in range(args.count)]
    )
    for k in ks:
        _emit(semi_random_init(args.n, k, rng).to_text())
    return 0


def cmd_stats(args) -> int:
    shapes = _read_shapes(args.infile)
    if not shapes:
        raise ValueError("no shapes in input")
    stats = [shape_stats(s) for s in shapes]
    sizes = range(2, args.max_cherry + 1)
    summary = aggregate(stats, cherry_sizes=sizes)
    if args.summary_out:
        with open(args.summary_out, "w") as fh:
            json.dump(summary.to_dict(), fh)
    if args.json:
        _emit(json.dumps(summary.to_dict()))
        return 0
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["n", "k", "max_block", "avg_block"] + [f"cherry_{m}" for m in sizes]
    )
    for s in stats:
        writer.writerow(
            [s.n, s.k, s.max_block, f"{s.avg_block:.6g}"]
            + [s.cherry_count(m) for m in sizes]
        )
    return 0


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtshapes",
        description="Ranked multifurcating tree shapes: enumeration, "
        "lattice operations, Markov chains, and coalescent sampling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="shape counts per (n, k), as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("validate", help="check a serialized shape")
    p.add_argument("--tree", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="re-encode a shape")
    p.add_argument("--tree", required=True)
    p.add_argument(
        "--to",
        choices=["text", "json", "fmatrix", "fmatrix-json"],
        default="text",
    )
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("lub", help="least upper bound of two shapes")
    p.add_argument("--a", required=True, help="shape literal or file")
    p.add_argument("--b", required=True, help="shape literal or file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lub)

    p = sub.add_parser("distance", help="lattice distance between two shapes")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("degree", help="forward/backward degree of a shape")
    p.add_argument("--tree", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser(
        "hasse", help="covering relations as 'parent TAB child' lines"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=9)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("bounds", help="mixing-time bound formulas")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="small n only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("exact", help="exact chain diagnostics (small n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chain", choices=["sym", "rw"], required=True)
    p.add_argument("--lazy", action="store_true")
    p.add_argument("--cap", type=int, default=9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser(
        "sample-uniform",
        help="Metropolis-Hastings samples from the uniform distribution",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chains", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--jsonl", action="store_true")
    p.set_defaults(func=cmd_sample_uniform)

    p = sub.add_parser(
        "sample-coalescent", help="Beta-measure coalescent topologies"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--alpha", type=float, help="use the Beta(2-a, a) family")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sample_coalescent)

    p = sub.add_parser(
        "semi-random", help="diagonal-sampled shapes with a given k"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="default cycles k = 1..n-1")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_semi_random)

    p = sub.add_parser("stats", help="per-shape statistics and a summary")
    p.add_argument("--in", dest="infile", required=True, help="'-' for stdin")
    p.add_argument("--json", action="store_true", help="summary JSON only")
    p.add_argument("--summary-out", help="also write summary JSON here")
    p.add_argument("--max-cherry", type=int, default=6)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
