"""Command-line interface.

One executable with a subcommand per capability.  Data goes to stdout,
diagnostics to stderr; exit status is 0 on success, 1 on a domain error
(invalid shape, absent edge, out-of-range argument), 2 on a usage error.
Every stochastic subcommand requires an explicit --seed and its output
is a pure function of the argument vector.  An unreadable or unwritable
file is a domain error too.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .chains import (
    MAX_BOTTLENECK_VERTICES,
    exact_bottleneck,
    exact_gap,
    exact_kernel,  # noqa: F401  (perfbench/tracing.py patches it here)
    mixing_bounds,
    run_chains,
    semi_random_init,
    stationary_distribution,  # noqa: F401  (perfbench/tracing.py patches it here)
)
from .coalescent import BetaMeasure, sample_topologies
from .enumeration import (
    _check_count_tips,
    count_shapes,
    count_space,  # noqa: F401  (perfbench/tracing.py patches cli.count_space)
)
from .lattice import (
    build_hasse,
    covers,  # noqa: F401  (kept importable: perfbench/tracing.py patches cli.covers)
    deg_minus,
    deg_plus,
    diameter,
    lattice_distance,
    lub,
)
from .shapes import TreeShape, _text_columns
from .treestats import (
    _Columns,
    _node_columns,
    _stats_columns,
    _summary,
    aggregate,  # noqa: F401  (kept importable: perfbench/tracing.py patches cli.aggregate)
    shape_stats,
)


def _parse_shape(text: str) -> TreeShape:
    """A shape from its JSON form (leading ``{``) or its text form."""
    if text.lstrip().startswith("{"):
        return TreeShape.from_json(text)
    return TreeShape.from_text(text)


def _load_shape(value: str) -> TreeShape:
    """A shape from a literal (text or JSON form) or from a file path."""
    text = value
    if os.path.exists(value):
        with open(value) as fh:
            text = next(filter(None, map(str.strip, fh)), None)
        if text is None:
            raise ValueError(f"{value}: empty shape file")
    return _parse_shape(text)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _parse_lines(text: str, lines_before: int) -> list[TreeShape]:
    """One shape per non-blank line, in text or JSON form; an error names
    its line, counting ``lines_before`` lines ahead of ``text``."""
    shapes = []
    for lineno, line in enumerate(text.split("\n"), start=lines_before + 1):
        line = line.strip()
        if not line:
            continue
        try:
            shapes.append(_parse_shape(line))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from e
    return shapes


# Characters of input handed to the bulk reader at a time: enough to keep
# numpy's per-call cost small, few enough to keep its arrays small.
_BLOCK_CHARS = 1 << 15


def _text_blocks(text: str):
    """``text`` in pieces of about ``_BLOCK_CHARS``, each cut after a newline."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _sample_columns(text: str) -> _Columns:
    """The shapes of ``text`` as statistics columns, a block at a time.
    A canonical block is checked and decoded in numpy; any other block
    (JSON lines, blank or padded lines, counts of 10**9 or more, a shape
    that breaks a rule) goes through the per-line reader, which names the
    line at fault in the whole input."""
    parts, count, lines = [], 0, 0
    for block in _text_blocks(text):
        nodes = _text_columns(block)
        if nodes is None:
            stats = [shape_stats(s) for s in _parse_lines(block, lines)]
            part = _stats_columns(stats, count)
        else:
            part = _node_columns(*nodes, count)
        parts.append(part)
        count += part.k.size
        lines += block.count("\n")
    if not count:
        raise ValueError("no shapes in input")
    return _Columns(*(np.concatenate(column, axis=-1) for column in zip(*parts)))


def _emit(line: str = ""):
    sys.stdout.write(line + "\n")


def _emit_record(record: dict, as_json: bool):
    """One JSON object, or one ``key: value`` line per field.  JSON has no
    infinity, so an infinite value (a periodic chain's ``t_rel``) is
    written as null."""
    if as_json:
        _emit(json.dumps({k: None if v == math.inf else v for k, v in record.items()}))
    else:
        for key, value in record.items():
            _emit(f"{key}: {value}")


# -- subcommand handlers ------------------------------------------------


def cmd_enumerate(args) -> int:
    _check_count_tips(args.n)
    ns = range(2, args.n + 1)
    ks = range(1, args.n)
    # Each total is its row sum, so no count is computed twice.
    table = {n: [count_shapes(n, k) for k in ks] for n in ns}
    if args.json:
        rows = [
            {
                "n": n,
                "counts": {str(k): c for k, c in zip(ks, row) if k < n},
                "total": sum(row),
            }
            for n, row in table.items()
        ]
        _emit(json.dumps({"rows": rows}))
        return 0
    writer = csv.writer(sys.stdout)
    writer.writerow(["n"] + [f"k{k}" for k in ks] + ["total"])
    for n, row in table.items():
        writer.writerow([n] + row + [sum(row)])
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
        for i, row in enumerate(shape.fmatrix().tolist()):
            _emit(",".join(str(x) for x in row[: i + 1]))
    else:  # fmatrix-json
        _emit(json.dumps({"f": shape.fmatrix().tolist()}))
    return 0


def cmd_lub(args) -> int:
    a, b = _load_shape(args.a), _load_shape(args.b)
    m = lub(a, b)
    if args.json:
        _emit(
            json.dumps(
                {"lub": m.to_text(), "f": m.fmatrix().tolist(), "k": m.n_internal}
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
    graph = build_hasse(args.n)
    texts = [v.to_text() for v in graph.vertices]
    lines = "".join(f"{texts[p]}\t{c}\n" for c, ups in zip(texts, graph.up) for p in ups)
    if args.out is None:
        sys.stdout.write(lines)
    else:
        with open(args.out, "w") as fh:
            fh.write(lines)
    return 0


def cmd_bounds(args) -> int:
    report = mixing_bounds(args.n, include_exact=args.exact)
    _emit_record(report.to_dict(), args.json)
    return 0


def cmd_exact(args) -> int:
    kind = {"sym": "symmetric", "rw": "random-walk"}[args.chain]
    graph = build_hasse(args.n)
    gap = exact_gap(graph, kind, lazy=args.lazy)
    result = {
        "n": args.n,
        "chain": kind,
        "lazy": args.lazy,
        "n_shapes": graph.n_vertices,
        "stationarity_residual": 0.0,  # exact: see the exact layer of chains.py
        "gamma": gap.gamma,
        "gamma_star": gap.gamma_star,
        "t_rel": gap.t_rel,
        "diameter": diameter(graph),
    }
    if graph.n_vertices <= MAX_BOTTLENECK_VERTICES:
        bottleneck = exact_bottleneck(graph, kind)
        result["phi_star"] = float(bottleneck.phi_star)
        result["phi_star_exact"] = str(bottleneck.phi_star)
        result["n_minimizers"] = len(bottleneck.minimizers)
    _emit_record(result, args.json)
    return 0


def cmd_sample_uniform(args) -> int:
    result = run_chains(
        args.n,
        n_chains=args.chains,
        n_steps=args.steps,
        seed=args.seed,
        thin=args.thin,
        threads=args.threads,
    )
    # The chains send back canonical text; no shape is rebuilt here.
    sys.stdout.writelines(line + "\n" for chain in result.lines for line in chain)
    rates = " ".join(f"{r:.4f}" for r in result.acceptance_rates)
    print(f"acceptance rates: {rates}", file=sys.stderr)
    return 0


# Draws sampled and written at a time.  Each draw reads its own slice of
# the seeded stream, so the output does not depend on this size.
_COALESCENT_CHUNK = 4096


def cmd_sample_coalescent(args) -> int:
    measure = BetaMeasure.from_alpha(args.alpha)
    rng = np.random.Generator(np.random.PCG64(args.seed))
    # a count below 1 still makes one call, which refuses it
    for done in range(0, max(args.count, 1), _COALESCENT_CHUNK):
        chunk = min(_COALESCENT_CHUNK, args.count - done)
        for shape in sample_topologies(args.n, measure, chunk, rng):
            _emit(shape.to_text())
    return 0


def cmd_semi_random(args) -> int:
    if args.n < 2:
        raise ValueError(f"n must be >= 2, got {args.n}")
    if args.count < 1:
        raise ValueError(f"count must be positive, got {args.count}")
    rng = np.random.Generator(np.random.PCG64(args.seed))
    for i in range(args.count):
        k = args.k if args.k is not None else i % (args.n - 1) + 1
        _emit(semi_random_init(args.n, k, rng).to_text())
    return 0


# Largest --max-cherry: each cherry size is one more summary and CSV column.
_MAX_CHERRY = 1000


def cmd_stats(args) -> int:
    if args.max_cherry < 1:
        raise ValueError(f"max-cherry must be >= 1, got {args.max_cherry}")
    if args.max_cherry > _MAX_CHERRY:
        raise ValueError(f"max-cherry must be <= {_MAX_CHERRY}, got {args.max_cherry}")
    cols = _sample_columns(_read_text(args.infile))
    sizes = range(2, args.max_cherry + 1)
    record = dataclasses.asdict(_summary(cols, sizes))  # json writes int keys as strings
    if args.summary_out:
        with open(args.summary_out, "w") as fh:
            json.dump(record, fh)
    if args.json:
        _emit(json.dumps(record))
        return 0
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["n", "k", "max_block", "avg_block"] + [f"cherry_{m}" for m in sizes]
    )
    # A block of rows at a time, so that no record per shape is held: each
    # block's cherry counts fill a dense array from the (size, shape, count) columns.
    avg = cols.avg_block()
    order = np.argsort(cols.cherries[1])
    step = 2**14 // args.max_cherry
    ends = np.searchsorted(cols.cherries[1, order], range(0, cols.k.size + step, step)).tolist()
    for lo, a, b in zip(range(0, cols.k.size, step), ends, ends[1:]):
        hi = min(lo + step, cols.k.size)
        size, shape, count = cols.cherries[:, order[a:b]]
        keep = size <= args.max_cherry
        counts = np.zeros((hi - lo, len(sizes)), dtype=np.int64)
        counts[shape[keep] - lo, size[keep] - 2] = count[keep]
        block = cols.n[lo:hi], cols.k[lo:hi], cols.max_block[lo:hi], avg[lo:hi], counts
        for n, k, max_block, avg_block, row in zip(*(c.tolist() for c in block)):
            writer.writerow([n, k, max_block, f"{avg_block:.6g}", *row])
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
    p.set_defaults(func=cmd_sample_uniform)

    p = sub.add_parser(
        "sample-coalescent", help="Beta-measure coalescent topologies"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--alpha", type=float, default=1.0, help="Beta(2-alpha, alpha) measure"
    )
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
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
