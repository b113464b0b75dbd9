"""Every public name has a caller outside the tests.

As ``test_cli.py::test_option_census`` pins the CLI's options, this file
pins each library module's ``__all__`` and the names ``import mtshapes``
gives.  Each public name is tied to one file outside ``tests/`` that
uses it: a module under ``src/`` (the CLI among them), a demo or a
perfbench workload.  A new public name must be added here on purpose,
with its caller, and a name whose last caller goes fails here.
"""

import ast
import importlib
import types
from functools import cache
from pathlib import Path

import pytest

import mtshapes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mtshapes"
PKG = "src/mtshapes/"  # the CLI is src/mtshapes/cli.py

# module -> {public name: the file, from the repository root, that uses it}
CENSUS = {
    "shapes": {
        "InvalidShapeError": PKG + "lattice.py",
        "EdgeNotPresentError": PKG + "shapes.py",
        "ParseError": PKG + "shapes.py",
        "TreeShape": PKG + "cli.py",
        "validate_string": "demos/01_encodings.py",
        "validate_fmatrix": PKG + "lattice.py",
        "string_to_dmatrix": "demos/01_encodings.py",
        "string_to_fmatrix": "demos/01_encodings.py",
        "fmatrix_to_string": PKG + "shapes.py",
        "collapse_edge": PKG + "lattice.py",
        "collapse_edge_fmatrix": "demos/01_encodings.py",
    },
    "enumeration": {
        "MAX_COUNT_TIPS": PKG + "enumeration.py",
        "MAX_GENERATED_SHAPES": PKG + "enumeration.py",
        "PairTable": PKG + "enumeration.py",
        "pair_table": "demos/02_enumeration.py",
        "count_shapes": PKG + "cli.py",
        "count_space": PKG + "chains.py",
        "count_labeled_ranked": "demos/02_enumeration.py",
        "count_labeled_binary": "demos/02_enumeration.py",
        "generate_all": "demos/02_enumeration.py",
    },
    "lattice": {
        "present_edges": PKG + "lattice.py",
        "covers": "demos/03_lattice.py",
        "split_count": PKG + "lattice.py",
        "Neighborhood": PKG + "chains.py",
        "refinements_below": "demos/03_lattice.py",
        "deg_plus": PKG + "cli.py",
        "deg_minus": PKG + "cli.py",
        "max_degree_tree": "demos/03_lattice.py",
        "max_degree": PKG + "chains.py",
        "lub": PKG + "cli.py",
        "lub_fmatrix": "demos/03_lattice.py",
        "lattice_distance": PKG + "cli.py",
        "LatticeGraph": PKG + "lattice.py",
        "build_hasse": PKG + "cli.py",
        "diameter": PKG + "cli.py",
    },
    "chains": {
        "ChainState": PKG + "chains.py",
        "RunResult": PKG + "chains.py",
        "BottleneckResult": PKG + "chains.py",
        "GapResult": PKG + "chains.py",
        "BoundReport": PKG + "chains.py",
        "random_below": PKG + "chains.py",
        "step_symmetric": "demos/04_chains.py",
        "step_random_walk": "demos/04_chains.py",
        "step_mh_uniform": "demos/04_chains.py",
        "semi_random_init": "perfbench/workloads.py",
        "run_chains": PKG + "cli.py",
        "exact_kernel": "demos/04_chains.py",
        "stationary_distribution": "demos/04_chains.py",
        "exact_bottleneck": PKG + "cli.py",
        "exact_gap": PKG + "cli.py",
        "mixing_bounds": PKG + "cli.py",
        "MAX_CHAIN_TIPS": PKG + "chains.py",
        "MAX_KERNEL_BYTES": PKG + "chains.py",
        "MAX_BOTTLENECK_VERTICES": PKG + "cli.py",
    },
    "coalescent": {
        "BetaMeasure": PKG + "cli.py",
        "UNIFORM_MEASURE": "demos/05_sampling.py",
        "merger_distribution": PKG + "coalescent.py",
        "sample_topologies": "demos/05_sampling.py",
    },
    "treestats": {
        "ShapeStats": PKG + "treestats.py",
        "StatsSummary": PKG + "treestats.py",
        "shape_stats": PKG + "cli.py",
        "aggregate": "demos/05_sampling.py",
    },
}

# What ``import mtshapes`` gives: the names the demos import, plus the
# error types and BetaMeasure.
TOP_LEVEL_EXTRAS = ("EdgeNotPresentError", "InvalidShapeError", "ParseError", "BetaMeasure")
TOP_LEVEL = (
    "TreeShape", "collapse_edge", "collapse_edge_fmatrix", "present_edges",
    "string_to_dmatrix", "validate_fmatrix", "validate_string",
    "count_labeled_binary", "count_labeled_ranked", "count_shapes", "count_space",
    "generate_all", "pair_table",
    "build_hasse", "covers", "deg_minus", "deg_plus", "diameter", "lattice_distance",
    "lub", "lub_fmatrix", "max_degree_tree", "refinements_below",
    "exact_bottleneck", "exact_gap", "exact_kernel", "mixing_bounds",
    "stationary_distribution",
    "UNIFORM_MEASURE", "aggregate", "run_chains", "sample_topologies", "shape_stats",
) + TOP_LEVEL_EXTRAS

CALLERS = [(module, name, path) for module, names in CENSUS.items() for name, path in names.items()]


@cache
def tree(path: str) -> ast.Module:
    return ast.parse((ROOT / path).read_text(), filename=path)


def loads(node: ast.AST, name: str) -> bool:
    """Whether ``name`` is read somewhere under ``node``, outside the
    function or class that ``name`` itself defines."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name:
            continue
        if isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
            return True
        if loads(child, name):
            return True
    return False


def imports(module_tree: ast.Module, module: str, name: str) -> bool:
    """Whether ``name`` is imported from ``mtshapes`` or ``mtshapes.<module>``
    under its own name."""
    sources = {("mtshapes", 0), (f"mtshapes.{module}", 0), (module, 1)}
    return any(
        (node.module, node.level) in sources and (alias.name, alias.asname) == (name, None)
        for node in ast.walk(module_tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


@pytest.mark.parametrize("module", CENSUS)
def test_all_is_pinned(module):
    names = importlib.import_module(f"mtshapes.{module}").__all__
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(CENSUS[module])


def test_census_covers_every_library_module():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "cli"}
    assert modules == set(CENSUS)
    assert len(CALLERS) == 62


@pytest.mark.parametrize("module, name, path", CALLERS, ids=[f"{m}.{n}" for m, n, _ in CALLERS])
def test_caller_uses_the_name(module, name, path):
    assert path.startswith((PKG, "demos/", "perfbench/workloads.py"))
    module_tree = tree(path)
    if path != f"{PKG}{module}.py":
        assert imports(module_tree, module, name)
    assert loads(module_tree, name)


def test_top_level_is_pinned():
    assert len(TOP_LEVEL) == len(set(TOP_LEVEL)) == 37
    public = {
        k for k, v in vars(mtshapes).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert public == set(TOP_LEVEL)
    census = {name: module for module, names in CENSUS.items() for name in names}
    for name in TOP_LEVEL:
        module = importlib.import_module(f"mtshapes.{census[name]}")
        assert getattr(mtshapes, name) is getattr(module, name)


def test_top_level_is_what_the_demos_import():
    imported = {
        alias.name
        for path in sorted((ROOT / "demos").glob("*.py"))
        for node in ast.walk(tree(str(path.relative_to(ROOT))))
        if isinstance(node, ast.ImportFrom) and node.module == "mtshapes"
        for alias in node.names
    }
    assert imported | set(TOP_LEVEL_EXTRAS) == set(TOP_LEVEL)


@pytest.mark.parametrize("module", CENSUS)
def test_public_definitions_are_listed(module):
    # A public top-level function or class must be in ``__all__``, so a
    # new public helper cannot bypass the census.
    defined = {
        node.name
        for node in tree(f"{PKG}{module}.py").body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert defined - set(importlib.import_module(f"mtshapes.{module}").__all__) == set()
