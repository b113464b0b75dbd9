"""Ranked multifurcating tree shapes.

Encodings and validation for the space of rooted, ranked, unlabeled
multifurcating tree shapes with N tips; exact enumeration; the
refinement lattice with least-upper-bound and degree machinery; Markov
chains on the lattice (including Metropolis-Hastings uniform sampling)
with exact small-N diagnostics; a Beta-measure multiple-merger
coalescent topology sampler; and tree-shape statistics.

The top level holds the names the demos use and the error types; every
other public name is imported from its module (``mtshapes.chains`` and
so on).
"""

from .shapes import (
    EdgeNotPresentError,
    InvalidShapeError,
    ParseError,
    TreeShape,
    collapse_edge,
    collapse_edge_fmatrix,
    string_to_dmatrix,
    validate_fmatrix,
    validate_string,
)
from .enumeration import (
    count_labeled_binary,
    count_labeled_ranked,
    count_shapes,
    count_space,
    generate_all,
    pair_table,
)
from .lattice import (
    build_hasse,
    covers,
    deg_minus,
    deg_plus,
    diameter,
    lattice_distance,
    lub,
    lub_fmatrix,
    max_degree_tree,
    present_edges,
    refinements_below,
)
from .chains import (
    exact_bottleneck,
    exact_gap,
    exact_kernel,
    mixing_bounds,
    run_chains,
    stationary_distribution,
)
from .coalescent import UNIFORM_MEASURE, BetaMeasure, sample_topologies
from .treestats import aggregate, shape_stats

__version__ = "0.1.0"
