"""Ranked multifurcating tree shapes.

Encodings and validation for the space of rooted, ranked, unlabeled
multifurcating tree shapes with N tips; exact enumeration; the
refinement lattice with least-upper-bound and degree machinery; Markov
chains on the lattice (including Metropolis-Hastings uniform sampling)
with exact small-N diagnostics; a Beta-measure multiple-merger
coalescent topology sampler; and tree-shape statistics.
"""

from .shapes import (
    EdgeNotPresentError,
    InvalidShapeError,
    ParseError,
    TreeShape,
    collapse_edge,
    collapse_edge_fmatrix,
    fmatrix_to_string,
    string_to_dmatrix,
    string_to_fmatrix,
    validate_fmatrix,
    validate_string,
)
from .enumeration import (
    DEFAULT_GENERATION_CAP,
    PairTable,
    count_labeled_binary,
    count_labeled_ranked,
    count_shapes,
    count_space,
    generate_all,
    k0_k1,
    pair_table,
    valid_pairs,
)
from .lattice import (
    LatticeGraph,
    build_hasse,
    covers,
    deg_minus,
    deg_plus,
    degree,
    diameter,
    lattice_distance,
    lub,
    lub_fmatrix,
    max_degree,
    max_degree_tree,
    present_edges,
    refine_node,
    refinements_below,
    split_count,
)
from .chains import (
    BottleneckResult,
    BoundReport,
    ChainState,
    GapResult,
    RunResult,
    exact_bottleneck,
    exact_gap,
    exact_kernel,
    mixing_bounds,
    run_chains,
    semi_random_fmatrix,
    semi_random_init,
    stationary_distribution,
    step_mh_uniform,
    step_random_walk,
    step_symmetric,
    uniform_neighbor,
)
from .coalescent import (
    UNIFORM_MEASURE,
    BetaMeasure,
    merger_distribution,
    merger_rate,
    sample_topologies,
    sample_topology,
)
from .treestats import ShapeStats, StatsSummary, aggregate, shape_stats

__version__ = "0.1.0"
