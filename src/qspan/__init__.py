"""Spanning trees with per-vertex degree demands in bipartite graphs.

The package decides when a connected bipartite graph carries a spanning tree
whose A-side degrees meet prescribed lower bounds, builds such a tree or a
certified obstruction, and verifies the signless Laplacian spectral threshold
that forces feasibility, together with the join family that attains it.
"""

from .errors import (
    CapacityError,
    InputError,
    InternalError,
    NumericalError,
    QspanError,
)
from .extremal import (
    ExtremalParams,
    build_family,
    difference_factor,
    difference_factor_coeffs,
    extremal_graph,
    family_bracket,
    family_char_coeffs,
    family_quotient,
    family_root,
    family_rows,
    lower_endpoint_quadratic,
    spectral_threshold,
    upper_endpoint_quadratic,
)
from .graph_core import (
    BipartiteGraph,
    DegreeDemand,
    complete_bipartite,
    format_graph,
    from_edge_list,
    is_connected,
    join,
    parse_demands,
    parse_graph,
    read_demands,
    read_graph,
    to_edge_list,
    write_graph,
)
from .poly import PolyCoeffs, largest_real_root
from .spectral import signless_laplacian, spectral_radii
from .trees import (
    FeasibilityResult,
    HallViolation,
    TreeCertificate,
    construct_tree,
    find_violation_bruteforce,
    find_violation_flow,
    is_violation,
    verify_certificate,
)
from .verify import (
    MonotonicityReport,
    SweepReport,
    TheoremReport,
    certify_threshold,
    point_checks,
    separation_sweep,
    subgraph_monotonicity_fuzz,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "CapacityError",
    "DegreeDemand",
    "ExtremalParams",
    "FeasibilityResult",
    "HallViolation",
    "InputError",
    "InternalError",
    "MonotonicityReport",
    "NumericalError",
    "PolyCoeffs",
    "QspanError",
    "SweepReport",
    "TheoremReport",
    "TreeCertificate",
    "build_family",
    "certify_threshold",
    "complete_bipartite",
    "construct_tree",
    "difference_factor",
    "difference_factor_coeffs",
    "extremal_graph",
    "family_bracket",
    "family_char_coeffs",
    "family_quotient",
    "family_root",
    "family_rows",
    "find_violation_bruteforce",
    "find_violation_flow",
    "format_graph",
    "from_edge_list",
    "is_connected",
    "is_violation",
    "join",
    "largest_real_root",
    "lower_endpoint_quadratic",
    "parse_demands",
    "parse_graph",
    "point_checks",
    "read_demands",
    "read_graph",
    "separation_sweep",
    "signless_laplacian",
    "spectral_radii",
    "spectral_threshold",
    "subgraph_monotonicity_fuzz",
    "to_edge_list",
    "upper_endpoint_quadratic",
    "verify_certificate",
    "write_graph",
]
