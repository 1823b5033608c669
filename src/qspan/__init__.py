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
    extremal_graph,
    spectral_threshold,
)
from .graph_core import (
    BipartiteGraph,
    DegreeDemand,
    complete_bipartite,
    format_graph,
    from_edge_list,
    parse_demands,
    parse_graph,
    read_demands,
    read_graph,
    write_graph,
)
from .spectral import signless_laplacian
from .trees import (
    FeasibilityResult,
    HallViolation,
    TreeCertificate,
    construct_tree,
    is_violation,
    verify_certificate,
)
from .verify import (
    SweepReport,
    TheoremReport,
    certify_threshold,
    separation_sweep,
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
    "NumericalError",
    "QspanError",
    "SweepReport",
    "TheoremReport",
    "TreeCertificate",
    "build_family",
    "certify_threshold",
    "complete_bipartite",
    "construct_tree",
    "extremal_graph",
    "format_graph",
    "from_edge_list",
    "is_violation",
    "parse_demands",
    "parse_graph",
    "read_demands",
    "read_graph",
    "separation_sweep",
    "signless_laplacian",
    "spectral_threshold",
    "verify_certificate",
    "write_graph",
]
