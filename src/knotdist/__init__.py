"""knotdist: exact distortion invariants of lattice knots.

Vertex distortion with complete witness sets, the curve-wide taxicab
distortion over vertices and midpoints, unknot certificates, heatmaps,
conformation generators and a knot file format, all in exact integer
and rational arithmetic.
"""

from .engine import (
    DistortionReport,
    Heatmap,
    HeatmapRow,
    brute_force_vm_distortion,
    euclidean_vertex_lower_bound,
    gromov1_distortion,
    heatmap,
    vertex_distortion,
    vertex_distortion_with_heatmap,
)
from .generators import (
    GeneratorError,
    exhaustive_small,
    random_polygon,
    rectangle,
    torus_knot,
)
from .knotfile import (
    KnotFileError,
    knot_from_moves,
    load_knot,
    move_string,
    parse_knot,
    parse_vertices,
    save_knot,
    serialize,
    serialize_moves,
    serialize_vertices,
)
from .lattice import (
    InvalidKnotError,
    Isometry,
    LatticeKnot,
    LatticePoint,
    ValidationResult,
    Violation,
    lattice_isometries,
    scale,
    transform,
    validate,
)
from .metrics import (
    ArcPosition,
    NotOnKnotError,
    arc_distance,
    arc_position,
    distortion_ratio,
    euclidean_ratio_squared,
    taxicab_distance,
)
from .midpoint_analysis import (
    INCONCLUSIVE,
    THRESHOLD_HIGH,
    THRESHOLD_LOW,
    UNKNOT_CERTIFIED,
    Certificate,
    certify_unknot,
)

__version__ = "0.1.0"

__all__ = [
    "ArcPosition",
    "Certificate",
    "DistortionReport",
    "GeneratorError",
    "Heatmap",
    "HeatmapRow",
    "INCONCLUSIVE",
    "InvalidKnotError",
    "Isometry",
    "KnotFileError",
    "LatticeKnot",
    "LatticePoint",
    "NotOnKnotError",
    "THRESHOLD_HIGH",
    "THRESHOLD_LOW",
    "UNKNOT_CERTIFIED",
    "ValidationResult",
    "Violation",
    "arc_distance",
    "arc_position",
    "brute_force_vm_distortion",
    "certify_unknot",
    "distortion_ratio",
    "euclidean_ratio_squared",
    "euclidean_vertex_lower_bound",
    "exhaustive_small",
    "gromov1_distortion",
    "heatmap",
    "knot_from_moves",
    "lattice_isometries",
    "load_knot",
    "move_string",
    "parse_knot",
    "parse_vertices",
    "random_polygon",
    "rectangle",
    "save_knot",
    "scale",
    "serialize",
    "serialize_moves",
    "serialize_vertices",
    "taxicab_distance",
    "torus_knot",
    "transform",
    "validate",
    "vertex_distortion",
    "vertex_distortion_with_heatmap",
]
