"""Inscribing regular octahedra into convex polytopes.

Classify solid angles by whether their boundary admits an inscribed
regular octahedron, smooth polytopes by the union-of-inscribed-balls
construction, and track inscribed octahedra of the smoothed bodies down
to the polytope surface.
"""

from .angles import (
    AngleClass,
    ClassTag,
    ConstructionFailed,
    FitTag,
    GeneralClassification,
    GeneralKind,
    NotNonSpecial,
    NotTrihedral,
    PathVerificationFailed,
    PlacementCertificate,
    SolidAngle,
    T0FitResult,
    T0_AREA,
    T0_SIDE,
    T0_TRIANGLE,
    T0_VERTEX_ANGLE,
    classify_general,
    classify_trihedral,
    construct_inscribed_octahedron,
    deformation_path,
    fits_in_T0,
    normalize_ordering,
    placement_test,
    spherical_triangle_of,
    triangle_from_sides,
)
from .inscriber import (
    CertifyReport,
    ContinuationConfig,
    ContinuationTrace,
    InscriptionFailed,
    MultistartConfig,
    NoSolutionFound,
    SolveReport,
    SolverConfig,
    certify,
    continue_to_surface,
    multistart,
    residual,
    solve_at_epsilon,
)
from .io import SCHEMA, read_polytope, write_obj_octahedron, write_pose_json
from .polytope import (
    ConvexPolytope,
    Degenerate,
    Feature,
    Inconsistent,
    SmoothedBody,
    build_from_halfspaces,
    build_from_vertices,
    cube,
    distance_to_boundary,
    is_simple,
    regular_octahedron,
    regular_tetrahedron,
    signed_distance_smoothed,
    solid_angle_at,
)
from .pose import OctahedronPose, pose_distance
from .sphere import (
    Containment,
    DegenerateTriangle,
    GeometryError,
    InvalidPolygon,
    SphPolygon,
    SphTriangle,
    arc_distance,
    area,
    contains,
    polygon_contains,
    vertex_angle,
)

__version__ = "0.1.0"
