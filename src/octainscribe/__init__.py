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
    placement_test,
    triangle_from_sides,
)
from .inscriber import (
    CertifyReport,
    ContinuationTrace,
    InscriptionFailed,
    SolveReport,
    certify,
    continue_to_surface,
    residual,
    solve_at_epsilon,
)
from .io import SCHEMA, read_polytope, write_obj_octahedron
from .polytope import (
    ConvexPolytope,
    Degenerate,
    Feature,
    Inconsistent,
    SmoothedBody,
    build_from_halfspaces,
    build_from_vertices,
    cube,
    is_simple,
    regular_octahedron,
    regular_tetrahedron,
    solid_angle_at,
)
from .pose import OctahedronPose, pose_distance
from .sphere import (
    DegenerateTriangle,
    GeometryError,
    InvalidPolygon,
    SphPolygon,
    SphTriangle,
    arc_distance,
    area,
    vertex_angle,
)

__version__ = "0.1.0"
