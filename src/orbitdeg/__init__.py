"""Exact orbit-closure degree computations for plane curves.

The package computes, in exact rational arithmetic, the adjusted
predegree polynomial of a plane curve under the 8-dimensional group of
projective linear transformations, and from it the orbit dimension, the
predegree, and (given the stabilizer degree) the degree of the orbit
closure.  Curves are described by discrete data: component degrees and
multiplicities plus local features of their special points.
"""

from .corrections import (
    Correction,
    flex_correction,
    flexes_absorbed,
    irreducible_correction,
    line_correction,
    local_correction_from_quadratic,
    multiple_point_correction,
    newton_side_correction,
    nonlinear_correction,
    tangent_cone_correction,
    truncation_correction,
)
from .engine import (
    EngineError,
    OrbitReport,
    ValidationError,
    assemble,
    scale,
    union,
)
from .model import (
    CompositePoint,
    CurveDescriptor,
    DescriptorError,
    FlexPoint,
    IrreduciblePoint,
    IrreducibleSingularity,
    LinearComponent,
    NewtonSide,
    NonlinearComponent,
    TangentCone,
    Truncation,
    Violation,
    parse,
    serialize,
    validate,
)
from .newton import MonomialSupport, Polygon, SideData, local_invariants, newton_polygon, qualifying_sides, side_data, yun_squarefree
from .series import TruncSeries, rational_to_string, to_rational

__version__ = "0.1.0"

__all__ = [
    "Correction",
    "CompositePoint",
    "CurveDescriptor",
    "DescriptorError",
    "EngineError",
    "FlexPoint",
    "IrreduciblePoint",
    "IrreducibleSingularity",
    "LinearComponent",
    "MonomialSupport",
    "NewtonSide",
    "NonlinearComponent",
    "OrbitReport",
    "Polygon",
    "SideData",
    "TangentCone",
    "Truncation",
    "TruncSeries",
    "ValidationError",
    "Violation",
    "assemble",
    "flex_correction",
    "flexes_absorbed",
    "irreducible_correction",
    "line_correction",
    "local_correction_from_quadratic",
    "local_invariants",
    "multiple_point_correction",
    "newton_polygon",
    "newton_side_correction",
    "nonlinear_correction",
    "parse",
    "qualifying_sides",
    "rational_to_string",
    "scale",
    "serialize",
    "side_data",
    "tangent_cone_correction",
    "to_rational",
    "truncation_correction",
    "union",
    "validate",
    "yun_squarefree",
]
