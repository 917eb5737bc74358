"""Exact orbit-closure degree computations for plane curves.

The package computes, in exact rational arithmetic, the adjusted
predegree polynomial of a plane curve under the 8-dimensional group of
projective linear transformations, and from it the orbit dimension, the
predegree, and (given the stabilizer degree) the degree of the orbit
closure.  Curves are described by discrete data: component degrees and
multiplicities plus local features of their special points.  Each name
below is imported from its module on first use (PEP 562).
"""

from importlib import import_module
from typing import Any

__version__ = "0.1.0"

#: Each exported name, and the module it lives in.
_EXPORTS = {
    name: module
    for module, names in {
        "corrections": "Correction flex_correction irreducible_correction line_correction multiple_point_correction "
        "local_correction_from_quadratic newton_side_correction nonlinear_correction tangent_cone_correction "
        "truncation_correction",
        "engine": "EngineError OrbitReport ValidationError assemble scale union",
        "model": "CompositePoint CurveDescriptor DescriptorError FlexPoint IrreducibleSingularity LinearComponent "
        "NewtonSide NonlinearComponent OrdinaryMultiplePoint Truncation Violation parse serialize validate",
        "newton": "MonomialSupport Polygon SideData local_invariants newton_polygon qualifying_sides side_data "
        "yun_squarefree",
        "series": "TruncSeries rational_to_string to_rational",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f".{_EXPORTS[name]}", __name__), name))


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
