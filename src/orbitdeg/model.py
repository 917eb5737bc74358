"""Curve descriptors: data model, validation rules, and the JSON input format.

A descriptor records the discrete data of a plane curve that the degree
computation consumes: the global components (lines and higher-degree
components with their multiplicities), and per-point local features
(inflection contact orders, irreducible singularities given by their
characteristic exponents, or composite features given by tangent-cone
multiplicities, polygon sides, and branch truncations).  Points are
abstract labels; no coordinates are stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Optional, Sequence, Union

from .series import rational_to_string, to_rational

AUTO_FLEXES = "auto"


class DescriptorError(Exception):
    """Base class for descriptor ingestion failures."""


class DescriptorParseError(DescriptorError):
    """The input is not valid JSON; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DescriptorSchemaError(DescriptorError):
    """The JSON is well-formed but does not match the descriptor schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def under(self, step: str) -> DescriptorSchemaError:
        """The same error one record or array further out, `step` being the
        key or "[i]" that leads to the value the error is about."""
        path = self.path if not self.path or self.path[0] == "[" else f".{self.path}"
        return type(self)(step + path, self.message)


class DescriptorValueError(DescriptorSchemaError):
    """The JSON matches the schema but a value breaks a rule of the
    descriptor (the command line exits 1 on it, as on a validation failure)."""


@dataclass(frozen=True)
class Violation:
    """A single validation failure: which field, and what rule it breaks."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class LinearComponent:
    """A line in the curve, with its multiplicity and the multiplicities
    of the points where it meets the rest of the curve."""

    mult: int
    meets: tuple[int, ...] = ()


@dataclass(frozen=True)
class NonlinearComponent:
    """A component of degree >= 2 with its multiplicity."""

    deg: int
    mult: int = 1


@dataclass(frozen=True)
class NewtonSide:
    """A polygon side from (j0, k0) to (j1, k1) with the root
    multiplicities of its side polynomial.

    Only sides of slope strictly between -1 and 0 qualify; `suppress`
    opts a side out of the computation without deleting it from the
    descriptor.
    """

    j0: int
    k0: int
    j1: int
    k1: int
    s: tuple[int, ...]
    suppress: bool = False

    def span(self) -> int:
        """Number of lattice steps along the side (= expected sum of s)."""
        return gcd(abs(self.j1 - self.j0), abs(self.k0 - self.k1))


@dataclass(frozen=True)
class Truncation:
    """A branch-truncation feature: denominator-clearing exponent `ell`,
    rational weight, and the multiplicities of the limit conics."""

    ell: int
    weight: Fraction
    s: tuple[int, ...]


@dataclass(frozen=True)
class IrreducibleSingularity:
    """An irreducible (one-branch) singularity, and the point feature of
    kind "irreducible".

    `m` is the multiplicity, `n` the contact order with the branch
    tangent, and `essential` the strictly increasing exponents that are
    not multiples of the running gcd.  `essential` may be empty.
    """

    kind = "irreducible"

    m: int
    n: int
    essential: tuple[int, ...] = ()
    label: Optional[str] = None

    def gcd_chain(self) -> tuple[int, ...]:
        """The chain d_0 = m, d_j = gcd(d_{j-1}, e_j)."""
        chain = [self.m]
        for e in self.essential:
            chain.append(gcd(chain[-1], e))
        return tuple(chain)

    def chain_steps(self) -> list[tuple[int, int]]:
        """The pairs (e_{j+1} - e_j, d_j) for j = 0..r, with e_0 = n,
        e_1..e_r the essential exponents, e_{r+1} = 0 and d_j the gcd chain."""
        exponents = (self.n,) + self.essential
        return [(after - before, d) for before, after, d in zip(exponents, self.essential + (0,), self.gcd_chain())]

    def absorbed_flex_count(self) -> int:
        """How many ordinary inflections the singularity uses up:
        (3mn - 2m - 2n) + 3 * sum (e_{j+1} - e_j)(d_j - 1) over `chain_steps`.
        Never negative when valid: n >= m + 1 and the exponents increase."""
        m, n = self.m, self.n
        return 3 * m * n - 2 * m - 2 * n + 3 * sum(step * (d - 1) for step, d in self.chain_steps())


@dataclass(frozen=True)
class FlexPoint:
    """A nonsingular point where the tangent meets the curve with the
    given contact order (>= 3)."""

    kind = "flex"

    contact: int
    label: Optional[str] = None


@dataclass(frozen=True)
class CompositePoint:
    """A point feature assembled from raw local data: an optional tangent
    cone (the multiplicities of its distinct lines), polygon sides,
    truncations, and a user-supplied count of absorbed inflections."""

    kind = "composite"

    tangent_cone: Optional[tuple[int, ...]] = None
    sides: tuple[NewtonSide, ...] = ()
    truncations: tuple[Truncation, ...] = ()
    absorbed_flexes: int = 0
    label: Optional[str] = None


PointFeature = Union[FlexPoint, IrreducibleSingularity, CompositePoint]


@dataclass(frozen=True)
class CurveDescriptor:
    degree: int
    stabilizer_degree: Optional[int] = None
    flexes: Union[int, str] = 0
    linear: tuple[LinearComponent, ...] = ()
    nonlinear: tuple[NonlinearComponent, ...] = ()
    points: tuple[PointFeature, ...] = ()

    def flexes_auto(self) -> bool:
        return self.flexes == AUTO_FLEXES


def absorbed_flexes(feature: PointFeature) -> int:
    """The number of ordinary inflections a feature removes from the budget."""
    if isinstance(feature, FlexPoint):
        return feature.contact - 2
    if isinstance(feature, IrreducibleSingularity):
        return feature.absorbed_flex_count()
    return feature.absorbed_flexes


def resolved_flex_count(descriptor: CurveDescriptor) -> int:
    """The ordinary-flex count: the explicit value, or 3d(d-2) minus all
    absorbed flexes when the descriptor asks for automatic bookkeeping."""
    if not descriptor.flexes_auto():
        assert isinstance(descriptor.flexes, int)
        return descriptor.flexes
    d = descriptor.degree
    budget = 3 * d * (d - 2)
    return budget - sum(absorbed_flexes(p) for p in descriptor.points)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def line_violations(mult: int, meets: Sequence[int], degree: int, path: str = "line") -> list[Violation]:
    """Checks for a line of multiplicity `mult` meeting the rest of a
    degree-`degree` curve with multiplicities `meets` (empty list = valid)."""
    if mult < 1:
        return [Violation(f"{path}.mult", "multiplicity must be a positive integer")]
    if any(r < 1 for r in meets):
        return [Violation(f"{path}.meets", "intersection multiplicities must be positive")]
    if sum(meets) != degree - mult:
        return [
            Violation(
                f"{path}.meets",
                f"intersection multiplicities sum to {sum(meets)}, expected degree - mult = {degree - mult}",
            )
        ]
    return []


def nonlinear_violations(deg: int, mult: int, path: str = "nonlinear") -> list[Violation]:
    """Checks for a component of degree `deg` >= 2 and multiplicity `mult`."""
    if deg < 2:
        return [Violation(f"{path}.deg", "nonlinear components must have degree >= 2")]
    if mult < 1:
        return [Violation(f"{path}.mult", "multiplicity must be a positive integer")]
    return []


def tangent_cone_violations(line_mults: Sequence[int], path: str = "tangent_cone") -> list[Violation]:
    """Checks for the multiplicities of the lines in a tangent cone."""
    if any(v < 1 for v in line_mults):
        return [Violation(path, "line multiplicities must be positive")]
    return []


def flex_count_violations(count: int, path: str = "flexes") -> list[Violation]:
    """Checks for an explicit count of ordinary inflections."""
    if count < 0:
        return [Violation(path, "flex count must be >= 0")]
    return []


def multiple_point_violations(m: int, contacts: Sequence[int], path: str = "multiple_point") -> list[Violation]:
    """Checks for an ordinary multiple point of multiplicity m whose
    nonlinear branches meet their tangents with the given contacts."""
    if m < 2:
        return [Violation(f"{path}.m", "multiple points need multiplicity >= 2")]
    if len(contacts) > m:
        return [Violation(f"{path}.contacts", f"at most m = {m} branches")]
    for i, r in enumerate(contacts):
        if r < m + 1:
            return [Violation(f"{path}.contacts[{i}]", f"contact must be >= m + 1 = {m + 1}")]
    return []


def ordinary_multiple_point(
    m: int, contacts: Sequence[int], absorbed_flexes: int = 0, label: Optional[str] = None
) -> CompositePoint:
    """The composite point an ordinary multiple point of multiplicity m
    stands for: m reduced tangent-cone lines and its `branch_sides`."""
    return CompositePoint((1,) * m, branch_sides(m, contacts), (), absorbed_flexes, label)


def branch_sides(m: int, contacts: Sequence[int]) -> tuple[NewtonSide, ...]:
    """Per nonlinear branch of contact r at an ordinary m-fold point, one
    polygon side (m-1, 1) -> (r, 0) with a simple root."""
    return tuple(NewtonSide(m - 1, 1, r, 0, (1,)) for r in contacts)


def irreducible_violations(sing: IrreducibleSingularity, path: str = "singularity") -> list[Violation]:
    """Checks for a one-branch singularity (empty list = valid)."""
    if sing.m < 1:
        return [Violation(f"{path}.m", "multiplicity must be a positive integer")]
    if sing.n <= sing.m:
        return [Violation(f"{path}.n", f"contact order must exceed the multiplicity {sing.m}")]
    for idx in range(1, len(sing.essential)):
        if sing.essential[idx] <= sing.essential[idx - 1]:
            return [Violation(f"{path}.essential[{idx}]", "exponents must be strictly increasing")]
    if sing.essential and sing.essential[0] < sing.n:
        return [Violation(f"{path}.essential[0]", f"first exponent must be >= the contact order {sing.n}")]
    chain = sing.gcd_chain()
    for idx, e in enumerate(sing.essential):
        if e % chain[idx] == 0:
            return [
                Violation(
                    f"{path}.essential[{idx}]",
                    f"{e} is a multiple of gcd {chain[idx]}, so it is not essential",
                )
            ]
    if chain[-1] != 1:
        return [Violation(path, f"gcd of multiplicity and exponents is {chain[-1]}, not 1 (branch not reduced)")]
    if sing.n % sing.m != 0 and (not sing.essential or sing.essential[0] != sing.n):
        return [
            Violation(
                f"{path}.n",
                f"{sing.n} is not a multiple of {sing.m}, so it is itself essential and must open the exponent list",
            )
        ]
    return []


def side_violations(side: NewtonSide, path: str = "side") -> list[Violation]:
    """Checks for a polygon side (empty list = valid)."""
    for name in ("j0", "k0", "j1", "k1"):
        if getattr(side, name) < 0:
            return [Violation(f"{path}.{name}", "endpoint coordinates must be non-negative")]
    if side.j0 >= side.j1:
        return [Violation(path, "endpoints must satisfy j0 < j1")]
    if not 0 < side.k0 - side.k1 < side.j1 - side.j0:
        return [Violation(path, "side slope must lie strictly between -1 and 0")]
    if any(v < 1 for v in side.s):
        return [Violation(f"{path}.s", "root multiplicities must be positive")]
    span = side.span()
    if sum(side.s) != span:
        return [Violation(f"{path}.s", f"root multiplicities sum to {sum(side.s)}, expected the lattice span {span}")]
    return []


def truncation_violations(trunc: Truncation, path: str = "truncation") -> list[Violation]:
    """Checks for a truncation feature (empty list = valid)."""
    out: list[Violation] = []
    if trunc.ell < 1:
        out.append(Violation(f"{path}.ell", "ell must be a positive integer"))
    if trunc.weight <= 0:
        out.append(Violation(f"{path}.W", "weight must be positive"))
    if not trunc.s or any(v < 1 for v in trunc.s):
        out.append(Violation(f"{path}.s", "conic multiplicities must be a non-empty list of positive integers"))
    return out


def validate(descriptor: CurveDescriptor) -> list[Violation]:
    """Check every descriptor invariant; an empty list means valid.

    Violations are data, not exceptions: callers decide how to surface
    them.
    """
    out: list[Violation] = []
    d = descriptor.degree
    if d < 1:
        out.append(Violation("degree", "degree must be a positive integer"))
        return out

    degree_sum = 0
    for idx, line in enumerate(descriptor.linear):
        out += line_violations(line.mult, line.meets, d, f"linear[{idx}]")
        degree_sum += line.mult
    for idx, comp in enumerate(descriptor.nonlinear):
        out += nonlinear_violations(comp.deg, comp.mult, f"nonlinear[{idx}]")
        degree_sum += comp.deg * comp.mult
    if not out and degree_sum != d:
        out.append(
            Violation(
                "degree",
                f"component degrees (counted with multiplicity) sum to {degree_sum}, expected {d}",
            )
        )

    for idx, feature in enumerate(descriptor.points):
        path = f"points[{idx}]"
        if isinstance(feature, FlexPoint):
            if feature.contact < 3:
                out.append(Violation(f"{path}.contact", "flex contact order must be >= 3"))
        elif isinstance(feature, IrreducibleSingularity):
            out += irreducible_violations(feature, path)
        else:
            if feature.tangent_cone is not None:
                out += tangent_cone_violations(feature.tangent_cone, f"{path}.tangent_cone")
            for sidx, side in enumerate(feature.sides):
                out += side_violations(side, f"{path}.sides[{sidx}]")
            for tidx, trunc in enumerate(feature.truncations):
                out += truncation_violations(trunc, f"{path}.truncations[{tidx}]")
            if feature.absorbed_flexes < 0:
                out.append(Violation(f"{path}.absorbed_flexes", "absorbed flex count must be >= 0"))

    if descriptor.flexes_auto():
        if descriptor.linear:
            out.append(Violation("flexes", 'automatic flex counting refuses curves with line components'))
        elif len(descriptor.nonlinear) != 1 or descriptor.nonlinear[0].mult != 1:
            out.append(
                Violation("flexes", "automatic flex counting requires a single reduced nonlinear component")
            )
        elif not out and resolved_flex_count(descriptor) < 0:
            out.append(
                Violation(
                    "flexes",
                    f"absorbed flexes exceed the budget 3d(d-2) = {3 * d * (d - 2)}",
                )
            )
    elif isinstance(descriptor.flexes, int):
        out += flex_count_violations(descriptor.flexes)
    else:
        out.append(Violation("flexes", 'flex count must be an integer or "auto"'))

    if descriptor.stabilizer_degree is not None and descriptor.stabilizer_degree < 1:
        out.append(Violation("stabilizer_degree", "stabilizer degree must be a positive integer"))
    return out


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------
#
# Each JSON record is one table of key -> (reader, default), read by
# `_record` and written back by `_to_obj`.  A reader takes one JSON value and returns its model value, or
# raises DescriptorSchemaError with a path relative to that value; each
# record and array the error passes through puts its key or [i] in front.
# So a path is built only when a read fails.

#: Defaults that make a key mandatory.  The top level names a missing key
#: as the path; a nested record names it in the message.
_REQUIRED, _REQUIRED_FIELD = object(), object()


def _object(value: Any) -> dict:
    if not isinstance(value, dict):
        raise DescriptorSchemaError("", f"expected an object, got {type(value).__name__}")
    return value


def _int(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptorSchemaError("", f"expected an integer, got {type(value).__name__}")
    return value


def _str(value: Any) -> str:
    if not isinstance(value, str):
        raise DescriptorSchemaError("", f"expected a string, got {type(value).__name__}")
    return value


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise DescriptorSchemaError("", "expected a boolean")
    return value


def _rational(value: Any) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DescriptorSchemaError("", f'expected an integer or "num/den" string, got {type(value).__name__}')
    try:
        return to_rational(value)
    except ValueError as exc:
        raise DescriptorSchemaError("", str(exc)) from None


def _array(read: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    """The reader of a JSON array whose entries `read` reads."""

    def read_array(value: Any) -> tuple:
        if not isinstance(value, list):
            raise DescriptorSchemaError("", f"expected an array, got {type(value).__name__}")
        out = []
        try:
            for item in value:
                out.append(read(item))
        except DescriptorSchemaError as exc:
            raise exc.under(f"[{len(out)}]") from None
        return tuple(out)

    return read_array


_ints = _array(_int)


def _pair(value: Any) -> tuple[int, ...]:
    pair = _ints(value)
    if len(pair) != 2:
        raise DescriptorSchemaError("", "expected a [j, k] pair")
    return pair


def _fields(table: dict, data: dict) -> list:
    """Each field of `table` in table order: its reader's value, or the
    default when `data` lacks the key."""
    values = []
    try:
        for key, (read, default) in table.items():
            values.append(read(data[key]) if key in data else default)
    except DescriptorSchemaError as exc:
        raise exc.under(key) from None
    return values


def _record(table: dict, build: Callable[..., Any]) -> Callable[[Any], Any]:
    """The reader of a JSON object laid out by `table`.  It rejects an
    unknown key, then a missing mandatory key, then reads the fields and
    passes them to `build` in table order."""
    required = [(key, default) for key, (_, default) in table.items() if default in (_REQUIRED, _REQUIRED_FIELD)]

    def read_record(value: Any) -> Any:
        data = _object(value)
        if not table.keys() >= data.keys():
            raise DescriptorSchemaError(min(data.keys() - table.keys()), "unknown field")
        for key, default in required:
            if key not in data:
                if default is _REQUIRED_FIELD:
                    raise DescriptorSchemaError(key, "missing required field")
                raise DescriptorSchemaError("", f'missing "{key}"')
        return build(*_fields(table, data))

    return read_record


def _multiple_point(
    kind: str, label: Optional[str], m: int, contacts: tuple[int, ...], absorbed: Optional[int]
) -> CompositePoint:
    """Desugar the ordinary-multiple-point shorthand into the composite
    feature `ordinary_multiple_point` builds.

    When every branch is nonlinear and no count is given, the
    absorbed-flex count defaults to 3m(m-1) + sum(r) - m(m+1), which is
    the smooth-branch count 3m(m-1) plus one per extra contact order.
    """
    for problem in multiple_point_violations(m, contacts, path=""):
        # the rule's paths (".m", ".contacts[1]") start at the point
        raise DescriptorValueError(problem.path[1:], problem.message)
    if absorbed is None:
        absorbed = 3 * m * (m - 1) + sum(contacts) - m * (m + 1) if len(contacts) == m else 0
    return ordinary_multiple_point(m, contacts, absorbed, label)


#: The keys every point has.  `_point` reads them first, to pick the table
#: of the point's kind.
_POINT = {"kind": (_str, ""), "label": (_str, None)}

_SIDE = {"from": (_pair, _REQUIRED), "to": (_pair, _REQUIRED), "s": (_ints, _REQUIRED), "suppress": (_bool, False)}
_TRUNCATION = {"ell": (_int, _REQUIRED), "W": (_rational, _REQUIRED), "s": (_ints, _REQUIRED)}
_LINEAR = {"mult": (_int, _REQUIRED), "meets": (_ints, ())}
_NONLINEAR = {"deg": (_int, _REQUIRED), "mult": (_int, 1)}

#: The table of each point class, read for a point whose "kind" is the
#: class's `kind`.
_POINT_TABLES = {
    FlexPoint: {**_POINT, "contact": (_int, _REQUIRED)},
    IrreducibleSingularity: {**_POINT, "m": (_int, _REQUIRED), "n": (_int, _REQUIRED), "essential": (_ints, ())},
    CompositePoint: {
        **_POINT,
        "tangent_cone": (lambda value: None if value is None else _ints(value), None),
        "sides": (_array(_record(_SIDE, lambda start, end, s, suppress: NewtonSide(*start, *end, s, suppress))), ()),
        "truncations": (_array(_record(_TRUNCATION, Truncation)), ()),
        "absorbed_flexes": (_int, 0),
    },
}

_POINT_KINDS = {
    cls.kind: _record(table, lambda kind, label, *fields, cls=cls: cls(*fields, label=label))
    for cls, table in _POINT_TABLES.items()
}
_POINT_KINDS["ordinary_multiple_point"] = _record(
    {**_POINT, "m": (_int, _REQUIRED), "contacts": (_ints, ()), "absorbed_flexes": (_int, None)}, _multiple_point
)


def _point(value: Any) -> PointFeature:
    kind, _ = _fields(_POINT, _object(value))
    if kind not in _POINT_KINDS:
        raise DescriptorSchemaError("kind", f"unknown point kind {kind!r}")
    return _POINT_KINDS[kind](value)


_DESCRIPTOR = {
    "degree": (_int, _REQUIRED_FIELD),
    "stabilizer_degree": (lambda value: None if value is None else _int(value), None),
    "flexes": (lambda value: AUTO_FLEXES if value == AUTO_FLEXES else _int(value), 0),
    "linear": (_array(_record(_LINEAR, LinearComponent)), ()),
    "nonlinear": (_array(_record(_NONLINEAR, NonlinearComponent)), ()),
    "points": (_array(_point), ()),
}
_read_descriptor = _record(_DESCRIPTOR, CurveDescriptor)


def descriptor_from_obj(obj: Any) -> CurveDescriptor:
    """Build a descriptor from already-decoded JSON data."""
    return _read_descriptor(obj)


def decode_json(text: str) -> Any:
    """Decode JSON text, raising DescriptorParseError on bad syntax, on an
    integer beyond the interpreter's digit limit and on nesting beyond its
    recursion limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorParseError(exc.msg, exc.lineno, exc.colno) from None
    except (ValueError, RecursionError) as exc:
        raise DescriptorParseError(str(exc)) from None


def parse(text: str) -> CurveDescriptor:
    """Parse a JSON descriptor; raises DescriptorParseError / DescriptorSchemaError."""
    return descriptor_from_obj(decode_json(text))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


#: The table each record class is written by: the one it is read by.
_TABLES = {
    CurveDescriptor: _DESCRIPTOR,
    LinearComponent: _LINEAR,
    NonlinearComponent: _NONLINEAR,
    NewtonSide: _SIDE,
    Truncation: _TRUNCATION,
    **_POINT_TABLES,
}

#: The keys whose value is not the attribute of the same name.
_UNNAMED = {
    "from": lambda side: (side.j0, side.k0),
    "to": lambda side: (side.j1, side.k1),
    "W": lambda trunc: rational_to_string(trunc.weight),
}


def _to_obj(value: Any) -> Any:
    """The JSON value of a model value.  A record is the object its table
    lays out, without the keys whose value is None or False."""
    if isinstance(value, tuple):
        return [_to_obj(item) for item in value]
    table = _TABLES.get(type(value))
    if table is None:
        return value
    out = {}
    for key in table:
        field = _to_obj(_UNNAMED[key](value) if key in _UNNAMED else getattr(value, key))
        if field is not None and field is not False:
            out[key] = field
    return out


def descriptor_to_obj(descriptor: CurveDescriptor) -> dict:
    return _to_obj(descriptor)


def serialize(descriptor: CurveDescriptor, indent: int | None = 2) -> str:
    return json.dumps(descriptor_to_obj(descriptor), indent=indent)
