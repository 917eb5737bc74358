"""Curve descriptors: data model, validation rules, and the JSON input format.

A descriptor records the discrete data of a plane curve that the degree
computation consumes: the global components (lines and higher-degree
components with their multiplicities), and per-point local features
(inflection contact orders, irreducible singularities given by their
characteristic exponents, ordinary multiple points given by m and their
branch contacts, or composite features given by tangent-cone
multiplicities, polygon sides, and branch truncations).  Points are
abstract labels; no coordinates are stored.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Optional, Sequence, Union, get_args

from .record import record
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
    """Well-formed JSON that does not match the descriptor schema, or a
    descriptor record built in Python with a field of the wrong type."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def under(self, step: str) -> DescriptorSchemaError:
        """The same error one record or array further out, `step` being the
        key or "[i]" that leads to the value the error is about."""
        path = self.path if not self.path or self.path[0] == "[" else f".{self.path}"
        return type(self)(step + path, self.message)


@record
class Violation:
    """A single validation failure: which field, and what rule it breaks."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


_NONE, _INTS, _TUPLE = type(None), frozenset({int}), frozenset({tuple})

#: Per field annotation: the classes its value may have, `_INTS` or the
#: record classes the entries of its tuple may have, and what it asks for.
#: An optional field names only the value it asks for, as the reader does.
#: Each descriptor record class adds the tuples of its records.
_TYPES: dict[str, tuple[frozenset, Any, str]] = {
    "int": (_INTS, (), "an integer"),
    "bool": (frozenset({bool}), (), "a boolean"),
    "Fraction": (frozenset({Fraction, int}), (), "a Fraction or an integer"),
    "Optional[int]": (frozenset({int, _NONE}), (), "an integer"),
    "Optional[str]": (frozenset({str, _NONE}), (), "a string"),
    "Union[int, str]": (frozenset({int, str}), (), "an integer or a string"),
    "tuple[int, ...]": (_TUPLE, _INTS, "a tuple of integers"),
    "Optional[tuple[int, ...]]": (frozenset({tuple, _NONE}), _INTS, "a tuple of integers"),
}


def _typed_record(cls: type) -> type:
    """The `record` of `cls` whose `__init__` refuses the first field whose
    value's own class its annotation does not allow (so a bool is no int),
    with DescriptorSchemaError at the field's key, or at key[i] for a tuple
    entry.  A record in a tuple checked its fields when it was built, so
    only its class is checked.  The rules name a truncation's weight by its
    JSON key."""
    fields = {name: _TYPES[hint] for name, hint in cls.__annotations__.items()}

    def refuse(*values: Any) -> None:
        for (name, (classes, entries, what)), value in zip(fields.items(), values):
            key = "W" if name == "weight" else name
            if type(value) not in classes:
                raise DescriptorSchemaError(key, f"expected {what}, got {type(value).__name__}")
            for idx, item in enumerate(value if entries and value else ()):
                if type(item) not in entries:
                    names = " or ".join([c.__name__ for c in entries])
                    entry = "an integer" if entries is _INTS else f"a {names} record"
                    raise DescriptorSchemaError(f"{key}[{idx}]", f"expected {entry}, got {type(item).__name__}")

    new = record(cls, {name: (classes, entries) for name, (classes, entries, _) in fields.items()}, refuse)
    _TYPES[f"tuple[{new.__name__}, ...]"] = (_TUPLE, (new,), f"a tuple of {new.__name__} records")
    return new


@_typed_record
class LinearComponent:
    """A line in the curve, with its multiplicity and the multiplicities
    of the points where it meets the rest of the curve."""

    mult: int
    meets: tuple[int, ...] = ()


@_typed_record
class NonlinearComponent:
    """A component of degree >= 2 with its multiplicity."""

    deg: int
    mult: int = 1


@_typed_record
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


@_typed_record
class Truncation:
    """A branch-truncation feature: denominator-clearing exponent `ell`,
    rational weight, and the multiplicities of the limit conics."""

    ell: int
    weight: Fraction
    s: tuple[int, ...]


@_typed_record
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

    def chain_steps(self) -> list[tuple[int, int]]:
        """The pairs (e_{j+1} - e_j, d_j) for j = 0..r, with e_0 = n,
        e_1..e_r the essential exponents, e_{r+1} = 0 and d_j the gcd chain
        d_0 = m, d_{j+1} = gcd(d_j, e_{j+1}), computed in the same walk."""
        steps, before, d = [], self.n, self.m
        for e in self.essential:
            steps.append((e - before, d))
            before, d = e, gcd(d, e)
        return steps + [(-before, d)]


@_typed_record
class FlexPoint:
    """A nonsingular point where the tangent meets the curve with the
    given contact order (>= 3)."""

    kind = "flex"

    contact: int
    label: Optional[str] = None


@_typed_record
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


@_typed_record
class OrdinaryMultiplePoint:
    """An ordinary point of multiplicity m: m branches with distinct
    tangents, where `contacts` gives, per nonlinear branch, the
    intersection multiplicity of the curve with that branch's tangent
    (linear branches are left out).  `absorbed_flexes` None asks for the
    default count (see `absorbed_flexes`)."""

    kind = "ordinary_multiple_point"

    m: int
    contacts: tuple[int, ...] = ()
    absorbed_flexes: Optional[int] = None
    label: Optional[str] = None


PointFeature = Union[FlexPoint, IrreducibleSingularity, CompositePoint, OrdinaryMultiplePoint]
_TYPES["tuple[PointFeature, ...]"] = (_TUPLE, get_args(PointFeature), "a tuple of point records")


@_typed_record
class CurveDescriptor:
    degree: int
    stabilizer_degree: Optional[int] = None
    flexes: Union[int, str] = 0
    linear: tuple[LinearComponent, ...] = ()
    nonlinear: tuple[NonlinearComponent, ...] = ()
    points: tuple[PointFeature, ...] = ()


def absorbed_flexes(feature: PointFeature) -> int:
    """The number of ordinary inflections a feature removes from the budget.
    An irreducible singularity absorbs 3mn - 2m - 2n + 3 * sum step * (d - 1)
    over its `chain_steps`, never negative when valid.  An ordinary multiple
    point without a count whose branches are all nonlinear absorbs
    3m(m-1) + sum(contacts) - m(m+1): the smooth-branch count 3m(m-1) plus
    one per extra contact order."""
    if isinstance(feature, FlexPoint):
        return feature.contact - 2
    if isinstance(feature, IrreducibleSingularity):
        m, n = feature.m, feature.n
        return 3 * m * n - 2 * m - 2 * n + 3 * sum(step * (d - 1) for step, d in feature.chain_steps())
    if feature.absorbed_flexes is not None:
        return feature.absorbed_flexes
    m, contacts = feature.m, feature.contacts
    return 3 * m * (m - 1) + sum(contacts) - m * (m + 1) if len(contacts) == m else 0


def resolved_flex_count(descriptor: CurveDescriptor) -> int:
    """The ordinary-flex count: the explicit value, or 3d(d-2) minus all
    absorbed flexes when the descriptor asks for automatic bookkeeping."""
    if descriptor.flexes != AUTO_FLEXES:
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


def flex_violations(contact: int, path: str = "flex") -> list[Violation]:
    """Checks for the contact order of an inflection."""
    if contact < 3:
        return [Violation(f"{path}.contact", "flex contact order must be >= 3")]
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
    steps = sing.chain_steps()
    for idx, (e, (_, d)) in enumerate(zip(sing.essential, steps)):
        if e % d == 0:
            return [Violation(f"{path}.essential[{idx}]", f"{e} is a multiple of gcd {d}, so it is not essential")]
    if steps[-1][1] != 1:
        return [Violation(path, f"gcd of multiplicity and exponents is {steps[-1][1]}, not 1 (branch not reduced)")]
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
    them.  Only values are checked here: each record checked the types of
    its fields when it was built.
    """
    return _violations_and_flex_count(descriptor)[0]


def _violations_and_flex_count(descriptor: CurveDescriptor) -> tuple[list[Violation], int | None]:
    """`validate`'s violations and, whenever there are none, the descriptor's
    `resolved_flex_count`, which the budget check has already computed."""
    out: list[Violation] = []
    count = None
    d = descriptor.degree
    if d < 1:
        out.append(Violation("degree", "degree must be a positive integer"))
        return out, None

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
            out += flex_violations(feature.contact, path)
        elif isinstance(feature, IrreducibleSingularity):
            out += irreducible_violations(feature, path)
        elif isinstance(feature, OrdinaryMultiplePoint):
            out += multiple_point_violations(feature.m, feature.contacts, path)
        else:
            if feature.tangent_cone is not None:
                out += tangent_cone_violations(feature.tangent_cone, f"{path}.tangent_cone")
            for sidx, side in enumerate(feature.sides):
                out += side_violations(side, f"{path}.sides[{sidx}]")
            for tidx, trunc in enumerate(feature.truncations):
                out += truncation_violations(trunc, f"{path}.truncations[{tidx}]")
        if isinstance(feature, (CompositePoint, OrdinaryMultiplePoint)) and (feature.absorbed_flexes or 0) < 0:
            out.append(Violation(f"{path}.absorbed_flexes", "absorbed flex count must be >= 0"))

    if descriptor.flexes == AUTO_FLEXES:
        if descriptor.linear:
            out.append(Violation("flexes", 'automatic flex counting refuses curves with line components'))
        elif len(descriptor.nonlinear) != 1 or descriptor.nonlinear[0].mult != 1:
            out.append(
                Violation("flexes", "automatic flex counting requires a single reduced nonlinear component")
            )
        elif not out:
            count = resolved_flex_count(descriptor)
            if count < 0:
                out.append(Violation("flexes", f"absorbed flexes exceed the budget 3d(d-2) = {3 * d * (d - 2)}"))
    elif type(descriptor.flexes) is int:
        out += flex_count_violations(descriptor.flexes)
        count = descriptor.flexes
    else:
        out.append(Violation("flexes", 'flex count must be an integer or "auto"'))

    stabilizer = descriptor.stabilizer_degree
    if stabilizer is not None and stabilizer < 1:
        out.append(Violation("stabilizer_degree", "stabilizer degree must be a positive integer"))
    return out, count


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------
#
# Each JSON record is one table of key -> (reader, default), read by
# `_record` and written back by `_to_obj`.  A reader takes one JSON value
# and returns its model value, which the record built from it type-checks,
# or raises DescriptorSchemaError with a path relative to that value; each
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


def _rational(value: Any) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DescriptorSchemaError("", f'expected an integer or "num/den" string, got {type(value).__name__}')
    try:
        return to_rational(value)
    except ValueError as exc:
        raise DescriptorSchemaError("", str(exc)) from None


def _as_is(value: Any) -> Any:
    return value


def _list(value: Any) -> list:
    if not isinstance(value, list):
        raise DescriptorSchemaError("", f"expected an array, got {type(value).__name__}")
    return value


def _array(read: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    """The reader of a JSON array whose entries `read` reads."""

    def read_array(value: Any) -> tuple:
        items, out = _list(value), []
        try:
            for item in items:
                out.append(read(item))
        except DescriptorSchemaError as exc:
            raise exc.under(f"[{len(out)}]") from None
        return tuple(out)

    return read_array


def _tuple(value: Any) -> tuple:
    """A JSON array as a tuple: the record it is read into checks the entries."""
    return tuple(_list(value))


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


#: The keys every point has.  `_point` reads them first, to pick the table
#: of the point's kind.
_POINT = {"kind": (_str, ""), "label": (_str, None)}

_SIDE = {"from": (_pair, _REQUIRED), "to": (_pair, _REQUIRED), "s": (_tuple, _REQUIRED), "suppress": (_as_is, False)}
_TRUNCATION = {"ell": (_as_is, _REQUIRED), "W": (_rational, _REQUIRED), "s": (_tuple, _REQUIRED)}
_LINEAR = {"mult": (_as_is, _REQUIRED), "meets": (_tuple, ())}
_NONLINEAR = {"deg": (_as_is, _REQUIRED), "mult": (_as_is, 1)}

#: The table of each point class, read for a point whose "kind" is the
#: class's `kind`.
_POINT_TABLES = {
    FlexPoint: {**_POINT, "contact": (_as_is, _REQUIRED)},
    IrreducibleSingularity: {**_POINT, "m": (_as_is, _REQUIRED), "n": (_as_is, _REQUIRED), "essential": (_tuple, ())},
    CompositePoint: {
        **_POINT,
        "tangent_cone": (lambda value: None if value is None else _tuple(value), None),
        "sides": (_array(_record(_SIDE, lambda start, end, s, suppress: NewtonSide(*start, *end, s, suppress))), ()),
        "truncations": (_array(_record(_TRUNCATION, Truncation)), ()),
        "absorbed_flexes": (_as_is, 0),
    },
    # `_int`: a JSON null would read as the default count
    OrdinaryMultiplePoint: {**_POINT, "m": (_as_is, _REQUIRED), "contacts": (_tuple, ()), "absorbed_flexes": (_int, None)},
}

_POINT_KINDS = {
    cls.kind: _record(table, lambda kind, label, *fields, cls=cls: cls(*fields, label=label))
    for cls, table in _POINT_TABLES.items()
}


def _point(value: Any) -> PointFeature:
    kind, _ = _fields(_POINT, _object(value))
    if kind not in _POINT_KINDS:
        raise DescriptorSchemaError("kind", f"unknown point kind {kind!r}")
    return _POINT_KINDS[kind](value)


_DESCRIPTOR = {
    "degree": (_as_is, _REQUIRED_FIELD),
    "stabilizer_degree": (_as_is, None),
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
