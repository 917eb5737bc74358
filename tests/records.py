"""What the tests used of `dataclasses` on the package's records, on `__slots__`.

A record (`orbitdeg.record`) keeps its fields, in order, in `__slots__`
and takes each as a parameter of the same name.
"""


def fields(cls: type) -> list[str]:
    """The field names of a record class, in order."""
    return list(cls.__slots__)


def replace(value, **changes):
    """A copy of the record `value` with the given fields changed; an
    unknown field is a TypeError from the constructor."""
    return type(value)(**{**{name: getattr(value, name) for name in fields(type(value))}, **changes})
