"""Frozen value classes on `__slots__`: what `dataclasses.dataclass(frozen=True)`
gives the package's records, without importing `dataclasses` (which loads
`inspect`) or compiling several methods per class."""

from __future__ import annotations

from typing import Callable


class Record:
    """A value class whose fields are its `__slots__`, in order.  A record
    equals only a record of its own class with equal fields, hashes by its
    fields, prints as Name(field=value, ...), pickles and copies through
    its constructor, and refuses to have a field assigned or deleted."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join([f'{n}={getattr(self, n)!r}' for n in self.__slots__])})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def _frozen(self, name: str, *value: object) -> None:
        raise AttributeError(f"field {name!r} is frozen")

    __setattr__ = __delattr__ = _frozen


def record(cls: type, types: dict | None = None, refuse: Callable[..., None] | None = None) -> type:
    """The `Record` class that the body of `cls` describes.  Each annotation
    names a field, in order, and a value assigned to it is the field's
    default.  The fields become the slots and the parameters of a generated
    `__init__`, which ends by calling `__post_init__` when the class has one.
    It is compiled when the class is first called, so that a process
    compiles only the records it builds, not every record it imports.

    `types`, when given, maps each field to the classes its value may have
    and those the entries of its tuple may have (empty, to leave them
    unchecked).  The `__init__` then checks every field before it sets any,
    and at a value or entry of another class calls `refuse` with all the
    field values, in order; `refuse` raises at the first wrong one."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    body = {key: value for key, value in cls.__dict__.items() if key not in (*names, "__dict__", "__weakref__")}
    body.update(__slots__=names, __match_args__=names, __qualname__=cls.__qualname__)
    new = type(cls.__name__, (Record,), body)
    scope = {f"_default_{name}": cls.__dict__[name] for name in names if name in cls.__dict__}
    params = [f"{name}=_default_{name}" if f"_default_{name}" in scope else name for name in names]
    tests = []
    for name, (classes, entries) in (types or {}).items():
        scope[f"_classes_{name}"] = classes
        tests.append(f"type({name}) not in _classes_{name}")
        if entries:
            scope[f"_entries_{name}"] = frozenset(entries)
            tests.append(f"not _entries_{name}.issuperset(map(type, {name} or ()))")
    lines = [f"if {' or '.join(tests)}: _refuse({', '.join(names)})"] if tests else []
    scope.update({f"_set_{name}": getattr(new, name).__set__ for name in names}, _refuse=refuse)
    lines += [f"_set_{name}(self, {name})" for name in names] + ["self.__post_init__()"] * hasattr(new, "__post_init__")
    source = f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(lines)

    def __init__(self: Record, *args: object, **kwargs: object) -> None:
        exec(source, scope)
        new.__init__ = scope["__init__"]  # type: ignore[misc]
        new.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        new.__init__(self, *args, **kwargs)

    new.__init__ = __init__  # type: ignore[misc]
    return new
