"""Golden-corpus replay: recompute every bundled fixture and compare exactly.

Each fixture file holds a descriptor and a set of expected values
(predegree, orbit dimension, degree, or individual polynomial
coefficients).  The comparison is against the JSON report that
`orbitdeg compute` prints: each expected rational is written in the same
exact "num/den" form and compared as a string, so a fixture passes only
when every expected value is reproduced exactly.
"""

from __future__ import annotations

import os
from pathlib import Path

from . import engine, model
from .record import record
from .series import rational_to_string

ENV_CORPUS_DIR = "ORBITDEG_CORPUS"


@record
class FixtureResult:
    """A fixture's name and its mismatches."""

    name: str
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def corpus_dir(override: str | os.PathLike | None = None) -> Path:
    """The fixture directory: explicit override, then the environment
    variable, then the bundled corpus."""
    if override is not None:
        return Path(override)
    env = os.environ.get(ENV_CORPUS_DIR)
    if env:
        return Path(env)
    return Path(__file__).parent / "corpus"


def fixture_paths(directory: Path) -> list[Path]:
    if not directory.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {directory}")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no fixtures in {directory}")
    return paths


_EXPECTED_KEYS = {"orbit_dimension", "predegree", "degree", "app", "a"}


def _comparisons(expected: dict, obj: dict):
    """(label, want, got) per expected value, `want` in the report's form, in failure order."""
    if "orbit_dimension" in expected:
        yield "orbit_dimension", expected["orbit_dimension"], obj["orbit_dimension"]
    for key in ("predegree", "degree"):
        if key in expected:
            yield key, rational_to_string(expected[key]), obj.get(key, "absent")
    if "app" in expected:
        yield "app", [rational_to_string(v) for v in expected["app"]], obj["app"]
    if "a" in expected:
        # a tuple, like OrbitReport.predegree_polynomial, so that a bad
        # index, a negative one too, fails as "tuple index out of range"
        polynomial = tuple(obj["predegree_polynomial"])
        for index, value in expected["a"].items():
            if int(index) < 0:
                raise IndexError("tuple index out of range")
            yield f"a{index}", rational_to_string(value), polynomial[int(index)]


def _report(descriptor: model.CurveDescriptor, erratum_strict: bool) -> tuple[engine.OrbitReport, str | None]:
    """The descriptor's report and None; or, when its stabilizer degree does
    not divide this mode's predegree into a positive integer, the report
    without it and why there is no degree, so the other values still compare."""
    try:
        return engine.assemble(descriptor, erratum_strict=erratum_strict), None
    except engine.ValidationError:
        raise
    except engine.EngineError as exc:
        d = descriptor
        bare = model.CurveDescriptor(d.degree, None, d.flexes, d.linear, d.nonlinear, d.points)
        return engine.assemble(bare, erratum_strict=erratum_strict), f"no degree ({exc})"


def check_fixture(path: Path, erratum_strict: bool = False) -> FixtureResult:
    """Recompute one fixture and collect exact-value mismatches.

    A fixture that cannot be read, decoded, computed or compared fails
    with a one-line reason, so one bad file does not stop the replay.  A
    stabilizer degree that does not divide the predegree fails only the
    `degree` comparison.
    """
    name, failures = path.stem, []
    try:
        data = model.decode_json(path.read_text(encoding="utf-8"))
        name = str(data.get("name", path.stem))
        report, degree = _report(model.descriptor_from_obj(data["descriptor"]), erratum_strict)
    except (OSError, ValueError, AttributeError, KeyError, model.DescriptorError, engine.EngineError) as exc:
        return FixtureResult(name, (f"fixture did not compute: {exc}",))
    expected = data.get("expected", {})
    if type(expected) is not dict:
        return FixtureResult(name, (f"expected values must be an object, got {type(expected).__name__}",))
    try:
        obj = engine.report_to_obj(report)
        if degree is not None:
            obj["degree"] = degree
        unknown = set(expected) - _EXPECTED_KEYS
        if unknown:
            failures.append(f"unknown expected keys: {sorted(unknown)}")
        for label, want, got in _comparisons(expected, obj):
            if got != want:
                failures.append(f"{label}: expected {want}, got {got}")
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        failures.append(f"expected values could not be compared: {exc}")
    return FixtureResult(name, tuple(failures))


def run(directory: str | os.PathLike | None = None, erratum_strict: bool = False) -> list[FixtureResult]:
    """Replay the whole corpus; results come back in fixture-name order."""
    target = corpus_dir(directory)
    return [check_fixture(path, erratum_strict) for path in fixture_paths(target)]
