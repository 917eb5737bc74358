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
from .record import Record
from .series import rational_to_string

ENV_CORPUS_DIR = "ORBITDEG_CORPUS"


class FixtureResult(Record):
    """A fixture's name and its mismatches: a record that `check_fixture` fills in, so mutable."""

    __slots__ = ("name", "failures")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, name: str, failures: list[str] | None = None):
        self.name = name
        self.failures = [] if failures is None else failures

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


def check_fixture(path: Path, erratum_strict: bool = False) -> FixtureResult:
    """Recompute one fixture and collect exact-value mismatches.

    A fixture that cannot be read, decoded, computed or compared fails
    with a one-line reason, so one bad file does not stop the replay.
    """
    result = FixtureResult(name=path.stem)
    try:
        data = model.decode_json(path.read_text(encoding="utf-8"))
        result.name = str(data.get("name", path.stem))
        descriptor = model.descriptor_from_obj(data["descriptor"])
        report = engine.assemble(descriptor, erratum_strict=erratum_strict)
    except (OSError, ValueError, AttributeError, KeyError, model.DescriptorError, engine.EngineError) as exc:
        result.failures.append(f"fixture did not compute: {exc}")
        return result
    expected = data.get("expected", {})
    try:
        obj = engine.report_to_obj(report)
        unknown = set(expected) - _EXPECTED_KEYS
        if unknown:
            result.failures.append(f"unknown expected keys: {sorted(unknown)}")
        if "orbit_dimension" in expected:
            want = expected["orbit_dimension"]
            if obj["orbit_dimension"] != want:
                result.failures.append(f"orbit_dimension: expected {want}, got {obj['orbit_dimension']}")
        for key in ("predegree", "degree"):
            if key in expected:
                want, got = rational_to_string(expected[key]), obj.get(key, "absent")
                if got != want:
                    result.failures.append(f"{key}: expected {want}, got {got}")
        if "app" in expected:
            want_list = [rational_to_string(v) for v in expected["app"]]
            if obj["app"] != want_list:
                result.failures.append(f"app: expected {want_list}, got {obj['app']}")
        if "a" in expected:
            # a tuple, like OrbitReport.predegree_polynomial, so that a bad
            # index fails as "tuple index out of range"
            polynomial = tuple(obj["predegree_polynomial"])
            for index, value in expected["a"].items():
                want, got = rational_to_string(value), polynomial[int(index)]
                if got != want:
                    result.failures.append(f"a{index}: expected {want}, got {got}")
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        result.failures.append(f"expected values could not be compared: {exc}")
    return result


def run(directory: str | os.PathLike | None = None, erratum_strict: bool = False) -> list[FixtureResult]:
    """Replay the whole corpus; results come back in fixture-name order."""
    target = corpus_dir(directory)
    return [check_fixture(path, erratum_strict) for path in fixture_paths(target)]
