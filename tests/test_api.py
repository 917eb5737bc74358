"""The library surface: the README's "Library use" snippet, `__all__`, the
lazy package and the value semantics of the records."""

import contextlib
import copy
import io
import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orbitdeg
from orbitdeg import corpus, engine, model, newton
from orbitdeg.record import Record

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_section():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library use")
    return text[start : text.index("\n## ", start)]


def library_use_snippet():
    return re.search(r"```python\n(.*?)```", library_use_section(), re.S).group(1)


def test_readme_library_snippet_runs_on_a_bundled_fixture(tmp_path, monkeypatch):
    fixture = json.loads((corpus.corpus_dir() / "cuspidal-cubic.json").read_text(encoding="utf-8"))
    (tmp_path / "curve.json").write_text(json.dumps(fixture["descriptor"]), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(library_use_snippet(), {})
    report = orbitdeg.assemble(orbitdeg.parse(json.dumps(fixture["descriptor"])))
    lines = out.getvalue().splitlines()
    assert lines[0] == f"{report.orbit_dimension} {report.predegree} {report.degree}"
    assert lines[0].split()[:2] == [str(fixture["expected"]["orbit_dimension"]), fixture["expected"]["predegree"]]
    assert lines[1] == str(report.app)
    assert lines[2:] == [f"{label} {corr.kind} {corr.term}" for label, corr in report.breakdown]
    assert len(lines) == 2 + len(report.breakdown) > 2


def test_every_exported_name_resolves():
    assert len(set(orbitdeg.__all__)) == len(orbitdeg.__all__)
    missing = [name for name in orbitdeg.__all__ if not hasattr(orbitdeg, name)]
    assert missing == []


def test_readme_names_only_exported_builders():
    named = set(re.findall(r"`([a-z_]+_(?:correction|factor|equivalent))`", library_use_section()))
    assert "multiple_point_correction" in named
    assert sorted(named - set(orbitdeg.__all__)) == []


def test_dir_lists_every_exported_name():
    assert sorted(set(orbitdeg.__all__) - set(dir(orbitdeg))) == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from orbitdeg import *", namespace)
    assert {name: namespace.get(name) for name in orbitdeg.__all__} == {
        name: getattr(orbitdeg, name) for name in orbitdeg.__all__
    }


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="^module 'orbitdeg' has no attribute 'no_such_name'$"):
        orbitdeg.no_such_name


def test_import_orbitdeg_loads_no_submodule():
    script = "import sys, orbitdeg; print(*[m for m in sys.modules if m.startswith('orbitdeg')])"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "orbitdeg\n", "")


def test_a_child_imports_the_package_under_test():
    """A child started with the inherited environment runs the same
    `orbitdeg` as the suite: a checkout's `src/` under `PYTHONPATH=src`, an
    installed copy when the suite runs against one."""
    script = "import orbitdeg; print(orbitdeg.__file__)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert Path(proc.stdout.strip()).resolve() == Path(orbitdeg.__file__).resolve()


EVERY_POINT_KIND = {
    "degree": 7,
    "stabilizer_degree": 3,
    "flexes": 2,
    "linear": [{"mult": 1, "meets": [1, 2, 3]}],
    "nonlinear": [{"deg": 3, "mult": 2}],
    "points": [
        {"kind": "flex", "contact": 4, "label": "f"},
        {"kind": "irreducible", "m": 2, "n": 3, "essential": [3]},
        {"kind": "ordinary_multiple_point", "m": 3, "contacts": [4]},
        {
            "kind": "composite",
            "tangent_cone": [2, 1],
            "sides": [{"from": [0, 2], "to": [4, 0], "s": [2], "suppress": True}],
            "truncations": [{"ell": 1, "W": "5/3", "s": [1, 1]}],
            "absorbed_flexes": 1,
        },
    ],
}


def records_in(value):
    """`value` and every record nested in it through records and tuples."""
    if isinstance(value, tuple):
        for item in value:
            yield from records_in(item)
    elif isinstance(value, Record):
        yield value
        for name in value.__slots__:
            yield from records_in(getattr(value, name))


def sample_records():
    descriptor = model.descriptor_from_obj(EVERY_POINT_KIND)
    fixture = json.loads((corpus.corpus_dir() / "cuspidal-cubic.json").read_text(encoding="utf-8"))
    report = engine.assemble(model.descriptor_from_obj(fixture["descriptor"]))
    support = newton.MonomialSupport.from_terms(4, [[4, 0, "1"], [2, 1, "-2"], [0, 2, "1"], [3, 1, "-1"]])
    sides = newton.qualifying_sides(newton.newton_polygon(support))
    return descriptor, report, report.breakdown[0][1], newton.side_data(support, sides[0]), report.app


def test_the_sample_has_every_point_kind_a_correction_a_side_and_a_series():
    kinds = {type(value).__name__ for value in records_in(sample_records())}
    assert kinds >= {"FlexPoint", "IrreducibleSingularity", "CompositePoint", "OrdinaryMultiplePoint"}
    assert kinds >= {"NewtonSide", "Truncation"}
    assert kinds >= {"CurveDescriptor", "LinearComponent", "NonlinearComponent", "OrbitReport", "Correction", "SideData"}
    assert "TruncSeries" in kinds


@pytest.mark.parametrize("how", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy])
def test_records_survive_pickle_and_copy(how):
    for value in records_in(sample_records()):
        again = how(value)
        assert type(again) is type(value) and again == value and hash(again) == hash(value), value


def test_record_fields_cannot_be_assigned_or_deleted():
    for value in records_in(sample_records()):
        for name in value.__slots__:
            with pytest.raises(AttributeError, match=f"field '{name}'"):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError, match=f"field '{name}'"):
                delattr(value, name)
