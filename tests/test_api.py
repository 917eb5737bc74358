"""The library surface: the README's "Library use" snippet and `__all__`."""

import contextlib
import io
import json
import re
from pathlib import Path

import orbitdeg
from orbitdeg import corpus

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
