"""Command-line behavior: exit codes, output channels, corpus replay."""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import records
from orbitdeg import cli, corpus, engine, model, newton
from oracles import TruncSeries
from strategies import descriptors, ordinary_multiple_points, supports

CONIC_TEXT = '{"degree": 2, "flexes": 0, "nonlinear": [{"deg": 2, "mult": 1}]}'
LINE_TEXT = '{"degree": 1, "flexes": 0, "linear": [{"mult": 1, "meets": []}]}'


@pytest.fixture
def conic_path(tmp_path):
    path = tmp_path / "conic.json"
    path.write_text(CONIC_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def line_path(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(LINE_TEXT, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_json_report(capsys, conic_path):
    code, out, err = run(capsys, "compute", conic_path)
    assert code == 0
    report = json.loads(out)
    assert report["predegree"] == "8"
    assert report["orbit_dimension"] == 5
    assert err == ""


def test_compute_pretty_report(capsys, conic_path):
    code, out, _ = run(capsys, "compute", conic_path, "--format", "pretty")
    assert code == 0
    assert "orbit dimension: 5" in out


def test_compute_expect_dimension_warning(capsys, conic_path):
    code, out, err = run(capsys, "compute", conic_path, "--expect-dimension", "8")
    assert code == 0
    assert "warning" in err
    json.loads(out)  # stdout still carries only the report


def test_compute_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "compute", str(tmp_path / "nope.json"))
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "{path}"],
        ["newton", "{path}"],
        ["union", "{conic}", "{path}"],
        ["scale", "{path}", "--multiple", "2"],
    ],
)
def test_unreadable_text_or_path_is_one_error_line(capsys, tmp_path, conic_path, argv):
    """A file that is not UTF-8 text, and a path with a NUL byte, which
    `open` refuses with ValueError rather than OSError."""
    undecodable = tmp_path / "utf16.json"
    undecodable.write_bytes(b"\xff\xfe{")
    for path in (str(undecodable), "a\0b"):
        code, out, err = run(capsys, *[arg.format(path=path, conic=conic_path) for arg in argv])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1, err


def test_compute_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "compute", str(path))
    assert code == 2
    assert "line 1" in err


def test_compute_schema_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for text, message in (
        ('{"degree": "4"}', "degree: expected an integer, got str"),
        ('{"degree": 2, "nonlinear": [{"deg": 2, "mult": true}]}', "nonlinear[0].mult: expected an integer, got bool"),
    ):
        path.write_text(text, encoding="utf-8")
        assert run(capsys, "compute", str(path)) == (2, "", f"error: {path}: {message}\n")


def test_compute_validation_failure(capsys, tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text('{"degree": 3, "nonlinear": [{"deg": 2, "mult": 1}]}', encoding="utf-8")
    code, out, err = run(capsys, "compute", str(path))
    assert code == 1
    assert out == ""
    assert "invalid" in err


@pytest.mark.parametrize(
    "args, field, tail",
    [
        ("type5 --ell 1 --W 5 --s 1,1", "term", ["-5/6", "31/14", "-3"]),
        ("type3 --lines 1,1", "term", ["0", "0", "0"]),
        ("type3 --lines 1,1,1", "term", ["-3/8", "27/28", "-81/64"]),
        ("flexes --count 1", "factor", ["-1/48", "3/70", "-197/4480"]),
        ("flexes --count 1 --erratum strict", "factor", ["-1/42", "3/70", "-197/4480"]),
    ],
)
def test_contribution_prints_the_exact_term(capsys, args, field, tail):
    """The H^6..H^8 coefficients of a term or factor; the ones below are 0,
    or 1 in front of a factor."""
    code, out, err = run(capsys, "contribution", *args.split())
    assert (code, err) == (0, "")
    head = ["1" if field == "factor" else "0"] + ["0"] * 5
    assert json.loads(out)[field] == head + tail


def test_contribution_irreducible(capsys):
    code, out, _ = run(capsys, "contribution", "irreducible", "--m", "2", "--n", "3", "--essential", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["absorbs"] == 8
    assert TruncSeries.from_strings(payload["factor"]) == TruncSeries.from_terms(
        {0: 1, 6: F(-4, 15), 7: F(3, 5), 8: F(-19, 28)}
    )


def test_contribution_precondition_failure(capsys):
    code, _, err = run(capsys, "contribution", "irreducible", "--m", "2", "--n", "4", "--essential", "6")
    assert code == 1
    assert "essential" in err


def test_contribution_missing_flag(capsys):
    code, _, err = run(capsys, "contribution", "type5", "--ell", "1")
    assert code == 1
    assert "missing" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["side", "--from", "0,2"], "side: missing --to, --s"),
        (["truncation", "--ell", "1"], "truncation: missing --weight, --s"),
    ],
)
def test_contribution_missing_flags_are_named_by_their_option(capsys, argv, message):
    assert run(capsys, "contribution", *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["line", "--mult", "1", "--meets", "-1,2", "--degree", "3"], "line.meets: intersection multiplicities must be positive"),
        (["side", "--from", "-1,2", "--to", "3,0", "--s", "1"], "side.j0: endpoint coordinates must be non-negative"),
    ],
)
def test_contribution_negative_lists_reach_the_model(capsys, argv, message):
    assert run(capsys, "contribution", *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "spaced, joined, code",
    [
        (
            ["local-quadratic", "--alpha", "7", "--beta", "-3/11", "--gamma", "2", "--rho", "4"],
            ["local-quadratic", "--alpha", "7", "--beta=-3/11", "--gamma", "2", "--rho", "4"],
            0,
        ),
        (
            ["local-quadratic", "--alpha", "-1/2", "--beta", "1", "--gamma", "-2/3", "--rho", "-4/5"],
            ["local-quadratic", "--alpha=-1/2", "--beta", "1", "--gamma=-2/3", "--rho=-4/5"],
            0,
        ),
        (["truncation", "--ell", "1", "--W", "-1/2", "--s", "1"], ["truncation", "--ell", "1", "--W=-1/2", "--s", "1"], 1),
        (["type5", "--ell", "1", "--weight", "-3/4", "--s", "1"], ["type5", "--ell", "1", "--weight=-3/4", "--s", "1"], 1),
    ],
)
def test_contribution_negative_fraction_values(capsys, spaced, joined, code):
    result = run(capsys, "contribution", *spaced)
    assert result[0] == code
    assert result == run(capsys, "contribution", *joined)


def test_usage_errors_are_one_line(capsys):
    argv = ["contribution", "truncation", "--ell", "1", "--W", "1/0", "--s", "1"]
    assert run(capsys, *argv) == (2, "", "error: argument --W/--weight: invalid rational literal: '1/0'\n")
    code, out, err = run(capsys, "compute")
    assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith("error: "), err


def test_help_still_prints_usage(capsys):
    code, out, _ = run(capsys, "contribution", "--help")
    assert code == 0
    assert out.startswith("usage: orbitdeg contribution [-h]")


def test_corpus_help_names_the_environment_variable(capsys):
    code, out, _ = run(capsys, "corpus", "--help")
    assert code == 0
    assert f"fixture directory (or ${corpus.ENV_CORPUS_DIR})" in out


def test_contribution_multiple_point_with_a_huge_m(capsys):
    code, out, err = run(capsys, "contribution", "multiple-point", "--m", "99999999999999999999")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["kind"] == "multiple-point" and len(payload["factor"]) == 9 and payload["factor"][6] != "0"


def test_closed_stdout_exits_2_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "orbitdeg.cli", "corpus"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write to stdout: broken pipe\n"


def cold_cli(*argv):
    """Run `orbitdeg` in a fresh interpreter: its exit code, its stderr and the
    modules it loaded."""
    script = "import sys\nfrom orbitdeg.cli import main\ncode = main(sys.argv[1:])\nprint(*sys.modules)\nsys.exit(code)"
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr, set(proc.stdout.splitlines()[-1].split())


def test_each_command_loads_only_the_modules_it_uses(tmp_path, conic_path):
    """`compute`, `union` and `scale` load neither `newton` nor `corpus`, nor
    `dataclasses` and `inspect` unless the bare interpreter has them; `newton`
    does not load `corpus`.  (`pathlib` is not checked: `site` imports it.)
    Every command imports only `orbitdeg` and the standard library, beyond
    what the bare interpreter already loaded, as `dependencies = []` says."""
    bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"], capture_output=True, text=True)
    bare = set(bare.stdout.split())
    heavy = {"orbitdeg.newton", "orbitdeg.corpus", "dataclasses", "inspect"} - bare
    support = tmp_path / "support.json"
    support.write_text(json.dumps({"degree": 4, "terms": [[4, 0, "1"], [2, 1, "-2"], [0, 2, "1"], [3, 1, "-1"]]}))
    for argv, unused in (
        (["compute", conic_path], heavy),
        (["union", conic_path, conic_path, "--crossings", "4"], heavy),
        (["scale", conic_path, "--multiple", "2"], heavy),
        (["newton", str(support)], {"orbitdeg.corpus"}),
    ):
        code, err, loaded = cold_cli(*argv)
        assert (code, err) == (0, ""), argv
        assert "orbitdeg.cli" in loaded and loaded & unused == set(), argv
        foreign = {m.split(".")[0] for m in loaded - bare} - set(sys.stdlib_module_names) - {"orbitdeg"}
        assert foreign == set(), argv


@settings(max_examples=40)
@given(descriptors(), st.booleans())
def test_compute_json_equals_library_report(descriptor, strict):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.json"
        path.write_text(model.serialize(descriptor), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["compute", str(path), "--erratum", "strict" if strict else "derived"])
    assert (code, err.getvalue()) == (0, "")
    report = engine.assemble(descriptor, erratum_strict=strict)
    assert out.getvalue() == json.dumps(engine.report_to_obj(report), indent=2) + "\n"


def test_newton_command(capsys, tmp_path):
    path = tmp_path / "support.json"
    path.write_text(
        json.dumps(
            {"degree": 4, "terms": [[4, 0, "1"], [2, 1, "-2"], [0, 2, "1"], [3, 1, "-1"]]}
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "newton", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["polygon"]["vertices"] == [[0, 2], [4, 0]]
    assert payload["multiplicity"] == 2
    assert payload["contact"] == 4
    [side] = payload["sides"]
    assert side["span"] == 2
    assert side["coefficients"] == ["1", "-2", "1"]
    assert side["s"] == [2]
    # (z - y^2)^3 (z + 2y^2): a cubed factor beside a simple one takes Yun's
    # loop through three levels; the side polynomial (x - 1)(x - 2)(x + 2)
    # refuses the first heuristic gcd candidate, so the retry path runs
    for degree, terms, s in (
        (8, [[0, 4, "1"], [2, 3, "-1"], [4, 2, "-3"], [6, 1, "5"], [8, 0, "-2"]], [[3, 1]]),
        (6, [[0, 3, "1"], [2, 2, "-1"], [4, 1, "-4"], [6, 0, "4"]], [[1, 1, 1]]),
    ):
        path.write_text(json.dumps({"degree": degree, "terms": terms}), encoding="utf-8")
        code, out, err = run(capsys, "newton", str(path))
        assert (code, err) == (0, "")
        assert [side["s"] for side in json.loads(out)["sides"]] == s


def test_union_command(capsys, conic_path, line_path):
    code, out, _ = run(
        capsys, "union", conic_path, line_path, "--line-crossings", "2", "--stabilizer", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == "21"
    assert payload["orbit_dimension"] == 7


@pytest.mark.parametrize("stabilizer", ["0", "-2"])
@pytest.mark.parametrize("command, predegree", [("union", 84), ("scale", 256)])
def test_stabilizer_that_does_not_divide_is_one_error_line(capsys, conic_path, line_path, command, predegree, stabilizer):
    args = [conic_path, line_path, "--line-crossings", "2"] if command == "union" else [conic_path, "--multiple", "2"]
    assert run(capsys, command, *args, "--stabilizer", stabilizer) == (
        1,
        "",
        f"error: stabilizer degree {stabilizer} does not divide the predegree {predegree} into a positive integer\n",
    )


@pytest.mark.parametrize(
    "command, args, message",
    [
        ("scale", ["--multiple", "0"], "scaling multiple must be a positive integer"),
        ("union", ["--crossings", "-1"], "intersection counts must be >= 0"),
    ],
)
def test_bad_multiple_or_count_is_one_error_line(capsys, conic_path, command, args, message):
    paths = [conic_path] * (2 if command == "union" else 1)
    assert run(capsys, command, *paths, *args) == (1, "", f"error: {message}\n")


def test_scale_command(capsys, line_path):
    code, out, _ = run(capsys, "scale", line_path, "--multiple", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["app"][:3] == ["1", "2", "2"]
    assert payload["orbit_dimension"] == 2


def test_compute_strict_erratum_notes(capsys, tmp_path):
    path = tmp_path / "quartic.json"
    path.write_text(
        '{"degree": 4, "flexes": "auto", "nonlinear": [{"deg": 4, "mult": 1}]}', encoding="utf-8"
    )
    code, out, _ = run(capsys, "compute", str(path), "--erratum", "strict")
    assert code == 0
    payload = json.loads(out)
    assert payload["erratum_notes"]
    assert payload["predegree"] != "14280"


def test_corpus_all_pass(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "24/24 fixtures passed" in out


def test_corpus_env_override(capsys, tmp_path, monkeypatch):
    target = tmp_path / "corpus"
    target.mkdir()
    source = corpus.corpus_dir()
    shutil.copy(source / "smooth-conic.json", target / "smooth-conic.json")
    monkeypatch.setenv(corpus.ENV_CORPUS_DIR, str(target))
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "1/1 fixtures passed" in out


def test_corpus_detects_perturbed_expectation(capsys, tmp_path):
    target = tmp_path / "corpus"
    shutil.copytree(corpus.corpus_dir(), target)
    path = target / "smooth-quartic.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["expected"]["predegree"] = "14281"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run(capsys, "corpus", "--dir", str(target))
    assert code == 1
    assert "smooth-quartic" in out
    assert "expected 14281" in out


def test_corpus_strict_erratum_fails_nodal_quartic(capsys):
    """The printed -1/42 for every contact-3 flex, listed or counted, breaks 13 fixtures."""
    code, out, _ = run(capsys, "corpus", "--erratum", "strict")
    assert code == 1
    lines = [line for line in out.splitlines() if line.startswith("nodal-quartic ")]
    assert lines and lines[0].split() == ["nodal-quartic", "FAIL"]
    assert out.splitlines()[-1] == "11/24 fixtures passed"


def test_strict_corpus_diffs_the_cuspidal_cubic_exactly():
    # the printed factor's predegree -540 leaves no degree for the stabilizer
    # degree 3, and the other values still compare
    result = corpus.check_fixture(corpus.corpus_dir() / "cuspidal-cubic.json", erratum_strict=True)
    app = ["1", "3", "9/2", "9/2", "27/8", "69/40"]
    assert result.failures == (
        "orbit_dimension: expected 7, got 8",
        "predegree: expected 72, got -540",
        "degree: expected 24, got no degree (stabilizer degree 3 does not divide the predegree -540 into a positive integer)",
        f"app: expected {app + ['3/8', '1/70', '0']}, got {app + ['125/336', '3/560', '-3/224']}",
    )


@pytest.mark.parametrize(
    "stabilizer, failures",
    [
        (2, ()),
        (3, ("degree: expected 4, got no degree (stabilizer degree 3 does not divide the predegree 8 into a positive integer)",)),
        (0, ("fixture did not compute: invalid descriptor: stabilizer_degree: stabilizer degree must be a positive integer",)),
    ],
)
def test_check_fixture_compares_the_degree_on_its_own(tmp_path, stabilizer, failures):
    good = json.loads((corpus.corpus_dir() / "smooth-conic.json").read_text(encoding="utf-8"))
    good["descriptor"]["stabilizer_degree"] = stabilizer
    path = tmp_path / "conic.json"
    path.write_text(json.dumps(dict(good, expected={"predegree": "8", "degree": "4"})), encoding="utf-8")
    assert corpus.check_fixture(path).failures == failures


def test_corpus_missing_dir(capsys, tmp_path):
    code, _, err = run(capsys, "corpus", "--dir", str(tmp_path / "missing"))
    assert code == 2
    assert "not found" in err


def test_corpus_empty_dir(capsys, tmp_path):
    assert run(capsys, "corpus", "--dir", str(tmp_path)) == (2, "", f"error: no fixtures in {tmp_path}\n")


@pytest.mark.parametrize(
    "expected, failures",
    [
        ({"predegree": "8", "bogus": 1}, ("unknown expected keys: ['bogus']",)),
        ({"orbit_dimension": 4}, ("orbit_dimension: expected 4, got 5",)),
        ({"a": {"5": "8", "4": "3/2"}}, ("a4: expected 3/2, got 16",)),
        ({"a": {"-1": "0"}}, ("expected values could not be compared: tuple index out of range",)),
        ({"a": {"4": "3/2", "-4": "16"}}, ("a4: expected 3/2, got 16", "expected values could not be compared: tuple index out of range")),
        ({"app": ["1", "2"]}, ("app: expected ['1', '2'], got ['1', '2', '2', '4/3', '2/3', '1/15', '0', '0', '0']",)),
        ("degree", ("expected values must be an object, got str",)),
        ("xyz", ("expected values must be an object, got str",)),
        (["predegree"], ("expected values must be an object, got list",)),
        (5, ("expected values must be an object, got int",)),
        (None, ("expected values must be an object, got NoneType",)),
    ],
)
def test_check_fixture_names_each_mismatch(tmp_path, expected, failures):
    good = json.loads((corpus.corpus_dir() / "smooth-conic.json").read_text(encoding="utf-8"))
    path = tmp_path / "conic.json"
    path.write_text(json.dumps(dict(good, expected=expected)), encoding="utf-8")
    assert corpus.check_fixture(path).failures == failures


def test_check_fixture_keeps_the_mismatches_before_a_value_it_cannot_compare(tmp_path):
    good = json.loads((corpus.corpus_dir() / "smooth-conic.json").read_text(encoding="utf-8"))
    path = tmp_path / "conic.json"
    expected = {"orbit_dimension": 4, "predegree": "9", "a": {"4": "3/2", "99": "1", "5": "1/15"}}
    path.write_text(json.dumps(dict(good, expected=expected)), encoding="utf-8")
    result = corpus.check_fixture(path)
    assert result == corpus.FixtureResult(
        "smooth-conic",
        (
            "orbit_dimension: expected 4, got 5",
            "predegree: expected 9, got 8",
            "a4: expected 3/2, got 16",
            "expected values could not be compared: tuple index out of range",
        ),
    )
    assert not result.passed
    assert hash(result) == hash(corpus.FixtureResult("smooth-conic", result.failures))
    with pytest.raises(AttributeError):
        result.failures = ()


def test_compute_oversized_integer_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"degree": ' + "9" * 5000 + "}", encoding="utf-8")
    code, out, err = run(capsys, "compute", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "body",
    [
        {"degree": 4, "terms": [[0, 2, 1], [1.7, 1, 1]]},
        {"degree": 4, "terms": [[0, 2, 1], [True, 1, 1]]},
        {"degree": 4, "terms": [[0, 2, 1], ["1", 1, 1]]},
    ],
)
def test_newton_rejects_non_integer_exponents(capsys, tmp_path, body):
    path = tmp_path / "support.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    code, out, err = run(capsys, "newton", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: term 1: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"degree": 4}', 'missing key "terms"'),
        ('{"terms": [[0, 2, 1]]}', 'missing key "degree"'),
        ("[[0, 2, 1]]", "expected a JSON object"),
        ('{"degree": 4.0, "terms": [[0, 2, 1]]}', '"degree": expected an integer, got float'),
        ('{"degree": 4.0, "terms": {}}', '"degree": expected an integer, got float'),
        ('{"degree": 0, "terms": {}}', '"terms": expected an array, got dict'),
        ('{"degree": 4, "terms": [[0, 2, 1], [0, 1, 1.5]]}', "term 1: cannot interpret float as a rational"),
        ('{"degree": 4, "terms": [[0, 2, "1/0"]]}', "term 0: invalid rational literal: '1/0'"),
        ('{"degree": 4, "terms": [[0, 2, true]]}', "term 0: booleans are not rational numbers"),
    ],
)
def test_newton_malformed_input_messages(capsys, tmp_path, text, message):
    path = tmp_path / "support.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "newton", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "degree, terms, message",
    [
        (4, [[0, 2, 1], [1.7, 1, 1]], "term 1: expected [j, k, coefficient] with integer j and k, got [1.7, 1, 1]"),
        (4, [[0, 2, 1], [True, 1, 1]], "term 1: expected [j, k, coefficient] with integer j and k, got [True, 1, 1]"),
        (4, [[0, 2, 1], ["1", 1, 1]], "term 1: expected [j, k, coefficient] with integer j and k, got ['1', 1, 1]"),
        (4, [[0, 2]], "term 0: expected [j, k, coefficient] with integer j and k, got [0, 2]"),
        (4, [[0, 2, 1], [0, 1, 1.5]], "term 1: cannot interpret float as a rational"),
        (4, [[0, 2, "1/0"]], "term 0: invalid rational literal: '1/0'"),
        (4, [[0, 2, True]], "term 0: booleans are not rational numbers"),
        (4, [[0, 2, 1], [0, 2, "2"]], "duplicate term (0, 2)"),
        (4, [[0, 2, "0/3"]], "term (0, 2) has zero coefficient"),
        (4, [[0, -1, 1]], "exponents must be non-negative, got (0, -1)"),
        (4, [[3, 2, 1]], "term (3, 2) exceeds degree 4"),
        (0, [[0, 2, 1]], "degree must be a positive integer"),
        (10_001, [[0, 2, 1]], "degree must be at most 10000"),
        (10**12, [[0, 2, 1]], "degree must be at most 10000"),
        (2**64, [[0, 2, 1], [3, 0, 1]], "degree must be at most 10000"),
        (4.0, [[0, 2, 1]], '"degree": expected an integer, got float'),
        ("4", [[0, 2, 1]], '"degree": expected an integer, got str'),
        (True, [[0, 2, 1]], '"degree": expected an integer, got bool'),
        (4, {"terms": [[0, 2, 1]]}, '"terms": expected an array, got dict'),
        (4, "0 2 1", '"terms": expected an array, got str'),
    ],
)
def test_newton_prints_the_library_term_checks(capsys, tmp_path, degree, terms, message):
    with pytest.raises(newton.SupportError) as raised:
        newton.MonomialSupport.from_terms(degree, terms)
    assert str(raised.value) == message
    path = tmp_path / "support.json"
    path.write_text(json.dumps({"degree": degree, "terms": terms}), encoding="utf-8")
    assert run(capsys, "newton", str(path)) == (1, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "point, message",
    [
        ({"m": 1}, "points[0].m: multiple points need multiplicity >= 2"),
        ({"m": 2, "contacts": [3, 3, 3]}, "points[0].contacts: at most m = 2 branches"),
        ({"m": 2, "contacts": [3, 2]}, "points[0].contacts[1]: contact must be >= m + 1 = 3"),
    ],
)
def test_multiple_point_shorthand_errors_are_invalid(capsys, tmp_path, point, message):
    path = tmp_path / "curve.json"
    point = dict(point, kind="ordinary_multiple_point")
    path.write_text(json.dumps({"degree": 4, "nonlinear": [{"deg": 4}], "points": [point]}), encoding="utf-8")
    code, out, err = run(capsys, "compute", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: invalid descriptor: {message}\n"


@pytest.mark.parametrize("m", [10**6, 10**12, 2**64])
def test_multiple_point_shorthand_with_a_huge_m_is_a_report(capsys, tmp_path, m):
    """The shorthand's terms take its m tangent lines in closed form, so a
    huge m costs no more than a small one.  No quartic has a point of
    multiplicity above 4: a planned rule of `validate`, that a point's
    multiplicity is at most the degree, will turn each of these inputs into
    exit 1 and one line."""
    path = tmp_path / "curve.json"
    point = {"kind": "ordinary_multiple_point", "m": m}
    path.write_text(json.dumps({"degree": 4, "flexes": 0, "nonlinear": [{"deg": 4}], "points": [point]}), encoding="utf-8")
    code, out, err = run(capsys, "compute", str(path))
    assert (code, err) == (0, "")
    assert [entry["label"] for entry in json.loads(out)["breakdown"]] == ["nonlinear[0]", "points[0].tangent_cone"]


def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for command in ("compute", "newton"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2, command
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_compute_report_beyond_digit_limit(capsys, tmp_path):
    path = tmp_path / "huge.json"
    huge = 10**600
    path.write_text(json.dumps({"degree": huge, "nonlinear": [{"deg": huge}]}), encoding="utf-8")
    for fmt in ("json", "pretty"):
        code, out, err = run(capsys, "compute", str(path), "--format", fmt)
        assert code == 1, fmt
        assert out == ""
        assert err.startswith("error: cannot write the report") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["flexes", "--count", "9" * 4300],
        ["nonlinear", "--degree", "9" * 4300, "--e", "2", "--mult", "1"],
    ],
)
def test_contribution_beyond_digit_limit(capsys, argv):
    code, out, err = run(capsys, "contribution", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write the {argv[0]} contribution: ") and err.count("\n") == 1


def test_corpus_bad_fixtures_fail_without_stopping_replay(capsys, tmp_path):
    target = tmp_path / "corpus"
    target.mkdir()
    good = json.loads((corpus.corpus_dir() / "smooth-conic.json").read_text(encoding="utf-8"))
    (target / "a-invalid-json.json").write_text("{not json", encoding="utf-8")
    (target / "b-no-descriptor.json").write_text(json.dumps({"name": "no-descriptor"}), encoding="utf-8")
    bad_a = dict(good, name="bad-a", expected={"a": {"x": "1"}})
    (target / "c-bad-a.json").write_text(json.dumps(bad_a), encoding="utf-8")
    (target / "d-smooth-conic.json").write_text(json.dumps(good), encoding="utf-8")
    code, out, err = run(capsys, "corpus", "--dir", str(target))
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert [line.split()[-1] for line in lines if not line.startswith(" ")][:4] == ["FAIL", "FAIL", "FAIL", "pass"]
    assert lines[-1] == "1/4 fixtures passed"
    assert len(lines) == 4 + 3 + 1  # one status line per fixture, one reason per failure, the summary


# -- malformed input ------------------------------------------------------------

#: Far beyond any real curve, yet cheap on every path one edit can reach.
#: `newton.side_data` walks a side's lattice span, bounded by exponents
#: that must stay within the degree, and `MonomialSupport.from_terms`
#: refuses a degree above `newton.MAX_DEGREE` before it reads a term.  An
#: `ordinary_multiple_point`, drawn with or without contacts, and
#: `contribution multiple-point` both take their m tangent lines in closed
#: form, so a huge m or `--m` is cheap there.
HUGE = (10**12, 2**64)


def document_paths(node, path=()):
    """The key or index path of every value below the root of a decoded JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from document_paths(child, path + (key,))


@st.composite
def mutated(draw, document):
    """`document` after exactly one edit: a key deleted, a value of the
    wrong type, an integer made negative or huge, or a list entry duplicated."""
    document = copy.deepcopy(document)
    *parents, key = draw(st.sampled_from(list(document_paths(document))))
    parent = document
    for step in parents:
        parent = parent[step]
    value = parent[key]
    edits = ["wrong type"] + ["delete"] * isinstance(parent, dict)
    edits += ["negative", "huge"] * (type(value) is int) + ["duplicate"] * (isinstance(value, list) and bool(value))
    edit = draw(st.sampled_from(edits))
    if edit == "delete":
        del parent[key]
    elif edit == "wrong type":
        parent[key] = draw(st.sampled_from([None, True, 2.5, "x", [], {}, 3]).filter(lambda v: type(v) is not type(value)))
    elif edit == "negative":
        parent[key] = draw(st.integers(-5, -1))
    elif edit == "huge":
        parent[key] = draw(st.sampled_from(HUGE))
    else:
        index = draw(st.integers(0, len(value) - 1))
        value.insert(index, copy.deepcopy(value[index]))
    return document


@st.composite
def fixture_documents(draw):
    """A corpus fixture holding a drawn descriptor and its own report's
    values.  Some descriptors get one more point, an ordinary multiple point
    with 0 to m contacts (see `HUGE`)."""
    descriptor = draw(descriptors())
    if draw(st.booleans()):
        descriptor = records.replace(descriptor, points=descriptor.points + (draw(ordinary_multiple_points()),))
    obj = engine.report_to_obj(engine.assemble(descriptor))
    expected = {key: obj[key] for key in ("orbit_dimension", "predegree", "app")}
    expected["a"] = {"8": obj["predegree_polynomial"][8]}
    return {"name": "drawn", "descriptor": model.descriptor_to_obj(descriptor), "expected": expected}


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue(), (argv, err.getvalue())


@settings(max_examples=50)
@given(fixture_documents().flatmap(mutated))
def test_mutated_descriptors_end_in_a_report_or_one_error_line(fixture):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus").mkdir()
        (root / "corpus" / "drawn.json").write_text(json.dumps(fixture), encoding="utf-8")
        curve, valid = root / "curve.json", root / "conic.json"
        curve.write_text(json.dumps(fixture.get("descriptor")), encoding="utf-8")
        valid.write_text(CONIC_TEXT, encoding="utf-8")
        assert_clean_exit(["compute", str(curve)])
        assert_clean_exit(["union", str(valid), str(curve), "--crossings", "2"])
        assert_clean_exit(["scale", str(curve), "--multiple", "2"])
        assert_clean_exit(["corpus", "--dir", str(root / "corpus")])


def newton_document(supp):
    return {"degree": supp.degree, "terms": [[j, k, str(c)] for j, k, c in supp.terms]}


@settings(max_examples=50)
@given(supports().map(newton_document).flatmap(mutated))
def test_mutated_newton_inputs_end_in_a_report_or_one_error_line(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "support.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert_clean_exit(["newton", str(path)])


def newton_stdout(document, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "support.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["newton", str(path), "--format", fmt]) == 0
    return out.getvalue()


@settings(max_examples=50)
@given(supports(min_terms=2).filter(lambda supp: supp.terms[0][:2] != (0, 0)))
def test_newton_prints_the_same_bytes_for_int_and_string_coefficients(supp):
    as_ints = {"degree": supp.degree, "terms": [[j, k, c if F(c).denominator == 1 else str(c)] for j, k, c in supp.terms]}
    for fmt in ("json", "pretty"):
        assert newton_stdout(as_ints, fmt) == newton_stdout(newton_document(supp), fmt)


#: Each contribution flag with the well-formed values it is drawn from, and
#: the malformed ones every flag is drawn from too.
CONTRIBUTION_FLAGS = {
    **dict.fromkeys(["--degree", "--mult", "--e", "--ell", "--m", "--n", "--count", "--delta"], ["1", "2", "3", "5"]),
    **dict.fromkeys(["--meets", "--lines", "--s", "--essential", "--contacts"], ["1", "1,2", "3,4", "2,3,5", "7"]),
    **dict.fromkeys(["--from", "--to"], ["0,3", "1,1", "4,0", "2,1"]),
    **dict.fromkeys(["--W", "--weight", "--alpha", "--beta", "--gamma", "--rho"], ["1", "5/3", "-3/4", "2"]),
}
MALFORMED = ["-2", "-1,2", str(HUGE[0]), str(HUGE[1]), f"{HUGE[1]},1", "1/0", "x", "", "1,1", "3,3,3"]


@st.composite
def contribution_argvs(draw):
    """`orbitdeg contribution` with a drawn kind or alias, most of the flags
    it requires and a few more, each with a value drawn well-formed about
    three times in five."""
    kind = draw(st.sampled_from(sorted(cli._CONTRIBUTIONS)))
    required = cli._CONTRIBUTIONS[kind][0]
    flags = [{"side_from": "--from", "side_to": "--to", "weight": "--W"}.get(name, f"--{name}") for name in required]
    flags = flags[draw(st.integers(0, 1)) :] + draw(st.lists(st.sampled_from(sorted(CONTRIBUTION_FLAGS)), max_size=3))
    argv = ["contribution", kind]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(CONTRIBUTION_FLAGS[flag] * 3 + MALFORMED))]
    return argv + draw(st.sampled_from([[], ["--erratum", "strict"]]))


@settings(max_examples=300)
@given(contribution_argvs())
def test_malformed_contributions_end_in_a_term_or_one_error_line(argv):
    assert_clean_exit(argv)
