"""The stdout contract: what the CLI prints, pinned byte for byte.

`stdout_contract.json` holds, for each case below, the exit code and the
sha256 of stdout: `compute` on every bundled fixture in both formats and
both erratum modes, `scale` by 2 and 3 with and without a stabilizer, a
fixed set of unions, every `contribution` kind, `newton` on the README's
support and `corpus` in both modes.  Cases whose output depends on the
Python version (argparse usage, json decoder messages) are left out;
stderr is not pinned.

After an intended change to the output, rewrite the digests with
`PYTHONPATH=src python tests/test_stdout_contract.py`.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from orbitdeg import cli, corpus

DIGESTS = Path(__file__).resolve().parent / "stdout_contract.json"
FIXTURES = sorted(path.stem for path in corpus.corpus_dir().glob("*.json"))

#: The support of the README's `orbitdeg newton` example.
README_SUPPORT = {"degree": 4, "terms": [[4, 0, "1"], [2, 1, "-2"], [0, 2, "1"], [3, 1, "-1"]]}

UNIONS = [
    "@smooth-conic @smooth-conic --crossings 4 --stabilizer 2",
    "@smooth-conic @cubic-line --line-crossings 2",
    "@smooth-cubic @smooth-conic --crossings 6",
    "@cuspidal-cubic @smooth-conic --crossings 6 --tangencies 1 --stabilizer 3",
    "@nodal-quartic @triangle-lines --line-crossings 12",
    "@star-4-lines @conic-line --crossings 1 --line-crossings 1 --tangencies 1",
    "@tricuspidal-quartic @smooth-quartic --crossings 16 --stabilizer 6",
    "@double-line @two-transversal-conics",
]

CONTRIBUTIONS = [
    "line --mult 1 --meets 1,2 --degree 4",
    "type1 --mult 2 --meets 1 --degree 3",
    "nonlinear --degree 5 --e 2 --mult 2",
    "type2 --degree 4 --e 3 --mult 1",
    "tangent-cone --lines 1,2,3",
    "type3 --lines 1,1",
    "side --from 0,3 --to 4,0 --s 1",
    "type4 --from 1,1 --to 4,0 --s 1",
    "truncation --ell 1 --W 5/3 --s 1,1",
    "type5 --ell 2 --weight 5 --s 2,1",
    "irreducible --m 2 --n 3 --essential 3",
    "irreducible --m 4 --n 6 --essential 6,7",
    "multiple-point --m 3 --contacts 4,5",
    "multiple-point --m 7",
    "flexes --count 3",
    "flexes --count 3 --erratum strict",
    "local-quadratic --alpha 1 --beta -1/2 --gamma 3 --rho 2 --delta 2",
]


def cases():
    """Each case as its command line; `@name` stands for a descriptor file."""
    out = {"compute": [], "scale": []}
    for name in FIXTURES:
        for fmt in ("json", "pretty"):
            for erratum in ("derived", "strict"):
                out["compute"].append(f"compute @{name} --format {fmt} --erratum {erratum}")
        for m in (2, 3):
            out["scale"] += [f"scale @{name} --multiple {m}", f"scale @{name} --multiple {m} --stabilizer {m}"]
    out["union"] = [f"union {args} --format {fmt}" for args in UNIONS for fmt in ("json", "pretty")]
    out["contribution"] = [f"contribution {args}" for args in CONTRIBUTIONS]
    out["newton"] = ["newton @support", "newton @support --format pretty"]
    out["corpus"] = ["corpus", "corpus --erratum strict"]
    return out


def write_inputs(directory):
    """Write each fixture's descriptor, and the README's support, as `<name>.json`."""
    for name in FIXTURES:
        data = json.loads((corpus.corpus_dir() / f"{name}.json").read_text(encoding="utf-8"))
        (directory / f"{name}.json").write_text(json.dumps(data["descriptor"]), encoding="utf-8")
    (directory / "support.json").write_text(json.dumps(README_SUPPORT), encoding="utf-8")


def run(case, directory):
    """The exit code and stdout of one case, run in this process."""
    argv = [str(directory / f"{word[1:]}.json") if word.startswith("@") else word for word in case.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(code, text):
    return [code, hashlib.sha256(text.encode("utf-8")).hexdigest()]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("command", list(cases()))
def test_stdout_matches_the_pinned_digests(command, inputs, monkeypatch):
    monkeypatch.delenv(corpus.ENV_CORPUS_DIR, raising=False)
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    mismatches = []
    for case in cases()[command]:
        code, text = run(case, inputs)
        if digest(code, text) != pinned[case]:
            mismatches.append(f"{case}: exit {code}, stdout:\n{text}")
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    os.environ.pop(corpus.ENV_CORPUS_DIR, None)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        pinned = {case: digest(*run(case, Path(tmp))) for group in cases().values() for case in group}
    DIGESTS.write_text(
        "{\n" + ",\n".join(f"  {json.dumps(case)}: {json.dumps(value)}" for case, value in pinned.items()) + "\n}\n",
        encoding="utf-8",
    )
    print(f"wrote {len(pinned)} digests to {DIGESTS}", file=sys.stderr)
