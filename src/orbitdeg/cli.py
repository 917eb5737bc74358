"""Command-line surface.

Subcommands:
  compute        report for a descriptor file
  contribution   a single correction term or point factor
  newton         polygon and side data from a monomial support
  union          combine two computed curves meeting transversally
  scale          the m-fold multiple of a computed curve
  corpus         replay the bundled golden fixtures

Exit codes: 0 success, 1 validation or precondition failure (and corpus
mismatches), 2 I/O or parse errors, a closed stdout among them.  Reports
go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Any, NoReturn

# `newton` and `corpus` are imported by the commands that use them.
from . import corrections, engine, model
from .series import predegree_strings, ratio_string, to_rational

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Reports a usage error, its subcommands' too, in one line and exits 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_IO, f"error: {message}\n")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}", EXIT_IO) from None
    except ValueError as exc:  # not UTF-8 text, or a NUL in the path
        raise _CliError(f"cannot read {path}: {exc}", EXIT_IO) from None


def _load_descriptor(path: str) -> model.CurveDescriptor:
    text = _read_text(path)
    try:
        return model.parse(text)
    except model.DescriptorError as exc:
        raise _CliError(f"{path}: {exc}", EXIT_IO) from None


def _assemble(path: str, erratum_strict: bool) -> engine.OrbitReport:
    descriptor = _load_descriptor(path)
    try:
        return engine.assemble(descriptor, erratum_strict=erratum_strict)
    except engine.EngineError as exc:
        raise _CliError(f"{path}: {exc}", EXIT_INVALID) from None


def _emit_report(report: engine.OrbitReport, fmt: str) -> None:
    try:
        if fmt == "pretty":
            text = engine.report_to_text(report)
        else:
            text = json.dumps(engine.report_to_obj(report), indent=2)
    except ValueError as exc:  # a number beyond the interpreter's int-to-string digit limit
        raise _CliError(f"cannot write the report: {exc}", EXIT_INVALID) from None
    print(text)


def _int_csv(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(part.strip()) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int_pair(text: str) -> tuple[int, int]:
    values = _int_csv(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected j,k — got {text!r}")
    return values[0], values[1]


def _rational(text: str) -> Fraction:
    try:
        return to_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_common_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "pretty"), default="json", help="output format")
    parser.add_argument(
        "--erratum",
        choices=("derived", "strict"),
        default="derived",
        help="inflection-factor convention: the derived H^6 coefficient -1/48 (default) "
        "or the circulated -1/42 ('strict'), which demonstrably breaks golden values",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbitdeg",
        description="Exact orbit-closure degree computations for plane curves "
        "under projective linear transformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute the report for a descriptor file")
    p_compute.add_argument("path", help="JSON descriptor file")
    p_compute.add_argument(
        "--expect-dimension", type=int, default=None, help="warn when the computed orbit dimension differs"
    )
    _add_common_output_flags(p_compute)

    p_contr = sub.add_parser("contribution", help="print one correction term or point factor")
    # argparse reads only -N and -N.N as negative numbers; without this a
    # "-num/den" value after a rational flag, or a list such as "-1,2" after
    # a list flag, is taken for an option.
    p_contr._negative_number_matcher = re.compile(r"^-\d+(/\d+|(,-?\d+)+)?$|^-\d*\.\d+$")
    p_contr.add_argument("kind", choices=list(_CONTRIBUTIONS))
    p_contr.add_argument("--degree", type=int, help="curve degree (line, nonlinear)")
    p_contr.add_argument("--mult", type=int, help="component or point multiplicity")
    p_contr.add_argument("--meets", type=_int_csv, help="line intersection multiplicities, comma separated")
    p_contr.add_argument("--e", type=int, help="nonlinear component degree")
    p_contr.add_argument("--lines", type=_int_csv, help="tangent-cone line multiplicities")
    p_contr.add_argument("--from", dest="side_from", type=_int_pair, help="side start j,k")
    p_contr.add_argument("--to", dest="side_to", type=_int_pair, help="side end j,k")
    p_contr.add_argument("--s", type=_int_csv, help="root or conic multiplicities")
    p_contr.add_argument("--ell", type=int, help="truncation denominator-clearing exponent")
    p_contr.add_argument("--W", "--weight", dest="weight", type=_rational, help="truncation weight")
    p_contr.add_argument("--m", type=int, help="multiplicity at the point")
    p_contr.add_argument("--n", type=int, help="contact order with the branch tangent")
    p_contr.add_argument("--essential", type=_int_csv, default=[], help="essential exponents")
    p_contr.add_argument("--contacts", type=_int_csv, help="branch tangent contacts (multiple-point)")
    p_contr.add_argument("--count", type=int, help="number of ordinary inflections")
    p_contr.add_argument("--alpha", type=_rational, help="quadratic coefficient")
    p_contr.add_argument("--beta", type=_rational, help="linear coefficient")
    p_contr.add_argument("--gamma", type=_rational, help="constant coefficient")
    p_contr.add_argument("--rho", type=_rational, help="degree offset of the distinguished line")
    p_contr.add_argument("--delta", type=int, default=1, help="covering degree")
    p_contr.add_argument("--erratum", choices=("derived", "strict"), default="derived")
    # the flag each destination is named by when it is missing
    p_contr.set_defaults(flags={a.dest: max(a.option_strings, key=len) for a in p_contr._actions if a.option_strings})

    p_newton = sub.add_parser("newton", help="polygon and side data from a monomial support")
    p_newton.add_argument("path", help="JSON file: {\"degree\": d, \"terms\": [[j, k, \"num/den\"], ...]}")
    p_newton.add_argument("--format", choices=("json", "pretty"), default="json")

    p_union = sub.add_parser("union", help="combine two transversally meeting curves")
    p_union.add_argument("left", help="descriptor file of the first curve")
    p_union.add_argument("right", help="descriptor file of the second curve")
    p_union.add_argument("--crossings", type=int, default=0, help="nonlinear-with-nonlinear intersections")
    p_union.add_argument("--line-crossings", type=int, default=0, help="nonlinear-with-line intersections")
    p_union.add_argument("--tangencies", type=int, default=0, help="simple tangency points")
    p_union.add_argument("--stabilizer", type=int, default=None, help="stabilizer degree of the union")
    _add_common_output_flags(p_union)

    p_scale = sub.add_parser("scale", help="report for the m-fold multiple of a curve")
    p_scale.add_argument("path", help="JSON descriptor file")
    p_scale.add_argument("--multiple", type=int, required=True, help="multiplication factor m >= 1")
    p_scale.add_argument("--stabilizer", type=int, default=None, help="stabilizer degree of the multiple")
    _add_common_output_flags(p_scale)

    p_corpus = sub.add_parser("corpus", help="replay the bundled golden fixtures")
    p_corpus.add_argument("--dir", default=None, help="fixture directory (or $ORBITDEG_CORPUS)")
    p_corpus.add_argument("--erratum", choices=("derived", "strict"), default="derived")

    return parser


def _cmd_compute(args: argparse.Namespace) -> int:
    report = _assemble(args.path, args.erratum == "strict")
    if args.expect_dimension is not None and args.expect_dimension != report.orbit_dimension:
        print(
            f"warning: computed orbit dimension {report.orbit_dimension}, "
            f"expected {args.expect_dimension}",
            file=sys.stderr,
        )
    _emit_report(report, args.format)
    return EXIT_OK


def _factor(corr: corrections.Correction) -> dict[str, object]:
    """The payload of a point factor, 1 + the point's term."""
    return {"factor": predegree_strings((corr.den,) + corr.a[1:], corr.den)}


def _irreducible(args: argparse.Namespace) -> dict[str, object]:
    sing = model.IrreducibleSingularity(args.m, args.n, tuple(args.essential))
    # irreducible_correction has checked the singularity
    return {**_factor(corrections.irreducible_correction(sing)), "absorbs": model.absorbed_flexes(sing)}


#: One row per contribution kind: its names (the type1..type5 aliases share
#: the row of the kind they name), the flags it requires, and its builder,
#: which returns a correction term or the payload fields of a point factor.
_KINDS = (
    (("line", "type1"), ("mult", "degree"), lambda a: corrections.line_correction(a.mult, a.meets or [], a.degree)),
    (("nonlinear", "type2"), ("degree", "e", "mult"), lambda a: corrections.nonlinear_correction(a.degree, a.e, a.mult)),
    (("tangent-cone", "type3"), ("lines",), lambda a: corrections.tangent_cone_correction(a.lines)),
    (
        ("side", "type4"),
        ("side_from", "side_to", "s"),
        lambda a: corrections.newton_side_correction(model.NewtonSide(*a.side_from, *a.side_to, tuple(a.s))),
    ),
    (
        ("truncation", "type5"),
        ("ell", "weight", "s"),
        lambda a: corrections.truncation_correction(model.Truncation(a.ell, a.weight, tuple(a.s))),
    ),
    (("irreducible",), ("m", "n"), _irreducible),
    (("multiple-point",), ("m",), lambda a: _factor(corrections.multiple_point_correction(a.m, a.contacts or []))),
    (("flexes",), ("count",), lambda a: _factor(corrections.flex_correction(a.count, a.erratum == "strict"))),
    (
        ("local-quadratic",),
        ("alpha", "beta", "gamma", "rho"),
        lambda a: corrections.local_correction_from_quadratic(a.alpha, a.beta, a.gamma, a.rho, a.delta),
    ),
)
_CONTRIBUTIONS = {kind: (required, build) for names, required, build in _KINDS for kind in names}


def _cmd_contribution(args: argparse.Namespace) -> int:
    required, build = _CONTRIBUTIONS[args.kind]
    missing = [name for name in required if getattr(args, name) is None]
    if missing:
        flags = ", ".join(args.flags[name] for name in missing)
        raise _CliError(f"{args.kind}: missing {flags}", EXIT_INVALID)
    try:
        fields = build(args)
        if isinstance(fields, corrections.Correction):
            fields = {"term": predegree_strings(fields.a, fields.den)}
        text = json.dumps({"kind": args.kind, **fields}, indent=2)
    except corrections.FeatureError as exc:
        raise _CliError(str(exc), EXIT_INVALID) from None
    except ValueError as exc:  # a number beyond the interpreter's int-to-string digit limit
        raise _CliError(f"cannot write the {args.kind} contribution: {exc}", EXIT_INVALID) from None
    print(text)
    return EXIT_OK


def _newton_input(data: Any) -> tuple[Any, Any]:
    """The degree and the terms of a decoded newton file.
    `MonomialSupport.from_terms` checks both."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    for key in ("degree", "terms"):
        if key not in data:
            raise ValueError(f'missing key "{key}"')
    return data["degree"], data["terms"]


def _cmd_newton(args: argparse.Namespace) -> int:
    from . import newton

    text = _read_text(args.path)
    try:
        data = model.decode_json(text)
    except model.DescriptorParseError as exc:
        raise _CliError(f"{args.path}: {exc}", EXIT_IO) from None
    try:
        support = newton.MonomialSupport.from_terms(*_newton_input(data))
        polygon = newton.newton_polygon(support)
        multiplicity, contact = newton.local_invariants(support)
        sides = [newton.side_data(support, side) for side in newton.qualifying_sides(polygon)]
    except (TypeError, ValueError) as exc:
        raise _CliError(f"{args.path}: {exc}", EXIT_INVALID) from None

    payload = {
        "polygon": {"vertices": [list(v) for v in polygon.vertices]},
        "multiplicity": multiplicity,
        "contact": contact if contact is not None else "infinite",
        "sides": [
            {
                "from": [s.j0, s.k0],
                "to": [s.j1, s.k1],
                "span": s.span,
                "coefficients": [ratio_string(g.numerator, g.denominator) for g in s.gammas],
                "profile": [list(pair) for pair in s.profile],
                "s": list(s.s_values()),
            }
            for s in sides
        ],
    }
    if args.format == "pretty":
        lines = [f"polygon vertices: {payload['polygon']['vertices']}"]
        lines.append(f"multiplicity at the point: {multiplicity}")
        lines.append(f"contact with the tangent line: {payload['contact']}")
        for entry in payload["sides"]:
            lines.append(
                f"side {entry['from']} -> {entry['to']}: span {entry['span']}, "
                f"coefficients {entry['coefficients']}, s {entry['s']}"
            )
        print("\n".join(lines))
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_union(args: argparse.Namespace) -> int:
    strict = args.erratum == "strict"
    left = _assemble(args.left, strict)
    right = _assemble(args.right, strict)
    combined = engine.union(
        left,
        right,
        crossings=args.crossings,
        line_crossings=args.line_crossings,
        tangencies=args.tangencies,
        stabilizer_degree=args.stabilizer,
    )
    _emit_report(combined, args.format)
    return EXIT_OK


def _cmd_scale(args: argparse.Namespace) -> int:
    report = _assemble(args.path, args.erratum == "strict")
    _emit_report(engine.scale(report, args.multiple, stabilizer_degree=args.stabilizer), args.format)
    return EXIT_OK


def _cmd_corpus(args: argparse.Namespace) -> int:
    from . import corpus

    try:
        results = corpus.run(args.dir or None, args.erratum == "strict")
    except FileNotFoundError as exc:
        raise _CliError(str(exc), EXIT_IO) from None
    width = max(len(r.name) for r in results)
    for result in results:
        print(f"{result.name:<{width}}  {'pass' if result.passed else 'FAIL'}")
        for failure in result.failures:
            print(f"{'':<{width}}    {failure}")
    failed = sum(not result.passed for result in results)
    print(f"{len(results) - failed}/{len(results)} fixtures passed")
    return EXIT_OK if failed == 0 else EXIT_INVALID


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "compute": _cmd_compute,
        "contribution": _cmd_contribution,
        "newton": _cmd_newton,
        "union": _cmd_union,
        "scale": _cmd_scale,
        "corpus": _cmd_corpus,
    }
    try:
        args = _build_parser().parse_args(argv)
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # from the parser: --help (0) or a usage error (2), already printed
        return exc.code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at the null device so that the
        # interpreter's flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write to stdout: broken pipe", file=sys.stderr)
        return EXIT_IO
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except engine.EngineError as exc:  # union and scale; `_assemble` names the file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
