"""The measured process of one benchmark run.

`run.py` launches this file once per run (and a few more times with
`--probe`, which stops right after set-up, to time set-up).  It imports
the working tree's `orbitdeg`, builds the workload's ops from the seed,
warms up, and then replays the ops in a closed loop, one op in flight,
until `--seconds` have passed.  Every op's output is checked outside
the timed region.  The last stdout line is one JSON object with the raw
timings; `run.py` turns it into metrics.

Ops only use the public entry points that survive the planned
refactors: `model.parse`, `engine.assemble/union/scale/report_to_obj`,
`corpus.fixture_paths/corpus_dir`, the `newton` functions the CLI calls,
and the CLI itself.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import LAYER_TARGETS, Tracer  # noqa: E402

REFERENCE = BENCH / "reference" / "synthetic.json"
WORK_DIR = ROOT / ".bench_run"
SPANS_MARKER = "BENCH-SPANS "
#: In cli-cold, one bare `python -c pass` is timed after every this many ops.
BARE_EVERY = 7


def emit(obj: Any) -> str:
    """What the CLI prints for a report: JSON with two-space indent."""
    return json.dumps(obj, indent=2)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]  # problems with the output; empty when correct
    features: int = 0  # components plus point features assembled by the op
    side_degree: int = 0  # total degree of the side polynomials the op decomposes


@dataclass
class Loop:
    """Outcome of a closed loop: latencies per complete pass, and counts."""

    passes: list = field(default_factory=list)
    partial: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    features: int = 0
    side_degree: int = 0

    def merge(self, other: "Loop") -> None:
        self.passes += other.passes
        self.partial += other.partial
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.features += other.features
        self.side_degree += other.side_degree


def measure(
    ops: list[Op],
    seconds: float,
    tracer: Optional[Tracer] = None,
    clock: Callable[[], float] = time.perf_counter,
    max_passes: Optional[int] = None,
) -> Loop:
    """Replay `ops` pass after pass until `seconds` of wall time are used
    (or `max_passes` complete passes).

    Only the op itself is timed; its check, and folding its spans when
    traced, happen after the clock stops.  An op that raises, or whose
    output fails its check, counts as failed.
    """
    loop = Loop()
    deadline = clock() + seconds
    while max_passes is None or len(loop.passes) < max_passes:
        latencies = []
        for op in ops:
            if clock() >= deadline:
                loop.partial = latencies
                return loop
            error = None
            start = clock()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        out = op.run()
                else:
                    out = op.run()
            except Exception as exc:  # an op failure is a result, not a crash
                error = exc
            elapsed = clock() - start
            loop.attempted += 1
            if tracer is not None:
                tracer.fold()
                loop.features += op.features
                loop.side_degree += op.side_degree
            if error is None:
                try:
                    problems = op.check(out)
                except Exception as exc:
                    problems = [f"check raised {exc!r}"]
            else:
                problems = [f"{op.kind} raised {error!r}"]
            if tracer is not None:
                tracer.spans.clear()  # calls the check made are not the op's
            if problems:
                loop.failed += 1
                if len(loop.problems) < 5:
                    loop.problems.append(f"{op.kind}: {problems[0]}")
            latencies.append(elapsed)
        loop.passes.append(latencies)
    return loop


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _fixtures() -> list[dict]:
    from orbitdeg import corpus

    return [json.loads(p.read_text(encoding="utf-8")) for p in corpus.fixture_paths(corpus.corpus_dir())]


def _descriptor_size(desc: dict) -> int:
    return sum(len(desc.get(key, [])) for key in ("linear", "nonlinear", "points"))


def corpus_ops(seed: int) -> tuple[list[Op], dict, Callable[[], None]]:
    from orbitdeg import engine, model

    fixtures = _fixtures()

    def make(fixture: dict) -> Op:
        text = json.dumps(fixture["descriptor"], indent=2)
        expected = fixture["expected"]

        def run() -> str:
            return emit(engine.report_to_obj(engine.assemble(model.parse(text))))

        def check(out: str) -> list:
            obj = json.loads(out)
            return workloads.check_report(obj) + workloads.fixture_problems(obj, expected)

        return Op("compute", run, check, features=_descriptor_size(fixture["descriptor"]))

    ops = [make(fixtures[i]) for i in workloads.corpus_order(seed, len(fixtures))]

    def warm() -> None:
        for op in ops:
            op.run()

    return ops, {"fixtures": len(fixtures), "erratum": "derived"}, warm


def synthetic_ops(seed: int) -> tuple[list[Op], dict, Callable[[], None]]:
    from orbitdeg import engine, model

    specs = workloads.synthetic_pass(seed)
    reference = None
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(str(seed))
    reports: dict[int, Any] = {}

    def app_of(obj: dict) -> list:
        return [workloads.rational(v) for v in obj["app"]]

    def make(index: int, spec: dict) -> Op:
        def compute() -> str:
            report = engine.assemble(model.parse(spec["text"]), erratum_strict=spec["strict"])
            reports[index] = report
            return emit(engine.report_to_obj(report))

        def union(left: int, right: int) -> Any:
            return engine.union(
                reports[left],
                reports[right],
                crossings=spec["crossings"],
                line_crossings=spec["line_crossings"],
                tangencies=spec["tangencies"],
            )

        def check(out: str) -> list:
            obj = json.loads(out)
            if spec["kind"] == "union":
                # union is commutative: swapping the operands gives the same app
                swapped = engine.report_to_obj(union(spec["right"], spec["left"]))
                problems = workloads.check_report(obj, app_of(swapped))
            else:
                terms = ([workloads.rational(v) for v in entry["term"]] for entry in obj["breakdown"])
                problems = workloads.check_report(obj, workloads.app_from_breakdown(spec["degree"], terms))
            if reference is not None and workloads.report_values(obj) != reference[index]:
                problems.append("differs from the committed reference")
            return problems

        if spec["kind"] == "compute":
            return Op("compute", compute, check, features=spec["features"])
        if spec["kind"] == "union":
            return Op("union", lambda: emit(engine.report_to_obj(union(spec["left"], spec["right"]))), check)
        return Op(
            "scale", lambda: emit(engine.report_to_obj(engine.scale(reports[spec["source"]], spec["multiple"]))), check
        )

    ops = [make(i, spec) for i, spec in enumerate(specs)]
    meta = workloads.synthetic_meta(specs)
    meta["reference"] = reference is not None

    def warm() -> None:
        """Each kind once, on the smallest curve of the pass."""
        small = min((i for i, spec in enumerate(specs) if spec["kind"] == "compute"), key=lambda i: specs[i]["features"])
        ops[small].run()
        emit(engine.report_to_obj(engine.union(reports[small], reports[small], crossings=1, line_crossings=1, tangencies=1)))
        emit(engine.report_to_obj(engine.scale(reports[small], 2)))

    return ops, meta, warm


def newton_payload(text: str) -> str:
    """What `orbitdeg newton` computes and prints after reading the file."""
    from orbitdeg import newton

    data = json.loads(text)
    terms = [(int(j), int(k), coeff) for j, k, coeff in data["terms"]]
    support = newton.MonomialSupport.from_terms(data["degree"], terms)
    polygon = newton.newton_polygon(support)
    multiplicity, contact = newton.local_invariants(support)
    sides = [newton.side_data(support, side) for side in newton.qualifying_sides(polygon)]
    return emit(
        {
            "polygon": {"vertices": [list(v) for v in polygon.vertices]},
            "multiplicity": multiplicity,
            "contact": contact if contact is not None else "infinite",
            "sides": [
                {
                    "from": [s.j0, s.k0],
                    "to": [s.j1, s.k1],
                    "span": s.span,
                    "coefficients": [workloads.rational_text(g) for g in s.gammas],
                    "profile": [list(pair) for pair in s.profile],
                    "s": list(s.s_values()),
                }
                for s in sides
            ],
        }
    )


def newton_ops(seed: int) -> tuple[list[Op], dict, Callable[[], None]]:
    cases = workloads.newton_pass(seed)

    def make(case: dict) -> Op:
        text = json.dumps(case["input"])
        return Op(
            "newton",
            lambda: newton_payload(text),
            lambda out: workloads.newton_problems(json.loads(out), case),
            side_degree=sum(len(side["poly"]) - 1 for side in case["sides"]),
        )

    ops = [make(case) for case in cases]

    def warm() -> None:
        min(ops, key=lambda op: op.side_degree).run()

    return ops, workloads.newton_meta(cases), warm


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    The working tree's `src` is on the path (nothing is installed), and
    bytecode is cached under `.bench_build` in the checkout, so a cold
    process reads compiled modules like an installed program does and
    nothing is written outside the checkout.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("ORBITDEG_CORPUS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONHASHSEED"] = "0"  # the same memory layout in every process
    return env


class ColdCli:
    """cli-cold: one fresh `python -m orbitdeg.cli` process per op."""

    def __init__(self, seed: int):
        from orbitdeg import engine, model

        self.env = child_env()
        self.work = WORK_DIR / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.bare: list[float] = []
        self.cpu: list[float] = []
        self.walls: list[float] = []  # untraced ops only
        self.last_wall = 0.0
        self.tracer: Optional[Tracer] = None
        self._count = 0
        fixtures = {f["name"]: f for f in _fixtures()}
        for name, fixture in fixtures.items():
            (self.work / f"{name}.json").write_text(json.dumps(fixture["descriptor"], indent=2), encoding="utf-8")

        def library(name: str) -> Any:
            return engine.assemble(model.descriptor_from_obj(fixtures[name]["descriptor"]))

        self.specs = workloads.cli_pass(seed, sorted(fixtures))
        self.args: list[list[str]] = []
        self.ops: list[Op] = []
        for index, spec in enumerate(self.specs):
            kind = spec["kind"]
            if kind == "compute":
                args = ["compute", self._file(spec["fixture"])]
                expected = fixtures[spec["fixture"]]["expected"]
                check = self._checker(lambda out, e=expected: workloads.fixture_problems(json.loads(out), e))
            elif kind == "union":
                args = [
                    "union", self._file(spec["left"]), self._file(spec["right"]),
                    "--crossings", str(spec["crossings"]),
                    "--line-crossings", str(spec["line_crossings"]),
                    "--tangencies", str(spec["tangencies"]),
                ]  # fmt: skip
                want = engine.report_to_obj(
                    engine.union(
                        library(spec["left"]),
                        library(spec["right"]),
                        crossings=spec["crossings"],
                        line_crossings=spec["line_crossings"],
                        tangencies=spec["tangencies"],
                    )
                )
                check = self._checker(lambda out, w=want: workloads.fixture_problems(json.loads(out), w))
            elif kind == "scale":
                args = ["scale", self._file(spec["fixture"]), "--multiple", str(spec["multiple"])]
                want = engine.report_to_obj(engine.scale(library(spec["fixture"]), spec["multiple"]))
                check = self._checker(lambda out, w=want: workloads.fixture_problems(json.loads(out), w))
            elif kind == "newton":
                path = self.work / f"support-{index}.json"
                path.write_text(json.dumps(spec["case"]["input"]), encoding="utf-8")
                args = ["newton", str(path)]
                check = self._checker(lambda out, c=spec["case"]: workloads.newton_problems(json.loads(out), c))
            else:
                args = ["corpus"]
                summary = f"{len(fixtures)}/{len(fixtures)} fixtures passed"
                check = self._checker(lambda out, s=summary: [] if out.strip().endswith(s) else [out[-200:]])
            self.args.append(args)
            self.ops.append(Op(kind, lambda a=args: self._invoke(a), check))

    def _file(self, name: str) -> str:
        return str(self.work / f"{name}.json")

    def command(self, args: list[str]) -> list[str]:
        if self.tracer is not None:
            return [sys.executable, str(BENCH / "cli_child.py"), *args]
        return [sys.executable, "-m", "orbitdeg.cli", *args]

    def _invoke(self, args: list[str]) -> subprocess.CompletedProcess:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.run(self.command(args), capture_output=True, text=True, env=self.env, cwd=ROOT)
        self.last_wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if self.tracer is None:
            self.walls.append(self.last_wall)
            self.cpu.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        return proc

    def time_bare(self) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
        self.bare.append(time.perf_counter() - start)

    def _merge_spans(self, proc: subprocess.CompletedProcess) -> None:
        if self.tracer is None:
            return
        lines = [line for line in proc.stderr.splitlines() if line.startswith(SPANS_MARKER)]
        spans = json.loads(lines[-1][len(SPANS_MARKER):]) if lines else {}
        inside = 0.0
        for name, (calls, own) in spans.items():
            total = self.tracer.totals.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += own
            inside += own
        # the rest of the process (start-up, imports, exit) is the op's own time
        total = self.tracer.totals.setdefault("op", [0, 0.0])
        total[0] += 1
        total[1] += self.last_wall - inside

    def _checker(self, compare: Callable[[str], list]) -> Callable[[subprocess.CompletedProcess], list]:
        """A check of one CLI process; it also does the op's untimed chores."""

        def check(proc: subprocess.CompletedProcess) -> list:
            self._merge_spans(proc)
            self._count += 1
            if self._count % BARE_EVERY == 0:
                self.time_bare()
            if proc.returncode != 0:
                return [f"exit code {proc.returncode}: {proc.stderr.strip()[:200]}"]
            return compare(proc.stdout)

        return check

    def warm(self) -> None:
        """Untimed: fill the bytecode cache and the OS file cache."""
        subprocess.run(self.command(self.args[0]), capture_output=True, env=self.env, cwd=ROOT, check=True)
        self.time_bare()
        self.bare.clear()

    def meta(self) -> dict:
        kinds = [spec["kind"] for spec in self.specs]
        return {"ops_share": {k: kinds.count(k) / len(kinds) for k in dict.fromkeys(kinds)}}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _newton_observers(counters: dict) -> dict:
    def observe(result: Any) -> None:
        quotient, remainder = result
        for c in (*quotient, *remainder):
            counters["max_coeff_bits"] = max(
                counters["max_coeff_bits"], c.numerator.bit_length(), c.denominator.bit_length()
            )

    return {"orbitdeg.newton:poly_divmod": observe}


def traced_run(ops: list[Op], seconds: float, cold: Optional[ColdCli]) -> tuple[Loop, Loop, Tracer, dict, list]:
    """Alternate untraced and traced passes until `seconds` have passed.

    Alternating pass by pass keeps slow drifts of the machine out of the
    comparison of the two halves, which gives the tracing overhead.
    """
    tracer = Tracer()
    counters = {"max_coeff_bits": 0}
    targets = LAYER_TARGETS + (("cli.emit", f"{__name__}:emit"),)
    plain, traced = Loop(), Loop()
    missing: list[str] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        plain.merge(measure(ops, deadline - time.perf_counter(), max_passes=1))
        if cold is not None:
            cold.tracer = tracer  # its ops now start traced child processes
        else:
            missing = tracer.install(targets, _newton_observers(counters))
        try:
            traced.merge(measure(ops, deadline - time.perf_counter(), tracer=None if cold else tracer, max_passes=1))
        finally:
            tracer.uninstall()
            if cold is not None:
                cold.tracer = None
    return plain, traced, tracer, counters, missing


def _loop_out(loop: Loop) -> dict:
    return {
        "passes": loop.passes,
        "partial": loop.partial,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "synthetic", "newton", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true", help="alternate untraced and traced passes")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    cold = None
    try:
        if args.workload == "cli-cold":
            cold = ColdCli(args.seed)
            ops, meta, warm = cold.ops, cold.meta(), cold.warm
        else:
            build = {"corpus": corpus_ops, "synthetic": synthetic_ops, "newton": newton_ops}[args.workload]
            ops, meta, warm = build(args.seed)
        warm()
        ready = time.monotonic()
        if args.probe:
            print(json.dumps({"ready": ready}))
            return 0

        out: dict[str, Any] = {"ready": ready, "meta": meta}
        if not args.trace:
            loop = measure(ops, args.seconds)
            out.update(_loop_out(loop))
        else:
            plain, traced, tracer, counters, missing = traced_run(ops, args.seconds, cold)
            out.update(_loop_out(plain))
            out["attempted"] += traced.attempted
            out["failed"] += traced.failed
            out["problems"] += traced.problems
            out["trace"] = {
                "passes": traced.passes,
                "partial": traced.partial,
                "totals": tracer.totals,
                "missing": missing,
                "features": traced.features,
                "side_degree": traced.side_degree,
                "max_coeff_bits": counters["max_coeff_bits"],
                "walls": cold.walls if cold else [],
                "cpu": cold.cpu if cold else [],
            }
        if cold is not None:
            out["bare"] = cold.bare
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
        out["peak_rss_kb"] = usage.ru_maxrss
        print(json.dumps(out))
        return 0
    finally:
        if cold is not None:
            cold.close()


if __name__ == "__main__":
    sys.exit(main())
