"""Spans around calls into the program's layers, recorded from outside it.

The tracer rebinds module and class attributes at run time to wrappers
that record a span (name, start, end, parent) per call, and puts every
original back on `uninstall`.  A target that does not exist is reported
as absent rather than failing, so the benchmark survives refactors that
rename or delete functions.  Nothing in the program is edited.

Spans are kept in memory for one op at a time and folded into per-name
totals (`fold`) after the op, outside the timed region.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence

#: (span name, "module:Attr.path") pairs for the layers of `orbitdeg`.
#: Several targets may share one span name.
LAYER_TARGETS: tuple[tuple[str, str], ...] = (
    ("model.parse", "orbitdeg.model:parse"),
    ("model.descriptor_from_obj", "orbitdeg.model:descriptor_from_obj"),
    ("model.validate", "orbitdeg.model:validate"),
    ("corrections.global", "orbitdeg.corrections:line_correction"),
    ("corrections.global", "orbitdeg.corrections:nonlinear_correction"),
    ("corrections.local", "orbitdeg.corrections:tangent_cone_correction"),
    ("corrections.local", "orbitdeg.corrections:newton_side_correction"),
    ("corrections.local", "orbitdeg.corrections:truncation_correction"),
    ("corrections.point_factor", "orbitdeg.corrections:irreducible_singularity_factor"),
    ("corrections.point_factor", "orbitdeg.corrections:flex_equivalent"),
    ("series.mul", "orbitdeg.series:TruncSeries.__mul__"),
    ("series.mul", "orbitdeg.series:TruncSeries.__rmul__"),
    ("series.pow", "orbitdeg.series:TruncSeries.__pow__"),
    ("series.substitute_scaled", "orbitdeg.series:TruncSeries.substitute_scaled"),
    ("series.to_strings", "orbitdeg.series:TruncSeries.to_strings"),
    ("engine.assemble", "orbitdeg.engine:assemble"),
    ("engine.union", "orbitdeg.engine:union"),
    ("engine.scale", "orbitdeg.engine:scale"),
    ("engine.report_to_obj", "orbitdeg.engine:report_to_obj"),
    ("newton.from_terms", "orbitdeg.newton:MonomialSupport.from_terms"),
    ("newton.newton_polygon", "orbitdeg.newton:newton_polygon"),
    ("newton.qualifying_sides", "orbitdeg.newton:qualifying_sides"),
    ("newton.side_data", "orbitdeg.newton:side_data"),
    ("newton.yun_squarefree", "orbitdeg.newton:yun_squarefree"),
    ("newton.poly_gcd", "orbitdeg.newton:poly_gcd"),
    ("newton.poly_divmod", "orbitdeg.newton:poly_divmod"),
    ("corpus.check_fixture", "orbitdeg.corpus:check_fixture"),
)

#: Extra targets inside a cold CLI process.
CLI_TARGETS: tuple[tuple[str, str], ...] = (
    ("cli.main", "orbitdeg.cli:main"),
    ("cli.argparse", "argparse:ArgumentParser.parse_args"),
    ("cli.emit", "orbitdeg.cli:_emit_report"),
)

#: Every span the per-layer metrics report, in a fixed order.  `op` is
#: the benchmark's own root span around one op; `cli.emit` is recorded
#: by the in-process workloads around their `json.dumps` of the report.
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys([n for n, _ in LAYER_TARGETS + CLI_TARGETS] + ["op"]))

Span = list  # [name, start, end, parent index or None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self.totals: dict[str, list[float]] = {}  # name -> [calls, self seconds]

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self.clock()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable[[Any], None]] = None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                with self.span("trace.observe"):
                    observe(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(
        self, targets: Sequence[tuple[str, str]], observers: Optional[dict[str, Callable[[Any], None]]] = None
    ) -> list[str]:
        """Wrap every target; return the targets that do not exist."""
        observers = observers or {}
        missing = []
        for name, target in targets:
            owner, attr = _resolve(target)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(target)
                continue
            observe = observers.get(target)
            if isinstance(raw, (classmethod, staticmethod)):
                new: Any = type(raw)(self.wrap(name, raw.__func__, observe))
            elif callable(raw):
                new = self.wrap(name, raw, observe)
            else:
                missing.append(target)
                continue
            setattr(owner, attr, new)
            self._installed.append((owner, attr, raw))
        return missing

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def fold(self) -> None:
        """Add the recorded spans to the per-name totals and forget them."""
        for name, (calls, own) in self_times(self.spans).items():
            total = self.totals.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += own
        self.spans.clear()


def _resolve(target: str) -> tuple[Any, str]:
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None, path
    *parents, attr = path.split(".")
    for part in parents:
        owner = vars(owner).get(part) if hasattr(owner, "__dict__") else None
        if owner is None:
            return None, attr
    return owner, attr


def self_times(spans: Sequence[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: number of spans and total self time.

    A span's self time is its duration minus the part of its interval
    that its direct children cover (children clipped to the parent and
    overlapping children counted once).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list] = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {name: (calls, own) for name, (calls, own) in out.items()}
