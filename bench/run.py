"""orbitdeg benchmark: one run of one workload, printed as metrics.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop, one op in flight, one process, no threads):

  corpus     the 24 bundled fixtures, as `orbitdeg compute` runs them after
             reading the file: parse, assemble, report_to_obj, dumps.
             Real user traffic; almost all of it is assembly.  Bypasses newton.
  synthetic  seeded descriptors up to degree 200 with 40-270 point features
             (composite points with sides and fractional truncation weights,
             irreducible points, both erratum modes), plus unions and scales
             of reports computed earlier in the pass.  Grows model, validate
             and serialization work, and uses series products and
             substitutions the corpus does not.
  newton     seeded monomial supports whose qualifying side polynomial is a
             product of small-integer factors with repeated multiplicities,
             side degree 8-44, as `orbitdeg newton` runs them.  Isolates the
             squarefree decomposition; bypasses assembly.
  cli-cold   one fresh `python -m orbitdeg.cli` process per op (compute on
             every fixture, union, scale, newton, corpus).  The only workload
             that pays interpreter start and `import orbitdeg`.

With `--trace 0` the last stdout line holds the end-to-end metrics:

  setup_s      launch of the workload's process to its first timed op
               (interpreter start, imports, inputs, warm-up); median of
               several set-ups per run
  ops_per_s    completed ops per second of op time, median over complete
               passes (a pass is the workload's fixed op list)
  op_ms_p50    median op latency
  op_ms_p90    90th percentile op latency (the sample count is printed on
               the line before, and each workload has >= 100 samples)
  peak_rss_mb  peak resident memory of the working process (cli-cold: of the
               largest CLI process)

`fail_ratio` (failed / attempted) is not among them because it is 0 when
the program is correct; it is carried by the `attempted` and `failed`
fields of the last line and printed, with the metadata, on the line before.

With `--trace 1` the run alternates untraced and traced passes and reports
per-layer metrics: per span, calls and self time per op, layer counters,
import times and the tracing overhead (untraced over traced ops_per_s).
Spans of layers a workload does not reach read 0.

Cold processes keep whatever start-up cost the interpreter's `site` hooks
add (for example a `.pth` file that imports `certifi`) in both the CLI and
the bare-python figures.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the benchmark's processes cache bytecode under .bench_build

import argparse
import json
import math
import os
import platform
import statistics
import signal
import subprocess
import time
from pathlib import Path
from typing import Any, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import SPAN_NAMES  # noqa: E402
from worker import child_env  # noqa: E402

WORKLOADS = ("corpus", "synthetic", "newton", "cli-cold")
#: Extra processes per run that only set up, to take the median set-up time.
SETUP_PROBES = 4
#: Processes per run for the import-time and bare-interpreter figures.
IMPORT_PROBES = 5
IMPORT_MODULES = ("model", "corrections", "series", "engine", "newton", "corpus", "cli")
#: Every run ends within this many seconds of its start, or fails.
RUN_LIMIT_S = 170


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(1)


def git_sha() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def launch(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run the worker; return its launch time and its last stdout line."""
    start = time.monotonic()
    timeout = deadline - start
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    # its own process group, so that a timeout also ends the CLI processes it started
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT, start_new_session=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0 or not stdout.strip():
        fail(f"worker failed ({proc.returncode}): {stderr.strip()[-2000:]}")
    return start, json.loads(stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def ops_per_s(passes: list[list[float]], partial: list[float]) -> float:
    if passes:
        return statistics.median(len(p) / sum(p) for p in passes)
    return len(partial) / sum(partial)


def build() -> None:
    """Compile the program into the benchmark's bytecode cache, untimed."""
    subprocess.run([sys.executable, "-c", "import orbitdeg.cli"], env=child_env(), cwd=ROOT, check=True, timeout=60)


def importtime() -> dict[str, float]:
    """Median self/cumulative import times (ms) from `-X importtime`."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import orbitdeg.cli"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True, timeout=60,
        )  # fmt: skip
        rows = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[0].split(":")[1].strip().isdigit():
                rows[parts[2].strip()] = (int(parts[0].split(":")[1]), int(parts[1]))
        samples.setdefault("import.orbitdeg_ms", []).append(rows["orbitdeg"][1] / 1000)
        for module in IMPORT_MODULES:
            own = rows.get(f"orbitdeg.{module}", (0, 0))[0]
            samples.setdefault(f"import.{module}_self_ms", []).append(own / 1000)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True, timeout=60)
        samples.setdefault("import.bare_python_ms", []).append((time.perf_counter() - start) * 1000)
    return {name: statistics.median(values) for name, values in samples.items()}


def end_to_end(common: list[str], deadline: float) -> tuple[dict, dict, dict]:
    setups = []
    for _ in range(SETUP_PROBES):
        start, probe = launch(common + ["--probe"], deadline)
        setups.append(probe["ready"] - start)
    start, out = launch(common, deadline)
    setups.append(out["ready"] - start)
    latencies = [x for p in out["passes"] for x in p] or out["partial"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s(out["passes"], out["partial"]), "1/s"),
        "op_ms_p50": (statistics.median(latencies) * 1000, "ms"),
        "op_ms_p90": (percentile(latencies, 90) * 1000, "ms"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024, "MB"),
    }
    info = {"samples": len(latencies), "complete_passes": len(out["passes"]), "setup_s_samples": setups}
    if "bare" in out:
        info["bare_python_ms_p50"] = statistics.median(out["bare"]) * 1000
        info["bare_python_samples"] = len(out["bare"])
    return out, metrics, info


def per_layer(common: list[str], deadline: float) -> tuple[dict, dict, dict]:
    _, out = launch(common + ["--trace"], deadline)
    trace = out["trace"]
    traced = [x for p in trace["passes"] for x in p] + trace["partial"]
    ops = len(traced)
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        calls, own = trace["totals"].get(name, (0, 0.0))
        metrics[f"{name}.calls_per_op"] = (calls / ops, "count")
        metrics[f"{name}.self_us_per_op"] = (own / ops * 1e6, "us")
    mul_calls = trace["totals"].get("series.mul", (0, 0.0))[0]
    divmod_calls = trace["totals"].get("newton.poly_divmod", (0, 0.0))[0]
    metrics["series.mul.per_feature"] = (mul_calls / trace["features"] if trace["features"] else 0.0, "ratio")
    metrics["newton.max_coeff_bits"] = (trace["max_coeff_bits"], "count")
    metrics["newton.divmod.per_degree"] = (divmod_calls / trace["side_degree"] if trace["side_degree"] else 0.0, "ratio")
    for name, value in importtime().items():
        metrics[name] = (value, "ms")
    over_bare = wait = 0.0
    if trace["walls"]:
        plain = [x for p in out["passes"] for x in p] + out["partial"]
        over_bare = (statistics.median(plain) - statistics.median(out["bare"])) * 1000
        wait = statistics.mean(w - c for w, c in zip(trace["walls"], trace["cpu"])) * 1000
    metrics["cli.process_over_bare_ms"] = (over_bare, "ms")
    metrics["cli.wait_ms_per_op"] = (wait, "ms")
    op_time = sum(traced)
    untraced = ops_per_s(out["passes"], out["partial"])
    traced_rate = ops_per_s(trace["passes"], trace["partial"])
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced / traced_rate, "ratio")
    metrics["trace.op_us_per_op"] = (op_time / ops * 1e6, "us")
    info = {"traced_ops": ops, "missing_targets": trace["missing"]}
    return out, metrics, info


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "orbitdeg" / "__init__.py").is_file():
        fail(f"no program to measure: {ROOT / 'src' / 'orbitdeg'} is missing")

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    out, metrics, info = (per_layer if args.trace else end_to_end)(common, deadline)
    attempted, failed = out["attempted"], out["failed"]
    summary: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {name: f"{value:.6g} {unit}" for name, (value, unit) in metrics.items()},
        "fail_ratio": failed / attempted if attempted else 1.0,
        "problems": out["problems"],
        **info,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload_meta": out["meta"],
    }
    print(json.dumps(summary))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
