"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: workloads.corpus_order(seed, 24),
        workloads.synthetic_pass,
        workloads.newton_pass,
        lambda seed: workloads.cli_pass(seed, [f"f{i}" for i in range(24)]),
    ],
    ids=["corpus", "synthetic", "newton", "cli-cold"],
)
def test_same_seed_same_inputs(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_synthetic_pass_composition_does_not_depend_on_seed():
    metas = [workloads.synthetic_meta(workloads.synthetic_pass(seed)) for seed in (1, 2)]
    for meta in metas:
        del meta["features_per_curve"]
    assert metas[0] == metas[1]


def _fake_clock():
    now = [0.0]

    def clock():
        now[0] += 0.001
        return now[0]

    return clock


def test_corrupted_result_counts_as_failed():
    ops, _, _ = worker.corpus_ops(seed=1)
    good = ops[0]

    def corrupted():
        obj = json.loads(good.run())
        obj["predegree"] = workloads.rational_text(workloads.rational(obj["predegree"]) + 1)
        return json.dumps(obj)

    def raising():
        raise RuntimeError("boom")

    loop = worker.measure(
        [good, worker.Op("compute", corrupted, good.check), worker.Op("compute", raising, good.check)],
        seconds=0.0095,  # three ops: the fake clock ticks 1 ms per reading
        clock=_fake_clock(),
    )
    assert loop.attempted == 3
    assert loop.failed == 2
    assert len(loop.passes) == 1


def test_newton_check_rejects_a_wrong_profile():
    case = workloads.newton_pass(1)[0]
    payload = json.loads(worker.newton_payload(json.dumps(case["input"])))
    assert workloads.newton_problems(payload, case) == []
    payload["sides"][0]["profile"][0][1] += 1
    assert workloads.newton_problems(payload, case)


def test_self_time_is_duration_minus_children():
    #   root [0, 10]
    #     a  [1, 4]      a's child c [2, 3]
    #     b  [5, 9]      b's children d [6, 8] and e [7, 10] overlap and
    #                    e runs past b's end: together they cover [6, 9]
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["d", 6.0, 8.0, 3],
        ["e", 7.0, 10.0, 3],
    ]
    got = tracer.self_times(spans)
    assert got == {
        "root": (1, 10.0 - 3.0 - 4.0),
        "a": (1, 2.0),
        "c": (1, 1.0),
        "b": (1, 1.0),
        "d": (1, 2.0),
        "e": (1, 3.0),
    }
    # spans sharing a name add up
    assert tracer.self_times([["x", 0.0, 1.0, None], ["x", 2.0, 4.0, None]]) == {"x": (2, 3.0)}


def test_tracer_records_restores_and_reports_missing():
    from orbitdeg import engine, series

    original_mul = series.TruncSeries.__dict__["__mul__"]
    original_assemble = engine.assemble
    t = tracer.Tracer()
    missing = t.install(
        [
            ("engine.assemble", "orbitdeg.engine:assemble"),
            ("series.mul", "orbitdeg.series:TruncSeries.__mul__"),
            ("gone", "orbitdeg.engine:no_such_function"),
            ("gone", "orbitdeg.no_such_module:f"),
        ]
    )
    try:
        assert missing == ["orbitdeg.engine:no_such_function", "orbitdeg.no_such_module:f"]
        from orbitdeg import model

        engine.assemble(model.parse('{"degree": 2, "nonlinear": [{"deg": 2}]}'))
    finally:
        t.uninstall()
    assert engine.assemble is original_assemble
    assert series.TruncSeries.__dict__["__mul__"] is original_mul
    names = [span[0] for span in t.spans]
    assert names[0] == "engine.assemble" and "series.mul" in names
    assert all(span[3] == 0 for span in t.spans[1:])
