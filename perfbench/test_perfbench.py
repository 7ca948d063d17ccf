"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from measure import SETUP_PROBES, measure  # noqa: E402
from workloads import BLOCK_SIZE, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    """The same workload at a size that runs in seconds: two blocks."""
    return replace(workload, sample_size=2 * BLOCK_SIZE,
                   train_steps=min(workload.train_steps, 3))


def _span(sid, parent, start, end, thread=0, name=None):
    return tracing.Span(id=sid, name=name or f"s{sid}", site="test",
                        thread=thread, parent=parent, start=start, end=end)


def test_self_and_blocking_times_on_nested_parallel_spans():
    # root [0, 10] fans out to A [1, 4] and B [3, 8] on two threads; A has
    # a child [2, 3].
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0, thread=1),
             _span(2, 1, 2.0, 3.0, thread=1), _span(3, 0, 3.0, 8.0, thread=2)]
    assert tracing.self_times(spans) == pytest.approx(
        {0: 3.0, 1: 2.0, 2: 1.0, 3: 5.0})
    blocking = tracing.blocking_times(spans)
    assert blocking == pytest.approx({0: 3.0, 1: 1.5, 2: 1.0, 3: 4.5})
    assert sum(blocking.values()) == pytest.approx(10.0)


def test_pool_spans_nest_under_the_fanout_span():
    tracer = tracing.Tracer()

    def block(i):
        return tracer.call("inner", "test", lambda: threading.get_ident())

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda i: tracer.call("block", "test", block, i),
                                 range(4)))

    tracer.call("estimate", "test", fan_out, fanout=True)
    by_id = {s.id: s for s in tracer.spans}
    estimate = next(s for s in tracer.spans if s.name == "estimate")
    for s in tracer.spans:
        if s.name == "block":
            assert s.parent == estimate.id
        if s.name == "inner":
            assert by_id[s.parent].name == "block"
            assert by_id[s.parent].thread == s.thread
    assert not tracer._fanout


def test_instrumented_restores_functions_and_classmethods():
    from driftmc import engine, stats

    before = (engine.simulate, vars(stats.RunningMoments)["from_array"])
    hooks = [tracing.Hook(engine, "simulate", "models.simulate"),
             tracing.Hook(stats.RunningMoments, "from_array", "stats.from_array")]
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracing.instrumented(tracer, hooks):
            assert engine.simulate is not before[0]
            assert stats.RunningMoments.from_array([1.0, 3.0]).mean == 2.0
            1 / 0
    assert (engine.simulate, vars(stats.RunningMoments)["from_array"]) == before
    assert [s.name for s in tracer.spans] == ["stats.from_array"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_named_metric(name, trace, tmp_path):
    result = measure(tiny(WORKLOADS[name]), seed=3, seconds=0.0, trace=trace,
                     threads=2, out_dir=tmp_path)
    assert result.failures == []
    if trace:
        assert result.record["spans"][0]["name"] == "job"
    else:
        assert len(result.record["setup_samples_s"]) == SETUP_PROBES
    listed = SPEC["per_layer" if trace else "end_to_end"]
    metrics = run.metrics_for(result.values, listed)
    assert list(metrics) == [m["name"] for m in listed]
    for m in listed:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
        assert math.isfinite(metrics[m["name"]]["value"])

