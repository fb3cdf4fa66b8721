"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, audit, self_times_ns, summarize, wrapper_cost_ns  # noqa: E402


def _nested_tracer() -> Tracer:
    tracer = Tracer()

    def leaf() -> None:
        time.sleep(0.002)

    traced_leaf = tracer.wrap(leaf, "leaf")

    def middle() -> None:
        traced_leaf()
        time.sleep(0.001)
        traced_leaf()

    traced_middle = tracer.wrap(middle, "middle")

    def root() -> None:
        traced_middle()
        traced_leaf()

    tracer.wrap(root, "root")()
    return tracer


def test_self_time_is_duration_minus_children():
    spans = _nested_tracer().spans
    selfs = self_times_ns(spans)
    for index, span in enumerate(spans):
        children = sum(s.duration_ns for s in spans if s.parent == index)
        assert selfs[index] == span.duration_ns - children
        assert 0 <= children <= span.duration_ns
    assert [s.name for s in spans] == ["root", "middle", "leaf", "leaf", "leaf"]
    assert audit(spans) == []
    table = summarize(spans)
    assert table["leaf"]["calls"] == 3
    total_self = sum(row["self_s"] for row in table.values())
    assert abs(total_self - spans[0].duration_ns / 1e9) < 1e-9


def test_audit_reports_children_that_exceed_their_parent():
    spans = [Span("parent", 0, -1, 100), Span("a", 10, 0, 80), Span("b", 20, 0, 90)]
    assert any("exceed" in problem for problem in audit(spans))
    escaped = [Span("parent", 0, -1, 100), Span("child", 50, 0, 150)]
    assert any("escapes" in problem for problem in audit(escaped))


def test_span_closes_and_propagates_on_error():
    tracer = Tracer()

    def boom() -> None:
        raise ValueError("x")

    wrapped = tracer.wrap(boom, "boom")
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.spans[0].attrs["error"] is True
    assert tracer.spans[0].end_ns >= tracer.spans[0].start_ns
    assert tracer._stack() == []


def _wrapped_names():
    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, "__wrapped_by_tracer__", False):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                for method, member in list(vars(value).items()):
                    if getattr(member, "__wrapped_by_tracer__", False):
                        found.append(f"{name}.{attr}.{method}")
    return found


def test_wrappers_patch_importers_and_restore_originals():
    from repro.experiments import runner
    from repro.experiments.cache import ResultCache
    from repro.experiments.registry import REGISTRY
    from repro.kernel import simulator

    original_run_trace = simulator.run_trace
    original_load = ResultCache.__dict__["load_stage"]
    original_runs = [entry.run for entry in REGISTRY]
    assert _wrapped_names() == []

    tracer = Tracer()
    layers.install(tracer)
    try:
        # The defining module and a module that imported the name both
        # call through the wrapper, as do registry entries and methods.
        assert simulator.run_trace is not original_run_trace
        assert runner.run_trace is simulator.run_trace
        assert all(entry.run is not fn for entry, fn in zip(REGISTRY, original_runs))
        assert ResultCache.__dict__["load_stage"] is not original_load
        assert "repro.experiments.runner.run_trace" in _wrapped_names()
    finally:
        tracer.uninstall()

    assert _wrapped_names() == []
    assert simulator.run_trace is original_run_trace
    assert runner.run_trace is original_run_trace
    assert ResultCache.__dict__["load_stage"] is original_load
    assert [entry.run for entry in REGISTRY] == original_runs


def test_traced_experiment_attributes_layers():
    from repro.experiments import engine

    tracer = Tracer()
    layers.install(tracer)
    try:
        suite = engine.run_suite(["table1"], cache_mode="off")
    finally:
        tracer.uninstall()
    assert not suite.failures
    table = summarize(tracer.spans)
    assert table["experiments.table1.run"]["calls"] == 1
    assert audit(tracer.spans) == []
    metrics = layers.span_metrics(layers.merge_summaries([table]))
    names = {name for name, _, _ in layers.metric_specs()}
    assert set(metrics) <= names


def test_seccomp_replays_count_as_seccomp_runs(tmp_path):
    from repro.experiments import engine

    tracer = Tracer()
    layers.install(tracer)
    try:
        suite = engine.run_suite(
            ["fig2"], run_overrides={"fig2": {"workloads": ["pwgen"]}}, cache_dir=str(tmp_path)
        )
    finally:
        tracer.uninstall()
    assert not suite.failures
    metrics = layers.span_metrics(summarize(tracer.spans))
    assert metrics["kernel.run_trace.seccomp.calls"] > 0
    assert metrics["kernel.run_trace.seccomp.events"] > 0


def test_declined_replay_is_not_counted_as_a_run():
    table = {"kernel.run_trace.seccomp": {"calls": 3, "self_s": 0.5, "events": 10, "fallback": 1}}
    assert layers.span_metrics(table)["kernel.run_trace.seccomp.calls"] == 2


def test_wrapper_cost_is_measured():
    cost = wrapper_cost_ns(calls=2000, repeats=2)
    assert 0.0 <= cost < 1e6


def test_perturbations_are_seeded():
    first = inputs.perturbations(7, rounds=2)
    assert first == inputs.perturbations(7, rounds=2)
    assert first != inputs.perturbations(8, rounds=2)
    # Every round visits the whole pool once.
    for start in range(0, len(first), len(inputs.EDIT_POOL)):
        chunk = first[start:start + len(inputs.EDIT_POOL)]
        assert sorted(e for e, _ in chunk) == sorted(inputs.EDIT_POOL)
    # Values come from the list known to complete, never twice for one
    # experiment (a repeat would be served from the cache).
    assert all(value in inputs.EDIT_SEEDS for _, value in first)
    for experiment in inputs.EDIT_POOL:
        values = [v for e, v in first if e == experiment]
        assert len(values) == len(set(values)) == 2
    assert not set(inputs.EDIT_SEEDS) & {v for _, v in inputs.KNOWN_FAILING}
    assert inputs.suite_order(7) == inputs.suite_order(7)
    assert inputs.suite_order(7) != inputs.suite_order(8)
    assert sorted(inputs.suite_order(7)) == sorted(layers.EXPERIMENT_IDS)


def test_request_mix_is_seeded_and_shaped():
    mix = inputs.request_mix(11, blocks=5)
    assert mix == inputs.request_mix(11, blocks=5)
    assert mix != inputs.request_mix(12, blocks=5)
    assert inputs.hot_requests(11) == inputs.hot_requests(11)
    assert inputs.hot_requests(11) != inputs.hot_requests(12)
    block = sum(count for _, count in inputs.BLOCK)
    for schedule in mix:
        assert len(schedule) == 5 * block
        kinds = [entry["kind"] for entry in schedule]
        for kind, count in inputs.BLOCK:
            assert kinds.count(kind) == 5 * count
    # Overlap entries line up across clients and share fig2's stages.
    for first, second in zip(*mix):
        assert first["kind"] == second["kind"]
        if first["kind"] == "overlap":
            assert first["request"]["seed"] == second["request"]["seed"]
            assert first["request"]["run_overrides"] == second["request"]["run_overrides"]
    hot = inputs.hot_requests(11)
    assert all(entry["request"] in hot for s in mix for entry in s if entry["kind"] == "hot")
    warmup = inputs.warmup_mix(11)
    assert warmup == inputs.warmup_mix(11) and warmup != inputs.warmup_mix(12)
    for schedule in warmup:
        covered = [entry["request"]["run_overrides"]["fig2"]["workloads"][0] for entry in schedule]
        assert sorted(covered) == sorted(inputs.FIG2_WORKLOADS)


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    result = run.tail(values)
    assert result == {"value": 90.0, "percentile": 90.0, "samples": 100}
    assert sum(1 for v in values if v > result["value"]) == 10
    assert run.tail([3.0, 1.0])["value"] == 3.0


def test_split_markdown_recovers_each_section():
    parts = ["### A — x\n\n| a |\n|---|\n| 1 |\n", "### B — y\n\n| b |\n|---|\n| 2 |\n\n> note\n"]
    text = "# header\n\n" + "\n".join(parts)
    sections = run.split_markdown(text, ["fig2", "fig3"])
    assert sections == {"fig2": parts[0].rstrip("\n"), "fig3": parts[1].rstrip("\n")}
    assert run.split_markdown(text, ["fig2"]) == {}
