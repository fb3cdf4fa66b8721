"""The layer entry points the traced run wraps, and the per-layer metrics.

Layers are named after the modules that implement them.  Every workload
reports the same metric names; a layer a workload does not exercise
reads 0 there.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from tracer import Target, Tracer

REGIME_FAMILIES = ("insecure", "seccomp", "draco_sw", "draco_hw", "bitmap")
_REGIME_PREFIX = {
    "insecure": "insecure",
    "seccomp": "seccomp",
    "seccomp-bitmap": "bitmap",
    "draco-sw": "draco_sw",
    "draco-hw": "draco_hw",
}

CACHE_KINDS = ("stage", "context", "trace_context", "result", "calibration")

#: Registry ids, in registry order (checked against the registry when
#: the tracer installs, so a new experiment cannot go unmeasured).
EXPERIMENT_IDS = (
    "fig2", "fig3", "table1", "table2", "fig11", "fig12", "fig13", "fig14",
    "fig15", "table3", "vat", "fig16", "fig17", "flowmix", "bitmap", "fleet",
)

SERVED_CLASSES = ("hit", "computed")


def _regime_family(args: tuple, kwargs: dict) -> str:
    regime = kwargs.get("regime", args[1] if len(args) > 1 else None)
    prefix = str(getattr(regime, "name", "")).split(":")[0]
    return f"kernel.run_trace.{_REGIME_PREFIX.get(prefix, 'other')}"


def _trace_events(span, args, kwargs, result) -> None:
    if result is None:
        # A Seccomp replay that declined: the caller runs the trace for
        # real, under its own span, so this one is not a run.
        span.attrs["fallback"] = 1
        return
    span.attrs["events"] = result.events_measured + result.warmup_events


def _program_identity(span, args, kwargs, result) -> None:
    program = kwargs.get("program", args[0] if args else ())
    span.attrs["program"] = tuple(program)


def _cache_hit(span, args, kwargs, result) -> None:
    span.attrs["hit"] = result is not None


def _fleet_invocations(span, args, kwargs, result) -> None:
    span.attrs["invocations"] = result.invocations


def targets() -> List[Target]:
    from repro.experiments.registry import REGISTRY

    ids = tuple(entry.experiment_id for entry in REGISTRY)
    if ids != EXPERIMENT_IDS:
        raise RuntimeError(f"registry changed: {ids}; update EXPERIMENT_IDS")
    out = [
        Target("repro.kernel.simulator", "run_trace", _regime_family, _trace_events),
        # Seccomp evaluations are replayed from a shared filter sweep and
        # reach run_trace only when the replay declines (returns None).
        Target("repro.experiments.seccomp_replay", "replay_evaluation",
               "kernel.run_trace.seccomp", _trace_events),
        Target("repro.kernel.fleet", "generate_load", "fleet.generate_load"),
        Target("repro.kernel.fleet", "calibrate_classes", "fleet.calibrate_classes"),
        Target("repro.kernel.fleet", "simulate_fleet", "fleet.simulate_fleet", _fleet_invocations),
        Target("repro.bpf.compile", "compile_program", "bpf.compile_program", _program_identity),
        Target("repro.seccomp.toolkit", "generate_bundle", "seccomp.generate_bundle"),
        Target("repro.seccomp.compiler", "compile_profile", "seccomp.compile_profile"),
        Target("repro.workloads.generator", "generate_trace", "workloads.generate_trace"),
        Target("repro.experiments.runner", "calibrate_work_cycles", "runner.calibrate_work_cycles"),
    ]
    for op in ("load", "store"):
        for kind in CACHE_KINDS:
            out.append(
                Target(
                    "repro.experiments.cache",
                    f"ResultCache.{op}_{kind}",
                    f"cache.{op}_{kind}",
                    _cache_hit if op == "load" else None,
                )
            )
    for entry in REGISTRY:
        out.append(Target(entry.run.__module__, entry.run.__name__,
                          f"experiments.{entry.experiment_id}.run"))
    return out


def install(tracer: Tracer) -> None:
    from repro.experiments.registry import REGISTRY

    tracer.install(targets(), extra_holders=REGISTRY)


# -- metrics --------------------------------------------------------------

#: (name, unit, better) of every per-layer metric, in report order.
def metric_specs() -> List[Tuple[str, str, str]]:
    specs: List[Tuple[str, str, str]] = []
    for family in REGIME_FAMILIES:
        base = f"kernel.run_trace.{family}"
        specs += [(f"{base}.calls", "count", "lower"), (f"{base}.self_s", "s", "lower"),
                  (f"{base}.events", "count", "lower")]
    specs.append(("kernel.run_trace.events_per_s", "1/s", "higher"))
    for fn in ("generate_load", "calibrate_classes", "simulate_fleet"):
        specs += [(f"fleet.{fn}.calls", "count", "lower"), (f"fleet.{fn}.self_s", "s", "lower")]
    specs.append(("fleet.invocations_per_s", "1/s", "higher"))
    specs += [
        ("bpf.compile_program.calls", "count", "lower"),
        ("bpf.compile_program.self_s", "s", "lower"),
        ("bpf.compile_program.distinct_ratio", "ratio", "higher"),
        ("seccomp.generate_bundle.self_s", "s", "lower"),
        ("seccomp.compile_profile.self_s", "s", "lower"),
        ("workloads.generate_trace.calls", "count", "lower"),
        ("workloads.generate_trace.self_s", "s", "lower"),
        ("runner.calibrate_work_cycles.calls", "count", "lower"),
        ("runner.calibrate_work_cycles.self_s", "s", "lower"),
    ]
    for op in ("load", "store"):
        for kind in CACHE_KINDS:
            specs += [(f"cache.{op}_{kind}.calls", "count", "lower"),
                      (f"cache.{op}_{kind}.self_s", "s", "lower")]
    specs.append(("cache.load.hit_ratio", "ratio", "higher"))
    for experiment_id in EXPERIMENT_IDS:
        specs.append((f"experiments.{experiment_id}.run.self_s", "s", "lower"))
    specs += [
        ("stages.executed", "count", "lower"),
        ("stages.hit", "count", "higher"),
        ("stages.dedup", "count", "higher"),
        ("stages.dedup_ratio", "ratio", "higher"),
        ("import.repro_experiments_s", "s", "lower"),
        ("pool.prestart_s", "s", "lower"),
    ]
    for served in SERVED_CLASSES:
        specs.append((f"service.server_ms.p50.{served}", "ms", "lower"))
    specs += [
        ("service.transport_ms.p50", "ms", "lower"),
        ("service.memo_ratio", "ratio", "higher"),
        ("accounted_frac", "ratio", "higher"),
        ("unaccounted_s", "s", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
        ("trace_overhead_est_frac", "ratio", "lower"),
    ]
    return specs


def merge_summaries(summaries: Sequence[Mapping[str, Mapping[str, Any]]]) -> Dict[str, Dict[str, float]]:
    """Sum per-name rows of several traced processes.  Distinct-value
    attributes (``program``) cannot be merged exactly across processes,
    so they are summed too, which over-counts programs repeated between
    processes; a workload's compile calls come from one process."""
    merged: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, row in summary.items():
            target = merged.setdefault(name, {})
            for key, value in row.items():
                target[key] = target.get(key, 0) + value
    return merged


def span_metrics(table: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
    """Per-layer metrics derived from a merged span summary."""

    def row(name: str) -> Mapping[str, float]:
        return table.get(name, {})

    out: Dict[str, float] = {}
    events = seconds = 0.0
    for family in REGIME_FAMILIES:
        r = row(f"kernel.run_trace.{family}")
        out[f"kernel.run_trace.{family}.calls"] = r.get("calls", 0) - r.get("fallback", 0)
        out[f"kernel.run_trace.{family}.self_s"] = r.get("self_s", 0.0)
        out[f"kernel.run_trace.{family}.events"] = r.get("events", 0)
        events += r.get("events", 0)
        seconds += r.get("self_s", 0.0)
    other = row("kernel.run_trace.other")
    events += other.get("events", 0)
    seconds += other.get("self_s", 0.0)
    out["kernel.run_trace.events_per_s"] = events / seconds if seconds else 0.0
    for fn in ("generate_load", "calibrate_classes", "simulate_fleet"):
        r = row(f"fleet.{fn}")
        out[f"fleet.{fn}.calls"] = r.get("calls", 0)
        out[f"fleet.{fn}.self_s"] = r.get("self_s", 0.0)
    sim = row("fleet.simulate_fleet")
    out["fleet.invocations_per_s"] = (
        sim.get("invocations", 0) / sim["self_s"] if sim.get("self_s") else 0.0
    )
    bpf = row("bpf.compile_program")
    out["bpf.compile_program.calls"] = bpf.get("calls", 0)
    out["bpf.compile_program.self_s"] = bpf.get("self_s", 0.0)
    out["bpf.compile_program.distinct_ratio"] = (
        bpf.get("program", 0) / bpf["calls"] if bpf.get("calls") else 0.0
    )
    out["seccomp.generate_bundle.self_s"] = row("seccomp.generate_bundle").get("self_s", 0.0)
    out["seccomp.compile_profile.self_s"] = row("seccomp.compile_profile").get("self_s", 0.0)
    for name in ("workloads.generate_trace", "runner.calibrate_work_cycles"):
        out[f"{name}.calls"] = row(name).get("calls", 0)
        out[f"{name}.self_s"] = row(name).get("self_s", 0.0)
    loads = hits = 0
    for op in ("load", "store"):
        for kind in CACHE_KINDS:
            r = row(f"cache.{op}_{kind}")
            out[f"cache.{op}_{kind}.calls"] = r.get("calls", 0)
            out[f"cache.{op}_{kind}.self_s"] = r.get("self_s", 0.0)
            if op == "load":
                loads += r.get("calls", 0)
                hits += r.get("hit", 0)
    out["cache.load.hit_ratio"] = hits / loads if loads else 0.0
    for experiment_id in EXPERIMENT_IDS:
        out[f"experiments.{experiment_id}.run.self_s"] = row(
            f"experiments.{experiment_id}.run"
        ).get("self_s", 0.0)
    return out


def accounted_s(table: Mapping[str, Mapping[str, float]]) -> float:
    """Summed self time of every span: the wall the wrapped layers cover."""
    return sum(r.get("self_s", 0.0) for r in table.values())


def stage_metrics(counters: Mapping[str, float]) -> Dict[str, float]:
    executed = counters.get("executed", 0)
    dedup = counters.get("dedup", 0)
    return {
        "stages.executed": executed,
        "stages.hit": counters.get("hit", 0),
        "stages.dedup": dedup,
        "stages.dedup_ratio": dedup / (executed + dedup) if executed + dedup else 0.0,
    }
