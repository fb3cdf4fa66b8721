"""The artifact store: every kind's round trip and corruption cases,
context rebuilds, sound memo keys, and byte-identical Seccomp replay
differentials.

The contract under test (docs/EXPERIMENT_GUIDE.md): traces, profile
bundles, filter sweeps, calibration values, stage payloads and results
persist across processes in one store keyed by content digests; a
missing, corrupt or stale entry of any kind always reads as a miss and
the caller rebuilds; and every replayed Seccomp evaluation is
byte-identical to the exact-kernel run it replaces — with the store
off (``cache_overrides(disable=True)``) forcing the real path.
"""

import gc
import json
import shutil
import sys
import threading
from dataclasses import replace

import pytest

from repro.bpf import compile as bpf_compile
from repro.common import storage, telemetry
from repro.common.memo import memo_insert
from repro.common.rng import DEFAULT_SEED
from repro.cpu.params import DEFAULT_SW_COSTS
from repro.experiments import cache as result_cache
from repro.experiments import fig2_seccomp_overhead, runner, seccomp_replay
from repro.experiments.results import ExperimentResult
from repro.kernel.regimes import SeccompRegime
from repro.seccomp.toolkit import bundle_from_payload, bundle_to_payload
from repro.workloads.catalog import (
    CATALOG,
    REGIME_COMPLETE,
    REGIME_INSECURE,
    SECCOMP_REGIMES,
)

EVENTS = 1500
WORKLOAD = "nginx"
ALL_REGIMES = (REGIME_INSECURE,) + SECCOMP_REGIMES


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Fresh on-disk cache and clean in-process memos per test."""
    root = tmp_path / "cache"
    monkeypatch.setenv(result_cache.CACHE_DIR_ENV, str(root))
    runner.reset_context_memos()
    telemetry.reset_counters()
    yield root
    runner.reset_context_memos()


def _evaluate_all(workload=WORKLOAD, events=EVENTS):
    ctx = runner.get_context(workload, events=events)
    return {regime: ctx.evaluate(regime) for regime in ALL_REGIMES}


class TestMemoInsert:
    def test_oldest_first_eviction(self):
        memo = {}
        for key in range(6):
            memo_insert(memo, key, key, limit=4)
        assert list(memo) == [2, 3, 4, 5]

    def test_refresh_does_not_evict_at_limit(self):
        """The old ``.clear()``-at-limit policy wiped a full memo on the
        next insert; refreshing an existing key must never evict."""
        memo = {}
        for key in range(3):
            memo_insert(memo, key, key, limit=3)
        memo_insert(memo, 1, "refreshed", limit=3)
        assert list(memo) == [0, 1, 2]
        assert memo[1] == "refreshed"

    def test_new_key_at_limit_evicts_exactly_one(self):
        memo = {}
        for key in range(3):
            memo_insert(memo, key, key, limit=3)
        memo_insert(memo, 99, 99, limit=3)
        assert list(memo) == [1, 2, 99]

    def test_concurrent_inserts_at_limit(self):
        """Threads evicting from one full memo must not race to delete
        the same oldest key (a ``KeyError`` in the loser)."""
        memo = {}
        limit, threads, inserts = 4, 8, 20_000
        errors = []
        barrier = threading.Barrier(threads)

        def hammer(index):
            barrier.wait()
            try:
                for step in range(inserts):
                    memo_insert(memo, (index, step), step, limit=limit)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(memo) == limit

    def test_docker_profile_shared_per_table(self, cache_dir):
        table = CATALOG[WORKLOAD].table
        assert runner._docker_profile_for(table) is runner._docker_profile_for(table)


#: Every envelope kind of the store.
STORE_KINDS = ("trace", "bundle", "sweep", "calibration", "eval", "fleet-eval", "result")


def _codec(store, kind):
    """``(write, read, expected)`` for one sample entry of *kind*,
    through the kind's own ``store_*``/``load_*`` codec."""
    if kind == "trace":
        from repro.workloads.generator import generate_trace

        trace = generate_trace(CATALOG[WORKLOAD], 200, seed=DEFAULT_SEED)
        return (
            lambda d: store.store_trace_context(d, trace),
            lambda d: (lambda t: None if t is None else list(t))(store.load_trace_context(d)),
            list(trace),
        )
    if kind == "calibration":
        return (
            lambda d: store.store_calibration(d, 512.5),
            store.load_calibration,
            512.5,
        )
    if kind == "result":
        result = ExperimentResult(
            experiment_id="Fig 13", title="t", columns=("a",), rows=((1,),)
        )
        return (lambda d: store.store_result(d, result), store.load_result, result)
    if kind in ("eval", "fleet-eval"):
        return (
            lambda d: store.store_stage(kind, d, {"total_cycles": 42}),
            lambda d: store.load_stage(kind, d),
            {"total_cycles": 42},
        )
    return (
        lambda d: store.store_context(kind, d, {"returns": [0, 1]}),
        lambda d: store.load_context(kind, d),
        {"returns": [0, 1]},
    )


def _rewrite(store, kind, digest, **changes):
    path = store.path(kind, digest)
    document = json.loads(path.read_text())
    document.update(changes)
    for key in [k for k, v in changes.items() if v is None]:
        del document[key]
    path.write_text(json.dumps(document))


class TestContextDocuments:
    """One test per case, each over every kind of the store."""

    def test_round_trip(self, cache_dir):
        store = result_cache.ResultCache()
        for kind in STORE_KINDS:
            write, read, expected = _codec(store, kind)
            write("abc123")
            assert read("abc123") == expected, kind
            assert store.exists(kind, "abc123"), kind

    def test_absent_is_a_miss(self, cache_dir):
        store = result_cache.ResultCache()
        for kind in STORE_KINDS:
            _, read, _ = _codec(store, kind)
            assert read("absent") is None, kind
            assert not store.exists(kind, "absent"), kind

    def test_wrong_kind_is_a_miss(self, cache_dir):
        """An envelope of one kind copied under another kind's path."""
        store = result_cache.ResultCache()
        for kind, other in zip(STORE_KINDS, STORE_KINDS[1:] + STORE_KINDS[:1]):
            write, _, _ = _codec(store, other)
            write("abc123")
            target = store.path(kind, "wrong")
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(store.path(other, "abc123"), target)
            _, read, _ = _codec(store, kind)
            assert read("wrong") is None, kind

    def test_version_mismatch_is_a_miss(self, cache_dir):
        store = result_cache.ResultCache()
        for kind in STORE_KINDS:
            write, read, _ = _codec(store, kind)
            write("abc123")
            _rewrite(store, kind, "abc123", version=result_cache.STORE_FORMAT_VERSION + 1)
            assert read("abc123") is None, kind

    def test_missing_data_key_is_a_miss(self, cache_dir):
        store = result_cache.ResultCache()
        for kind in STORE_KINDS:
            write, read, _ = _codec(store, kind)
            write("abc123")
            _rewrite(store, kind, "abc123", data=None)
            assert read("abc123") is None, kind

    def test_garbage_and_truncation_are_misses(self, cache_dir):
        store = result_cache.ResultCache()
        for kind in STORE_KINDS:
            write, read, _ = _codec(store, kind)
            write("abc123")
            path = store.path(kind, "abc123")
            path.write_text(path.read_text()[:10])
            assert read("abc123") is None, kind
            path.write_text("\x00 not json at all")
            assert read("abc123") is None, kind

    def test_trace_corruption_is_a_miss(self, cache_dir):
        """The serializer case: a valid envelope around a bad trace."""
        store = result_cache.ResultCache()
        write, read, _ = _codec(store, "trace")
        write("t1")
        records = json.loads(store.path("trace", "t1").read_text())["data"]
        for bad in (
            records[:1],  # header only
            ["garbage"] + records[1:],  # not a trace header
            records[:-1] + [[10**6, 1]],  # a run naming no table entry
            "not a record list",
        ):
            _rewrite(store, "trace", "t1", data=bad)
            assert read("t1") is None, bad

    def test_calibration_garbage_is_a_miss(self, cache_dir):
        store = result_cache.ResultCache()
        store.store_calibration("c1", 512.5)
        assert store.load_calibration("c1") == 512.5
        for bad in ("oops", True, [1.0]):
            _rewrite(store, "calibration", "c1", data=bad)
            assert store.load_calibration("c1") is None, bad

    def test_bpf_code_checksum_case(self, cache_dir):
        """Compiled filter code keeps its own kind and checksum: a torn
        or tampered entry is recompiled, never unmarshalled."""
        source = "def _s0(st, w):\n    return None\n"
        code = bpf_compile._compile_filter_source(source)
        path = bpf_compile._code_cache_path(source)
        assert path.is_file() and path.parent.parent.name == "bpf-code"
        assert path.parents[2] == cache_dir / "store"
        blob = path.read_bytes()
        path.write_bytes(blob[:32] + b"\x00" + blob[33:])  # checksum mismatch
        telemetry.reset_counters()
        assert bpf_compile._compile_filter_source(source).co_code == code.co_code
        counters = telemetry.counters_snapshot()["context_cache"]["bpf-code"]
        assert counters == {"miss": 1, "store": 1}
        assert path.read_bytes() == blob  # rewritten intact

    def test_spec_key_never_serves_a_non_catalog_spec(self):
        spec = CATALOG[WORKLOAD]
        twin = replace(spec)  # same name and fields, not the catalog object
        assert result_cache.spec_key(spec) == WORKLOAD
        assert result_cache.spec_key(twin) != WORKLOAD
        assert runner.trace_digest(spec, 100, 1) != runner.trace_digest(twin, 100, 1)


def _corrupt(path, mode):
    text = path.read_text()
    if mode == "truncated":
        path.write_text(text[: len(text) // 2])
    elif mode == "garbage":
        path.write_text("\x00\x01 definitely not JSON {")
    else:  # "partial": a structurally valid but incomplete document
        path.write_text(
            json.dumps(
                {
                    "format": "repro-store",
                    "version": result_cache.STORE_FORMAT_VERSION,
                    "kind": path.parent.name,
                }
            )
        )


class TestCorruptionFallback:
    @pytest.mark.parametrize("mode", ["truncated", "garbage", "partial"])
    def test_corrupt_entries_rebuild_identically(self, cache_dir, mode):
        """Every context artifact corrupted on disk: the next run must
        fall back to a rebuild (never crash, never serve wrong data)."""
        reference = _evaluate_all()
        paths = list((cache_dir / "store").rglob("*.json"))
        # Trace, bundle, and sweep context entries plus the calibration
        # value must all be on disk before the corruption pass.
        assert {p.parent.name for p in paths} >= {
            "trace",
            "bundle",
            "sweep",
            "calibration",
        }
        for path in paths:
            _corrupt(path, mode)
        runner.reset_context_memos()
        assert _evaluate_all() == reference


class TestCalibrationMemoKey:
    """Regression: the memo once keyed on ``id(costs)`` while the hit
    guard pinned only spec and trace, so a different cost set landing on
    a recycled id was served a stale W."""

    @pytest.fixture
    def inputs(self, cache_dir):
        # Disk tiers off: isolate the in-process memo under test.
        with storage.cache_overrides(disable=True):
            spec = CATALOG[WORKLOAD]
            trace = runner._trace_for(spec, 800, DEFAULT_SEED)
            bundle = runner._bundle_for(spec, DEFAULT_SEED)
            yield spec, trace, bundle

    def test_recycled_cost_id_recalibrates(self, inputs):
        spec, trace, bundle = inputs
        costs_a = replace(DEFAULT_SW_COSTS, cycles_per_bpf_insn_jit=5.0)
        w_a = runner.calibrate_work_cycles(spec, trace, bundle, costs_a, "binary_tree")
        recycled_id = id(costs_a)
        del costs_a
        gc.collect()
        # CPython routinely hands the freed slot to the next same-sized
        # allocation; land on it if we can (the assertion below holds
        # either way — the key is the cost *values*, never the id).
        costs_b = replace(DEFAULT_SW_COSTS, cycles_per_bpf_insn_jit=9.0)
        for _ in range(256):
            if id(costs_b) == recycled_id:
                break
            costs_b = replace(DEFAULT_SW_COSTS, cycles_per_bpf_insn_jit=9.0)
        w_b = runner.calibrate_work_cycles(spec, trace, bundle, costs_b, "binary_tree")
        assert w_b != w_a  # a pricier per-insn cost must re-solve W

    def test_equal_costs_hit_across_identities(self, inputs, monkeypatch):
        spec, trace, bundle = inputs
        probes = []
        real_run_trace = runner.run_trace

        def spy(trace_arg, regime, **kwargs):
            probes.append(regime)
            return real_run_trace(trace_arg, regime, **kwargs)

        monkeypatch.setattr(runner, "run_trace", spy)
        w_1 = runner.calibrate_work_cycles(
            spec, trace, bundle, replace(DEFAULT_SW_COSTS), "binary_tree"
        )
        w_2 = runner.calibrate_work_cycles(
            spec, trace, bundle, replace(DEFAULT_SW_COSTS), "binary_tree"
        )
        assert w_1 == w_2
        assert len(probes) == 1  # second distinct-identity object: memo hit


class TestEvalMemoEnvFlip:
    def test_flip_mid_process_does_not_serve_stale(self, cache_dir):
        """Turning the store off mid-process (a context-local override)
        must re-run the evaluation (fresh object) on the exact kernels,
        byte-identical to the replayed one."""
        ctx = runner.get_context(WORKLOAD, events=EVENTS)
        replayed = ctx.evaluate(REGIME_COMPLETE)
        assert seccomp_replay.replays_served > 0
        served = seccomp_replay.replays_served
        with storage.cache_overrides(disable=True):
            overridden = ctx.evaluate(REGIME_COMPLETE)
        assert overridden is not replayed  # memo keyed on the override
        assert overridden == replayed
        assert seccomp_replay.replays_served == served  # ran exactly
        assert ctx.evaluate(REGIME_COMPLETE) is replayed


class TestReplayDifferential:
    @pytest.mark.parametrize("workload", ["nginx", "pipe-ipc"])
    def test_replay_matches_exact_kernels(self, cache_dir, workload):
        """The acceptance bar: results byte-identical with the context
        cache on (replay path) and off (exact kernels) for every
        regime."""
        with_cache = _evaluate_all(workload)
        assert seccomp_replay.replays_served > 0
        runner.reset_context_memos()
        with storage.cache_overrides(disable=True):
            without_cache = _evaluate_all(workload)
        assert seccomp_replay.replays_served == 0
        assert with_cache == without_cache


class TestDiskRoundTrip:
    def test_second_process_loads_instead_of_building(self, cache_dir):
        first = _evaluate_all()
        # 3 sweeps (docker / noargs / complete) serve 5 replays: four
        # figure bars plus the calibration probe.
        assert seccomp_replay.sweeps_built == 3
        assert seccomp_replay.sweeps_loaded == 0
        assert seccomp_replay.replays_served == 5

        runner.reset_context_memos()  # "new process": only disk survives
        telemetry.reset_counters()
        second = _evaluate_all()
        assert second == first
        assert seccomp_replay.sweeps_built == 0
        assert seccomp_replay.sweeps_loaded == 3
        counters = telemetry.counters_snapshot()["context_cache"]
        for kind in ("trace", "bundle", "sweep", "calibration"):
            assert counters[kind]["hit"] > 0, kind
            assert "store" not in counters[kind], kind

    def test_summary_renders_context_cache_line(self, cache_dir):
        _evaluate_all()
        record = telemetry.ExperimentRecord(
            experiment_id="fig2", simulation=telemetry.counters_snapshot()
        )
        report = telemetry.RunReport(records=[record])
        assert report.context_cache()["sweep"]["store"] == 3
        summary = report.format_summary()
        assert "context artifacts:" in summary
        assert "sweep 0/3" in summary


class TestBundlePayload:
    def test_round_trip_through_json(self, cache_dir):
        spec = CATALOG[WORKLOAD]
        bundle = runner._bundle_for(spec, DEFAULT_SEED)
        payload = json.loads(json.dumps(bundle_to_payload(bundle)))
        rebuilt = bundle_from_payload(payload, spec.name)
        assert rebuilt is not None
        assert rebuilt.noargs.name == bundle.noargs.name
        assert rebuilt.complete.name == bundle.complete.name
        assert rebuilt.noargs.rules == bundle.noargs.rules
        assert rebuilt.complete.rules == bundle.complete.rules

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {"noargs": 1, "complete": []},
            {"noargs": [0], "complete": [["x", []]]},
            {"noargs": [10**9], "complete": []},  # unknown sid
        ],
    )
    def test_malformed_payload_is_a_miss(self, payload):
        assert bundle_from_payload(payload, "w") is None


class TestFig2SharedReplay:
    def test_no_exact_seccomp_evaluations(self, cache_dir, monkeypatch):
        """fig2's Seccomp bars all replay shared sweeps: zero full-trace
        exact Seccomp runs (was 4 per workload + 1 calibration probe),
        well under the <=20-evaluation budget for the full catalog."""
        seccomp_runs = []
        real_run_trace = runner.run_trace

        def spy(trace, regime, **kwargs):
            if isinstance(regime, SeccompRegime):
                seccomp_runs.append(regime.name)
            return real_run_trace(trace, regime, **kwargs)

        monkeypatch.setattr(runner, "run_trace", spy)
        workloads = ("nginx", "pipe-ipc")
        with_cache = fig2_seccomp_overhead.run(events=EVENTS, workloads=workloads)
        assert seccomp_runs == []
        assert seccomp_replay.sweeps_built == 3 * len(workloads)
        assert seccomp_replay.replays_served == 5 * len(workloads)

        runner.reset_context_memos()
        with storage.cache_overrides(disable=True):
            without_cache = fig2_seccomp_overhead.run(events=EVENTS, workloads=workloads)
        # repr-compare: the paper-target columns carry NaN placeholders,
        # which never compare equal to themselves.
        assert repr(with_cache.rows) == repr(without_cache.rows)
