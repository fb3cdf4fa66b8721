"""Warm pool + experiment service: differential identity, pool
lifecycle, explicit cache threading, single-flight coalescing and watch
invalidation.

The contract under test (docs/PERFORMANCE.md, docs/EXPERIMENT_GUIDE.md):
one preloaded worker pool stays alive across suites with markdown
output byte-identical to a serial run; ``run_suite`` never mutates
``os.environ`` and a fully-cached parallel run never pays pool
dispatch; the service coalesces identical concurrent requests into one
computation, replays identical later requests from its memo (each
replay equal to a fresh ``--refresh`` recompute) and recomputes exactly
the dirty stage subgraph under watch.
"""

import json
import os
import threading

import pytest

from repro.common import telemetry
from repro.experiments import cache as result_cache
from repro.experiments import engine, runner
from repro.experiments import pool as warm_pool
from repro.experiments.service import ExperimentService

EVENTS = 1200
WORKLOADS = ("nginx", "pipe-ipc")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Fresh on-disk cache and clean in-process memos per test."""
    root = tmp_path / "cache"
    monkeypatch.setenv(result_cache.CACHE_DIR_ENV, str(root))
    runner.reset_context_memos()
    telemetry.reset_counters()
    yield root
    runner.reset_context_memos()


@pytest.fixture(autouse=True)
def _clean_serving_state():
    """Tear down the cross-suite serving layers between tests."""
    yield
    warm_pool.shutdown(wait=False)


def _markdowns(run):
    return {
        o.experiment_id: o.result.to_markdown()
        for o in run.outcomes
        if o.result is not None
    }


class TestWarmPoolDifferential:
    def test_full_registry_markdown_identical(self, cache_dir):
        """The acceptance bar: every registry artifact byte-identical
        on the warm pool and in one serial process."""
        serial = engine.run_suite(events=EVENTS, cache_mode=engine.CACHE_OFF, jobs=1)
        assert not serial.failures
        runner.reset_context_memos()
        warm = engine.run_suite(events=EVENTS, cache_mode=engine.CACHE_OFF, jobs=4)
        assert not warm.failures
        assert _markdowns(serial) == _markdowns(warm)


class TestWarmPool:
    def test_pool_persists_across_suites(self, cache_dir):
        overrides = {"fig13": {"workloads": WORKLOADS, "events": EVENTS}}
        before = warm_pool.stats()["created"]
        # CACHE_OFF so both suites schedule the full DAG over the pool
        # (warm hits would shrink the second to a serial analysis pass).
        engine.run_suite(["fig13"], jobs=2, cache_mode=engine.CACHE_OFF,
                         run_overrides=overrides)
        engine.run_suite(["fig13"], jobs=2, cache_mode=engine.CACHE_OFF,
                         run_overrides=overrides)
        stats = warm_pool.stats()
        assert stats["created"] == before + 1
        assert stats["active"]
        assert stats["suites_served"] == 2

    def test_env_knob_flip_recycles_pool(self, cache_dir, monkeypatch):
        overrides = {"fig13": {"workloads": WORKLOADS, "events": EVENTS}}
        engine.run_suite(["fig13"], jobs=2, cache_mode=engine.CACHE_OFF,
                         run_overrides=overrides)
        first_key = warm_pool.pool_key(2)
        monkeypatch.setenv("REPRO_ANALYTIC", "0")
        assert warm_pool.pool_key(2) != first_key
        recycled_before = warm_pool.stats()["recycled"]
        engine.run_suite(["fig13"], jobs=2, cache_mode=engine.CACHE_OFF,
                         run_overrides=overrides)
        stats = warm_pool.stats()
        assert stats["recycled"] == recycled_before + 1
        assert stats["active"]

    def test_jobs_change_recycles(self, cache_dir):
        assert warm_pool.pool_key(2) != warm_pool.pool_key(4)


class TestCacheThreading:
    """Satellite: run_suite must not mutate os.environ, and must probe
    all tasks before paying pool dispatch."""

    def test_run_suite_leaves_environ_alone(self, cache_dir, tmp_path):
        other = tmp_path / "other-cache"
        run = engine.run_suite(
            ["fig13"], jobs=1, cache_mode=engine.CACHE_ON,
            cache_dir=str(other),
            run_overrides={"fig13": {"workloads": WORKLOADS, "events": EVENTS}},
        )
        assert not run.failures
        # The env still points at the fixture cache; the explicit
        # cache_dir won and was never written back to the environment.
        assert os.environ[result_cache.CACHE_DIR_ENV] == str(cache_dir)
        assert run.report.cache_dir == str(other)
        assert (other / "store" / "result").exists()
        assert not cache_dir.exists()

    def test_cache_off_does_not_set_disable_env(self, cache_dir):
        environ = dict(os.environ)
        run = engine.run_suite(
            ["fig13"], jobs=1, cache_mode=engine.CACHE_OFF,
            run_overrides={"fig13": {"workloads": WORKLOADS, "events": EVENTS}},
        )
        assert not run.failures
        assert dict(os.environ) == environ
        assert not cache_dir.exists()

    def test_fully_cached_parallel_run_skips_the_pool(self, cache_dir, monkeypatch):
        overrides = {
            eid: {"workloads": WORKLOADS, "events": EVENTS}
            for eid in ("fig12", "fig13")
        }
        cold = engine.run_suite(
            ["fig12", "fig13"], jobs=1, cache_mode=engine.CACHE_ON,
            run_overrides=overrides,
        )
        assert not cold.failures

        def _no_pool(jobs):
            raise AssertionError("fully-cached suite must not start a pool")

        monkeypatch.setattr(warm_pool, "suite_executor", _no_pool)
        warm = engine.run_suite(
            ["fig12", "fig13"], jobs=4, cache_mode=engine.CACHE_ON,
            run_overrides=overrides,
        )
        assert not warm.failures
        assert all(r.cache == telemetry.CACHE_HIT for r in warm.report.records)
        assert _markdowns(cold) == _markdowns(warm)


class TestSingleFlight:
    def test_concurrent_identical_requests_compute_once(self, cache_dir):
        svc = ExperimentService(jobs=2, cache_dir=str(cache_dir), memo_limit=8)
        request = {
            "op": "run",
            "experiments": ["fig13"],
            "events": EVENTS,
            "run_overrides": {"fig13": {"workloads": list(WORKLOADS)}},
        }
        responses = [None, None]
        barrier = threading.Barrier(2)

        def issue(slot):
            barrier.wait()
            responses[slot] = svc.handle(dict(request))

        threads = [threading.Thread(target=issue, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert all(r["ok"] for r in responses)
        served = sorted(r["served"] for r in responses)
        assert served == ["coalesced", "computed"]
        # One flight, one set of stage executions, shared verbatim.
        assert responses[0]["markdown"] == responses[1]["markdown"]
        assert responses[0]["stage_counters"] == responses[1]["stage_counters"]
        assert responses[0]["stage_counters"]["executed"] > 0
        block = svc.service_block()
        assert block["served"] == {"computed": 1, "memo": 0, "coalesced": 1}

        # A later identical request replays from the memo.
        replay = svc.handle(dict(request))
        assert replay["served"] == "memo"
        assert replay["markdown"] == responses[0]["markdown"]

    def test_memo_distinguishes_parameters(self, cache_dir):
        svc = ExperimentService(jobs=1, cache_dir=str(cache_dir), memo_limit=8)
        base = {
            "op": "run",
            "experiments": ["fig13"],
            "events": EVENTS,
            "run_overrides": {"fig13": {"workloads": list(WORKLOADS)}},
        }
        first = svc.handle(dict(base))
        assert first["served"] == "computed"
        other = dict(base, seed=99)
        second = svc.handle(other)
        assert second["served"] == "computed"
        assert svc.handle(dict(base))["served"] == "memo"
        assert svc.handle(dict(other))["served"] == "memo"

    def test_memo_replay_equals_fresh_refresh(self, cache_dir):
        """A memo-replayed reply is refresh-equivalent: its markdown is
        what a fresh ``--refresh`` run of the same request computes."""
        svc = ExperimentService(jobs=1, cache_dir=str(cache_dir), memo_limit=8)
        ids = ["table2", "fig13"]
        overrides = {"fig13": {"workloads": list(WORKLOADS)}}
        request = {"op": "run", "experiments": ids, "events": EVENTS,
                   "cache_mode": "refresh", "run_overrides": overrides}
        assert svc.handle(dict(request))["served"] == "computed"
        replay = svc.handle(dict(request))
        assert replay["ok"] and replay["served"] == "memo"
        runner.reset_context_memos()
        fresh = engine.run_suite(ids, events=EVENTS, cache_mode=engine.CACHE_REFRESH,
                                 cache_dir=str(cache_dir), run_overrides=overrides)
        assert not fresh.failures
        assert replay["markdown"] == _markdowns(fresh)

    def test_memo_evicts_least_recently_used(self, cache_dir):
        """A hit refreshes its entry: with room for two, A B A C keeps
        A (just used) and evicts B."""
        svc = ExperimentService(jobs=1, cache_dir=str(cache_dir), memo_limit=2)

        def request(events):
            return {"op": "run", "experiments": ["table2"], "events": events}

        assert svc.handle(request(1))["served"] == "computed"  # A
        assert svc.handle(request(2))["served"] == "computed"  # B
        assert svc.handle(request(1))["served"] == "memo"  # A again
        assert svc.handle(request(3))["served"] == "computed"  # C evicts B
        assert svc.handle(request(1))["served"] == "memo"
        assert svc.handle(request(2))["served"] == "computed"


class TestWatch:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))

    def test_watch_recomputes_exactly_the_dirty_subgraph(self, cache_dir, tmp_path):
        svc = ExperimentService(jobs=1, cache_dir=str(cache_dir), memo_limit=8)
        watch_file = tmp_path / "request.json"
        self._write(
            watch_file,
            {
                "experiments": ["fig13"],
                "events": EVENTS,
                "run_overrides": {"fig13": {"workloads": list(WORKLOADS)}},
            },
        )
        digest = svc.watch_tick(watch_file, None)
        assert digest is not None
        assert svc._watch["runs"] == 1

        # Unchanged file: polled, not re-run.
        assert svc.watch_tick(watch_file, digest) == digest
        assert svc._watch["runs"] == 1

        # Perturb the request to a subset of the workloads: every
        # trace / calibration / eval stage is already on disk, so only
        # the new terminal analysis stage may execute.
        self._write(
            watch_file,
            {
                "experiments": ["fig13"],
                "events": EVENTS,
                "run_overrides": {"fig13": {"workloads": [WORKLOADS[0]]}},
            },
        )
        new_digest = svc.watch_tick(watch_file, digest)
        assert new_digest != digest
        assert svc._watch["runs"] == 2
        record = svc._last_report.records[0]
        counters = record.simulation["stages"]["counters"]
        assert counters["executed"] == 1
        assert counters["failed"] == 0
        executed = [
            row for row in record.simulation["stages"]["detail"]
            if row["status"] == "exec"
        ]
        assert [row["kind"] for row in executed] == ["analysis"]
        # The untouched per-workload stages were served, not re-run.
        assert counters["hit"] > 0
        block = svc.service_block()
        assert block["watch"]["checks"] == 3
        assert block["watch"]["runs"] == 2

    def test_watch_survives_unreadable_file(self, cache_dir, tmp_path):
        svc = ExperimentService(jobs=1, cache_dir=str(cache_dir))
        missing = tmp_path / "nope.json"
        assert svc.watch_tick(missing, None) is None
        assert svc._watch["runs"] == 0


class TestServiceTelemetry:
    def test_report_round_trips_service_block(self, cache_dir):
        svc = ExperimentService(jobs=1, cache_dir=str(cache_dir), memo_limit=8)
        svc.handle({
            "op": "run",
            "experiments": ["fig13"],
            "events": EVENTS,
            "run_overrides": {"fig13": {"workloads": list(WORKLOADS)}},
        })
        path = svc.write_report()
        report = telemetry.RunReport.read(path)
        assert report.service["requests"] == 1
        assert report.service["latency_ms"]["count"] == 1
        assert report.service["latency_ms"]["p50"] > 0
        rendered = report.format_service()
        assert "requests: 1" in rendered
        assert "p95" in rendered
        assert "warm pool" in rendered

    def test_plain_reports_have_no_service_block(self, cache_dir):
        run = engine.run_suite(
            ["fig13"], jobs=1, cache_mode=engine.CACHE_OFF,
            run_overrides={"fig13": {"workloads": WORKLOADS, "events": EVENTS}},
        )
        payload = run.report.to_json_dict()
        assert "service" not in payload
        assert "no service telemetry" in run.report.format_service()
