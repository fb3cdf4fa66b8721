"""Warm experiment service: a long-running daemon serving suite requests.

``python -m repro.experiments.service`` keeps one process alive with
everything the engine needs already hot — the persistent worker pool
(:mod:`repro.experiments.pool`) and a request memo — and serves suite /
experiment requests over a unix socket, one JSON object per line.
Draco's serving story applied to the engine itself: validate (compute)
once, then serve repeats at cache speed.

Two layers keep repeat traffic off the pool entirely, and the
artifact store (:mod:`repro.experiments.cache`) serves every unchanged
stage of the requests that do reach the stage graph:

1. **request memo** — every run request is content-addressed
   (parameters + source fingerprint + behavioural env knobs); an
   identical request replays the memoized response without touching
   the engine, and a hit makes its entry the most recently used, so
   one-off requests evict cold entries before hot repeats.  Because
   the digest pins the code and knobs, the replayed bytes are exactly
   what a fresh ``--refresh`` recompute would produce (asserted by
   ``TestSingleFlight.test_memo_replay_equals_fresh_refresh`` in
   ``tests/test_service.py``);
2. **single-flight coalescing** — identical requests arriving while
   the first is still computing wait for that flight and share its
   response instead of duplicating work.

**Watch mode** (``--watch params.json``) polls a request file by
content hash and re-runs it when it changes; the stage graph's
content-addressing means only the dirty stage subgraph recomputes.  A
source-tree change detected during watch invalidates the request memo
and the warm pool; semantic reload of already-imported modules requires
a restart, which the ``code_drift`` counter makes visible.

Protocol: newline-delimited JSON requests with an ``op`` field —
``run`` / ``ping`` / ``stats`` / ``report`` / ``invalidate`` /
``shutdown`` — each answered by one JSON line.  See
:class:`ServiceClient` for the client side and
``docs/EXPERIMENT_GUIDE.md`` for the full request schema.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import socketserver
import threading
import time
import traceback
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.common import knobs, telemetry
from repro.common import stats as common_stats
from repro.common.storage import cache_overrides
from repro.experiments import cache as result_cache
from repro.experiments import engine
from repro.experiments import pool as warm_pool

#: Default capacity of the request memo (distinct request digests).
DEFAULT_MEMO_LIMIT = 64

#: Latency samples kept for percentile reporting.
_MAX_LATENCY_SAMPLES = 4096


class _Flight:
    """One in-progress computation identical requests can latch onto."""

    __slots__ = ("event", "payload", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None


class ExperimentService:
    """The in-process serving core, independent of any socket.

    Tests and benchmarks drive this directly; the daemon below is a
    thin socket wrapper around :meth:`handle`.
    """

    def __init__(
        self,
        *,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        memo_limit: int = DEFAULT_MEMO_LIMIT,
    ) -> None:
        self.jobs = max(1, int(jobs if jobs is not None else min(4, os.cpu_count() or 1)))
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.memo_limit = max(0, int(memo_limit))
        self._lock = threading.Lock()
        #: Request memo, least recently used first.
        self._memo: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._flights: Dict[str, _Flight] = {}
        self._latencies_ms: List[float] = []
        self._counts = {"requests": 0, "errors": 0}
        self._served = {"computed": 0, "memo": 0, "coalesced": 0}
        self._watch = {"checks": 0, "runs": 0, "code_drift": 0}
        self._watch_enabled = False
        self._last_report: Optional[telemetry.RunReport] = None

    # -- request identity ----------------------------------------------

    def request_digest(self, params: Dict[str, Any]) -> str:
        """Content address of a run request's *answer*.

        Folds the normalized request parameters, the source-tree
        fingerprint, and the compute and storage switches the worker
        pool is keyed on — the same invariants that make disk cache
        entries servable make a memoized response servable.
        """
        return result_cache.params_digest(
            {
                "service_request": params,
                "code": result_cache.code_fingerprint(),
                "env": dict(knobs.settings(knobs.COMPUTE, knobs.STORAGE)),
            }
        )

    @staticmethod
    def _normalize_run(request: Dict[str, Any]) -> Dict[str, Any]:
        experiments = request.get("experiments")
        return {
            "experiments": list(experiments) if experiments else None,
            "events": request.get("events"),
            "seed": request.get("seed"),
            "cache_mode": request.get("cache_mode", engine.CACHE_ON),
            "run_overrides": request.get("run_overrides"),
            "jobs": request.get("jobs"),
        }

    # -- ops ------------------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one request; never raises (errors become a payload)."""
        started = time.perf_counter()
        op = request.get("op", "run")
        try:
            if op == "ping":
                response: Dict[str, Any] = {"ok": True, "op": "pong"}
            elif op == "run":
                response = self._handle_run(request)
            elif op == "stats":
                response = {"ok": True, "service": self.service_block()}
            elif op == "report":
                response = {"ok": True, "path": self.write_report()}
            elif op == "invalidate":
                self.invalidate()
                response = {"ok": True}
            elif op == "shutdown":
                response = {"ok": True}
            else:
                response = {"ok": False, "error": f"unknown op {op!r}"}
        except Exception:
            response = {"ok": False, "error": traceback.format_exc()}
        wall_ms = (time.perf_counter() - started) * 1000.0
        response["wall_ms"] = round(wall_ms, 3)
        with self._lock:
            self._counts["requests"] += 1
            if not response.get("ok", False):
                self._counts["errors"] += 1
            if op == "run":
                self._latencies_ms.append(wall_ms)
                del self._latencies_ms[:-_MAX_LATENCY_SAMPLES]
                served = response.get("served")
                if served in self._served:
                    self._served[served] += 1
        return response

    def _handle_run(self, request: Dict[str, Any]) -> Dict[str, Any]:
        params = self._normalize_run(request)
        digest = self.request_digest(params)
        use_memo = self.memo_limit > 0 and not request.get("no_memo", False)

        if use_memo:
            with self._lock:
                memoized = self._memo.get(digest)
                if memoized is not None:
                    self._memo.move_to_end(digest)
            if memoized is not None:
                return dict(memoized, served="memo")

        # Single flight: the first identical request computes, the rest
        # wait on it and share the payload.
        with self._lock:
            flight = self._flights.get(digest)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[digest] = flight
        assert flight is not None
        if not leader:
            flight.event.wait()
            if flight.error is not None:
                return {"ok": False, "error": flight.error, "served": "coalesced"}
            assert flight.payload is not None
            return dict(flight.payload, served="coalesced")

        try:
            payload = self._compute(params, digest)
        except Exception:
            flight.error = traceback.format_exc()
            raise
        else:
            flight.payload = payload
            if use_memo:
                self._memo_store(digest, payload)
            return dict(payload, served="computed")
        finally:
            with self._lock:
                self._flights.pop(digest, None)
            flight.event.set()

    def _compute(self, params: Dict[str, Any], digest: str) -> Dict[str, Any]:
        jobs = params["jobs"] or self.jobs
        run = engine.run_suite(
            params["experiments"],
            events=params["events"],
            seed=params["seed"],
            jobs=int(jobs),
            cache_mode=params["cache_mode"],
            cache_dir=self.cache_dir,
            run_overrides=params["run_overrides"],
        )
        with self._lock:
            self._last_report = run.report
        return {
            "ok": not run.failures,
            "request_digest": digest,
            "markdown": {
                outcome.experiment_id: outcome.result.to_markdown()
                for outcome in run.outcomes
                if outcome.result is not None
            },
            "records": [record.to_json_dict() for record in run.report.records],
            "stage_counters": run.report.stage_counters(),
        }

    def _memo_store(self, digest: str, payload: Dict[str, Any]) -> None:
        with self._lock:
            self._memo[digest] = payload
            self._memo.move_to_end(digest)
            while len(self._memo) > self.memo_limit:
                self._memo.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every in-process serving layer (request memo, worker
        pool).  The disk cache is untouched."""
        with self._lock:
            self._memo.clear()
        warm_pool.shutdown(wait=False)

    # -- watch mode ------------------------------------------------------

    def watch_tick(self, path: Path, previous_digest: Optional[str]) -> Optional[str]:
        """One watch-mode poll: re-run the request file if it changed.

        Returns the request file's content digest (``None`` when the
        file is unreadable).  Also checks the source tree: when the
        code fingerprint drifts, the request memo and pool are
        invalidated — already-imported modules cannot be semantically
        reloaded, so a restart is required for the new code to *run*,
        which the ``code_drift`` counter surfaces.
        """
        self._watch_enabled = True
        with self._lock:
            self._watch["checks"] += 1
        fingerprint_before = result_cache.code_fingerprint()
        result_cache._fingerprint_of_tree.cache_clear()
        if result_cache.code_fingerprint() != fingerprint_before:
            with self._lock:
                self._watch["code_drift"] += 1
            self.invalidate()
        try:
            text = Path(path).read_text()
            request = json.loads(text)
        except (OSError, ValueError):
            return previous_digest
        digest = result_cache.params_digest({"watch_file": text})
        if digest == previous_digest:
            return digest
        with self._lock:
            self._watch["runs"] += 1
        request = dict(request)
        request["op"] = "run"
        self.handle(request)
        return digest

    def watch_loop(self, path: Path, interval_s: float, stop: threading.Event) -> None:
        digest: Optional[str] = None
        while not stop.is_set():
            digest = self.watch_tick(path, digest)
            stop.wait(interval_s)

    # -- telemetry -------------------------------------------------------

    def service_block(self) -> Dict[str, Any]:
        """The ``service`` block for :class:`telemetry.RunReport`."""
        with self._lock:
            latencies = list(self._latencies_ms)
            block: Dict[str, Any] = {
                "requests": self._counts["requests"],
                "errors": self._counts["errors"],
                "served": dict(self._served),
                "jobs": self.jobs,
                "memo_entries": len(self._memo),
                "memo_limit": self.memo_limit,
            }
            if self._watch_enabled:
                block["watch"] = dict(self._watch)
        if latencies:
            block["latency_ms"] = {
                "count": len(latencies),
                "mean": round(sum(latencies) / len(latencies), 3),
                "p50": round(common_stats.percentile(latencies, 50), 3),
                "p95": round(common_stats.percentile(latencies, 95), 3),
                "p99": round(common_stats.percentile(latencies, 99), 3),
                "max": round(max(latencies), 3),
            }
        block["pool"] = warm_pool.stats()
        return block

    def write_report(self, path: Optional[str] = None) -> str:
        """Write the latest suite's RunReport with the service block
        attached; defaults to ``<cache>/runs/service-latest.json``."""
        with self._lock:
            report = self._last_report or telemetry.RunReport(
                jobs=self.jobs,
                code_fingerprint=result_cache.code_fingerprint(),
                started_at=time.time(),
                finished_at=time.time(),
            )
        report.service = self.service_block()
        if report.cache_dir:
            runs_dir = Path(report.cache_dir) / "runs"
        else:
            with cache_overrides(cache_dir=self.cache_dir):
                runs_dir = result_cache.cache_root() / "runs"
        target = Path(path) if path is not None else runs_dir / "service-latest.json"
        report.write(target)
        return str(target)


# -- socket daemon ------------------------------------------------------


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # one connection, many line-requests
        service: ExperimentService = self.server.service  # type: ignore[attr-defined]
        for raw in self.rfile:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            request: Any = None
            try:
                request = json.loads(line)
            except ValueError:
                response: Dict[str, Any] = {"ok": False, "error": "invalid JSON"}
            else:
                response = service.handle(request)
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()
            if isinstance(request, dict) and request.get("op") == "shutdown":
                threading.Thread(
                    target=self.server.shutdown,  # type: ignore[attr-defined]
                    daemon=True,
                ).start()
                return


class _Server(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True


def serve(
    socket_path: str,
    service: ExperimentService,
    *,
    watch: Optional[str] = None,
    watch_interval: float = 1.0,
    ready: Optional[threading.Event] = None,
) -> None:
    """Run the daemon until a ``shutdown`` request (blocking)."""
    path = Path(socket_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()
    server = _Server(str(path), _Handler)
    server.service = service  # type: ignore[attr-defined]
    stop = threading.Event()
    watcher = None
    if watch is not None:
        watcher = threading.Thread(
            target=service.watch_loop,
            args=(Path(watch), watch_interval, stop),
            daemon=True,
        )
        watcher.start()
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        stop.set()
        if watcher is not None:
            watcher.join(timeout=5.0)
        server.server_close()
        if path.exists():
            path.unlink()
        service.write_report()
        warm_pool.shutdown(wait=False)


class ServiceClient:
    """Thin blocking client: one JSON line out, one JSON line back.

    Each call opens a fresh connection, so one client instance is safe
    to share across threads.
    """

    def __init__(self, socket_path: str, timeout_s: float = 600.0) -> None:
        self.socket_path = str(socket_path)
        self.timeout_s = timeout_s

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(self.timeout_s)
            sock.connect(self.socket_path)
            sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            chunks = []
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
        return json.loads(b"".join(chunks).decode("utf-8"))

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def run(self, experiments: Optional[List[str]] = None, **kwargs: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"op": "run", "experiments": experiments}
        payload.update(kwargs)
        return self.request(payload)

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        return self.request({"op": "shutdown"})

    def wait_ready(self, timeout_s: float = 60.0, interval_s: float = 0.05) -> None:
        """Poll until the daemon answers a ping (for CI/scripts that
        just started the process)."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                if self.ping().get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise TimeoutError(f"service at {self.socket_path} not ready")
            time.sleep(interval_s)


def default_socket_path(cache_dir: Optional[str] = None) -> str:
    with cache_overrides(cache_dir=cache_dir):
        return str(result_cache.cache_root() / "service.sock")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.service",
        description="Long-running warm experiment service (unix socket, JSON lines).",
    )
    parser.add_argument("--socket", help="socket path (default: <cache>/service.sock)")
    parser.add_argument("--jobs", type=int, default=None, help="worker pool size")
    parser.add_argument("--cache-dir", help="cache root served by this daemon")
    parser.add_argument(
        "--memo",
        type=int,
        default=DEFAULT_MEMO_LIMIT,
        help="request-memo capacity in distinct requests (0 disables)",
    )
    parser.add_argument("--watch", help="request file to poll and re-run on change")
    parser.add_argument(
        "--watch-interval", type=float, default=1.0, help="watch poll interval (s)"
    )
    args = parser.parse_args(argv)

    service = ExperimentService(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        memo_limit=args.memo,
    )
    with cache_overrides(cache_dir=args.cache_dir):
        spent = warm_pool.get_pool(service.jobs).prestart()
    print(f"warm pool: {service.jobs} workers prestarted in {spent:.2f}s", flush=True)
    socket_path = args.socket or default_socket_path(args.cache_dir)
    print(f"listening on {socket_path}", flush=True)
    serve(
        socket_path,
        service,
        watch=args.watch,
        watch_interval=args.watch_interval,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
