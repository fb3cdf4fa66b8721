#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Draco reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``BENCHMARK.json``):

* ``cold-suite`` -- the full registry through the CLI, serial, on an empty
  cache directory;
* ``edit-loop`` -- on a cache one cold run filled, rounds of edits: a
  stage-scoped ``--refresh``, then for each experiment of
  ``inputs.EDIT_POOL`` a warm CLI hit and a one-parameter incremental
  re-run through ``engine.run_suite``;
* ``served-mix`` -- after an untimed warm-up, a closed loop of two
  clients against the unix-socket daemon: memo-served repeats, fresh
  computed requests, and pairs of overlapping requests sent at the same
  moment.

``--seconds`` sets how much work a run does (see ``COLD_RUN_S`` and its
neighbours); the work is not cut off by a timer.  Every workload reports
the same end-to-end metrics, over its own timed operations: a cold run,
an edit round, or a served request.  Each workload's own metrics
(``cold_suite_s``, ``warm_hit_s``, ``served_hit_p50_ms``, ``error_rate``,
...) are printed by name in the record line before the result and
written, with the machine fingerprint, output digests and legacy history,
to ``.perfbench_work/records/``.  The last line of standard output is the
result: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  A traced run wraps the layer entry points in child
processes (``child.py``) and also runs the same operations untraced to
measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import layers  # noqa: E402
from child import digest  # noqa: E402
from tracer import wrapper_cost_ns  # noqa: E402

WORK = ROOT / ".perfbench_work"

#: Work per run is fixed by ``--seconds`` instead of being timed, so two
#: commits do the same work and memory and counts do not follow the
#: machine's speed.  Each constant is about how long one unit takes on a
#: 2-vCPU x86 host: a cold full-registry run, an edit round over the pool,
#: and one block of a served client's schedule.
COLD_RUN_S = 15.0
EDIT_ROUND_S = 25.0
SERVED_BLOCK_S = 2.0
CHILD = str(BENCH / "child.py")
#: Time limit of any one child process (s).
CHILD_TIMEOUT = 150.0


# -- statistics -----------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Dict[str, Any]:
    """The highest percentile with at least ten samples beyond it.  With
    fewer than eleven samples there is none; the maximum stands in and the
    percentile reads 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": 0.0, "percentile": 0.0, "samples": 0}
    if n < 11:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n}
    index = n - 11  # exactly ten samples lie above ordered[index]
    return {"value": ordered[index], "percentile": 100.0 * (index + 1) / n, "samples": n}


def fingerprint() -> Dict[str, Any]:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class RssSampler:
    """Peak of the summed resident set of this process and all its live
    descendants, read from ``/proc`` every ``interval_s`` by a thread."""

    def __init__(self, interval_s: float = 0.2) -> None:
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def sample(self) -> None:
        total_kb = 0
        stack = [os.getpid()]
        while stack:
            pid = stack.pop()
            try:
                status = Path(f"/proc/{pid}/status").read_text()
                for task in Path(f"/proc/{pid}/task").iterdir():
                    stack.extend(int(c) for c in (task / "children").read_text().split())
            except OSError:
                continue  # the process ended between the two reads
            match = re.search(r"^VmRSS:\s+(\d+) kB", status, flags=re.MULTILINE)
            if match:
                total_kb += int(match.group(1))
        self.peak_kb = max(self.peak_kb, total_kb)

    def stop(self) -> float:
        """Stop sampling; returns the peak in MB."""
        if not self._stop.is_set():
            self._stop.set()
            self._thread.join()
        return self.peak_kb / 1024.0


def split_markdown(text: str, ids: Sequence[str]) -> Dict[str, str]:
    """Per-experiment sections of the CLI's ``--markdown`` file, which is a
    header line followed by each result's markdown in ``ids`` order."""
    starts = [m.start() for m in re.finditer(r"^### ", text, flags=re.MULTILINE)]
    if len(starts) != len(ids):
        return {}
    bounds = starts + [len(text)]
    return {
        experiment_id: text[bounds[i]:bounds[i + 1]].rstrip("\n")
        for i, experiment_id in enumerate(ids)
    }


# -- the harness ------------------------------------------------------------


class Bench:
    """One benchmark run: its work directory, child processes and tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.record: Dict[str, Any] = {}
        self.per_layer: Dict[str, float] = {}
        self.spans: List[Dict[str, Any]] = []
        self._counter = 0
        self._counter_lock = threading.Lock()
        self.daemons: List[subprocess.Popen] = []
        self.rss = RssSampler()
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        # Anything the program writes without an explicit cache directory
        # stays inside the checkout.
        self.env["REPRO_CACHE_DIR"] = str(self.work / "default-cache")

    def path(self, stem: str) -> Path:
        with self._counter_lock:
            self._counter += 1
            return self.work / f"{self._counter:04d}-{stem}"

    def units(self, unit_s: float) -> int:
        """Units of work of about ``unit_s`` each that fill ``--seconds``."""
        return max(1, round(self.seconds / unit_s))

    def count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def child(self, argv: List[str], spans: bool = False) -> Tuple[float, int, Optional[dict]]:
        """Run one child; returns (wall s, exit code, span table or None)."""
        span_file = self.path("spans.json") if spans else None
        if argv[:2] == ["-m", "repro.experiments"] and spans:
            argv = [CHILD, "--spans", str(span_file), "cli"] + argv[2:]
        elif spans:
            argv = [CHILD, "--spans", str(span_file)] + argv[1:]
        log = self.path("log.txt")
        started = time.perf_counter()
        with open(log, "wb") as out:
            proc, _ = self.run([sys.executable] + argv, stdout=out, stderr=subprocess.STDOUT)
        wall = time.perf_counter() - started
        table = None
        if span_file is not None and span_file.exists():
            data = json.loads(span_file.read_text())
            table = data["summary"]
            self.spans.append({"wall_s": wall, "audit": data["audit"], "summary": table,
                               "count": data["count"], "report_s": data["report_s"]})
        return wall, proc.returncode, table

    def cli(self, cache: Path, ids: Sequence[str], extra: Sequence[str] = (),
            spans: bool = False) -> Dict[str, Any]:
        """One ``python -m repro.experiments`` run; returns its wall, exit
        code, markdown, per-experiment CSV digests and report."""
        markdown = self.path("suite.md")
        csv_dir = self.path("csv")
        report = self.path("report.json")
        wall, code, table = self.child(
            ["-m", "repro.experiments", *ids, "-q", "--cache-dir", str(cache),
             "--markdown", str(markdown), "--csv-dir", str(csv_dir),
             "--report", str(report), *extra],
            spans=spans,
        )
        out: Dict[str, Any] = {"wall_s": wall, "code": code, "spans": table,
                               "markdown": "", "digests": {}, "report": {}}
        if markdown.exists():
            out["markdown"] = markdown.read_text()
        if csv_dir.is_dir():
            out["digests"] = {
                p.stem: digest(p.read_text()) for p in sorted(csv_dir.glob("*.csv"))
            }
        if report.exists():
            out["report"] = json.loads(report.read_text())
        return out

    def suite(self, requests: List[Dict[str, Any]], spans: bool = False) -> Tuple[float, int, List[dict], Optional[dict]]:
        """``engine.run_suite`` per request in one child process."""
        request_file = self.path("requests.json")
        out_file = self.path("out.json")
        request_file.write_text(json.dumps(requests))
        wall, code, table = self.child(
            [CHILD, "suite", str(request_file), str(out_file)], spans=spans
        )
        results = json.loads(out_file.read_text()) if out_file.exists() else []
        return wall, code, results, table

    def recompute(self, requests: List[Dict[str, Any]]) -> List[Optional[Dict[str, str]]]:
        """Each request run again serially with the cache off: its markdown
        per experiment, or None where it failed.  The requests are split
        between two child processes that run side by side."""
        groups = [requests[0::2], requests[1::2]]
        results: List[List[dict]] = [[], []]

        def run_group(index: int) -> None:
            if groups[index]:
                results[index] = self.suite([dict(r, cache_mode="off") for r in groups[index]])[2]

        threads = [threading.Thread(target=run_group, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out: List[Optional[Dict[str, str]]] = []
        for index in range(len(requests)):
            group, position = results[index % 2], index // 2
            result = group[position] if position < len(group) else None
            out.append(None if result is None or result["failed"] else result["markdown"])
        return out

    def import_seconds(self, repeats: int = 3) -> List[float]:
        """Fresh-interpreter ``import repro.experiments`` times."""
        probe = ("import time; t = time.perf_counter(); import repro.experiments; "
                 "print(time.perf_counter() - t)")
        out = []
        for _ in range(repeats):
            proc, stdout = self.run([sys.executable, "-c", probe],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            if proc.returncode != 0:
                raise RuntimeError(f"cannot import repro.experiments: exit {proc.returncode}")
            out.append(float(stdout))
        return out

    def run(self, argv: List[str], **streams: Any) -> Tuple[subprocess.Popen, Any]:
        """Run a child to completion, killing it after ``CHILD_TIMEOUT``.
        A plain wait returns the moment the child exits; waiting with a
        timeout polls, which would round short walls up by up to 50 ms."""
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, **streams)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            stdout, _ = proc.communicate()
        finally:
            timer.cancel()
        return proc, stdout


def add_counters(total: Dict[str, int], more: Dict[str, int]) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value


def stage_counters(report: Dict[str, Any]) -> Dict[str, int]:
    """Stage-graph counters of a CLI run report, summed over experiments."""
    merged: Dict[str, int] = {}
    for record in report.get("records", []):
        add_counters(merged, record.get("simulation", {}).get("stages", {}).get("counters", {}))
    return merged


# -- workloads --------------------------------------------------------------


def cold_suite(b: Bench) -> Dict[str, Any]:
    """The full registry, serial, through the CLI on an empty cache."""
    ids = inputs.suite_order(b.seed)
    # Set-up is a fresh interpreter importing the package (the first one
    # also writes the bytecode cache); the median of three is setup_s.
    setups = []
    for _ in range(3):
        started = time.perf_counter()
        b.import_seconds(1)
        setups.append(time.perf_counter() - started)
    imports = b.import_seconds() if b.trace else []

    walls: List[float] = []
    reference: Optional[Dict[str, Any]] = None
    counters: Dict[str, int] = {}
    traced: List[Dict[str, Any]] = []
    runs = b.units(COLD_RUN_S)
    for index in range(runs + int(b.trace)):
        spans = b.trace and index == runs  # after the timed runs
        run = b.cli(b.path("cache"), ids, spans=spans)
        ok = run["code"] == 0 and len(run["digests"]) == len(ids)
        if reference is None and ok:
            reference = run
        elif reference is not None:
            ok = ok and run["markdown"] == reference["markdown"] and run["digests"] == reference["digests"]
        b.count(ok, f"cold run {index}")
        if spans:
            traced.append(run)
            add_counters(counters, stage_counters(run["report"]))
        else:
            walls.append(run["wall_s"])
    rss = b.rss.stop()
    b.record.update(
        cold_suite_s=median(walls),
        cold_suite_samples=walls,
        digests=(reference or {}).get("digests", {}),
    )
    if b.trace:
        layer_report(b, traced, median(walls) * len(traced), counters, imports)
    return {"setups": setups, "ops": walls, "rss": rss, "timed_s": sum(walls)}


def edit_loop(b: Bench) -> Dict[str, Any]:
    """On a cache one cold run filled, rounds of edits: a stage-scoped
    refresh, then per pool experiment a warm hit and a one-parameter
    incremental re-run."""
    ids = inputs.suite_order(b.seed)
    started = time.perf_counter()
    cache = b.path("cache")
    fill = b.cli(cache, ids)
    setup_s = time.perf_counter() - started
    reference = split_markdown(fill["markdown"], ids)
    if fill["code"] != 0 or not reference:
        raise RuntimeError("the cold fill of the edit loop failed")
    imports = b.import_seconds() if b.trace else []

    rounds = b.units(EDIT_ROUND_S)
    plan = inputs.perturbations(b.seed, rounds=rounds + int(b.trace))
    steps: Dict[str, List[float]] = {"warm_hit": [], "refresh": [], "incremental": []}
    cycles: List[float] = []
    checks: List[Tuple[str, int, Dict[str, str]]] = []
    digests: List[Dict[str, Any]] = []
    counters: Dict[str, int] = {}
    traced: List[Dict[str, Any]] = []
    # Untraced walls per (step, experiment), to set against the traced
    # step with the same key when measuring the tracing overhead.
    untraced: Dict[Tuple[str, str], List[float]] = {}
    traced_keys: List[Tuple[str, str]] = []
    pool = len(inputs.EDIT_POOL)

    def cycle(experiment: str, value: int, spans: bool, refresh: bool) -> float:
        """A warm hit and the incremental re-run, after a refresh when
        ``refresh`` (the first cycle of a round)."""
        runs: Dict[Tuple[str, str], Dict[str, Any]] = {}
        if refresh:
            run = runs["refresh", "*"] = b.cli(cache, ids, ["--refresh"], spans=spans)
            b.count(run["code"] == 0 and run["markdown"] == fill["markdown"],
                    f"refresh before {experiment}={value}")
        run = runs["warm_hit", experiment] = b.cli(cache, ids, spans=spans)
        b.count(run["code"] == 0 and run["markdown"] == fill["markdown"],
                f"warm hit before {experiment}={value}")
        wall, code, results, table = b.suite(
            [{"experiments": ids, "cache_dir": str(cache),
              "run_overrides": {experiment: {"seed": value}}}],
            spans=spans,
        )
        ok = code == 0 and len(results) == 1 and not results[0]["failed"]
        if ok:
            markdown = results[0]["markdown"]
            ok = all(markdown.get(i, "").rstrip("\n") == reference[i]
                     for i in ids if i != experiment)
            checks.append((experiment, value, markdown))
            digests.append({"perturbed": experiment, "seed": value, "digests": results[0]["digests"]})
        b.count(ok, f"incremental {experiment}={value}")
        if spans:
            for run in runs.values():
                add_counters(counters, stage_counters(run["report"]))
            if results:
                add_counters(counters, results[0]["stage_counters"])
        runs["incremental", experiment] = {"wall_s": wall, "spans": table}
        for key, run in runs.items():
            if spans:
                traced.append(run)
                traced_keys.append(key)
            else:
                steps[key[0]].append(run["wall_s"])
                untraced.setdefault(key, []).append(run["wall_s"])
        return sum(run["wall_s"] for run in runs.values())

    timed_started = time.perf_counter()
    for index, (experiment, value) in enumerate(plan[:rounds * pool]):
        cycles.append(cycle(experiment, value, spans=False, refresh=index % pool == 0))
    timed_s = time.perf_counter() - timed_started
    rss = b.rss.stop()
    # The traced round comes after the timed ones, so these run as they
    # would untraced.
    if b.trace:
        for index, (experiment, value) in enumerate(plan[-pool:]):
            cycle(experiment, value, spans=True, refresh=index == 0)

    # Each perturbed experiment against a fresh, uncached recompute; the
    # known defect's reproducers ride along and are recorded, not counted.
    recomputed = b.recompute(
        [{"experiments": [experiment], "run_overrides": {experiment: {"seed": value}}}
         for experiment, value in [(e, v) for e, v, _ in checks] + list(inputs.KNOWN_FAILING)]
    )
    for (experiment, value, markdown), fresh in zip(checks, recomputed):
        b.count(fresh is not None and markdown.get(experiment) == fresh.get(experiment),
                f"incremental {experiment}={value} vs recompute")
    b.record.update(
        known_defect=[
            {"experiment": experiment, "seed": value, "fails": fresh is None}
            for (experiment, value), fresh in zip(inputs.KNOWN_FAILING, recomputed[len(checks):])
        ],
        cold_fill_s=fill["wall_s"],
        warm_hit_s=median(steps["warm_hit"]),
        refresh_s=median(steps["refresh"]),
        incremental_s=median(steps["incremental"]),
        step_samples=steps,
        cycle_samples=cycles,
        digests=fill["digests"],
        incremental_digests=digests,
    )
    if b.trace:
        expected = sum(median(untraced[key]) for key in traced_keys if key in untraced)
        layer_report(b, traced, expected, counters, imports)
    # The timed operation is a round (a refresh and one cycle per pool
    # experiment): the median of single cycles would flip between them.
    rounds_s = [sum(cycles[i:i + pool]) for i in range(0, len(cycles), pool)]
    return {"setups": [setup_s], "ops": rounds_s, "rss": rss, "timed_s": timed_s}


def served_mix(b: Bench) -> Dict[str, Any]:
    """A closed loop of two clients against the daemon on a warm cache."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.service import ServiceClient

    hot = inputs.hot_requests(b.seed)
    jobs = min(2, os.cpu_count() or 1)
    setups: List[float] = []
    prestarts: List[float] = []
    daemon: Optional[subprocess.Popen] = None
    client: Optional[ServiceClient] = None
    # Set up three times and keep the last daemon: the median of the
    # three is the set-up time.
    for _ in range(3):
        if daemon is not None:
            stop_daemon(daemon, client)
        started = time.perf_counter()
        cache = b.path("cache")
        _, code, results, _ = b.suite([dict(r, cache_dir=str(cache)) for r in hot])
        if code != 0 or any(result["failed"] for result in results):
            raise RuntimeError("warming the served cache failed")
        # Relative to the checkout root, the working directory, so the
        # path stays within the unix-socket length limit.
        socket_path = str(b.path("s.sock").relative_to(ROOT))
        log = b.path("daemon.log")
        with open(log, "wb") as out:
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments.service", "--socket", socket_path,
                 "--jobs", str(jobs), "--cache-dir", str(cache)],
                cwd=ROOT, env=b.env, stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        b.daemons.append(daemon)
        client = ServiceClient(socket_path, timeout_s=CHILD_TIMEOUT)
        client.wait_ready(timeout_s=60.0)
        for request in hot:
            reply = client.run(**request)
            if not reply.get("ok"):
                raise RuntimeError(f"hot request failed in set-up: {reply.get('error')}")
        setups.append(time.perf_counter() - started)
        match = re.search(r"prestarted in ([0-9.]+)s", log.read_text())
        if match:
            prestarts.append(float(match.group(1)))
    assert client is not None and daemon is not None
    imports = b.import_seconds() if b.trace else []

    def drive(schedules: List[List[Dict[str, Any]]]) -> Tuple[List[List[Dict[str, Any]]], float]:
        """Each schedule from its own thread; returns the samples per
        schedule and the wall of the whole loop."""
        samples: List[List[Dict[str, Any]]] = [[] for _ in schedules]
        barrier = threading.Barrier(len(schedules))

        def loop(index: int) -> None:
            try:
                for entry in schedules[index]:
                    if entry["kind"] == "overlap":
                        barrier.wait(timeout=CHILD_TIMEOUT)
                    sent = time.perf_counter()
                    try:
                        reply = client.run(**entry["request"])
                    except (OSError, ValueError) as exc:
                        reply = {"ok": False, "error": repr(exc)}
                    latency_ms = (time.perf_counter() - sent) * 1000.0
                    samples[index].append(
                        {"kind": entry["kind"], "request": entry["request"], "latency_ms": latency_ms,
                         "served": reply.get("served"), "wall_ms": reply.get("wall_ms", 0.0),
                         "ok": bool(reply.get("ok")), "markdown": reply.get("markdown", {}),
                         "stage_counters": reply.get("stage_counters", {})}
                    )
            except threading.BrokenBarrierError:
                pass
            finally:
                barrier.abort()

        started = time.perf_counter()
        threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(schedules))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples, time.perf_counter() - started

    # Warm-up, untimed: the first requests for each catalog workload run
    # slower in fresh pool workers than later ones.
    warmup, _ = drive(inputs.warmup_mix(b.seed))
    if not all(s["ok"] for per_client in warmup for s in per_client):
        raise RuntimeError("a warm-up request failed")
    samples, loop_s = drive(inputs.request_mix(b.seed, blocks=b.units(SERVED_BLOCK_S)))
    stats = client.stats().get("service", {})
    rss = b.rss.stop()
    stop_daemon(daemon, client)

    flat = [s for per_client in samples for s in per_client]
    # Every distinct request against a serial, uncached recompute.
    distinct: Dict[str, Dict[str, Any]] = {}
    for s in flat:
        distinct.setdefault(json.dumps(s["request"], sort_keys=True), s["request"])
    expected = {key: markdown
                for key, markdown in zip(distinct, b.recompute(list(distinct.values())))
                if markdown is not None}
    for s in flat:
        key = json.dumps(s["request"], sort_keys=True)
        b.count(s["ok"] and key in expected and s["markdown"] == expected[key],
                f"served {s['kind']} {key}")

    hit = [s["latency_ms"] for s in flat if s["served"] in ("memo", "coalesced")]
    computed = [s["latency_ms"] for s in flat if s["served"] == "computed"]
    b.record.update(
        served_hit_p50_ms=median(hit),
        served_hit_tail_ms=tail(hit),
        served_computed_p50_ms=median(computed),
        served_computed_tail_ms=tail(computed),
        served_req_per_s=len(flat) / loop_s if loop_s else 0.0,
        served_counts={k: sum(1 for s in flat if s["served"] == k)
                       for k in ("memo", "coalesced", "computed")},
        served_samples_ms={"hit": hit, "computed": computed},
        # Latencies per request kind of the mix and per way the daemon
        # served it: a hot repeat the memo evicted is served "computed".
        served_by_kind={kind: {served: [s["latency_ms"] for s in flat
                                        if s["kind"] == kind and s["served"] == served]
                               for served in sorted({str(s["served"]) for s in flat
                                                     if s["kind"] == kind})}
                        for kind, _ in inputs.BLOCK},
        digests={key: {i: digest(md) for i, md in markdown.items()}
                 for key, markdown in expected.items()},
        service_stats=stats,
    )
    if b.trace:
        counters: Dict[str, int] = {}
        for s in flat:
            if s["served"] == "computed":
                add_counters(counters, s["stage_counters"])
        server = {
            "hit": [s["wall_ms"] for s in flat if s["served"] in ("memo", "coalesced")],
            "computed": [s["wall_ms"] for s in flat if s["served"] == "computed"],
        }
        latency_s = sum(s["latency_ms"] for s in flat) / 1000.0
        wall_s = loop_s * len(samples)
        requests = stats.get("requests", 0) or 1
        b.per_layer.update({name: 0.0 for name, _, _ in layers.metric_specs()})
        b.per_layer.update(layers.stage_metrics(counters))
        b.per_layer.update({
            "import.repro_experiments_s": median(imports),
            "pool.prestart_s": median(prestarts),
            "service.server_ms.p50.hit": median(server["hit"]),
            "service.server_ms.p50.computed": median(server["computed"]),
            "service.transport_ms.p50": median([s["latency_ms"] - s["wall_ms"] for s in flat]),
            "service.memo_ratio": stats.get("served", {}).get("memo", 0) / requests,
            "accounted_frac": latency_s / wall_s if wall_s else 0.0,
            "unaccounted_s": wall_s - latency_s,
        })
    return {"setups": setups, "ops": [s["latency_ms"] / 1000.0 for s in flat], "rss": rss,
            "timed_s": loop_s}


def stop_daemon(daemon: subprocess.Popen, client: Any) -> None:
    """Ask the daemon to shut down; kill its process group if it lingers."""
    if daemon.poll() is None:
        try:
            client.shutdown()
        except OSError:
            pass
        try:
            daemon.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            pass
    kill_group(daemon)


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    if proc.poll() is None:
        proc.wait(timeout=30.0)


def layer_report(b: Bench, traced: List[Dict[str, Any]], untraced_s: float,
                 counters: Dict[str, int], imports: List[float]) -> None:
    """Per-layer metrics of the traced operations.  ``untraced_s`` is what
    the same operations take untraced: the median untraced wall of each
    traced operation's kind, summed."""
    tables = [run["spans"] for run in traced if run.get("spans")]
    merged = layers.merge_summaries(tables)
    traced_wall = sum(run["wall_s"] for run in traced)
    accounted = layers.accounted_s(merged)
    b.per_layer.update({name: 0.0 for name, _, _ in layers.metric_specs()})
    b.per_layer.update(layers.span_metrics(merged))
    b.per_layer.update(layers.stage_metrics(counters))
    b.per_layer.update({
        "import.repro_experiments_s": median(imports),
        "accounted_frac": accounted / traced_wall if traced_wall else 0.0,
        "unaccounted_s": traced_wall - accounted,
        "trace_overhead_frac": traced_wall / untraced_s - 1.0 if untraced_s else 0.0,
        # Steadier than the A/B figure: the cost of one wrapped call,
        # measured in this process, times the number of spans, plus the
        # time the children took to summarize their spans, over the
        # untraced wall.
        "trace_overhead_est_frac": (
            (sum(span["count"] for span in b.spans) * wrapper_cost_ns() / 1e9
             + sum(span["report_s"] for span in b.spans)) / untraced_s
            if untraced_s else 0.0
        ),
    })
    b.record["span_audit"] = [p for span in b.spans for p in span["audit"]]


WORKLOADS = {"cold-suite": cold_suite, "edit-loop": edit_loop, "served-mix": served_mix}

#: End-to-end metrics: (name, unit); see BENCHMARK.json for the bounds.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

NAMED_UNITS = {
    "cold_suite_s": "s", "warm_hit_s": "s", "refresh_s": "s", "incremental_s": "s",
    "served_hit_p50_ms": "ms", "served_hit_tail_ms": "ms", "served_computed_p50_ms": "ms",
    "served_computed_tail_ms": "ms", "served_req_per_s": "1/s",
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "experiments" / "__main__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2

    os.chdir(ROOT)
    b = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    b.work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](b)
    finally:
        b.rss.stop()
        for daemon in b.daemons:
            kill_group(daemon)

    ops = outcome["ops"]
    op_tail = tail(ops)
    e2e = {
        "setup_s": median(outcome["setups"]),
        "op_p50_s": median(ops),
        "op_tail_s": op_tail["value"],
        "ops_per_s": len(ops) / outcome["timed_s"] if outcome["timed_s"] else 0.0,
        "peak_rss_mb": outcome["rss"],
    }
    error_rate = b.failed / b.attempted if b.attempted else 1.0
    named = {}
    for name, unit in NAMED_UNITS.items():
        if name in b.record:
            value = b.record[name]
            named[name] = dict(value, unit=unit) if isinstance(value, dict) else {"value": value, "unit": unit}
    named.update(
        setup_s={"value": e2e["setup_s"], "unit": "s", "samples": outcome["setups"]},
        peak_rss_mb={"value": e2e["peak_rss_mb"], "unit": "MB"},
        error_rate={"value": error_rate, "unit": "ratio"},
    )
    record = {
        "benchmark": "perfbench", "version": 1,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": fingerprint(),
        "metrics": named,
        "op_tail": op_tail,
        "attempted": b.attempted, "failed": b.failed, "failures": b.failures,
        "details": {k: v for k, v in b.record.items() if k not in NAMED_UNITS},
        "history": json.loads((BENCH / "history.json").read_text()),
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    shutil.rmtree(b.work, ignore_errors=True)

    shown = {k: record[k] for k in (
        "workload", "seed", "trace", "machine", "metrics", "op_tail", "attempted", "failed")}
    if args.workload != "served-mix":
        shown["digests"] = b.record.get("digests", {})
    if "known_defect" in b.record:
        shown["known_defect"] = b.record["known_defect"]
    print(json.dumps({"record": shown}))
    if args.trace:
        units = {name: unit for name, unit, _ in layers.metric_specs()}
        metrics = {name: {"value": float(b.per_layer.get(name, 0.0)), "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
