"""Warm process pool: persistent, preloaded workers for the engine.

Draco's discipline — validate once, serve repeats from a cache next to
the hot path — applied to the experiment engine's own processes.  The
stage scheduler used to spawn a throwaway
:class:`~concurrent.futures.ProcessPoolExecutor` per suite, so every
run paid process startup and every worker rebuilt its in-process memos
(compiled filters, syscall tables, interned traces, contexts) from
scratch.  This module keeps **one** pool alive across
``execute_suite`` calls:

* workers run :func:`warm_worker` at startup, which imports the full
  experiment registry and preloads the workload catalog, its syscall
  tables, the docker-default profiles, and the assembled + compiled
  filter programs — so the first task a worker receives starts from
  the same warm state a long-lived process would have;
* the pool is keyed on ``(max_workers, code fingerprint, switches)``:
  flipping any compute or storage switch (:mod:`repro.common.knobs`)
  — or editing the source — retires the old pool and forks a fresh
  one, so a stale worker can never serve results under settings it
  was not started with.  A forked worker snapshots ``os.environ`` at
  pool creation, and code outside a task (worker initializers, third
  party callers) falls back to that inherited environment, which is
  why the cache switches join the key too.  A *per-run* cache location
  and mode are not in the key: the engine threads them through every
  task explicitly (:func:`repro.common.storage.cache_overrides`), so
  one pool serves requests against different cache directories.

The pool only changes *where* tasks run, never what they compute: a
differential test asserts the full registry markdown of a parallel run
equals a serial one.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.common import knobs


def warm_worker() -> None:
    """Worker initializer: preload what every experiment task touches.

    Runs once per worker process, before its first task.  Everything
    here is a pure function of the source tree (no run parameters), so
    warming it cannot bias any result — it only moves work off the
    first task's critical path:

    * importing :mod:`repro.experiments.registry` pulls in every
      experiment module, the kernel regimes, and the BPF toolchain;
    * touching each catalog spec materialises its syscall table;
    * building the docker-default profile per table and assembling +
      compiling its filter programs fills the profile, program, and
      compiled-filter code-object memos the Seccomp regimes share.
    """
    import repro.experiments.registry  # noqa: F401  (imports the world)
    from repro.experiments.runner import _docker_profile_for
    from repro.kernel.regimes import _programs_for
    from repro.bpf.compile import compile_program
    from repro.workloads.catalog import CATALOG

    for spec in CATALOG.values():
        profile = _docker_profile_for(spec.table)
        for program in _programs_for(profile, "binary_tree"):
            compile_program(program)


def _barrier_task(index: int, delay_s: float) -> int:
    """Prestart probe: occupy one worker long enough that the executor
    must spawn (and therefore warm) all of them."""
    time.sleep(delay_s)
    return index


@dataclass
class WarmPool:
    """One persistent executor plus the identity it was started under."""

    key: tuple
    max_workers: int
    executor: ProcessPoolExecutor
    created_at: float
    suites_served: int = 0
    _warmed: bool = field(default=False, repr=False)

    def prestart(self, delay_s: float = 0.05) -> float:
        """Force every worker to spawn and finish :func:`warm_worker` now.

        Submitting ``max_workers`` concurrent sleepers makes the lazy
        executor fork its full complement; returns the wall time spent
        waiting, 0.0 when the pool was already warm.
        """
        if self._warmed:
            return 0.0
        started = time.perf_counter()
        futures = [
            self.executor.submit(_barrier_task, index, delay_s)
            for index in range(self.max_workers)
        ]
        for future in futures:
            future.result()
        self._warmed = True
        return time.perf_counter() - started


_LOCK = threading.Lock()
_CURRENT: Optional[WarmPool] = None

#: Lifetime counters, surfaced by the service's ``stats`` op.
_STATS = {"created": 0, "recycled": 0, "broken": 0}


def pool_key(max_workers: int) -> tuple:
    from repro.experiments import cache as result_cache

    return (
        int(max_workers),
        result_cache.code_fingerprint(),
        knobs.settings(knobs.COMPUTE, knobs.STORAGE),
    )


def get_pool(max_workers: int) -> WarmPool:
    """The current warm pool, recycling it if its identity drifted.

    Thread-safe; the caller must not shut the returned executor down
    (use :func:`shutdown` or let the interpreter reap it at exit).
    """
    global _CURRENT
    key = pool_key(max_workers)
    with _LOCK:
        if _CURRENT is not None and _CURRENT.key == key:
            return _CURRENT
        if _CURRENT is not None:
            _CURRENT.executor.shutdown(wait=False, cancel_futures=True)
            _STATS["recycled"] += 1
        executor = ProcessPoolExecutor(
            max_workers=max(1, int(max_workers)), initializer=warm_worker
        )
        _CURRENT = WarmPool(
            key=key,
            max_workers=max(1, int(max_workers)),
            executor=executor,
            created_at=time.time(),
        )
        _STATS["created"] += 1
        return _CURRENT


def discard(executor: Optional[ProcessPoolExecutor] = None) -> None:
    """Retire the current pool (e.g. after a BrokenProcessPool).

    With ``executor`` given, only discards if the current pool owns that
    executor — a later pool created by another thread is left alone.
    """
    global _CURRENT
    with _LOCK:
        if _CURRENT is None:
            return
        if executor is not None and _CURRENT.executor is not executor:
            return
        _CURRENT.executor.shutdown(wait=False, cancel_futures=True)
        _CURRENT = None
        _STATS["broken"] += 1


def shutdown(wait: bool = True) -> None:
    """Tear the warm pool down (tests, service shutdown)."""
    global _CURRENT
    with _LOCK:
        if _CURRENT is not None:
            _CURRENT.executor.shutdown(wait=wait, cancel_futures=True)
            _CURRENT = None


def stats() -> dict:
    """Lifetime pool counters plus the current pool's vitals."""
    with _LOCK:
        snapshot = dict(_STATS)
        snapshot["active"] = _CURRENT is not None
        if _CURRENT is not None:
            snapshot["max_workers"] = _CURRENT.max_workers
            snapshot["suites_served"] = _CURRENT.suites_served
            snapshot["age_s"] = round(time.time() - _CURRENT.created_at, 3)
    return snapshot


@contextmanager
def suite_executor(jobs: int) -> Iterator[ProcessPoolExecutor]:
    """The persistent warm pool's executor for one suite.

    On :class:`BrokenProcessPool` the warm pool is discarded before the
    error propagates, so the next suite forks a fresh one instead of
    failing forever on dead workers.
    """
    pool = get_pool(jobs)
    pool.suites_served += 1
    try:
        yield pool.executor
    except BrokenProcessPool:
        discard(pool.executor)
        raise
