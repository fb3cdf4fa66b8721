"""Atomic cache writes under concurrency.

The threaded experiment daemon writes cache entries from several
threads of one process at once, so the temp file behind each atomic
write must be unique per call, not per process: two threads sharing a
temp path rename each other's files away mid-write.
"""

import os
import sys
import threading

import pytest

from repro.common import storage

THREADS = 4
WRITES = 2000


@pytest.mark.parametrize("write", [storage.atomic_write_bytes, storage.atomic_write_text])
def test_concurrent_writers_to_one_path(tmp_path, write):
    target = tmp_path / "entry.json"
    payloads = [f'{{"writer": {n}, "pad": "{"x" * 64}"}}' for n in range(THREADS)]
    errors = []
    barrier = threading.Barrier(THREADS)

    def writer(n):
        data = payloads[n].encode() if write is storage.atomic_write_bytes else payloads[n]
        barrier.wait()
        try:
            for _ in range(WRITES):
                write(target, data)
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(n,)) for n in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-write included
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert target.read_text() in payloads
    assert os.listdir(tmp_path) == ["entry.json"]  # no temp files left


def test_failed_write_removes_its_temp_file(tmp_path, monkeypatch):
    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(storage.os, "replace", broken_replace)
    with pytest.raises(OSError):
        storage.atomic_write_bytes(tmp_path / "entry.json", b"{}")
    assert os.listdir(tmp_path) == []
