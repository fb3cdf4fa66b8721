"""Low-level persistent-cache plumbing shared across layers.

The experiment artifact store (:mod:`repro.experiments.cache`) and the
BPF compiler's code-object kind (:mod:`repro.bpf.compile`) sit at
opposite ends of the import graph, but they must agree on where the
store lives and when it is enabled — one ``REPRO_CACHE_DIR`` and one
:func:`cache_overrides` block (what ``--no-cache`` opens).  This module
owns those decisions plus the atomic write discipline, and depends on
nothing above ``repro.common``.

All writes are temp-file-then-``os.replace`` so concurrent workers
never observe a torn entry; all reads treat a missing, truncated, or
unparseable file as a cache miss.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Iterator, Optional, Tuple

from repro.common import knobs

#: Environment variable naming the cache directory (declared in
#: :mod:`repro.common.knobs`).
CACHE_DIR_ENV = knobs.CACHE_DIR.name

#: Directory under the cache root holding every persisted artifact as
#: ``<kind>/<digest>``; run reports live beside it in ``runs/``.
STORE_DIR = "store"


#: Context-local overrides for the cache directory and disable flag.
#: ``REPRO_CACHE_DIR`` stays the *outer default* directory and the
#: store is on unless a block disables it; the engine and the
#: long-running experiment service apply per-run settings through
#: :func:`cache_overrides` instead of mutating ``os.environ``, which is
#: process-global and therefore unsafe once concurrent requests share a
#: process.  ContextVars are per-thread (and per-task), so two service
#: threads can run with different cache modes without racing.  Worker
#: processes do NOT inherit these reliably across ``fork`` — engine
#: worker entry points receive the settings as explicit task arguments
#: and re-apply them.
_CACHE_DIR_OVERRIDE: ContextVar[Optional[str]] = ContextVar(
    "repro_cache_dir_override", default=None
)
_CACHE_DISABLE_OVERRIDE: ContextVar[Optional[bool]] = ContextVar(
    "repro_cache_disable_override", default=None
)


@contextmanager
def cache_overrides(
    cache_dir: Optional[str] = None, disable: Optional[bool] = None
) -> Iterator[None]:
    """Apply context-local cache settings for the duration of a block.

    ``cache_dir=None`` / ``disable=None`` leave the corresponding
    setting untouched (falling through to ``REPRO_CACHE_DIR`` and to an
    enabled store); any other value applies until the block exits.
    Nested blocks restore the previous override on exit.
    """
    tokens = []
    if cache_dir is not None:
        tokens.append((_CACHE_DIR_OVERRIDE, _CACHE_DIR_OVERRIDE.set(str(cache_dir))))
    if disable is not None:
        tokens.append((_CACHE_DISABLE_OVERRIDE, _CACHE_DISABLE_OVERRIDE.set(bool(disable))))
    try:
        yield
    finally:
        for var, token in reversed(tokens):
            var.reset(token)


def cache_override_key() -> Tuple[Optional[str], Optional[bool]]:
    """The active overrides, for memo keys that must distinguish runs
    executed under different context-local cache settings."""
    return (_CACHE_DIR_OVERRIDE.get(), _CACHE_DISABLE_OVERRIDE.get())


def cache_enabled() -> bool:
    """True unless an active :func:`cache_overrides` block disables the
    store."""
    return not _CACHE_DISABLE_OVERRIDE.get()


def cache_root() -> Path:
    """The cache directory (not created until first write).

    Resolution order: active :func:`cache_overrides` block, then
    ``REPRO_CACHE_DIR``, then the ``~/.cache/repro-draco`` default.
    """
    local = _CACHE_DIR_OVERRIDE.get()
    if local:
        return Path(local)
    override = knobs.CACHE_DIR.value()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-draco"


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write *payload* to *path* through a temp file unique to this
    call, so concurrent writers (threads or processes) never share one
    and readers only ever see a complete entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def read_json(path: Path) -> Optional[Any]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None  # missing or torn entry: treat as a miss
