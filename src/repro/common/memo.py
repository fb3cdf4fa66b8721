"""Bounded in-process memo dictionaries with oldest-first eviction.

Several hot-path memos (assembled BPF programs, traces, profile
bundles, calibrations, filter sweeps) key on object identity with a
strong reference pinning the id.  They must stay bounded, but the old
``.clear()``-at-limit policy had a thrash mode: a catalog sweep sitting
exactly at the limit wiped the entry it had just inserted, turning
every subsequent lookup into a rebuild.  Evicting only the *oldest*
entry keeps the working set warm — plain dicts iterate in insertion
order, so the oldest key is ``next(iter(memo))``.

The threaded service shares these memos between request threads, so
the check-evict-insert sequence runs under one module lock: two
threads at the limit must never both pick the same oldest key.

>>> memo = {}
>>> for key in range(5):
...     memo_insert(memo, key, key * 10, limit=3)
>>> list(memo)
[2, 3, 4]
>>> memo_insert(memo, 3, "refreshed", limit=3)  # existing key: no eviction
>>> sorted(memo) == [2, 3, 4] and memo[3] == "refreshed"
True
"""

from __future__ import annotations

import threading
from typing import Any, Dict

_LOCK = threading.Lock()


def memo_insert(memo: Dict[Any, Any], key: Any, value: Any, limit: int) -> None:
    """Insert ``key -> value`` into *memo*, evicting oldest-first so the
    memo never exceeds *limit* entries.  Overwriting an existing key
    never evicts (and keeps the key's insertion position)."""
    with _LOCK:
        if key not in memo:
            while len(memo) >= limit:
                del memo[next(iter(memo))]
        memo[key] = value
