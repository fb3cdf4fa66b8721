"""Kill switch for the batched (bulk-check) simulation kernel.

The bulk fast path — run-length-encoded trace consumption plus
steady-state bulk checking in the regimes (see
``docs/ARCHITECTURE.md``, "Batched simulation kernel") — is designed to
be bit-identical to the per-event path and is on by default.  Setting
``REPRO_BULK=0`` forces every layer back to per-event execution; the
differential tests and the benchmark harness flip this switch to prove
equivalence and measure the speedup.

This lives in ``repro.common`` so the core structures, the regimes and
the simulator can all consult it without import cycles (the same
pattern as ``repro.bpf.compile.fastpath_enabled``).
"""

from __future__ import annotations

from repro.common import knobs

#: Environment variable: set to ``0``/``off`` to disable the bulk
#: fast path (run coalescing still happens; every run is re-expanded
#: into per-event checks).
BULK_ENV = knobs.BULK.name


def bulk_enabled() -> bool:
    """True unless ``REPRO_BULK`` disables the bulk fast path.

    Unset, or any value other than ``0``/``off``/``false``/``no``
    (case-insensitive), leaves the fast path on:

    >>> import os
    >>> os.environ.pop(BULK_ENV, None) and None
    >>> bulk_enabled()
    True
    >>> os.environ[BULK_ENV] = "0"
    >>> bulk_enabled()
    False
    >>> os.environ[BULK_ENV] = "off"
    >>> bulk_enabled()
    False
    >>> os.environ[BULK_ENV] = "1"
    >>> bulk_enabled()
    True
    >>> os.environ.pop(BULK_ENV)
    '1'
    """
    return knobs.BULK.enabled()
