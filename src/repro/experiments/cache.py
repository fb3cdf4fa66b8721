"""One content-addressed store for every persisted experiment artifact.

Draco's thesis is that repeated checking work should be validated once
and then served from a cache; this module applies the same discipline to
the experiment pipeline itself.  Every artifact the pipeline persists —
a materialised trace, a profile bundle, a Seccomp filter sweep, a
calibrated work-cycle value, an evaluation stage payload, a terminal
:class:`ExperimentResult` — is written **once**, under
``store/<kind>/<digest>.json``, in one envelope::

    {"format": "repro-store", "version": STORE_FORMAT_VERSION,
     "kind": <kind>, "data": <payload>}

and keyed by one function, :func:`digest`.  It folds the artifact kind
and parameters with everything that can change a payload without a
parameter changing: the source fingerprint, ``COMPILER_VERSION``,
``SIM_KERNEL_VERSION``, the analytic tier's version (0 when off), the
compute switches (:data:`repro.common.knobs.COMPUTE`) and
``STORE_FORMAT_VERSION``.  Any source edit therefore invalidates the
whole store, which is the safe direction for a research repo.

Workload specs join a digest through :func:`spec_key`: a catalog
workload by name (the fingerprint already covers the catalog source),
any other spec by its full payload, so a hand-built spec can never be
served a catalog entry.

A missing, torn, unparseable, wrong-kind or wrong-version entry reads
as a miss and the caller rebuilds.  The per-kind ``load_*``/``store_*``
methods of :class:`ResultCache` are thin codecs over one read/write
pair.

Layout (under :func:`cache_root`, default ``~/.cache/repro-draco`` or
``$REPRO_CACHE_DIR``)::

    store/<kind>/<digest>.json           every artifact, one envelope
                                         (trace, bundle, sweep,
                                         calibration, eval, fleet-eval,
                                         result)
    store/bpf-code/<tag>/<digest>.bin    marshalled filter code objects
                                         (owned by repro.bpf.compile;
                                         <tag> pins interpreter + magic)
    runs/latest.json                     most recent run report
    runs/run-<timestamp>.json            archived run reports

Pass ``--no-cache`` to the CLI (``cache_mode="off"``, a
:func:`repro.common.storage.cache_overrides` block with
``disable=True``) to bypass every read and write.  All writes are atomic
(temp-file-then-rename) so concurrent engine workers never observe a
torn entry.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.bpf.compile import COMPILER_VERSION
from repro.common import knobs
from repro.common.analytic import ANALYTIC_VERSION
from repro.common.storage import (
    CACHE_DIR_ENV,
    STORE_DIR,
    cache_enabled,
    cache_root,
)
from repro.common.storage import atomic_write_text as _atomic_write
from repro.common.storage import read_json as _read_json
from repro.kernel.simulator import SIM_KERNEL_VERSION
from repro.experiments.results import ExperimentResult
from repro.syscalls import serialize
from repro.syscalls.events import SyscallTrace
from repro.workloads.catalog import CATALOG

__all__ = [
    "CACHE_DIR_ENV",
    "COMPILER_VERSION",
    "SIM_KERNEL_VERSION",
    "STORE_FORMAT_VERSION",
    "ResultCache",
    "cache_enabled",
    "cache_root",
    "code_fingerprint",
    "digest",
    "params_digest",
    "spec_key",
]

#: Version of the store's envelope and payload shapes.  Folded into
#: every digest and checked on every read, so bumping it turns the
#: whole store into misses at once.
STORE_FORMAT_VERSION = 1

#: Envelope format marker.
_STORE_FORMAT_NAME = "repro-store"


@lru_cache(maxsize=1)
def _fingerprint_of_tree(package_root: str) -> str:
    digest = hashlib.sha256()
    root = Path(package_root)
    for path in sorted(root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:20]


#: The ``repro`` package directory, resolved once: every digest folds
#: the fingerprint, and resolving the path costs filesystem calls.
_PACKAGE_ROOT = str(Path(__file__).resolve().parents[1])


def code_fingerprint() -> str:
    """Fingerprint of the ``repro`` package source (any edit invalidates)."""
    return _fingerprint_of_tree(_PACKAGE_ROOT)


def params_digest(params: Mapping[str, Any]) -> str:
    """Digest of canonical-JSON-encoded parameters (order-insensitive)."""
    encoded = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(encoded.encode()).hexdigest()[:20]


def digest(kind: str, **params: Any) -> str:
    """The store key of one artifact: its kind and parameters plus every
    version and compute switch that can change a payload."""
    return params_digest(
        {
            "kind": kind,
            "params": params,
            "code": code_fingerprint(),
            "store_format": STORE_FORMAT_VERSION,
            "bpf_compiler": COMPILER_VERSION,
            "sim_kernel": SIM_KERNEL_VERSION,
            "analytic": ANALYTIC_VERSION if knobs.ANALYTIC.enabled() else 0,
            "env": dict(knobs.settings(knobs.COMPUTE)),
        }
    )


def spec_key(spec) -> Any:
    """How a WorkloadSpec joins a digest: a catalog workload by name,
    any other spec by its full payload (a different JSON type, so the
    two can never collide)."""
    if CATALOG.get(spec.name) is spec:
        return spec.name
    return _spec_payload(spec)


def _spec_payload(spec) -> Mapping[str, Any]:
    # Hand-rolled rather than ``dataclasses.asdict``: the spec's syscall
    # table is a large non-dataclass object whose repr is not stable
    # across processes, so it is summarised by its entries.
    return {
        "name": spec.name,
        "kind": spec.kind,
        "syscalls": [
            {
                "name": s.name,
                "weight": s.weight,
                "callsites": s.callsites,
                "stickiness": s.stickiness,
                "arg_sets": [[list(a.values), a.weight] for a in s.arg_sets],
            }
            for s in spec.syscalls
        ],
        "fig2_targets": dict(spec.fig2_targets),
        "table": sorted(
            (d.sid, d.name, d.nargs, d.pointer_mask) for d in spec.table
        ),
    }


class ResultCache:
    """The ``store/`` tier: per-kind codecs over one envelope read/write."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else cache_root()

    def path(self, kind: str, digest: str) -> Path:
        return self.root / STORE_DIR / kind / f"{digest}.json"

    def exists(self, kind: str, digest: str) -> bool:
        """Stat-only probe, for artifacts whose presence is all a caller
        needs; a torn entry still reads as a miss when loaded."""
        return self.path(kind, digest).is_file()

    def _read(self, kind: str, digest: str) -> Optional[Any]:
        """The ``data`` of a stored envelope, or ``None`` on any miss:
        absent file, torn write, bad JSON, wrong format/kind/version."""
        document = _read_json(self.path(kind, digest))
        if (
            not isinstance(document, Mapping)
            or document.get("format") != _STORE_FORMAT_NAME
            or document.get("version") != STORE_FORMAT_VERSION
            or document.get("kind") != kind
            or "data" not in document
        ):
            return None
        return document["data"]

    def _write(self, kind: str, digest: str, data: Any) -> None:
        document = {
            "format": _STORE_FORMAT_NAME,
            "version": STORE_FORMAT_VERSION,
            "kind": kind,
            "data": data,
        }
        _atomic_write(
            self.path(kind, digest),
            json.dumps(document, sort_keys=True, separators=(",", ":")),
        )

    # -- per-kind codecs --------------------------------------------------

    def load_stage(self, kind: str, digest: str) -> Optional[Any]:
        return self._read(kind, digest)

    def store_stage(self, kind: str, digest: str, data: Any) -> None:
        self._write(kind, digest, data)

    def load_context(self, kind: str, digest: str) -> Optional[Any]:
        return self._read(kind, digest)

    def store_context(self, kind: str, digest: str, data: Any) -> None:
        self._write(kind, digest, data)

    def load_trace_context(self, digest: str) -> Optional[SyscallTrace]:
        """A stored trace, or ``None`` on any miss or corruption (the
        trace parser validates the header, every record, and the
        declared event count)."""
        try:
            return serialize.from_records(self._read("trace", digest))
        except serialize.TraceFormatError:
            return None

    def store_trace_context(self, digest: str, trace: SyscallTrace) -> None:
        self._write("trace", digest, serialize.rle_records(trace))

    def load_result(self, digest: str) -> Optional[ExperimentResult]:
        payload = self._read("result", digest)
        if not isinstance(payload, Mapping):
            return None
        try:
            return ExperimentResult.from_json_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None  # schema drifted under an unchanged fingerprint

    def store_result(self, digest: str, result: ExperimentResult) -> None:
        self._write("result", digest, result.to_json_dict())

    def load_calibration(self, digest: str) -> Optional[float]:
        value = self._read("calibration", digest)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return None

    def store_calibration(self, digest: str, value: float) -> None:
        self._write("calibration", digest, value)
