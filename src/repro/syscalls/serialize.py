"""Trace serialisation: save and replay syscall traces as JSON Lines.

Recorded traces (synthetic or strace-derived) can be persisted and
replayed deterministically — the substrate for regression corpora, for
sharing workloads between machines, and for the on-disk artifact store
(``repro.experiments.cache``).

Two on-disk versions exist, both JSONL with a leading header line:

* **version 1** — one JSON object per event, ``{"sid": int,
  "args": [int...], "pc": int}``, preceded by ``{"format":
  "repro-trace", "version": 1, "count": N}``.  Simple and grep-able.
* **version 2** — run-length encoded: a ``{"format": "repro-trace",
  "version": 2, "count": N, "distinct": D}`` header, then ``D`` event
  objects (the distinct-event table, in first-occurrence order), then
  ``[index, count]`` run records.  Loading interns one
  :class:`SyscallEvent` instance per distinct value and reuses it
  across runs, so the identity fast path in
  :func:`repro.syscalls.events.iter_runs` stays a pointer comparison
  for re-loaded traces, exactly as it is for generated ones.

:func:`loads` accepts either version; :func:`dumps` writes version 1
unless asked for 2.  :func:`rle_records` and :func:`from_records` are
the same version-2 content as JSON values rather than text, for
containers (the artifact store) that embed a trace in a larger JSON
document.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, List, Sequence, Tuple, Union

from repro.common.errors import ReproError
from repro.syscalls.events import SyscallEvent, SyscallTrace

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1
#: Run-length-encoded format with an interned distinct-event table.
FORMAT_VERSION_RLE = 2


class TraceFormatError(ReproError):
    """The file is not a valid repro trace."""


def _event_record(event: SyscallEvent) -> dict:
    return {"sid": event.sid, "args": list(event.args), "pc": event.pc}


def dumps(trace: SyscallTrace, version: int = FORMAT_VERSION) -> str:
    """Serialise a trace to JSONL text (version 1 or 2)."""
    if version == FORMAT_VERSION:
        lines = [
            json.dumps(
                {"format": FORMAT_NAME, "version": FORMAT_VERSION, "count": len(trace)}
            )
        ]
        for event in trace:
            lines.append(json.dumps(_event_record(event)))
        return "\n".join(lines) + "\n"
    if version != FORMAT_VERSION_RLE:
        raise TraceFormatError(f"cannot write version {version}")
    return "\n".join(json.dumps(record) for record in rle_records(trace)) + "\n"


def rle_records(trace: SyscallTrace) -> List[Any]:
    """The version-2 file as JSON values, one per line: the header, the
    distinct-event table in first-occurrence order, then the runs."""
    index_of: dict = {}
    table: list = []
    runs: list = []
    for event, count in trace.iter_runs():
        index = index_of.get(event)
        if index is None:
            index = len(table)
            index_of[event] = index
            table.append(event)
        runs.append([index, count])
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION_RLE,
        "count": len(trace),
        "distinct": len(table),
    }
    return [header, *map(_event_record, table), *runs]


def _parse_event(record) -> SyscallEvent:
    return SyscallEvent(
        sid=int(record["sid"]),
        args=tuple(int(a) for a in record["args"]),
        pc=int(record.get("pc", 0)),
    )


def _iter_records(lines, start):
    """Yield ``(line number, parsed value)`` for standalone-JSON lines.

    A trace file is thousands of tiny JSON values; parsing them with one
    batched C-level ``json.loads`` is several times faster than a call
    per line, and the trace load path sits on every warm run.
    When the batch parse fails (some line is not valid JSON) the
    per-line loop reparses purely to point the error at the offending
    line.
    """
    try:
        values = json.loads("[" + ",".join(lines) + "]")
    except ValueError:
        values = None
    if isinstance(values, list) and len(values) == len(lines):
        yield from enumerate(values, start=start)
        return
    for number, line in enumerate(lines, start=start):
        try:
            yield number, json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceFormatError(f"bad record on line {number}: {error}") from error


def _loads_v1(numbered: Iterable[Tuple[int, Any]], declared) -> SyscallTrace:
    events = []
    for number, record in numbered:
        try:
            events.append(_parse_event(record))
        except (KeyError, TypeError, ValueError) as error:
            raise TraceFormatError(f"bad record on line {number}: {error}") from error
    if declared is not None and declared != len(events):
        raise TraceFormatError(
            f"header declares {declared} events, file has {len(events)}"
        )
    return SyscallTrace(events)


def _loads_v2(
    numbered: Iterable[Tuple[int, Any]], records: int, declared, distinct
) -> SyscallTrace:
    if not isinstance(distinct, int) or distinct < 0 or distinct > records:
        raise TraceFormatError(f"bad distinct-event count {distinct!r}")
    table = []
    events = []
    for number, record in numbered:
        if len(table) < distinct:
            try:
                table.append(_parse_event(record))
            except (KeyError, TypeError, ValueError) as error:
                raise TraceFormatError(
                    f"bad event on line {number}: {error}"
                ) from error
            continue
        try:
            event_index, count = record
            event = table[int(event_index)]
            count = int(count)
            if count <= 0:
                raise ValueError(f"non-positive run count {count}")
        except (IndexError, TypeError, ValueError) as error:
            raise TraceFormatError(f"bad run on line {number}: {error}") from error
        # The interned instance is reused for every expansion, keeping
        # run coalescing an identity comparison downstream.
        events.extend([event] * count)
    if declared is not None and declared != len(events):
        raise TraceFormatError(
            f"header declares {declared} events, file has {len(events)}"
        )
    return SyscallTrace(events)


def loads(text: str) -> SyscallTrace:
    """Parse JSONL text (either format version) back into a trace."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TraceFormatError("empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as error:
        raise TraceFormatError(f"bad header: {error}") from error
    return _from_header(header, _iter_records(lines[1:], start=2), len(lines) - 1)


def from_records(records: Sequence[Any]) -> SyscallTrace:
    """Rebuild a trace from :func:`rle_records` output (or the values of
    a version-1 file), validating it exactly like :func:`loads`."""
    if not isinstance(records, (list, tuple)) or not records:
        raise TraceFormatError("empty trace")
    return _from_header(records[0], enumerate(records[1:], start=2), len(records) - 1)


def _from_header(header, numbered: Iterable[Tuple[int, Any]], records: int) -> SyscallTrace:
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceFormatError("not a repro trace file")
    version = header.get("version")
    declared = header.get("count")
    if version == FORMAT_VERSION:
        return _loads_v1(numbered, declared)
    if version == FORMAT_VERSION_RLE:
        return _loads_v2(numbered, records, declared, header.get("distinct"))
    raise TraceFormatError(f"unsupported version {version}")


def save(trace: SyscallTrace, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps(trace))


def load(path: Union[str, Path]) -> SyscallTrace:
    return loads(Path(path).read_text())
