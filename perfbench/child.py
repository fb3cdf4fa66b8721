"""Subprocess entry point: run the CLI or ``engine.run_suite``, optionally traced.

    python3 perfbench/child.py [--spans OUT.json] cli ARG...
    python3 perfbench/child.py [--spans OUT.json] suite REQUESTS.json OUT.json

``cli`` runs ``python -m repro.experiments ARG...`` in this process.
``suite`` runs each request of a JSON list through ``engine.run_suite``
and writes, per request, the markdown and the output digest of every
experiment plus the run's stage counters.  A request holds
``experiments``, ``seed``, ``run_overrides``, ``cache_mode`` and
``cache_dir``.

With ``--spans`` the layer entry points are wrapped (see ``layers.py``)
for the duration of the run, and the per-span-name summary, the span
audit, the span count and the time taken to summarize them are written
to OUT.json.  Without it nothing is wrapped.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_requests(requests):
    from repro.experiments import engine

    out = []
    for request in requests:
        started = time.perf_counter()
        run = engine.run_suite(
            request.get("experiments"),
            seed=request.get("seed"),
            cache_mode=request.get("cache_mode", engine.CACHE_ON),
            cache_dir=request.get("cache_dir"),
            run_overrides=request.get("run_overrides"),
        )
        out.append(
            {
                "wall_s": time.perf_counter() - started,
                "markdown": {
                    o.experiment_id: o.result.to_markdown()
                    for o in run.outcomes
                    if o.result is not None
                },
                "digests": {
                    o.experiment_id: digest(o.result.to_csv())
                    for o in run.outcomes
                    if o.result is not None
                },
                "failed": [o.experiment_id for o in run.failures],
                "stage_counters": run.report.stage_counters(),
            }
        )
    return out


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]

    tracer = None
    if spans_path is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    try:
        if mode == "cli":
            from repro.experiments.__main__ import main as cli_main

            status = cli_main(rest)
        elif mode == "suite":
            requests = json.loads(Path(rest[0]).read_text())
            Path(rest[1]).write_text(json.dumps(run_requests(requests)))
            status = 0
        else:
            print(f"unknown mode {mode!r}", file=sys.stderr)
            return 2
    finally:
        if tracer is not None:
            tracer.uninstall()
            from tracer import audit, summarize

            started = time.perf_counter()
            report = {
                "summary": summarize(tracer.spans),
                "audit": audit(tracer.spans)[:20],
                "count": len(tracer.spans),
            }
            report["report_s"] = time.perf_counter() - started
            Path(spans_path).write_text(json.dumps(report))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
