"""Documentation checker: dead links and kill-switch coverage.

Two classes of doc rot have bitten this repository before: relative
markdown links that outlive the file they point to, and ``REPRO_*``
environment switches documented in one table but not the canonical
matrix.  This tool scans the markdown set (``README.md``,
``EXPERIMENTS.md``, ``DESIGN.md``, ``docs/*.md``) and fails on either.

Checks:

1. **Dead links** — every relative ``[text](target)`` must resolve to
   an existing file (anchors are stripped; ``http(s):``/``mailto:``
   links and pure in-page anchors are skipped).
2. **Kill-switch coverage** — every switch declared in
   :data:`repro.common.knobs.KNOBS` must have a row in the
   ``docs/PERFORMANCE.md`` kill-switch matrix, and every ``REPRO_*``
   name the docs mention (matrix rows included) must still be declared
   there (no stale rows or references).

Usage::

    python -m repro.tools.docscheck            # check, non-zero exit on rot
    python -m repro.tools.docscheck --root DIR # check another checkout
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Iterable, List, Set, Tuple

from repro.common import knobs

#: Markdown files checked for dead links, relative to the repo root.
DOC_GLOBS = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/*.md")

#: The canonical kill-switch matrix every REPRO_* variable must be in.
MATRIX_DOC = "docs/PERFORMANCE.md"

_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_SWITCH = re.compile(r"\bREPRO_[A-Z][A-Z_]*\b")
#: A matrix row: a table line whose first cell is one backticked switch.
_MATRIX_ROW = re.compile(r"^\|\s*`(REPRO_[A-Z][A-Z_]*)`\s*\|", re.MULTILINE)
_SKIP_SCHEMES = ("http://", "https://", "mailto:")


def _doc_files(root: Path) -> List[Path]:
    files: List[Path] = []
    for pattern in DOC_GLOBS:
        files.extend(sorted(root.glob(pattern)))
    return files


def check_links(root: Path) -> List[str]:
    """Broken relative links, as ``file: target`` strings."""
    problems: List[str] = []
    for doc in _doc_files(root):
        text = doc.read_text(encoding="utf-8")
        for target in _LINK.findall(text):
            if target.startswith(_SKIP_SCHEMES) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                problems.append(f"{doc.relative_to(root)}: dead link -> {target}")
    return problems


def _switches_in(paths: Iterable[Path]) -> Set[str]:
    found: Set[str] = set()
    for path in paths:
        try:
            found.update(_SWITCH.findall(path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError):
            continue
    return found


def check_switches(root: Path) -> Tuple[List[str], Set[str], Set[str]]:
    """(problems, declared switch names, switches with a matrix row)."""
    names = {knob.name for knob in knobs.KNOBS}
    matrix_path = root / MATRIX_DOC
    if not matrix_path.exists():
        return ([f"{MATRIX_DOC} is missing"], names, set())
    rows = set(_MATRIX_ROW.findall(matrix_path.read_text(encoding="utf-8")))
    problems = [
        f"{MATRIX_DOC}: missing switch {name}" for name in sorted(names - rows)
    ]
    problems += [
        f"{doc.relative_to(root)}: stale switch {name} (not in repro.common.knobs)"
        for doc in _doc_files(root)
        for name in sorted(_switches_in([doc]) - names)
    ]
    return (problems, names, rows)


def run_checks(root: Path) -> List[str]:
    problems = check_links(root)
    switch_problems, _, _ = check_switches(root)
    return problems + switch_problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parents[3],
        help="repository root (default: this checkout)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()

    docs = _doc_files(root)
    problems = run_checks(root)
    _, declared, rows = check_switches(root)
    print(
        f"docscheck: {len(docs)} docs, "
        f"{len(declared)} REPRO_* switches in repro.common.knobs, "
        f"{len(rows & declared)} documented in {MATRIX_DOC}"
    )
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        return 1
    print("ok: no dead links, kill-switch matrix complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
