"""The documentation checker reads the switch registry: every declared
knob needs a matrix row, and no doc may name an undeclared switch."""

from pathlib import Path

from repro.common import knobs
from repro.tools import docscheck

REPO = Path(__file__).resolve().parents[1]


def _matrix(root, names):
    rows = "\n".join(f"| `{name}` | `1` | effect |" for name in names)
    (root / "docs").mkdir()
    (root / docscheck.MATRIX_DOC).write_text(
        "| Variable | Default | Effect |\n|---|---|---|\n" + rows + "\n"
    )


def test_repository_docs_pass():
    assert docscheck.run_checks(REPO) == []
    _, declared, rows = docscheck.check_switches(REPO)
    assert declared == rows == {knob.name for knob in knobs.KNOBS}


def test_knob_missing_from_matrix_fails(tmp_path):
    names = [knob.name for knob in knobs.KNOBS]
    _matrix(tmp_path, names[1:])
    problems, _, _ = docscheck.check_switches(tmp_path)
    assert problems == [f"{docscheck.MATRIX_DOC}: missing switch {names[0]}"]


def test_stale_matrix_row_fails(tmp_path):
    _matrix(tmp_path, [knob.name for knob in knobs.KNOBS] + ["REPRO_RETIRED"])
    problems, _, _ = docscheck.check_switches(tmp_path)
    assert problems == [
        f"{docscheck.MATRIX_DOC}: stale switch REPRO_RETIRED (not in repro.common.knobs)"
    ]


def test_stale_mention_in_any_doc_fails(tmp_path):
    _matrix(tmp_path, [knob.name for knob in knobs.KNOBS])
    (tmp_path / "README.md").write_text("Set `REPRO_RETIRED=0` to ...\n")
    problems, _, _ = docscheck.check_switches(tmp_path)
    assert problems == ["README.md: stale switch REPRO_RETIRED (not in repro.common.knobs)"]
