"""The oldest Python the project supports (3.10) can parse every source file."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for top in ("src", "tests", "scripts", "perfbench")
                 for p in (ROOT / top).rglob("*.py"))


def test_the_source_tree_is_found():
    assert ROOT / "src" / "qsup" / "cli.py" in SOURCES
    assert ROOT / "perfbench" / "run.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_with_python_3_10_grammar(path):
    """Grammar only: a 3.11+ library call (``tomllib``, ``datetime.UTC``, say)
    still parses, so this does not replace a run under Python 3.10."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
