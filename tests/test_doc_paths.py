"""Every repository path the docs and CI name must exist.

Scans README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md, the verify skill
and the CI workflow for paths under ``benchmarks/``, ``tests/``,
``src/repro/`` and ``perfbench/`` — so deleting or renaming a file
fails here instead of leaving a stale pointer. Glob and placeholder
forms (``BENCH_*.json``, ``tests/…``) are skipped; a ``::test`` suffix
is dropped and only the file is checked.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ROOT / ".github" / "workflows" / "ci.yml",
]
_PATH = re.compile(
    r"(?<![\w/.-])((?:benchmarks|tests|src/repro|perfbench)/[\w./*<>{}…-]*)"
)
_PLACEHOLDER = re.compile(r"[*<>{}…]")


def _paths(text: str) -> set[str]:
    found = set()
    for match in _PATH.finditer(text):
        path = match.group(1).rstrip(".")
        if not _PLACEHOLDER.search(path):
            found.add(path)
    return found


PATHS = [
    pytest.param(path, id=f"{source.relative_to(ROOT)}: {path}")
    for source in SOURCES
    if source.exists()
    for path in sorted(_paths(source.read_text(encoding="utf-8")))
]


@pytest.mark.parametrize("path", PATHS)
def test_documented_path_exists(path):
    assert (ROOT / path).exists(), f"{path} is named in the docs but missing"


def test_scan_finds_paths_and_skips_placeholders():
    assert len(PATHS) > 20
    assert _paths(
        "see `benchmarks/bench_scaling.py::test_x`, tests/…, "
        "benchmarks/baselines/BENCH_*.json and src/repro/cli.py."
    ) == {"benchmarks/bench_scaling.py", "src/repro/cli.py"}
