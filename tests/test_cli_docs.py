"""Every ``python -m repro …`` command quoted in the docs must parse.

Collects the commands from README.md, docs/*.md, the verify skill and
the CI workflow, joins shell ``\\`` continuations and YAML folded
(``run: >``) blocks, strips comments and redirections, skips
placeholder forms (``--shards N``, ``<command>``, ``text|json``) and
hands each one to the real parser — so renaming or dropping a flag
fails here instead of in a reader's shell.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ROOT / ".github" / "workflows" / "ci.yml",
]
_COMMAND = re.compile(r"python -m repro\b([^\n`]*)")
_PLACEHOLDER = re.compile(r"^[A-Z][A-Z_]*$|[<>|…]|\.\.\.")
_SHELL_STOP = re.compile(r"^(\d?>.*|\||\|\||&&|;)$")


def _unfold_yaml_blocks(text: str) -> str:
    """Join each ``key: >`` folded block into one line, as YAML does."""
    lines = text.splitlines()
    out: list[str] = []
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if not re.search(r":\s*>-?\s*$", line):
            out.append(line)
            continue
        indent = len(line) - len(line.lstrip())
        body = []
        while index < len(lines) and (
            not lines[index].strip()
            or len(lines[index]) - len(lines[index].lstrip()) > indent
        ):
            body.append(lines[index].strip())
            index += 1
        out.append(" ".join(part for part in body if part))
    return "\n".join(out)


def _commands(path: Path) -> list[list[str]]:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".yml":
        text = _unfold_yaml_blocks(text)
    text = re.sub(r"\\\n\s*", " ", text)
    found = []
    for match in _COMMAND.finditer(text):
        argv = []
        for token in shlex.split(match.group(1), comments=True):
            if _SHELL_STOP.match(token):
                break
            argv.append(token)
        if argv and not any(_PLACEHOLDER.search(token) for token in argv):
            found.append(argv)
    return found


COMMANDS = [
    pytest.param(argv, id=f"{path.relative_to(ROOT)}: {' '.join(argv)}")
    for path in SOURCES
    if path.exists()
    for argv in _commands(path)
]


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"`python -m repro {' '.join(argv)}` is rejected ({exc})")


@pytest.mark.parametrize(
    "source", ["README.md", "SKILL.md", "ci.yml"]
)
def test_sources_quote_commands(source):
    path = next(path for path in SOURCES if path.name == source)
    assert _commands(path), f"no `python -m repro` command found in {path}"


def test_placeholders_and_shell_syntax_skipped(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "python -m repro <command> --help\n"
        "python -m repro loadgen --shards N --categories M\n"
        "python -m repro obs --format text|json\n"
        "PYTHONPATH=src python -m repro ablate --repeat 1 \\\n"
        "    --out x.json > /dev/null  # comment\n"
        "`python -m repro rank` (prose)\n"
    )
    assert _commands(doc) == [
        ["ablate", "--repeat", "1", "--out", "x.json"],
        ["rank"],
    ]
