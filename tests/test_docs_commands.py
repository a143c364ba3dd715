"""Every ``python -m repro ...`` command the docs show must parse.

Collects the commands from fenced code blocks (joining backslash
continuations) and from inline code spans in ``docs/*.md`` and
``README.md``, and hands each to the CLI's own parser, so a renamed
subcommand, a dropped flag or an app the command does not accept fails
here instead of in a reader's shell.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

_INLINE = re.compile(r"`(python -m repro[^`]*)`")


def documented_commands():
    """``(where, argv)`` for every documented ``python -m repro`` call."""
    found = []
    for path in DOCS:
        lines = path.read_text().splitlines()
        in_fence = False
        pending = ""
        for lineno, line in enumerate(lines, 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                text = pending + line.strip()
                if text.endswith("\\"):
                    pending = text[:-1] + " "
                    continue
                pending = ""
                if text.startswith("python -m repro"):
                    found.append((f"{path.name}:{lineno}", text))
            else:
                found.extend(
                    (f"{path.name}:{lineno}", span)
                    for span in _INLINE.findall(line)
                )
    return [
        pytest.param(_argv(text), id=where) for where, text in found
    ]


def _argv(text):
    """The arguments after ``python -m repro``: comments dropped, the
    command cut at a pipe, ``...`` placeholders left out."""
    words = shlex.split(text, comments=True)[3:]
    if "|" in words:
        words = words[: words.index("|")]
    return [word for word in words if word != "..."]


def test_docs_show_commands():
    assert len(documented_commands()) >= 10


@pytest.mark.parametrize("argv", documented_commands())
def test_documented_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"repro {' '.join(argv)} exits {exc.code}")
