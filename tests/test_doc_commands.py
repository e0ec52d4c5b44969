"""Every ``repro`` command the docs show must parse, and the
``repro run``/``repro campaign`` ones must run.

Every ``repro ...`` line of a fenced block of ``README.md`` or
``docs/*.md`` goes through the CLI parser, so a doc that shows a
deleted command or flag fails here.  The ``run``/``campaign`` commands
of the shell blocks of ``README.md`` and ``docs/tutorial.md`` are also
executed in-process with their own flags -- in particular their
default ``--minislots`` -- at a short simulated duration and a single
seed, so a default that does not fit a workload's cluster fails here
instead of in a user's terminal.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro import cli

REPO = Path(__file__).resolve().parents[1]
DOCS = (REPO / "README.md", REPO / "docs" / "tutorial.md")
ALL_DOCS = (REPO / "README.md", *sorted((REPO / "docs").glob("*.md")))
_SHELL_FENCES = ("```bash", "```console", "```sh")
_CODE_FENCES = ("```python", "```json", "```jsonl")
#: A ``repro`` invocation, not a path or module name that contains it.
_INVOCATION = re.compile(r"(^|\s)repro\s")


def shell_blocks(text):
    """The bodies of the shell-language fenced blocks of a document."""
    blocks, body, language = [], [], None
    for line in text.splitlines():
        if line.startswith("```"):
            if language is None:
                language, body = line.strip(), []
            else:
                if language in _SHELL_FENCES:
                    blocks.append("\n".join(body))
                language = None
        elif language is not None:
            body.append(line)
    return blocks


def fenced_lines(text):
    """Every line of the non-code fenced blocks of a document, with
    backslash continuations joined."""
    lines, language = [], None
    for line in text.replace("\\\n", " ").splitlines():
        if line.startswith("```"):
            language = line.strip() if language is None else None
        elif language is not None and language not in _CODE_FENCES:
            lines.append(line)
    return lines


def shown_commands():
    """The arguments of every ``repro`` command shown in the docs.

    Log lines the commands print (``repro web: listening ...``) are
    output, not commands, and a trailing ``&`` is the shell's.
    """
    commands = []
    for doc in ALL_DOCS:
        for line in fenced_lines(doc.read_text(encoding="utf-8")):
            if not _INVOCATION.search(line):
                continue
            words = shlex.split(line, comments=True)
            args = words[words.index("repro") + 1:]
            if args and args[-1] == "&":
                args = args[:-1]
            if not args or args[0].endswith(":"):
                continue
            commands.append(pytest.param(
                args, id=f"{doc.name}:{' '.join(args)}"))
    return commands


@pytest.mark.parametrize("args", shown_commands())
def test_shown_command_parses(args):
    cli.build_parser().parse_args(args)


def test_every_doc_shows_its_commands_to_the_parser():
    shown = {param.id.split(":", 1)[0] for param in shown_commands()}
    assert {"README.md", "static_analysis.md", "backends.md",
            "results.md", "service.md"} <= shown


def documented_commands():
    commands = []
    for doc in DOCS:
        for block in shell_blocks(doc.read_text(encoding="utf-8")):
            for line in block.replace("\\\n", " ").splitlines():
                words = shlex.split(line, comments=True)
                if "repro" not in words:
                    continue
                args = words[words.index("repro") + 1:]
                if args and args[0] in ("run", "campaign"):
                    commands.append(pytest.param(
                        args, id=f"{doc.name}:{' '.join(args)}"))
    return commands


def test_the_docs_show_a_case_study_run():
    assert any(param.values[0][:3] == ["run", "--workload", "bbw"]
               for param in documented_commands())


@pytest.mark.parametrize("args", documented_commands())
def test_documented_command_runs(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # --store / --cache-dir land here
    short = ["--duration-ms", "20"]
    if args[0] == "campaign":
        short += ["--seeds", "1"]
    assert cli.main(args + short) == 0
    assert capsys.readouterr().out.strip()
