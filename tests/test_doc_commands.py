"""Every ``repro run``/``repro campaign`` command the docs show must run.

The commands are read straight out of the fenced shell blocks of
``README.md`` and ``docs/tutorial.md`` and executed in-process with
their own flags -- in particular their default ``--minislots`` -- at a
short simulated duration and a single seed, so a default that does not
fit a workload's cluster fails here instead of in a user's terminal.
"""

import shlex
from pathlib import Path

import pytest

from repro import cli

REPO = Path(__file__).resolve().parents[1]
DOCS = (REPO / "README.md", REPO / "docs" / "tutorial.md")
_SHELL_FENCES = ("```bash", "```console", "```sh")


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
