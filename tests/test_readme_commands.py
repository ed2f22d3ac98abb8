"""Every ``singosc`` command shown in the README's sh blocks exits 0."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from singosc.cli import CONFIG_KEYS, SUBCOMMANDS, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_blocks() -> list[tuple[str, str]]:
    """(info string, body) of every fenced block in the README."""
    blocks, lang, body = [], None, []
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if lang is None:
                lang, body = line[3:].strip(), []
            else:
                blocks.append((lang, "\n".join(body) + "\n"))
                lang = None
        elif lang is not None:
            body.append(line)
    return blocks


def _commands() -> list[list[str]]:
    commands = []
    for lang, body in _readme_blocks():
        if lang != "sh":
            continue
        for line in body.splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "singosc":
                commands.append(argv[1:])
    return commands


def _example_config() -> str:
    """The untagged block whose every line sets a known option."""
    for lang, body in _readme_blocks():
        keys = [line.partition("=")[0].strip() for line in body.splitlines() if line.strip()]
        if not lang and keys and all(key in CONFIG_KEYS for key in keys):
            return body
    raise LookupError("README shows no example config file")


COMMANDS = _commands()


def test_readme_shows_every_subcommand():
    assert {arg for argv in COMMANDS for arg in argv} >= set(SUBCOMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "run.cfg").write_text(_example_config(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err[-2000:]
    assert captured.out
