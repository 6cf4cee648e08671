"""README and CLI stay in step: every option the README names is one a command offers."""

import re
from pathlib import Path

import click

from subarchmap.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
OPTION = re.compile(r"--[a-z][a-z0-9-]*")


def _help_options(command: str) -> set[str]:
    """The option names that `subarchmap <command> --help` lists."""
    cmd = main.commands[command]
    ctx = click.Context(cmd, info_name=command)
    return {opt for param in cmd.get_params(ctx)
            if (record := param.get_help_record(ctx)) is not None
            for opt in OPTION.findall(record[0])}


def _command_lines() -> list[tuple[str, list[str]]]:
    """(command, options) for each `subarchmap ...` line of the README's sh blocks."""
    lines = []
    for lang, body in FENCE.findall(README):
        if lang != "sh":
            continue
        for line in body.replace("\\\n", " ").splitlines():
            words = line.split("#")[0].split()
            if words[:1] == ["subarchmap"]:
                lines.append((words[1], OPTION.findall(" ".join(words[2:]))))
    return lines


def _prose_options() -> set[str]:
    """Options inside backticks in the README text outside fenced blocks."""
    prose = FENCE.sub("", README)
    return {opt for span in re.findall(r"`([^`]+)`", prose) for opt in OPTION.findall(span)}


def test_readme_names_commands_and_options():
    lines = _command_lines()
    assert {command for command, _ in lines} == set(main.commands)
    assert len(_prose_options()) > 5  # the parsing finds the prose it checks


def test_command_line_options_exist():
    missing = [(command, opt) for command, options in _command_lines()
               for opt in options if opt not in _help_options(command)]
    assert missing == []


def test_prose_options_exist():
    offered = set().union(*(_help_options(command) for command in main.commands))
    assert _prose_options() - offered == set()
