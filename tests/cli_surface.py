"""The command line's surface, recorded in `tests/data/cli-parser.json`.

The file holds what every action of the full parser declares (its
`option_strings`, `dest`, `default`, `required`, `choices`, `nargs`,
`metavar` and `help`, for the top level and for each subcommand), and a list
of command lines, each with its stdin and its exit code. None of that depends
on the Python version, so `test_cli.py` checks it on every version. The
wording of argparse's help and errors does depend on it, so the bytes are
compared between two checkouts instead:

    python tests/cli_surface.py transcript > before.txt   # in one checkout
    python tests/cli_surface.py transcript > after.txt    # in the other
    diff before.txt after.txt

`transcript` prints the exit code, stdout and stderr of every recorded
command line, with help wrapped at 80 columns. `write` records the parser and
the exit codes of the listed command lines from the code that is imported;
add a command line by appending its `argv` and `stdin` to the file and
running `write`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from rimhooks.cli import make_parser, run

DATA = Path(__file__).parent / "data" / "cli-parser.json"
FIELDS = ("option_strings", "dest", "default", "required", "choices", "nargs", "metavar", "help")


def _actions(parser: argparse.ArgumentParser) -> list[dict]:
    # a subparsers action's choices map names to parsers: record the names
    records = [{f: getattr(action, f) for f in FIELDS} for action in parser._actions]
    for record in records:
        if record["choices"] is not None:
            record["choices"] = list(record["choices"])
    return records


def surface(parser: argparse.ArgumentParser) -> dict:
    """The actions of `parser` and of each of its subcommands, as JSON values."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = {
        summary.dest: {"help": summary.help, "actions": _actions(sub.choices[summary.dest])}
        for summary in sub._choices_actions
    }
    return json.loads(json.dumps({"rimhooks": _actions(parser), "commands": commands}))


def invoke(argv: list[str], stdin: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `rimhooks argv` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def load() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def main(mode: str) -> None:
    recorded = load()
    if mode == "write":
        lines = [
            {**line, "exit": invoke(line["argv"], line["stdin"])[0]}
            for line in recorded["command_lines"]
        ]
        recorded = {"parser": surface(make_parser()), "command_lines": lines}
        DATA.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
        return
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    for line in recorded["command_lines"]:
        code, out, err = invoke(line["argv"], line["stdin"])
        print(f"$ rimhooks {shlex.join(line['argv'])}  # stdin {line['stdin']!r}")
        print(f"exit {code}\n--- stdout\n{out}--- stderr\n{err}", end="")


if __name__ == "__main__":
    if sys.argv[1:] not in (["transcript"], ["write"]):
        sys.exit(f"usage: {sys.argv[0]} transcript|write")
    main(sys.argv[1])
