"""Record what the nufd commands of scripts/cli_commands.txt write.

Usage: PYTHONPATH=src python3 scripts/record_cli_outputs.py

Runs every command in this one interpreter through
``nufd.cli.main(args, standalone_mode=False)``, each keeping its files and
its stdout in its own ``NN-name`` directory (NN numbers the commands from
00), and rewrites tests/data/cli_outputs.sha256:

- a header naming the platform the outputs were made on;
- ``<sha256>  NN-name/<file>`` for each file a command writes and for its
  stdout, in the layout of ``sha256sum``;
- ``error  NN-name  ClickException "<message>"`` for each command that fails.

tests/test_cli_outputs.py replays the same commands and compares.  A change
that alters an output on purpose reruns this script, and the diff of the
record shows which outputs moved.  scripts/compare_outputs.sh runs
``replay`` on two source trees and compares the trees it leaves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import shlex
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from nufd import cli

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ROOT / "scripts" / "cli_commands.txt"
RECORD = ROOT / "tests" / "data" / "cli_outputs.sha256"


def platform_tag() -> str:
    """What the outputs depend on beyond nufd: the C library's ``sin``,
    ``cos`` and ``pow``, the Python version and numpy."""
    libc = " ".join(platform.libc_ver()) or "unknown libc"
    return (f"{platform.system()} {platform.machine()} {libc}, "
            f"Python {sys.version_info.major}.{sys.version_info.minor}, numpy {np.__version__}")


def commands() -> list[tuple[str, list[str]]]:
    """``(NN-name, args)`` for each command line of ``COMMANDS``."""
    lines = [line for line in COMMANDS.read_text().splitlines() if line and not line.startswith("#")]
    return [(f"{n:02d}-{name}", args) for n, (name, *args) in enumerate(map(shlex.split, lines))]


def replay(out: Path) -> list[str]:
    """Run every command with its files and stdout under ``out``; the record's lines, header excluded.

    A command that raises gives an ``error`` line naming the exception, so a
    tree that crashes on one command still replays the others.
    """
    lines = []
    for name, args in commands():
        directory = out / name
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                cli.main(["--out", str(directory), *args], standalone_mode=False)
        except Exception as exc:  # a crash is recorded, not raised, so the remaining commands still run
            message = exc.format_message() if isinstance(exc, click.ClickException) else str(exc)
            lines.append(f"error  {name}  {type(exc).__name__} {json.dumps(message)}")
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "stdout").write_bytes(stdout.getvalue().encode())
        lines.extend(digest_lines(directory))
    return lines


def digest_lines(directory: Path) -> list[str]:
    """``<sha256>  NN-name/<file>`` for each file of one command's ``NN-name`` directory, in name order."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {directory.name}/{path.name}"
            for path in sorted(directory.iterdir())]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = replay(Path(tmp))
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(f"# platform: {platform_tag()}\n" + "".join(line + "\n" for line in record))
    print(f"wrote {len(record)} lines to {RECORD.relative_to(ROOT)}")
