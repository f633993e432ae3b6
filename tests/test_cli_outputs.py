"""Byte identity of the CLI: every command of scripts/cli_commands.txt, replayed
in process, writes the files and raises the errors that
tests/data/cli_outputs.sha256 records, and two of them do so in a fresh
interpreter too.

The outputs depend on the C library's ``sin``, ``cos`` and ``pow``, on
Python's ``sum`` and on numpy, so the record is compared only on the platform
it names; elsewhere the test is skipped and says how to make a local record.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nufd

_spec = importlib.util.spec_from_file_location(
    "record_cli_outputs", Path(__file__).resolve().parent.parent / "scripts" / "record_cli_outputs.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def recorded_lines() -> list[str]:
    """The record's lines, header excluded; skips the test off the platform the record names."""
    header, *lines = record.RECORD.read_text().splitlines()
    made_on, here = header.removeprefix("# platform: "), record.platform_tag()
    if made_on != here:
        pytest.skip(f"the record was made on {made_on}, this is {here}; "
                    "scripts/record_cli_outputs.py makes one for this platform")
    return lines


def test_outputs_match_the_record(tmp_path):
    assert record.replay(tmp_path) == recorded_lines()


def test_the_record_holds_no_crash():
    errors = [line.split("  ")[2] for line in record.RECORD.read_text().splitlines() if line.startswith("error  ")]
    assert errors and all(error.startswith("ClickException ") for error in errors)


def test_a_fresh_interpreter_gives_the_recorded_bytes(tmp_path):
    """``python -m nufd.cli`` writes the recorded files, a table of the
    ``_cells`` kernel among them, and a failing command exits 1 with
    ``Error: <message>`` on stderr."""
    lines = recorded_lines()
    args = dict(record.commands())
    env = {**os.environ, "PYTHONPATH": str(Path(nufd.__file__).parent.parent)}
    for name in ["44-diff-central-pair-blocks", "32-fail-mesh-spec"]:
        out = tmp_path / name
        out.mkdir()
        run = subprocess.run([sys.executable, "-m", "nufd.cli", "--out", str(out), *args[name]],
                             capture_output=True, env=env)
        (out / "stdout").write_bytes(run.stdout)
        assert record.digest_lines(out) == [line for line in lines if line.split("  ")[1].startswith(f"{name}/")]
        errors = [line.split("  ")[2] for line in lines if line.startswith(f"error  {name}  ")]
        if errors:
            kind, message = errors[0].split(" ", 1)
            assert (run.returncode, kind, run.stderr.decode()) == (1, "ClickException", f"Error: {json.loads(message)}\n")
        else:
            assert (run.returncode, run.stderr) == (0, b"")
