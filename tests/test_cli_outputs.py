"""Byte identity of the CLI: every command of scripts/cli_commands.txt, replayed
in process, writes the files and raises the errors that
tests/data/cli_outputs.sha256 records.

The outputs depend on the C library's ``sin``, ``cos`` and ``pow``, on
Python's ``sum`` and on numpy, so the record is compared only on the platform
it names; elsewhere the test is skipped and says how to make a local record.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "record_cli_outputs", Path(__file__).resolve().parent.parent / "scripts" / "record_cli_outputs.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def test_outputs_match_the_record(tmp_path):
    header, *expected = record.RECORD.read_text().splitlines()
    made_on, here = header.removeprefix("# platform: "), record.platform_tag()
    if made_on != here:
        pytest.skip(f"the record was made on {made_on}, this is {here}; "
                    "scripts/record_cli_outputs.py makes one for this platform")
    assert record.replay(tmp_path) == expected
