"""The verify and induce reports, byte for byte.

Their SHA-256 digests are pinned, so that a change to the exact layer that
alters a report, by a value, a key or a witness that should not be there,
fails here.  The digests are the same under CPython 3.11, 3.12 and 3.13; a
change that means to alter a report updates them and says so.
"""

import hashlib

import pytest

from nilflow.cli import main

DIGESTS = {
    "verify --seed 0": ("verify-report.json",
                        "dac1d3177be195b71af84adcc6e4911fc0b9f7399608c32638111a5e83db4e9d"),
    "verify --seed 1": ("verify-report.json",
                        "e373182cd5b5b2f0908d6463b4e2c8d4f06060c7ea9169b65b75de7e6d7a5ecf"),
    "induce": ("induce-report.json",
               "32b1213af5b09faf91d886a24d4323937f9ec6d0e2f97117528c987d988c1064"),
}


@pytest.mark.parametrize("command", list(DIGESTS))
def test_report_bytes_are_pinned(tmp_path, capsys, command):
    name, digest = DIGESTS[command]
    assert main([*command.split(), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
