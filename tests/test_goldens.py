"""Golden replay: every CLI job of the benchmark's golden set (`genfun`,
`genfun --check`, `genfun --touchdown --check`, `table` and `verify
--suite`, at every order it holds) must print, byte for byte, the output
whose sha256 perfbench/goldens.json records (each golden was validated
against the brute-force oracle when it was written)."""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dyckgen.cli import main

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"
COMMANDS = ("genfun", "table", "verify")
UNBOUNDED = "genfun --k inf "


def _cli_jobs():
    # library jobs of the sweep session are keyed by bare arguments
    # ("genfun 8 4 8 32"), CLI jobs by their argv ("genfun --k 8 ...")
    digests = json.loads(GOLDENS.read_text())["digests"]
    return [(key, digest) for key, digest in sorted(digests.items())
            if key.split()[0] in COMMANDS
            and key.split()[1].startswith("--")]


JOBS = _cli_jobs()


def test_golden_set_is_not_empty():
    keys = [key for key, _ in JOBS]
    assert len(keys) == 466
    assert sum(key.startswith(UNBOUNDED) for key in keys) == 238
    assert sum("--touchdown --check" in key for key in keys) == 65
    assert sum(key.startswith("verify --suite ") for key in keys) == 6


@pytest.mark.parametrize("key,digest", JOBS, ids=[key for key, _ in JOBS])
def test_cli_output_matches_golden(key, digest):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(key.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
