"""Golden replay: every `genfun` and `table` job of the benchmark's golden
set up to --max-len 24, and every `genfun --k inf` job (orders up to 32,
the outputs of the `unbounded` workload), must print, byte for byte, the
output whose sha256 perfbench/goldens.json records (each golden was
validated against the brute-force oracle when it was written)."""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dyckgen.cli import main

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"
MAX_LEN = 24
UNBOUNDED = "genfun --k inf "


def _cli_jobs():
    digests = json.loads(GOLDENS.read_text())["digests"]
    jobs = []
    for key, digest in sorted(digests.items()):
        argv = key.split()
        if argv[0] not in ("genfun", "table") or "--max-len" not in argv:
            continue
        if (key.startswith(UNBOUNDED)
                or int(argv[argv.index("--max-len") + 1]) <= MAX_LEN):
            jobs.append((key, digest))
    return jobs


JOBS = _cli_jobs()


def test_golden_set_is_not_empty():
    assert len(JOBS) >= 300
    assert sum(key.startswith(UNBOUNDED) for key, _ in JOBS) == 238


@pytest.mark.parametrize("key,digest", JOBS, ids=[key for key, _ in JOBS])
def test_cli_output_matches_golden(key, digest):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(key.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
