"""Golden replay: every CLI job of the benchmark's golden set (`genfun`,
`genfun --check`, `genfun --touchdown --check`, `table` and `verify
--suite`, at every order it holds) must print, byte for byte, the output
whose sha256 perfbench/goldens.json records, and every library job of
its `sweep` session (`genfun` and `tilde_genfun` at every ceiling and
endpoint pair it holds) must give the full series whose canonical digest
it records (each golden was validated against the brute-force oracle
when it was written)."""

import hashlib
import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dyckgen.cli import main
from dyckgen.genfun import GenSpec, genfun
from dyckgen.touchdown import tilde_genfun

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDENS = PERFBENCH / "goldens.json"
COMMANDS = ("genfun", "table", "verify")
LIBRARY = ("genfun", "tilde")
UNBOUNDED = "genfun --k inf "

_canon_spec = importlib.util.spec_from_file_location(
    "perfbench_canon", PERFBENCH / "canon.py")
canon = importlib.util.module_from_spec(_canon_spec)
_canon_spec.loader.exec_module(canon)


def _golden_jobs():
    # library jobs of the sweep session are keyed by bare arguments
    # ("genfun 8 4 8 32"), CLI jobs by their argv ("genfun --k 8 ...")
    digests = json.loads(GOLDENS.read_text())["digests"]
    cli, library = [], []
    for key, digest in sorted(digests.items()):
        kind, first = key.split()[:2]
        if first.startswith("--"):
            if kind in COMMANDS:
                cli.append((key, digest))
        elif kind in LIBRARY:
            library.append((key, digest))
    return cli, library


JOBS, LIBRARY_JOBS = _golden_jobs()


def test_golden_set_is_not_empty():
    keys = [key for key, _ in JOBS]
    assert len(keys) == 466
    assert sum(key.startswith(UNBOUNDED) for key in keys) == 238
    assert sum("--touchdown --check" in key for key in keys) == 65
    assert sum(key.startswith("verify --suite ") for key in keys) == 6
    library = [key for key, _ in LIBRARY_JOBS]
    assert len(library) == 328
    assert sum(key.startswith("tilde ") for key in library) == 164


@pytest.mark.parametrize("key,digest", JOBS, ids=[key for key, _ in JOBS])
def test_cli_output_matches_golden(key, digest):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(key.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("key,digest", LIBRARY_JOBS,
                         ids=[key for key, _ in LIBRARY_JOBS])
def test_library_result_matches_golden(key, digest):
    kind, *args = key.split()
    k, m, n, order = map(int, args)
    if kind == "genfun":
        full = genfun(GenSpec(k, m, n, order)).full_series()
    else:
        full = tilde_genfun(k, m, n, order).full_series()
    assert canon.series_digest(full) == digest
