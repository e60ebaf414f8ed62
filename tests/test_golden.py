"""Replay of every golden CLI output in `perfbench/golden/cli.json`, in process.

Each entry holds an argv, the exit code and the exact stdout bytes of a
README command at the reference commit. The replay runs in a scratch
directory (expand first, because the table commands read the `table.json`
it writes) with an 80-column terminal, as the goldens were captured.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from padicvdp.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "cli.json").read_text()
)
WRITES_TABLE = "expand/json"


def replay(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        mp.setenv("COLUMNS", "80")
        replay(GOLDEN[WRITES_TABLE]["argv"])
    return path


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_stdout_matches_golden(key, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("COLUMNS", "80")
    entry = GOLDEN[key]
    assert replay(entry["argv"]) == (entry["exit"], entry["stdout"])
