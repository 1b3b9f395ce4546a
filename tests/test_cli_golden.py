"""Golden CLI corpus: stdout, stderr and exit code of `cli.main` per call.

The calls and their recorded results live in data/cli_golden.json.  Every
README example appears in text and in JSON form, beside error cases and
empty listings.  A refactor of the CLI must leave every entry unchanged.

To record the results again after an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from brandt_omega.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.json"


@contextlib.contextmanager
def _environ(env: dict):
    # a fixed width keeps argparse's usage lines stable; the bound variable
    # is set only by the entries that name it
    saved = dict(os.environ)
    os.environ.pop("BRANDT_OMEGA_BOUND", None)
    os.environ["COLUMNS"] = "80"
    os.environ.update(env)
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


def run_case(argv: list, env: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with _environ(env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


CASES = json.loads(DATA.read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
def test_golden(case):
    got = run_case(case["argv"], case["env"])
    assert got == {k: case[k] for k in ("stdout", "stderr", "exit")}


if __name__ == "__main__":
    cases = [{"argv": c["argv"], "env": c["env"], **run_case(c["argv"], c["env"])} for c in CASES]
    DATA.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n")
