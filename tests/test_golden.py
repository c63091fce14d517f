"""Golden corpus: every subcommand on pinned documents, byte for byte.

Each case in `golden/cases.json` names a command line whose file
arguments live in `golden/inputs/`, the exit code it must return, and the
file in `golden/expected/` holding its exact stdout.  The corpus locks
behaviour across refactors of the exact kernels: any change to an output
byte or an exit code fails here.

Re-record (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from catcx.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _argv(case):
    return [str(GOLDEN / a) if a.startswith("inputs/") else a for a in case["argv"]]


def _expected_path(case):
    return GOLDEN / "expected" / f"{case['name']}.out"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case, capsysbinary):
    code = run(_argv(case))
    out = capsysbinary.readouterr().out
    assert code == case["exit"]
    assert out == _expected_path(case).read_bytes()


def test_corpus_covers_every_subcommand():
    from catcx.cli import _build_parser
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    covered = {c["argv"][0] for c in CASES}
    assert covered == set(sub.choices)
    assert {c["exit"] for c in CASES} == {0, 1, 2}


def _record() -> None:
    import contextlib
    import io
    (GOLDEN / "expected").mkdir(exist_ok=True)
    for case in CASES:
        buf = io.StringIO(newline="")
        with contextlib.redirect_stdout(buf):
            code = run(_argv(case))
        if code != case["exit"]:
            raise SystemExit(f"{case['name']}: exit {code}, cases.json says {case['exit']}")
        _expected_path(case).write_bytes(buf.getvalue().encode("utf-8"))


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
