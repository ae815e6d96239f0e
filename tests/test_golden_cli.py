"""Byte-identity of the CLI reports on a fixed list of cheap commands.

Every report is compared in full (params, checks, results, passed and
the exit code), minus `wall_time_s`, against `golden_cli.json`, and its
raw text against the layout of `json.dumps(sort_keys=True, indent=2)`.
To record the file again from the current source:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hsdfactor import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

CASES = [
    ["verify", "identities", "--mu", "1", "--m", "3", "--degree", "2"],
    ["verify", "identities", "--mu", "1,0", "--m", "5", "--degree", "2"],
    ["verify", "theorem", "--mu", "1", "--m", "3", "--power", "2", "--degree", "4"],
    ["verify", "theorem", "--mu", "1,0", "--m", "5", "--power", "2", "--degree", "4"],
    ["kernel", "--mu", "1", "--m", "3", "--degree", "3"],
    ["verify", "induction", "--mu", "2", "--m", "3", "--degree", "2"],
    ["verify", "corollary", "--mu", "1", "--m", "3", "--degree", "3"],
    ["dims", "--mu", "2,1", "--m", "5"],
    ["factorize", "--mu", "3,1", "--power", "4"],
    ["verify", "box", "--mu", "2,1"],
    ["verify", "path", "--mu", "2,1"],
    ["kernel", "--mu", "1,1", "--m", "5", "--degree", "1"],
    ["verify", "identities", "--mu", "1,1", "--m", "5", "--degree", "2"],
    ["verify", "theorem", "--mu", "1,1", "--m", "5", "--power", "2", "--degree", "4"],
    ["verify", "theorem", "--mu", "1,1", "--m", "5", "--power", "2", "--degree", "6"],
    ["verify", "identities", "--mu", "2,1", "--m", "5", "--degree", "2"],
    ["factorize", "--mu", "4,1,1", "--power", "5"],
    ["factorize", "--mu", "2,1,1,1", "--power", "4"],
    # p >= 3: chains with e >= 2 Laplace factors
    ["verify", "theorem", "--mu", "1", "--m", "3", "--power", "3", "--degree", "7"],
    ["verify", "theorem", "--mu", "1,1", "--m", "5", "--power", "3", "--degree", "6"],
    ["verify", "theorem", "--mu", "1", "--m", "5", "--power", "4", "--degree", "8"],
]


def run_case(argv) -> tuple:
    """(the golden record of one command, without wall_time_s; its raw stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    report = json.loads(buf.getvalue())
    report.pop("wall_time_s", None)
    return {"argv": argv, "exit": code, "report": report}, buf.getvalue()


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(c) for c in CASES])
def test_cli_report_matches_golden(index):
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == CASES
    got, out = run_case(CASES[index])
    assert json.dumps(got, sort_keys=True) == json.dumps(golden[index], sort_keys=True)
    # the layout is part of the contract, not only the parsed values
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


if __name__ == "__main__":
    records = [run_case(argv)[0] for argv in CASES]
    GOLDEN.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n")
    sys.stderr.write(f"wrote {len(records)} reports to {GOLDEN}\n")
