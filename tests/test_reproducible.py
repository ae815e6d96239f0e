"""Reports that must not move under a refactor: every case of every benchmark
pool against its reference digest in `perfbench/references.json`, and one
command of each kind under two hash seeds.

The pool check runs each case through `cli.run` in this process and judges
it as a benchmark pass does (`perfbench/worker.py`): exit 0, `passed: true`
and the recorded SHA-256 of its `results`.  It reads `perfbench/` and
writes nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hsdfactor import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

sys.path.insert(0, str(PERFBENCH))
import worker  # noqa: E402
import workloads  # noqa: E402

sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pool_case_matches_its_reference_digest(workload):
    references = json.loads((PERFBENCH / "references.json").read_text())
    failures = []
    for argv in workloads.pool(workload):
        _, code, stdout = worker._run_case(cli, argv)
        _, error = worker._check(code, stdout, references.get(worker.case_key(argv)))
        if error is not None:
            failures.append((worker.case_key(argv), error))
    assert failures == []


# One command of each kind; `factorize` once above the power floor and once with a residual.
COMMANDS = [
    ["box", "--mu", "3,1"],
    ["verify", "box", "--mu", "3,2,1"],
    ["paths", "--mu", "3,2,1", "--nu", "1,1,0"],
    ["verify", "path", "--mu", "3,2,1"],
    ["factorize", "--mu", "4,1,1", "--power", "5"],
    ["factorize", "--mu", "3,1", "--power", "2"],
    ["dims", "--mu", "2,1", "--m", "5"],
    ["kernel", "--mu", "1", "--m", "3", "--degree", "3"],
    ["verify", "identities", "--mu", "1,0", "--m", "5", "--degree", "2"],
    ["verify", "theorem", "--mu", "1,0", "--m", "5", "--power", "2", "--degree", "4"],
    ["verify", "induction", "--mu", "2", "--m", "3", "--degree", "2"],
    ["verify", "corollary", "--mu", "1", "--m", "3", "--degree", "3"],
]

# Runs COMMANDS in one interpreter; prints each exit code and report, minus its wall_time_s line.
_RUN = """
import contextlib, io, json, sys
from hsdfactor import cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    print(code)
    print("".join(line for line in out.getvalue().splitlines(True) if '"wall_time_s"' not in line))
"""


def _reports(seed: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
    return subprocess.run([sys.executable, "-c", _RUN, json.dumps(COMMANDS)], env=env,
                          capture_output=True, text=True, check=True, timeout=300).stdout


def test_reports_do_not_depend_on_the_hash_seed():
    first, second = _reports("1"), _reports("2")
    assert first.count('"command"') == len(COMMANDS)
    assert first == second
