"""Byte-identity of the CLI on fixed lists of commands.

Every report of the cheap `CASES` is compared in full (params, checks,
results, passed and the exit code), minus `wall_time_s`, against
`golden_cli.json`, and its raw text against the layout of
`json.dumps(sort_keys=True, indent=2)`.

`golden_digests.json` holds one SHA-256 per command, of its exit code,
its stdout with the `wall_time_s` value masked, and its stderr, for
`CASES`, every case of the three benchmark pools (their argv written
into the file, so that no test imports the benchmark), the refusals and
usage errors in `REFUSALS`, and the costlier commands in `EXTRAS`.
To record both files again from the current source:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hsdfactor import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")
DIGESTS = Path(__file__).with_name("golden_digests.json")

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

# Commands that exit 2: a bad m on every numeric command, checks that
# refuse a weight or a path, argparse's usage errors and resource caps.
REFUSALS = [
    f"{command} --mu 1 --m {m} {flags}".split()
    for m in (1, 2, 4, -3)
    for command, flags in (
        ("dims", ""),
        ("kernel", "--degree 1"),
        ("verify identities", "--degree 2"),
        ("verify theorem", "--power 2 --degree 4"),
        ("verify induction", "--degree 2"),
        ("verify corollary", "--degree 3"),
    )
] + [
    cmd.split()
    for cmd in (
        "verify theorem --mu 1 --m 4 --power 1 --degree 4",
        "verify path --mu 2 --nu 3",
        "paths --mu 2 --nu 3",
        "paths --mu 2,1 --nu 0,1",
        "verify corollary --mu 2 --m 3 --degree 3",
        "kernel --mu 1 --m 3 --degree x",
        "kernel --mu 1 --m 3 --degree 2 --power 7",
        "verify identities --mu 1 --m 31 --degree 1 --cap 1",
        "verify theorem --mu 1 --m 31 --power 2 --degree 4",
    )
]

# Every ambient and shape kind, at sizes the pools leave out.
EXTRAS = [
    cmd.split()
    for cmd in (
        "verify identities --mu 2,1 --m 5 --degree 2",
        "verify identities --mu 1,1,1 --m 7 --degree 1",
        "verify identities --mu 1,1 --m 5 --degree 2",
        "verify identities --mu 0 --m 3 --degree 2",
        "verify identities --mu 0,0 --m 5 --degree 1",
        "verify identities --mu 1 --m 5 --degree 1 --cap 10",
        "verify theorem --mu 1,1,1 --m 7 --power 2 --degree 4",
        "verify theorem --mu 1,1 --m 5 --power 2 --degree 8",
        "verify theorem --mu 1 --m 7 --power 4 --degree 8",
        "verify theorem --mu 0 --m 3 --power 2 --degree 4",
        "kernel --mu 2,1 --m 5 --degree 2",
        "kernel --mu 2,2 --m 5 --degree 1",
        "kernel --mu 1,1 --m 5 --degree 3",
        "kernel --mu 4 --m 3 --degree 14",
        "kernel --mu 1,1,1 --m 7 --degree 1",
        "kernel --mu 1,1 --m 7 --degree 2",
        "kernel --mu 1 --m 5 --degree 2 --cap 10",
        "dims --mu 2,2 --m 7 --cap 100000000",
        "dims --mu 1,1,1 --m 7 --cap 20000000",
        "dims --mu 1,1,1 --m 7",
        "dims --mu 0 --m 3",
        "verify corollary --mu 1,1 --m 5 --degree 4",
        "verify corollary --mu 2 --m 5 --degree 4",
        "verify induction --mu 4 --m 3 --degree 8",
        "verify induction --mu 2 --m 5 --degree 2",
        "verify induction --mu 0 --m 3 --degree 3",
    )
]

_WALL_TIME = re.compile(r'("wall_time_s": )[^,\n}]+')


def run_text(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(code, out: str, err: str) -> str:
    """SHA-256 of the exit code, stdout with wall_time_s masked, and stderr."""
    text = json.dumps([code, _WALL_TIME.sub(r"\1null", out), err])
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(argv) -> tuple:
    """(the golden record of one command, without wall_time_s; its raw stdout; its digest)."""
    code, out, err = run_text(argv)
    report = json.loads(out)
    report.pop("wall_time_s", None)
    return {"argv": argv, "exit": code, "report": report}, out, digest(code, out, err)


def _digests() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(c) for c in CASES])
def test_cli_report_matches_golden(index):
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == CASES
    got, out, sha = run_case(CASES[index])
    assert json.dumps(got, sort_keys=True) == json.dumps(golden[index], sort_keys=True)
    # the layout is part of the contract, not only the parsed values
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert _digests()["golden"][index] == {"argv": CASES[index], "sha256": sha}


def test_digest_lists_are_the_recorded_ones():
    digests = _digests()
    assert list(digests) == ["golden", "certify", "identities", "kernels", "refusals", "extras"]
    assert [d["argv"] for d in digests["golden"]] == CASES
    assert [d["argv"] for d in digests["refusals"]] == REFUSALS
    assert [d["argv"] for d in digests["extras"]] == EXTRAS


@pytest.mark.parametrize("section", ["certify", "identities", "kernels", "refusals", "extras"])
def test_cli_output_matches_digest(section):
    entries = _digests()[section]
    assert entries
    changed = [" ".join(d["argv"]) for d in entries if digest(*run_text(d["argv"])) != d["sha256"]]
    assert changed == []


def _pools() -> dict:
    """The benchmark's case pools, imported only when recording."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return {name: [list(argv) for argv in workloads.pool(name)] for name in workloads.WORKLOADS}


if __name__ == "__main__":
    records, golden = [], []
    for argv in CASES:
        record, _, sha = run_case(argv)
        records.append(record)
        golden.append({"argv": argv, "sha256": sha})
    GOLDEN.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n")
    sections = {"golden": golden, **_pools(), "refusals": REFUSALS, "extras": EXTRAS}
    for name in list(sections)[1:]:
        sections[name] = [{"argv": argv, "sha256": digest(*run_text(argv))} for argv in sections[name]]
    DIGESTS.write_text(json.dumps(sections, indent=1) + "\n")
    count = sum(map(len, sections.values()))
    sys.stderr.write(f"wrote {len(records)} reports to {GOLDEN} and {count} digests to {DIGESTS}\n")
