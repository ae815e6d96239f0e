import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hsdfactor import cli
from hsdfactor.reports import Check, Report


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_box_command(capsys):
    code, data = run_json(capsys, ["box", "--mu", "2,1"])
    assert code == 0
    assert data["results"]["count"] == 4
    assert data["results"]["box"][0] == {"entries": [2, 1], "spin": False}


def test_paths_command(capsys):
    code, data = run_json(capsys, ["paths", "--mu", "2,1", "--nu", "0,0"])
    assert code == 0
    assert data["results"]["count"] == 2
    assert data["results"]["change_sequences"] == [[1, 1, 2], [1, 2, 1]]


def test_factorize_command(capsys):
    code, data = run_json(capsys, ["factorize", "--mu", "1,0", "--power", "2"])
    assert code == 0
    cert = data["results"]["certificate"]
    assert len(cert["coefficients"]) == 2
    assert cert["residual"]["terms"] == []
    values = {tuple(c["lambda"]["entries"]): c["value"] for c in cert["coefficients"]}
    assert values == {(1, 0): "-1/1", (0, 0): "1/1"}


def test_dims_command(capsys):
    code, data = run_json(capsys, ["dims", "--mu", "1", "--m", "5"])
    assert code == 0
    assert data["results"]["dimension"] == 16


def test_kernel_command(capsys):
    code, data = run_json(capsys, ["kernel", "--mu", "1", "--m", "3", "--degree", "2"])
    assert code == 0
    assert data["results"]["dimension"] == 12


def test_verify_theorem_command(capsys):
    code, data = run_json(capsys, ["verify", "theorem", "--mu", "1", "--m", "3", "--power", "2", "--degree", "4"])
    assert code == 0
    assert data["passed"] is True


def test_verify_path_sweep(capsys):
    code, data = run_json(capsys, ["verify", "path", "--mu", "2,1"])
    assert code == 0
    assert len(data["checks"]) > 1  # sweeps every start weight below mu


def test_verify_box_command(capsys):
    code, data = run_json(capsys, ["verify", "box", "--mu", "2,2"])
    assert code == 0


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["kernel", "--mu", "1"])                      # missing --m/--degree
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.run(["verify", "theorem", "--mu", "1", "--m", "3", "--power", "1", "--degree", "4"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.run(["box", "--mu", "2,x"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.run(["nonsense"])
    capsys.readouterr()


def test_resource_cap_distinguished(capsys):
    code = cli.run(["verify", "theorem", "--mu", "2", "--m", "3", "--power", "3", "--degree", "6"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"] == "resource_cap"


def test_rank_validation(capsys):
    with pytest.raises(SystemExit):
        cli.run(["box", "--mu", "2,1", "--rank", "3"])
    capsys.readouterr()


def test_failed_check_exits_1(tmp_path):
    report = Report(title="synthetic", params={}, checks=[Check("always_fails", False, {})])

    class Args:
        json = str(tmp_path / "r.json")

    code = cli._emit(report, "synthetic", Args(), time.time())
    assert code == 1
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["passed"] is False


def test_json_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.run(["box", "--mu", "3,1", "--json", str(out1)]) == 0
    assert cli.run(["box", "--mu", "3,1", "--json", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1.pop("wall_time_s")
    d2.pop("wall_time_s")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--mu", "1", "--m", "3", "--degree", "-1"],
        ["verify", "identities", "--mu", "1", "--m", "3", "--degree", "-1"],
        ["verify", "induction", "--mu", "1", "--m", "3", "--degree", "-1"],
        ["verify", "corollary", "--mu", "1", "--m", "3", "--degree", "-1"],
        ["dims", "--mu", "1", "--m", "3", "--cap", "-5"],
        ["kernel", "--mu", "1", "--m", "3", "--degree", "1", "--cap", "-5"],
        # a cap of 0 would read as no cap given, and a negative power as a valid one
        ["factorize", "--mu", "2,1", "--power", "3", "--cap", "0"],
        ["kernel", "--mu", "1", "--m", "3", "--degree", "1", "--cap", "0"],
        ["paths", "--mu", "2,1", "--cap", "0"],
        ["verify", "theorem", "--mu", "1", "--m", "3", "--power", "-4", "--degree", "4"],
    ],
)
def test_negative_degree_or_cap_is_usage_error(capsys, argv):
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data["error"] == "usage"


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(args, mu):
        raise AssertionError("projector is not idempotent")

    _, help_text, flags = cli._COMMANDS["box"]
    monkeypatch.setitem(cli._COMMANDS, "box", (broken, help_text, flags))
    code, data = run_json(capsys, ["box", "--mu", "2,1"])
    assert code == 3
    assert data == {"error": "internal", "type": "AssertionError", "message": "projector is not idempotent"}


def test_zero_division_is_an_internal_error(capsys, monkeypatch):
    """No usage check divides by zero, so a ZeroDivisionError is an engine fault: exit 3, not 2."""
    def broken(args, mu):
        raise ZeroDivisionError("QQi division by zero")

    _, help_text, flags = cli._COMMANDS["box"]
    monkeypatch.setitem(cli._COMMANDS, "box", (broken, help_text, flags))
    code, data = run_json(capsys, ["box", "--mu", "2,1"])
    assert code == 3
    assert data == {"error": "internal", "type": "ZeroDivisionError", "message": "QQi division by zero"}


def test_span_failure_is_an_internal_error(capsys, monkeypatch):
    """An image leaving the codomain span is an engine self-check: exit 3, not a usage error."""
    from hsdfactor import repthy

    def truncated(ambient):
        spec = repthy.orbital_spec(0, ambient.m - 1, ambient.m, ambient.k)
        return repthy.operator_matrix(spec, ambient.basis, ambient.basis[:-1])

    repthy.casimir_projectors.cache_clear()
    monkeypatch.setattr(repthy, "casimir_matrix", truncated)
    code, data = run_json(capsys, ["verify", "identities", "--mu", "1", "--m", "3", "--degree", "2"])
    repthy.casimir_projectors.cache_clear()
    assert code == 3
    assert data == {"error": "internal", "type": "SpanError", "message": "image leaves the span of the basis"}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "path", "--mu", "1,2"],
        ["verify", "path", "--mu", "2,1", "--nu", "0,1"],
    ],
)
def test_verify_path_rejects_non_dominant_weights(capsys, argv):
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data["error"] == "usage"


def test_factorize_honours_cap(capsys):
    code, data = run_json(capsys, ["factorize", "--mu", "2,1", "--power", "3", "--cap", "5"])
    assert code == 2
    assert data["error"] == "resource_cap"
    code, capped = run_json(capsys, ["factorize", "--mu", "2,1", "--power", "3", "--cap", "100000"])
    assert code == 0
    code, free = run_json(capsys, ["factorize", "--mu", "2,1", "--power", "3"])
    assert code == 0
    assert capped["results"] == free["results"]


def test_verify_path_cap_exits_2(capsys):
    # (12,8,4) has far more than 5 paths from (0,0,0): a truncated
    # enumeration is a hit cap, not a failed independence check
    code, data = run_json(capsys, ["verify", "path", "--mu", "12,8,4", "--cap", "5"])
    assert code == 2
    assert data == {"error": "resource_cap", "message": "more than 5 paths from (0,0,0) to (12,8,4)"}


def test_paths_cap_truncates_the_listing(capsys):
    code, data = run_json(capsys, ["paths", "--mu", "12,8,4", "--cap", "5"])
    assert code == 0
    assert data["results"]["truncated"] is True
    assert data["results"]["count"] == 5


def test_verify_induction_honours_cap(capsys):
    code, data = run_json(capsys, ["verify", "induction", "--mu", "3", "--m", "3", "--degree", "4", "--cap", "5"])
    assert code == 2
    assert data["error"] == "resource_cap"
    assert data["message"].startswith("elimination size ")
    code, data = run_json(capsys, ["verify", "induction", "--mu", "1", "--m", "3", "--degree", "2", "--cap", "100000"])
    assert code == 0
    assert data["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--mu", "2,1", "--m", "5", "--degree", "0", "--cap", "1"],
        ["verify", "corollary", "--mu", "2,1", "--m", "5", "--degree", "4", "--cap", "1"],
    ],
)
def test_cap_bounds_the_value_space_basis(capsys, argv):
    # at x-degree 0, where the corollary also starts, the kernel elimination
    # has no rows; the 300x300 value-space basis of explicit_hsd is what the
    # cap must refuse
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data == {"error": "resource_cap", "message": "elimination size 300x300 exceeds cap 1"}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "identities", "--mu", "1", "--m", "3", "--degree", "2", "--cap", "1"],
        ["verify", "theorem", "--mu", "1", "--m", "3", "--power", "2", "--degree", "4", "--cap", "1"],
    ],
)
def test_numeric_verifiers_honour_cap(capsys, argv):
    # the 6 x 6 Casimir matrix of the (1) x spinors ambient is what the cap must refuse
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data == {"error": "resource_cap", "message": "elimination size 6x6 exceeds cap 1"}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "identities", "--mu", "1", "--m", "4", "--degree", "2"],
        ["verify", "theorem", "--mu", "1", "--m", "4", "--power", "2", "--degree", "4"],
    ],
)
def test_even_dimension_is_usage_error(capsys, argv):
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data == {"error": "usage", "message": "odd dimension m = 2n+1 >= 3 required, got 4"}


@pytest.mark.parametrize(
    "argv,message",
    [
        (["factorize", "--mu", "2,1", "--power", "0"], "power must be >= 1"),
        (["verify", "theorem", "--mu", "1", "--m", "3", "--power", "0", "--degree", "4"], "need p > mu_1, got p=0, mu_1=1"),
    ],
)
def test_power_zero_is_usage_error(capsys, argv, message):
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data == {"error": "usage", "message": message}


def test_one_parser_serves_successive_runs(capsys):
    # run() reuses one cached parser; each run must still see only its own argv
    def outputs(argv):
        try:
            code = cli.run(argv)
        except SystemExit as exc:      # argparse's own usage errors
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        report = json.loads(captured.out) if captured.out else None
        if report:
            report.pop("wall_time_s", None)
        return code, report, captured.err

    sequence = [
        ["verify", "path", "--mu", "2,1", "--nu", "1,0"],
        ["box", "--mu", "2,1", "--bogus"],
        ["paths", "--mu", "2,1"],
        ["factorize", "--mu", "2,1", "--power", "3", "--cap", "5"],
        ["verify", "box", "--mu", "2,1"],
    ]
    separate = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        separate.append(outputs(argv))
    cli._build_parser.cache_clear()
    back_to_back = [outputs(argv) for argv in sequence]
    assert back_to_back == separate
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in separate] == [0, ("exit", 2), 0, 2, 0]
    assert separate[2][1]["params"]["nu"]["entries"] == [0, 0]


def test_verify_theorem_cap_bounds_the_monomials(capsys):
    # degrees 4..12 in 5 variables are 6,132 monomials; the (1) x spinors
    # ambient (20 x 20 cells) is well inside either cap
    argv = ["verify", "theorem", "--mu", "1", "--m", "5", "--power", "2"]
    code, data = run_json(capsys, argv + ["--degree", "12", "--cap", "5000"])
    assert code == 2
    assert data == {"error": "resource_cap", "message": "6132 monomials of degrees 4..12 exceed cap 5000"}
    code, data = run_json(capsys, argv + ["--degree", "6", "--cap", "405"])
    assert code == 2
    assert data["message"] == "406 monomials of degrees 4..6 exceed cap 405"
    code, data = run_json(capsys, argv + ["--degree", "6", "--cap", "406"])
    assert code == 0
    assert data["passed"] is True


# Each command's flags besides --mu, --rank and --json: the value given to
# each required flag, and the default of each optional one.
FLAG_TABLE = [
    ("box", {}, {}),
    ("verify box", {}, {}),
    ("paths", {}, {"nu": None, "cap": 10000}),
    ("verify path", {}, {"nu": None, "cap": 10000}),
    ("factorize", {"power": 3}, {"cap": None}),
    ("dims", {"m": 3}, {"cap": 4_000_000}),
    ("kernel", {"m": 3, "degree": 2}, {"cap": 4_000_000}),
    ("verify identities", {"m": 3, "degree": 2}, {"cap": 4_000_000}),
    ("verify induction", {"m": 3, "degree": 2}, {"cap": 4_000_000}),
    ("verify corollary", {"m": 3, "degree": 2}, {"cap": 4_000_000}),
    ("verify theorem", {"m": 3, "power": 2, "degree": 4}, {"cap": 4_000_000}),
]


@pytest.mark.parametrize("command,required,optional", FLAG_TABLE, ids=[row[0] for row in FLAG_TABLE])
def test_each_command_takes_exactly_its_flags(command, required, optional):
    parser = cli._build_parser()
    given = [x for flag, value in required.items() for x in (f"--{flag}", str(value))]
    args = parser.parse_args(command.split() + ["--mu", "1"] + given)
    assert vars(args) == {"command": command, "mu": "1", "rank": None, "json": None, **required, **optional}
    for i in range(0, len(given), 2):  # each required flag left out
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(command.split() + ["--mu", "1"] + given[:i] + given[i + 2:])
        assert exc.value.code == 2
    for flag in {"nu", "m", "power", "degree", "cap"} - set(required) - set(optional):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(command.split() + ["--mu", "1"] + given + [f"--{flag}", "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--mu", "1", "--m", "3", "--degree", "2", "--power", "7"],
        ["factorize", "--mu", "2,1", "--power", "3", "--m", "3"],
        ["verify", "box", "--mu", "2,1", "--cap", "1"],
        ["dims", "--mu", "1", "--m", "3", "--degree", "2"],
        ["box", "--mu", "2,1", "--m", "3"],
        ["verify", "identities", "--mu", "1", "--m", "3", "--degree", "2", "--nu", "0"],
    ],
)
def test_command_rejects_a_flag_it_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,prog",
    [
        (["kernel", "--mu", "1", "--m", "3", "--degree", "2", "--power", "7"], "hsdfactor kernel"),
        (["box", "--mu", "2,1", "--m", "3"], "hsdfactor box"),
        (["verify", "identities", "--mu", "1", "--m", "3", "--degree", "2", "--nu", "0"], "hsdfactor verify identities"),
    ],
)
def test_unread_flag_is_reported_with_the_command_usage(capsys, argv, prog):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith(f"usage: {prog} [-h] --mu MU")
    assert lines[-1] == f"{prog}: error: unrecognized arguments: {' '.join(argv[-2:])}"


def test_corollary_below_the_degree_floor_is_usage_error(capsys):
    # orders at degree h are at most h/2 + 1, so the bound mu_1 + 1 needs h >= 2 mu_1
    code, data = run_json(capsys, ["verify", "corollary", "--mu", "2", "--m", "3", "--degree", "3"])
    assert code == 2
    assert data == {"error": "usage", "message": "--degree must be at least 2*mu_1 = 4 to reach order 3, got 3"}
    code, data = run_json(capsys, ["verify", "corollary", "--mu", "2", "--m", "3", "--degree", "4"])
    assert code == 0
    assert data["checks"][-1] == {"name": "bound_attained", "passed": True, "details": {"bound": 3}}


def test_rank_mismatch_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["paths", "--mu", "2,1", "--nu", "1", "--rank", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: --nu has rank 1, but --rank 2 was given\n"


def test_unwritable_report_is_a_usage_error(capsys, tmp_path):
    # exit 1 means a failed check; a report that cannot be written is not one
    target = tmp_path / "missing" / "r.json"
    code, data = run_json(capsys, ["box", "--mu", "2,1", "--json", str(target)])
    assert code == 2
    assert data["error"] == "usage"
    assert data["message"].startswith("cannot write the report: ") and str(target) in data["message"]
    assert not target.exists()


def test_closed_stdout_exits_2_with_one_line_on_stderr():
    # the report (about 93 kB) is larger than a pipe holds, so the reader's exit breaks the write
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "hsdfactor.cli", "factorize", "--mu", "6,4,2", "--power", "7"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err.splitlines() == ["error: stdout was closed before the report was written"]
