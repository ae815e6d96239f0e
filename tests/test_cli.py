import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


def test_verify_path_echoes_the_parsed_start_weight(capsys):
    reports = []
    for nu in ("1,0", " 1,0"):
        assert cli.run(["verify", "path", "--mu", "2,1", "--nu", nu]) == 0
        reports.append(json.loads(capsys.readouterr().out))
        reports[-1].pop("wall_time_s")
    assert json.dumps(reports[0], indent=2) == json.dumps(reports[1], indent=2)
    assert reports[1]["params"]["nu"] == {"entries": [1, 0], "spin": False}


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

    code = cli._emit(report, "synthetic", Args(), time.perf_counter())
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
    from hsdfactor import polyspace, repthy

    def truncated(ambient):
        spec = repthy.orbital_spec(0, ambient.m - 1, ambient.m, ambient.k)
        return polyspace.operator_matrix(spec, ambient.basis, ambient.basis[:-1])

    repthy.casimir_projectors.cache_clear()
    monkeypatch.setattr(repthy, "casimir_matrix", truncated)
    code, data = run_json(capsys, ["verify", "identities", "--mu", "1", "--m", "3", "--degree", "2"])
    repthy.casimir_projectors.cache_clear()
    assert code == 3
    assert data == {"error": "internal", "type": "SpanError", "message": "image leaves the span of the basis"}


@pytest.mark.parametrize("error", [IndexError, TypeError])
def test_engine_index_and_type_errors_are_internal_errors(capsys, monkeypatch, error):
    """An IndexError or TypeError inside the engine is a fault: exit 3, not a crash read as a failed check."""
    from hsdfactor import polyspace, repthy

    def broken(f, var):
        raise error(f"variable index {var} out of range")

    repthy.simplicial_monogenic_basis.cache_clear()
    monkeypatch.setattr(polyspace, "_check_var", broken)
    code, data = run_json(capsys, ["dims", "--mu", "1", "--m", "3"])
    repthy.simplicial_monogenic_basis.cache_clear()
    assert code == 3
    assert data == {"error": "internal", "type": error.__name__, "message": "variable index 1 out of range"}


@pytest.mark.parametrize(
    "extra_cols,message",
    [(0, "shape mismatch 5x4 * 5x4"), (1, "terms of shapes 5x5 and 4x4 in one sum")],
)
def test_shape_mismatch_is_an_internal_error(capsys, monkeypatch, extra_cols, message):
    """A step block of the wrong shape is an engine fault: exit 3, not a usage error."""
    from hsdfactor import hsd
    from hsdfactor.linalg import Mat

    real = hsd._step_ops

    def widened(ps):
        op_between = real(ps)
        top = ps.weights[0]

        def block(target, source):
            op = op_between(target, source)
            if target != top or source != top:
                return op
            # one zero row more, and extra_cols zero columns more
            return hsd.DerivOp(op.m, {
                sig: Mat._reduced(mat.num + [{}], mat.den, mat.ncols + extra_cols) for sig, mat in op.terms.items()
            })

        return block

    monkeypatch.setattr(hsd, "_step_ops", widened)
    code, data = run_json(capsys, ["verify", "identities", "--mu", "1", "--m", "3", "--degree", "2"])
    assert code == 3
    assert data == {"error": "internal", "type": "ShapeError", "message": message}


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


@pytest.mark.parametrize(
    "argv,node",
    [
        (["paths", "--mu", "2,1", "--nu", "0,1"], "(0,1)"),
        (["paths", "--mu", "0,1"], "(0,1)"),
        (["paths", "--mu", "0,1,1"], "(0,1,1)"),  # the end, not the first non-dominant node on the way
    ],
)
def test_paths_rejects_a_non_dominant_end(capsys, argv, node):
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data == {"error": "usage", "message": f"path node {node} is not dominant"}


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


def test_deep_weights_and_long_paths_do_not_recurse(capsys):
    """A weight of rank 1201 and a path of 1500 steps are valid input: the box
    and path generators do not recurse per coordinate or per step."""
    deep = ",".join(["1"] + ["0"] * 1200)
    code, data = run_json(capsys, ["box", "--mu", deep])
    assert code == 0 and data["results"]["count"] == 2
    code, data = run_json(capsys, ["verify", "box", "--mu", deep])
    assert code == 0 and data["passed"]
    code, data = run_json(capsys, ["factorize", "--mu", deep, "--power", "2"])
    assert code == 0 and data["passed"]
    code, data = run_json(capsys, ["paths", "--mu", "1500"])
    assert code == 0 and data["results"]["count"] == 1 and data["results"]["change_sequences"] == [[1] * 1500]
    code, data = run_json(capsys, ["verify", "path", "--mu", "1500", "--nu", "0"])
    assert code == 0 and data["passed"]


def test_verify_induction_honours_cap(capsys):
    code, data = run_json(capsys, ["verify", "induction", "--mu", "3", "--m", "3", "--degree", "4", "--cap", "5"])
    assert code == 2
    assert data["error"] == "resource_cap"
    assert data["message"].startswith("elimination size ")
    code, data = run_json(capsys, ["verify", "induction", "--mu", "1", "--m", "3", "--degree", "2", "--cap", "100000"])
    assert code == 0
    assert data["passed"] is True


@pytest.mark.parametrize(
    "argv,message",
    [
        # the kernel's check comes first ...
        (["verify", "induction", "--mu", "2", "--m", "7", "--degree", "2"], "elimination size 1568x4704 exceeds cap 4000000"),
        # ... then the double-monogenic one
        (["verify", "induction", "--mu", "4", "--m", "3", "--degree", "10"], "elimination size 2970x1980 exceeds cap 4000000"),
    ],
)
def test_verify_induction_cap_checks_keep_their_order(capsys, argv, message):
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data == {"error": "resource_cap", "message": message}


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
    # a valid argv is read off the command table: no parser is built for it
    cli._build_parser.cache_clear()
    valid = [argv for argv in sequence if "--bogus" not in argv]
    assert [outputs(argv) for argv in valid] == [out for argv, out in zip(sequence, separate) if argv in valid]
    assert cli._build_parser.cache_info().misses == 0


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


@pytest.mark.parametrize("entry", ["1_0", "+1", "\u0661", "\uff11", "1.0", "0x1", "", " "])
def test_weight_entries_are_ascii_decimal_integers(capsys, entry):
    # int() reads 1_0 as 10, +1 as 1 and non-ASCII digits as theirs
    for flag, argv in [("--mu", ["factorize", "--power", "11", "--mu"]), ("--nu", ["paths", "--mu", "9,9", "--nu"])]:
        with pytest.raises(SystemExit) as exc:
            cli.run(argv + [f"{entry},0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse {flag} ") and err.endswith("expected comma-separated integers\n")


@pytest.mark.parametrize("value", ["1_1", "+1", "\u0661", "1.0", "", "--"])
@pytest.mark.parametrize("flag", ["--m", "--degree", "--cap", "--rank"])
def test_integer_flags_are_ascii_decimal_integers(capsys, flag, value):
    argv = ["kernel", "--mu", "1", "--m", "3", "--degree", "2"]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hsdfactor kernel ")
    assert f"error: argument {flag}: " in err


def test_integers_may_carry_surrounding_whitespace(capsys):
    code, data = run_json(capsys, ["factorize", "--mu", " 2, -0 ", "--power", " 3 ", "--rank", "2 "])
    assert code == 0 and data["params"]["mu"] == {"entries": [2, 0], "spin": False}
    code, data = run_json(capsys, ["factorize", "--mu", "-1", "--power", "1"])  # parsed, then not dominant
    assert code == 2 and data["error"] == "usage"


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


@pytest.mark.parametrize("argv", [["paths", "--mu", "2,1", "--nu", ""], ["verify", "path", "--mu", "2,1", "--nu", ""]])
def test_empty_nu_is_not_an_absent_nu(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot parse --nu ''; expected comma-separated integers\n"


def test_empty_json_is_an_unwritable_report(capsys):
    code, data = run_json(capsys, ["box", "--mu", "2,1", "--json", ""])
    assert code == 2
    assert data["error"] == "usage"
    assert data["message"].startswith("cannot write the report: ")


def test_wall_time_ignores_steps_of_the_wall_clock(capsys, monkeypatch):
    clock = itertools.count(10**6, -1000)  # the wall clock steps back 1000 s at every reading
    monkeypatch.setattr(time, "time", lambda: next(clock))
    code, data = run_json(capsys, ["box", "--mu", "2,1"])
    assert code == 0
    assert 0 <= data["wall_time_s"] < 60


def _argparse_namespace(argv) -> dict:
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args, extra = cli._build_parser().parse_known_args(argv)
    except SystemExit:
        pytest.fail(f"argparse rejects {argv}")
    assert extra == []
    return vars(args)


_INTEGER_FLAGS = {flag for flag, spec in cli._FLAGS.items() if spec.get("type") is cli._integer}
_TEXTS = st.sampled_from(["1", "2,1", " 3 ", "0 ", " -2", "1_0", "+1", "x", "a=b", "", " ", "-1", "-", "--", "-x"])


@st.composite
def _argvs(draw):
    """A command's argv with every required flag given, then mangled: pieces
    added, repeated, spelled with "=", abbreviated or dropped."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS) + ["verify", "nonsense", "verify nonsense"]))
    flags = cli._all_flags(cli._COMMANDS.get(command, (None, None, {}))[2])
    pieces = [[f"--{flag}", draw(_TEXTS)] for flag, default in flags.items() if default is cli._REQUIRED]
    names = sorted(cli._FLAGS) + ["bogus", "help", "command"]
    extra = st.one_of(
        st.tuples(st.sampled_from(names), _TEXTS).map(lambda nv: [f"--{nv[0]}", nv[1]]),
        st.tuples(st.sampled_from(names), _TEXTS).map(lambda nv: [f"--{nv[0]}={nv[1]}"]),
        st.sampled_from(names).map(lambda name: [f"--{name}"]),  # a flag without its value
        st.sampled_from(names).map(lambda name: [f"--{name[:2]}"]),  # an abbreviation
        st.sampled_from([["-h"], ["--help"], ["--"], ["1"]]),
    )
    for piece in draw(st.lists(extra, max_size=3)):
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    if pieces and draw(st.booleans()):
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    return command.split() + [word for piece in pieces for word in piece]


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_an_accepted_argv_reads_as_argparse_reads_it(argv):
    args = cli._read_plain(argv)
    if args is not None:
        assert vars(args) == _argparse_namespace(argv)


@st.composite
def _plain_argvs(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = cli._all_flags(cli._COMMANDS[command][2])
    given_flags = [flag for flag, default in flags.items() if default is cli._REQUIRED or draw(st.booleans())]
    pairs = []
    for flag in draw(st.permutations(given_flags)):
        if flag in _INTEGER_FLAGS:
            text = draw(st.sampled_from(["", " "])) + str(draw(st.integers(0, 99))) + draw(st.sampled_from(["", " "]))
        else:
            text = draw(st.sampled_from(["", "2,1", " 1, 0", "x", "a=b", "out.json"]))
        pairs += [f"--{flag}", text]
    return command.split() + pairs


@settings(max_examples=300, deadline=None)
@given(_plain_argvs())
def test_a_plain_argv_is_read_off_the_table(argv):
    args = cli._read_plain(argv)
    assert args is not None
    assert vars(args) == _argparse_namespace(argv)


def test_every_golden_argv_is_read_off_the_table():
    golden = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
    assert len(golden) == 21
    for case in golden:
        args = cli._read_plain(case["argv"])
        assert args is not None, case["argv"]
        assert vars(args) == _argparse_namespace(case["argv"])
