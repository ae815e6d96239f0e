"""Command-line front end with machine-readable JSON reports.

Subcommands: box, paths, factorize, dims, kernel, verify (with suite
selectors identities | path | box | theorem | induction | corollary).
Exit codes: 0 success / all checks passed, 1 some verification check
failed, 2 usage or resource error, 3 internal error (an exact self-check
of the engine failed, or an unexpected lookup or arithmetic error; printed
as ``{"error": "internal", ...}``, with the traceback on stderr, so it is
never read as a failed check).
Reports are deterministic JSON (sorted keys); the wall-time field is the
only varying part.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time

from .linalg import DEFAULT_CELL_CAP, ResourceCapError
from .opalgebra import (
    WorkBudget,
    certificate_reexpands,
    expand_laplace_power,
    normal_form,
    path_operator,
    vanish_outside_box,
    verify_path_independence,
)
from .hsd import (
    explicit_hsd,
    kernel_basis,
    polyharmonic_order,
    verify_factorization_numeric,
    verify_identities,
    verify_induction_dims,
)
from .repthy import simplicial_monogenic_basis, weyl_dim
from .reports import Check, Report
from .weights import Weight, box, canonical_path, enumerate_paths, is_dominant


def _parse_weight(text: str, rank=None) -> Weight:
    try:
        entries = tuple(int(x) for x in text.split(","))
    except ValueError:
        print(f"error: cannot parse weight {text!r}; expected comma-separated integers", file=sys.stderr)
        raise SystemExit(2)
    w = Weight(entries)
    if rank is not None and w.rank != rank:
        print(f"error: --mu has rank {w.rank}, but --rank {rank} was given", file=sys.stderr)
        raise SystemExit(2)
    return w


def _dominants_below(mu: Weight):
    ranges = [range(0, e + 1) for e in mu.entries]
    for tup in itertools.product(*ranges):
        w = Weight(tup)
        if is_dominant(w):
            yield w


def _emit(report: Report, command: str, args, started: float) -> int:
    payload = report.to_jsonable()
    payload["command"] = command
    payload["wall_time_s"] = round(time.time() - started, 3)
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.passed else 1


def _cmd_box(args, started):
    mu = _parse_weight(args.mu, args.rank)
    members = box(mu)
    report = Report(
        title="box",
        params={"mu": mu},
        checks=[],
        results={"box": members, "count": len(members)},
    )
    return _emit(report, "box", args, started)


def _cmd_paths(args, started):
    mu = _parse_weight(args.mu, args.rank)
    nu = _parse_weight(args.nu, args.rank) if args.nu else Weight((0,) * mu.rank)
    cap = args.cap or 10000
    enum = enumerate_paths(nu, mu, cap=cap)
    report = Report(
        title="paths",
        params={"nu": nu, "mu": mu, "cap": cap},
        checks=[],
        results={
            "count": len(enum.paths),
            "truncated": enum.truncated,
            "change_sequences": [list(p.changes) for p in enum.paths],
            "canonical": canonical_path(nu, mu),
        },
    )
    return _emit(report, "paths", args, started)


def _cmd_factorize(args, started):
    mu = _parse_weight(args.mu, args.rank)
    budget = WorkBudget(args.cap or None)
    cert = expand_laplace_power(mu, args.power, budget)
    checks = [Check("certificate_reexpands", certificate_reexpands(cert, budget), {})]
    if args.power > mu.entries[0]:
        checks.append(Check("residual_empty", cert.residual.is_zero(), {}))
        checks.append(
            Check("support_in_box", set(cert.coefficients) <= set(box(mu)), {})
        )
    report = Report(
        title="factorize",
        params={"mu": mu, "power": args.power},
        checks=checks,
        results={"certificate": cert.to_jsonable()},
    )
    return _emit(report, "factorize", args, started)


def _cmd_dims(args, started):
    if not args.m:
        print("error: dims requires --m", file=sys.stderr)
        return 2
    mu = _parse_weight(args.mu, args.rank)
    space = simplicial_monogenic_basis(mu, args.m, cap=args.cap or DEFAULT_CELL_CAP)
    expected = weyl_dim(space.label, args.m)
    report = Report(
        title="dims",
        params={"mu": mu, "m": args.m},
        checks=[
            Check("realized_matches_weyl", space.dim == expected, {"realized": space.dim, "weyl": expected})
        ],
        results={"label": space.label, "dimension": space.dim, "weyl": expected},
    )
    return _emit(report, "dims", args, started)


def _cmd_kernel(args, started):
    if not args.m or args.degree is None:
        print("error: kernel requires --m and --degree", file=sys.stderr)
        return 2
    mu = _parse_weight(args.mu, args.rank)
    cap = args.cap or DEFAULT_CELL_CAP
    op = explicit_hsd(mu, args.m, cap=cap)
    basis = kernel_basis(op, args.degree, cap=cap)
    orders = sorted({polyharmonic_order(f) for f in basis}) if basis else []
    report = Report(
        title="kernel",
        params={"mu": mu, "m": args.m, "degree": args.degree},
        checks=[],
        results={"dimension": len(basis), "polyharmonic_orders": orders},
    )
    return _emit(report, "kernel", args, started)


def _verify_path(args, started):
    mu = _parse_weight(args.mu, args.rank)
    cap = args.cap or 10000
    nus = [_parse_weight(args.nu, args.rank)] if args.nu else list(_dominants_below(mu))
    for w in (mu, *nus):
        if not is_dominant(w):
            raise ValueError(f"{w} is not dominant")
    checks = []
    details = []
    for nu in nus:
        rep = verify_path_independence(nu, mu, cap=cap)
        if rep.results["truncated"]:
            raise ResourceCapError(f"more than {cap} paths from {nu} to {mu}")
        checks.append(Check(f"paths_{nu}_{mu}", rep.passed, {"count": rep.results["path_count"]}))
        details.append({"nu": nu, "paths": rep.results["path_count"]})
    report = Report(
        title="verify_path",
        params={"mu": mu, "nu": args.nu, "cap": cap},
        checks=checks,
        results={"pairs": details},
    )
    return _emit(report, "verify path", args, started)


def _verify_box(args, started):
    mu = _parse_weight(args.mu, args.rank)
    inside = set(box(mu))
    checks = []
    for lam in _dominants_below(mu):
        nf = normal_form(path_operator(canonical_path(lam, mu)))
        rv = normal_form(path_operator(canonical_path(lam, mu).reversed()))
        expected_zero = lam not in inside
        ok = (nf.is_zero() == expected_zero) and (rv.is_zero() == expected_zero)
        details = {"in_box": not expected_zero}
        if expected_zero:
            trace = vanish_outside_box(mu, lam)
            ok = ok and trace.vanished
            details["trace"] = trace.to_jsonable()
        checks.append(Check(f"box_{lam}", ok, details))
    report = Report(
        title="verify_box",
        params={"mu": mu},
        checks=checks,
        results={"box": sorted(inside, key=lambda w: w.entries, reverse=True)},
    )
    return _emit(report, "verify box", args, started)


def _verify_theorem(args, started):
    if not args.m or args.degree is None or args.power is None:
        print("error: verify theorem requires --m, --power and --degree", file=sys.stderr)
        return 2
    mu = _parse_weight(args.mu, args.rank)
    report = verify_factorization_numeric(mu, args.power, args.m, args.degree, cap=args.cap or DEFAULT_CELL_CAP)
    return _emit(report, "verify theorem", args, started)


def _verify_identities(args, started):
    if not args.m or args.degree is None:
        print("error: verify identities requires --m and --degree", file=sys.stderr)
        return 2
    mu = _parse_weight(args.mu, args.rank)
    report = verify_identities(mu, args.m, args.degree, cap=args.cap or DEFAULT_CELL_CAP)
    return _emit(report, "verify identities", args, started)


def _verify_induction(args, started):
    if not args.m or args.degree is None:
        print("error: verify induction requires --m and --degree (= h)", file=sys.stderr)
        return 2
    mu = _parse_weight(args.mu, args.rank)
    if mu.rank != 1:
        print("error: induction takes a rank-1 shape --mu k", file=sys.stderr)
        return 2
    report = verify_induction_dims(mu.entries[0], args.degree, args.m, cap=args.cap or DEFAULT_CELL_CAP)
    return _emit(report, "verify induction", args, started)


def _verify_corollary(args, started):
    if not args.m or args.degree is None:
        print("error: verify corollary requires --m and --degree", file=sys.stderr)
        return 2
    mu = _parse_weight(args.mu, args.rank)
    bound = mu.entries[0] + 1
    cap = args.cap or DEFAULT_CELL_CAP
    op = explicit_hsd(mu, args.m, cap=cap)
    checks = []
    sharp = False
    for h in range(0, args.degree + 1):
        basis = kernel_basis(op, h, cap=cap)
        orders = [polyharmonic_order(f) for f in basis]
        ok = all(o <= bound for o in orders)
        sharp = sharp or any(o == bound for o in orders)
        checks.append(Check(f"order_bound_h{h}", ok, {"dimension": len(basis), "max_order": max(orders, default=0)}))
    checks.append(Check("bound_attained", sharp, {"bound": bound}))
    report = Report(
        title="verify_corollary",
        params={"mu": mu, "m": args.m, "max_degree": args.degree},
        checks=checks,
        results={"bound": bound},
    )
    return _emit(report, "verify corollary", args, started)


_VERIFY_SUITES = {
    "identities": _verify_identities,
    "path": _verify_path,
    "box": _verify_box,
    "theorem": _verify_theorem,
    "induction": _verify_induction,
    "corollary": _verify_corollary,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hsdfactor",
        description="Exact factorization of Laplace powers through higher-spin Dirac operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_mu=True):
        if need_mu:
            p.add_argument("--mu", required=True, help="weight entries, e.g. 2,1")
        p.add_argument("--rank", type=int, help="expected rank of --mu (validation)")
        p.add_argument("--m", type=int, help="ambient odd dimension m = 2n+1")
        p.add_argument("--power", type=int, help="Laplace power")
        p.add_argument("--degree", type=int, help="x-degree")
        p.add_argument("--cap", type=int, help="resource cap (paths / matrix cells / monomials)")
        p.add_argument("--json", help="write the report to this file instead of stdout")

    p_box = sub.add_parser("box", help="members of the box of a weight")
    common(p_box)
    p_paths = sub.add_parser("paths", help="enumerate dominant lattice paths")
    common(p_paths)
    p_paths.add_argument("--nu", help="start weight (defaults to zero)")
    p_fact = sub.add_parser("factorize", help="expand a Laplace power into a certificate")
    common(p_fact)
    p_dims = sub.add_parser("dims", help="realized dimension against the Weyl oracle")
    common(p_dims)
    p_kernel = sub.add_parser("kernel", help="polynomial kernel of an explicit operator")
    common(p_kernel)
    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("suite", choices=sorted(_VERIFY_SUITES))
    common(p_verify)
    p_verify.add_argument("--nu", help="start weight for the path suite")
    return parser


def _check_non_negative(args):
    """A negative --degree or --power, or a --cap below 1, is a usage error:
    the commands read a cap of 0 as no cap given."""
    for flag in ("degree", "power"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise ValueError(f"--{flag} must be non-negative, got {value}")
    if args.cap is not None and args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")


def run(argv) -> int:
    """Parse and execute one invocation; returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        _check_non_negative(args)
        if args.command == "box":
            return _cmd_box(args, started)
        if args.command == "paths":
            return _cmd_paths(args, started)
        if args.command == "factorize":
            if args.power is None:
                print("error: factorize requires --power", file=sys.stderr)
                return 2
            return _cmd_factorize(args, started)
        if args.command == "dims":
            return _cmd_dims(args, started)
        if args.command == "kernel":
            return _cmd_kernel(args, started)
        if args.command == "verify":
            return _VERIFY_SUITES[args.suite](args, started)
        parser.error(f"unknown command {args.command}")
    except ResourceCapError as exc:
        print(json.dumps({"error": "resource_cap", "message": str(exc)}, sort_keys=True))
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}, sort_keys=True))
        return 2
    except (AssertionError, KeyError, ArithmeticError) as exc:
        import traceback  # only on this path: it would add to every start-up

        traceback.print_exc(file=sys.stderr)
        print(json.dumps({"error": "internal", "type": type(exc).__name__, "message": str(exc)}, sort_keys=True))
        return 3
    return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
