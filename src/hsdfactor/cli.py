"""Command-line front end with machine-readable JSON reports.

Commands: box, paths, factorize, dims, kernel, and verify identities |
path | box | theorem | induction | corollary.  `_COMMANDS` gives each its
handler, its help and the flags it reads besides --mu, --rank and --json;
argparse rejects any other flag.
Exit codes: 0 success / all checks passed, 1 some verification check
failed, 2 usage or resource error or a report that cannot be written, 3
internal error (an exact self-check of the engine failed, or an unexpected
lookup or arithmetic error; printed as ``{"error": "internal", ...}``,
with the traceback on stderr, so it is never read as a failed check).
Reports are deterministic JSON in the layout of json.dumps(sort_keys=True,
indent=2); the wall-time field is the only varying part.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
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
from .reports import Check, Report, render
from .weights import Weight, box, canonical_path, enumerate_paths, is_dominant


def _parse_weight(flag: str, text: str, rank=None) -> Weight:
    try:
        entries = tuple(int(x) for x in text.split(","))
    except ValueError:
        print(f"error: cannot parse {flag} {text!r}; expected comma-separated integers", file=sys.stderr)
        raise SystemExit(2)
    w = Weight(entries)
    if rank is not None and w.rank != rank:
        print(f"error: {flag} has rank {w.rank}, but --rank {rank} was given", file=sys.stderr)
        raise SystemExit(2)
    return w


def _dominants_below(mu: Weight):
    ranges = [range(0, e + 1) for e in mu.entries]
    for tup in itertools.product(*ranges):
        w = Weight(tup)
        if is_dominant(w):
            yield w


def _emit(report: Report, command: str, args, started: float) -> int:
    """Write the report; a report that cannot be written is a usage error (exit 2), not a failed check."""
    payload = report.fields()
    payload["command"] = command
    payload["wall_time_s"] = round(time.time() - started, 3)
    text = render(payload)
    if args.json:
        try:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write the report: {exc}") from exc
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone; point stdout at devnull so the flush at exit cannot fail again
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            print("error: stdout was closed before the report was written", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


def _box(args, mu):
    members = box(mu)
    return Report(title="box", params={"mu": mu}, checks=[], results={"box": members, "count": len(members)})


def _paths(args, mu):
    nu = _parse_weight("--nu", args.nu, args.rank) if args.nu else Weight((0,) * mu.rank)
    enum = enumerate_paths(nu, mu, cap=args.cap)
    return Report(
        title="paths",
        params={"nu": nu, "mu": mu, "cap": args.cap},
        checks=[],
        results={
            "count": len(enum.paths),
            "truncated": enum.truncated,
            "change_sequences": [list(p.changes) for p in enum.paths],
            "canonical": canonical_path(nu, mu),
        },
    )


def _factorize(args, mu):
    budget = WorkBudget(args.cap)
    cert = expand_laplace_power(mu, args.power, budget)
    checks = [Check("certificate_reexpands", certificate_reexpands(cert, budget), {})]
    if args.power > mu.entries[0]:
        checks.append(Check("residual_empty", cert.residual.is_zero(), {}))
        checks.append(Check("support_in_box", set(cert.coefficients) <= set(box(mu)), {}))
    return Report(
        title="factorize",
        params={"mu": mu, "power": args.power},
        checks=checks,
        results={"certificate": cert.to_jsonable()},
    )


def _dims(args, mu):
    space = simplicial_monogenic_basis(mu, args.m, cap=args.cap)
    expected = weyl_dim(space.label, args.m)
    return Report(
        title="dims",
        params={"mu": mu, "m": args.m},
        checks=[Check("realized_matches_weyl", space.dim == expected, {"realized": space.dim, "weyl": expected})],
        results={"label": space.label, "dimension": space.dim, "weyl": expected},
    )


def _kernel(args, mu):
    op = explicit_hsd(mu, args.m, cap=args.cap)
    basis = kernel_basis(op, args.degree, cap=args.cap)
    orders = sorted({polyharmonic_order(f) for f in basis}) if basis else []
    return Report(
        title="kernel",
        params={"mu": mu, "m": args.m, "degree": args.degree},
        checks=[],
        results={"dimension": len(basis), "polyharmonic_orders": orders},
    )


def _verify_path(args, mu):
    nus = [_parse_weight("--nu", args.nu, args.rank)] if args.nu else list(_dominants_below(mu))
    for w in (mu, *nus):
        if not is_dominant(w):
            raise ValueError(f"{w} is not dominant")
    checks = []
    details = []
    words: dict = {}  # edges and canonical words, shared by every pair of this command
    for nu in nus:
        rep = verify_path_independence(nu, mu, cap=args.cap, words=words)
        if rep.results["truncated"]:
            raise ResourceCapError(f"more than {args.cap} paths from {nu} to {mu}")
        checks.append(Check(f"paths_{nu}_{mu}", rep.passed, {"count": rep.results["path_count"]}))
        details.append({"nu": nu, "paths": rep.results["path_count"]})
    return Report(
        title="verify_path",
        params={"mu": mu, "nu": args.nu, "cap": args.cap},
        checks=checks,
        results={"pairs": details},
    )


def _verify_box(args, mu):
    inside = set(box(mu))
    checks = []
    words: dict = {}  # edges and canonical words, shared by the box's paths
    for lam in _dominants_below(mu):
        if lam in inside:
            path = canonical_path(lam, mu)
            ok = not any(normal_form(path_operator(p, words), words=words).is_zero() for p in (path, path.reversed()))
            details = {"in_box": True}
        else:  # the trace's verdict covers the normal forms of the canonical and the reversed path
            trace = vanish_outside_box(mu, lam)
            ok = trace.vanished
            details = {"in_box": False, "trace": trace.to_jsonable()}
        checks.append(Check(f"box_{lam}", ok, details))
    return Report(
        title="verify_box",
        params={"mu": mu},
        checks=checks,
        results={"box": sorted(inside, key=lambda w: w.entries, reverse=True)},
    )


def _verify_theorem(args, mu):
    return verify_factorization_numeric(mu, args.power, args.m, args.degree, cap=args.cap)


def _verify_identities(args, mu):
    return verify_identities(mu, args.m, args.degree, cap=args.cap)


def _verify_induction(args, mu):
    if mu.rank != 1:
        raise ValueError(f"induction takes a rank-1 shape --mu k, got {mu}")
    return verify_induction_dims(mu.entries[0], args.degree, args.m, cap=args.cap)


def _verify_corollary(args, mu):
    bound, floor = mu.entries[0] + 1, 2 * mu.entries[0]
    if args.degree < floor:  # a degree-h kernel polynomial has order at most h/2 + 1
        raise ValueError(f"--degree must be at least 2*mu_1 = {floor} to reach order {bound}, got {args.degree}")
    op = explicit_hsd(mu, args.m, cap=args.cap)
    checks = []
    sharp = False
    for h in range(0, args.degree + 1):
        basis = kernel_basis(op, h, cap=args.cap)
        orders = [polyharmonic_order(f) for f in basis]
        ok = all(o <= bound for o in orders)
        sharp = sharp or any(o == bound for o in orders)
        checks.append(Check(f"order_bound_h{h}", ok, {"dimension": len(basis), "max_order": max(orders, default=0)}))
    checks.append(Check("bound_attained", sharp, {"bound": bound}))
    return Report(
        title="verify_corollary",
        params={"mu": mu, "m": args.m, "max_degree": args.degree},
        checks=checks,
        results={"bound": bound},
    )


_REQUIRED = object()  # the default of a flag that argparse requires

_FLAGS = {
    "nu": {"help": "start weight (default: zero; for verify path, every dominant weight below --mu)"},
    "m": {"type": int, "help": "ambient odd dimension m = 2n+1"},
    "power": {"type": int, "help": "Laplace power"},
    "degree": {"type": int, "help": "x-degree"},
    "cap": {"type": int, "help": "resource cap (paths / matrix cells / monomials)"},
}
_PATHS = {"nu": None, "cap": 10000}
_KERNEL = {"m": _REQUIRED, "degree": _REQUIRED, "cap": DEFAULT_CELL_CAP}
_THEOREM = {"m": _REQUIRED, "power": _REQUIRED, "degree": _REQUIRED, "cap": DEFAULT_CELL_CAP}

# command -> (handler(args, mu) -> Report, help, {flag it reads besides --mu, --rank and --json: default})
_COMMANDS = {
    "box": (_box, "members of the box of a weight", {}),
    "paths": (_paths, "enumerate dominant lattice paths", _PATHS),
    "factorize": (_factorize, "expand a Laplace power into a certificate", {"power": _REQUIRED, "cap": None}),
    "dims": (_dims, "realized dimension against the Weyl oracle", {"m": _REQUIRED, "cap": DEFAULT_CELL_CAP}),
    "kernel": (_kernel, "polynomial kernel of an explicit operator", _KERNEL),
    "verify identities": (_verify_identities, "splitting and anticommutation identities on matrices", _KERNEL),
    "verify path": (_verify_path, "path independence of the path operators", _PATHS),
    "verify box": (_verify_box, "path operators survive exactly inside the box", {}),
    "verify theorem": (_verify_theorem, "factorization of a Laplace power on matrices", _THEOREM),
    "verify induction": (_verify_induction, "kernel dimensions by induction (--mu k, --degree h)", _KERNEL),
    "verify corollary": (_verify_corollary, "polyharmonic orders and the sharp bound mu_1 + 1", _KERNEL),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged.

    Its `commands` attribute maps each command to its own subparser.
    """
    parser = argparse.ArgumentParser(
        prog="hsdfactor",
        description="Exact factorization of Laplace powers through higher-spin Dirac operators",
    )
    sub = parser.add_subparsers(required=True, metavar="command")
    verify = sub.add_parser("verify", help="run one verification suite")
    suites = verify.add_subparsers(required=True, metavar="suite")
    parser.commands = {}
    for name, (_, help_text, flags) in _COMMANDS.items():
        *group, leaf = name.split()
        # no abbreviations: --m on a command without it would otherwise be read as --mu
        p = parser.commands[name] = (suites if group else sub).add_parser(leaf, help=help_text, allow_abbrev=False)
        p.set_defaults(command=name)
        p.add_argument("--mu", required=True, help="weight entries, e.g. 2,1")
        p.add_argument("--rank", type=int, help="expected rank of the weights (validation)")
        for flag, default in flags.items():
            p.add_argument(f"--{flag}", required=default is _REQUIRED, default=default, **_FLAGS[flag])
        p.add_argument("--json", help="write the report to this file instead of stdout")
    return parser


def _check_non_negative(args):
    """A negative --degree or --power, or a --cap below 1, is a usage error,
    not a valid value or a lifted cap."""
    for flag in ("degree", "power"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise ValueError(f"--{flag} must be non-negative, got {value}")
    cap = getattr(args, "cap", None)
    if cap is not None and cap < 1:
        raise ValueError(f"--cap must be at least 1, got {cap}")


def run(argv) -> int:
    """Parse and execute one invocation; returns the exit code."""
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # argparse would report these from the root parser, with its usage line
        parser.commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    started = time.time()
    try:
        _check_non_negative(args)
        mu = _parse_weight("--mu", args.mu, args.rank)
        report = _COMMANDS[args.command][0](args, mu)
        return _emit(report, args.command, args, started)
    except ResourceCapError as exc:
        print(json.dumps({"error": "resource_cap", "message": str(exc)}, sort_keys=True))
        return 2
    except ValueError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}, sort_keys=True))
        return 2
    except (AssertionError, KeyError, ArithmeticError) as exc:
        import traceback  # only on this path: it would add to every start-up

        traceback.print_exc(file=sys.stderr)
        print(json.dumps({"error": "internal", "type": type(exc).__name__, "message": str(exc)}, sort_keys=True))
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
