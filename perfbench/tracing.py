"""Span and counter instrumentation installed from outside the package.

Nothing under src/ knows about it.  `SpanRecorder.install` wraps chosen
public functions and methods of each hsdfactor module in timing spans;
`Counters.install` wraps some of them, plus the QQi scalar operators, in
counters that do no timing.  A benchmark run uses each in its own
process, so counting never distorts span times.

A function imported by name into another module is a second binding of
the same object, so every hsdfactor namespace that holds the original is
patched.  A call made while the same wrapped function is already on the
stack (polyspace.apply recursing through Compose or ScalarMix, or
reports.jsonable recursing into containers) is passed straight through:
it is counted once, in the outermost call.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span).  A dotted attribute is a method of a class.
SPANS = [
    ("hsdfactor.cli", "run", "cli.run"),
    ("hsdfactor.reports", "Report.to_jsonable", "reports.to_jsonable"),
    ("hsdfactor.reports", "jsonable", "reports.jsonable"),
    ("hsdfactor.opalgebra", "FactorizationCertificate.to_jsonable", "opalgebra.certificate_jsonable"),
    ("hsdfactor.opalgebra", "expand_laplace_power", "opalgebra.expand_laplace_power"),
    ("hsdfactor.opalgebra", "certificate_reexpands", "opalgebra.certificate_reexpands"),
    ("hsdfactor.opalgebra", "eliminate_laplace", "opalgebra.eliminate_laplace"),
    ("hsdfactor.opalgebra", "normal_form", "opalgebra.normal_form"),
    ("hsdfactor.opalgebra", "verify_path_independence", "opalgebra.verify_path_independence"),
    ("hsdfactor.opalgebra", "vanish_outside_box", "opalgebra.vanish_outside_box"),
    ("hsdfactor.weights", "enumerate_paths", "weights.enumerate_paths"),
    ("hsdfactor.hsd", "verify_identities", "hsd.verify_identities"),
    ("hsdfactor.hsd", "verify_factorization_numeric", "hsd.verify_factorization_numeric"),
    ("hsdfactor.hsd", "verify_induction_dims", "hsd.verify_induction_dims"),
    ("hsdfactor.hsd", "kernel_basis", "hsd.kernel_basis"),
    ("hsdfactor.hsd", "double_monogenic_basis", "hsd.double_monogenic_basis"),
    ("hsdfactor.hsd", "explicit_hsd", "hsd.explicit_hsd"),
    ("hsdfactor.hsd", "DerivOp.compose", "hsd.compose"),
    ("hsdfactor.hsd", "DerivOp.apply_monomial", "hsd.apply_monomial"),
    ("hsdfactor.repthy", "casimir_projectors", "repthy.casimir_projectors"),
    ("hsdfactor.repthy", "simplicial_monogenic_basis", "repthy.simplicial_monogenic_basis"),
    ("hsdfactor.repthy", "simplicial_harmonic_ambient", "repthy.simplicial_harmonic_ambient"),
    ("hsdfactor.polyspace", "apply", "polyspace.apply"),
    ("hsdfactor.polyspace", "operator_matrix", "polyspace.operator_matrix"),
    ("hsdfactor.linalg", "Mat.__mul__", "linalg.matmul"),
    ("hsdfactor.linalg", "sparse_rref", "linalg.sparse_rref"),
    ("hsdfactor.linalg", "SpanSolver.__init__", "linalg.span_solver"),
    ("hsdfactor.linalg", "SpanSolver.coords", "linalg.span_solver"),
]

# Layer metric -> spans whose self times it sums.
SPAN_METRICS = {
    "cli.self_s": ["cli.run"],
    "reports.to_jsonable_s": ["reports.to_jsonable", "reports.jsonable", "opalgebra.certificate_jsonable"],
    "opalgebra.expand_s": ["opalgebra.expand_laplace_power"],
    "opalgebra.reexpand_s": ["opalgebra.certificate_reexpands", "opalgebra.eliminate_laplace"],
    "opalgebra.normal_form_s": ["opalgebra.normal_form"],
    "opalgebra.path_checks_s": ["opalgebra.verify_path_independence", "opalgebra.vanish_outside_box"],
    "weights.enumerate_paths_s": ["weights.enumerate_paths"],
    "hsd.compose_s": ["hsd.compose"],
    "hsd.apply_monomial_s": ["hsd.apply_monomial"],
    "hsd.verify_self_s": ["hsd.verify_identities", "hsd.verify_factorization_numeric", "hsd.verify_induction_dims"],
    "linalg.matmul_s": ["linalg.matmul"],
    "linalg.rref_s": ["linalg.sparse_rref"],
    "linalg.span_solver_s": ["linalg.span_solver"],
    "polyspace.apply_s": ["polyspace.apply"],
    "polyspace.operator_matrix_s": ["polyspace.operator_matrix"],
    "repthy.casimir_projectors_s": ["repthy.casimir_projectors"],
    "repthy.monogenic_basis_s": ["repthy.simplicial_monogenic_basis"],
}

# Layer metric -> span whose outermost call count it reports.
CALL_METRICS = {
    "hsd.compose_calls": "hsd.compose",
    "linalg.matmul_calls": "linalg.matmul",
    "linalg.rref_calls": "linalg.sparse_rref",
    "polyspace.apply_calls": "polyspace.apply",
}

# Layer metric -> lru_cache'd function whose cache_info() gives the ratio.
CACHE_METRICS = {
    "repthy.casimir_hit_ratio": ("hsdfactor.repthy", "casimir_projectors"),
    "repthy.monogenic_hit_ratio": ("hsdfactor.repthy", "simplicial_monogenic_basis"),
}


# Layer metrics that are Counters counts as they stand.
COUNT_METRICS = [
    "hsd.compose_mat_products",
    "linalg.matmul_scalar_mults",
    "linalg.rref_cells",
    "weights.paths",
    "gaussian.mul_calls",
    "gaussian.add_calls",
    "gaussian.div_calls",
]

# Layer metric -> (numerator, denominator) counts from Counters.
COUNT_RATIOS = {
    "opalgebra.normal_form_survival": ("opalgebra.normal_form_terms_out", "opalgebra.normal_form_terms_in"),
    "linalg.rref_fill": ("linalg.rref_nonzeros_out", "linalg.rref_nonzeros_in"),
}


def _owner(module: str, attr: str):
    obj = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


def _install(specs, make_wrapper):
    """Rebind each (module, attribute, *args) to make_wrapper(original, *args).

    Returns a function that restores every original binding.
    """
    undo = []
    for module, attr, *rest in specs:
        owner, name = _owner(module, attr)
        original = getattr(owner, name)
        wrapper = make_wrapper(original, *rest)
        if owner is not sys.modules[module]:  # a method: the class is the only binding
            undo.append((owner, name, original))
            setattr(owner, name, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hsdfactor" or mod_name.startswith("hsdfactor.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


class SpanRecorder:
    """Self time and outermost call count per span name.

    A span's self time is its duration minus the time of the spans it
    directly encloses, so the self times of all spans under one root sum
    to the root's duration.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack = []  # per open span: [time covered by direct children]

    def take(self) -> dict:
        """Return and reset the per-span totals."""
        out = {name: {"self_s": self.self_s[name], "calls": self.calls[name]} for name in self.self_s}
        self.self_s.clear()
        self.calls.clear()
        return out

    def _wrap(self, fn, name):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        active = [False]

        def span(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[0] = False
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed

        span.__wrapped__ = fn
        return span

    def install(self):
        """Wrap every entry of SPANS; returns a function that removes the wrappers."""
        return _install(SPANS, self._wrap)


class Counters:
    """Work counts that cost a computation per call, taken without timing."""

    def __init__(self):
        self.counts = defaultdict(int)

    def install(self):
        counts = self.counts

        def tally(key):
            def make(fn):
                def counted(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)

                return counted

            return make

        def after(measure):
            def make(fn):
                def counted(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    measure(result, *args)
                    return result

                return counted

            return make

        def compose_products(result, a, b):
            counts["hsd.compose_mat_products"] += len(a.terms) * len(b.terms)

        def matmul_mults(result, a, b):
            if not isinstance(b, type(a)):
                return  # Mat * scalar is a scale, not a product
            col_nnz = [0] * a.ncols
            for row in a.rows:
                for j, x in enumerate(row):
                    if x:
                        col_nnz[j] += 1
            counts["linalg.matmul_scalar_mults"] += sum(
                c * sum(1 for x in brow if x) for c, brow in zip(col_nnz, b.rows) if c
            )

        def rref_shape(result, rows, ncols):
            counts["linalg.rref_cells"] += len(rows) * ncols
            counts["linalg.rref_nonzeros_in"] += sum(len(r) for r in rows)
            counts["linalg.rref_nonzeros_out"] += sum(len(r) for r in result[1])

        def normal_form_terms(result, expr):
            counts["opalgebra.normal_form_terms_in"] += len(expr.terms)
            counts["opalgebra.normal_form_terms_out"] += len(result.terms)

        def paths_found(result, *args):
            counts["weights.paths"] += len(result.paths)

        specs = [
            # __radd__ and __rmul__ are aliases of __add__ and __mul__: the same
            # function under a second name, so each name is patched.
            # __rsub__ and __rtruediv__ call __sub__ and __truediv__, which count them.
            ("hsdfactor.gaussian", "QQi.__add__", tally("gaussian.add_calls")),
            ("hsdfactor.gaussian", "QQi.__radd__", tally("gaussian.add_calls")),
            ("hsdfactor.gaussian", "QQi.__sub__", tally("gaussian.add_calls")),
            ("hsdfactor.gaussian", "QQi.__mul__", tally("gaussian.mul_calls")),
            ("hsdfactor.gaussian", "QQi.__rmul__", tally("gaussian.mul_calls")),
            ("hsdfactor.gaussian", "QQi.__truediv__", tally("gaussian.div_calls")),
            ("hsdfactor.hsd", "DerivOp.compose", after(compose_products)),
            ("hsdfactor.linalg", "Mat.__mul__", after(matmul_mults)),
            ("hsdfactor.linalg", "sparse_rref", after(rref_shape)),
            ("hsdfactor.opalgebra", "normal_form", after(normal_form_terms)),
            ("hsdfactor.weights", "enumerate_paths", after(paths_found)),
        ]
        return _install(specs, lambda fn, make: make(fn))


def cache_ratios() -> dict:
    """Hits and lookups of each lru_cache named in CACHE_METRICS."""
    out = {}
    for metric, (module, attr) in CACHE_METRICS.items():
        fn = getattr(sys.modules[module], attr)
        while not hasattr(fn, "cache_info"):  # look through a span wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        lookups = info.hits + info.misses
        out[metric] = {"hits": info.hits, "lookups": lookups}
    return out
