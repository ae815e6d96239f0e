"""Check/report containers shared by the verification suites."""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .gaussian import QQi, fraction_str
from .weights import Weight


class Check:
    def __init__(self, name: str, passed: bool, details: dict | None = None):
        self.name = name
        self.passed = passed
        self.details = {} if details is None else details


class Report:
    def __init__(self, title: str, params: dict, checks: list, results: dict | None = None):
        self.title = title
        self.params = params
        self.checks = checks
        self.results = {} if results is None else results

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def fields(self) -> dict:
        """The report's JSON object over its own values: render(fields()) is its text."""
        return {
            "title": self.title,
            "params": self.params,
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "details": c.details} for c in self.checks],
            "results": self.results,
        }

    def to_jsonable(self) -> dict:
        return jsonable(self.fields())


def jsonable(obj):
    """Recursively convert package values to JSON-ready structures.

    Rationals render as "num/den"; weights as integer arrays plus spin
    flag; Gaussian rationals as a re/im pair.  The common exact types
    are tested first, by identity of their class.
    """
    cls = obj.__class__
    if cls is str or cls is int or cls is bool or obj is None:
        return obj
    if cls is dict:
        return {str(k): jsonable(v) for k, v in obj.items()}
    if cls is list:
        return [jsonable(x) for x in obj]
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, QQi):
        if obj.im == 0:
            return fraction_str(obj.re)
        return {"re": fraction_str(obj.re), "im": fraction_str(obj.im)}
    if isinstance(obj, Weight):
        return {"entries": list(obj.entries), "spin": obj.spin}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)):
        return obj
    return str(obj)


def render(obj) -> str:
    """The text of json.dumps(jsonable(obj), sort_keys=True, indent=2), in one walk over obj.

    Plain containers and scalars are written as they stand, and any other
    value is handed to jsonable first, so no JSON-ready copy of the
    whole object is built.
    """
    return _render(obj, "\n")


def _render(obj, nl: str) -> str:
    """obj's JSON text at the indentation that follows nl."""
    cls = obj.__class__
    if cls is str:
        return _quote(obj)
    if cls is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        for k in obj:
            if k.__class__ is not str:
                obj = {str(k): v for k, v in obj.items()}
                break
        body = [_quote(k) + ": " + _render(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    if cls is list or cls is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_render(x, inner) for x in obj]) + nl + "]"
    if cls is int:
        return int.__repr__(obj)
    if cls is bool:
        return "true" if obj else "false"
    if isinstance(obj, (str, int, float)) or obj is None:  # as json writes them, non-finite floats included
        return json.dumps(obj)
    return _render(jsonable(obj), nl)
