"""Check/report containers shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .gaussian import QQi, fraction_str
from .weights import Path, Weight


@dataclass
class Check:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class Report:
    title: str
    params: dict
    checks: list
    results: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_jsonable(self) -> dict:
        return {
            "title": self.title,
            "params": jsonable(self.params),
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": jsonable(c.details)}
                for c in self.checks
            ],
            "results": jsonable(self.results),
        }


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
    if isinstance(obj, Path):
        return {
            "nodes": [jsonable(n) for n in obj.nodes],
            "changes": list(obj.changes),
            "direction": obj.direction,
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)):
        return obj
    return str(obj)
