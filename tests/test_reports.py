"""reports.render writes the same text as json.dumps(jsonable(x), sort_keys=True, indent=2)."""

import json
import math

from hypothesis import example, given, settings, strategies as st

from hsdfactor.gaussian import QQi
from hsdfactor.reports import Check, Report, jsonable, render
from hsdfactor.weights import Weight, canonical_path


@st.composite
def weights(draw):
    rank = draw(st.integers(1, 3))
    entries = tuple(draw(st.lists(st.integers(-3, 5), min_size=rank, max_size=rank)))
    return Weight(entries, draw(st.booleans()))


@st.composite
def paths(draw):
    """A canonical path between dominant weights, forward or reversed."""
    rank = draw(st.integers(1, 3))
    mu = sorted(draw(st.lists(st.integers(0, 4), min_size=rank, max_size=rank)), reverse=True)
    nu = []
    for bound in mu:
        nu.append(draw(st.integers(0, min([bound] + nu[-1:]))))
    path = canonical_path(Weight(tuple(nu)), Weight(tuple(mu)))
    return path.reversed() if draw(st.booleans()) else path


texts = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", " ", "😀", "</script>"])
keys = texts | st.integers(-5, 5) | st.booleans() | st.fractions(max_denominator=5) | weights()
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | texts
    | st.fractions()
    | st.builds(QQi, st.fractions(max_denominator=9), st.fractions(max_denominator=9).filter(bool))
    | st.builds(QQi, st.fractions(max_denominator=9))
    | weights()
    | paths()
)
values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(values)
@example({1: "int", "1": "str"})  # keys that collide as strings: the last one wins, as in jsonable
@example({"True": 0, True: 1, 2: {(): []}})
def test_render_matches_indented_sorted_dumps(x):
    assert render(x) == json.dumps(jsonable(x), sort_keys=True, indent=2)


def test_render_writes_non_finite_floats_as_json_does():
    x = {"a": [math.inf, -math.inf, math.nan], "b": 0.1}
    assert render(x) == json.dumps(x, sort_keys=True, indent=2)
    assert "NaN" in render(x) and "Infinity" in render(x)


def test_render_of_report_fields_is_the_text_of_to_jsonable():
    report = Report(
        "t",
        {"mu": Weight((2, 1)), 3: QQi(1, 2)},
        [Check("c", True, {"w": [Weight((1,), True)], "q": QQi(0, 1)})],
        {"path": canonical_path(Weight((0, 0)), Weight((2, 1))), "empty": ({}, [], ())},
    )
    assert render(report.fields()) == json.dumps(report.to_jsonable(), sort_keys=True, indent=2)
