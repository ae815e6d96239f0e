"""The package's value types: plain classes with slots, built from one value per
slot unless they check their input, compared field by field within one class,
hashed consistently and immutable; and a CLI start-up that never loads
`dataclasses`, nor `argparse` for a valid run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hsdfactor.opalgebra import HsdSym, OperatorWord, TwistorSym
from hsdfactor.polyspace import (
    IDENTITY,
    Compose,
    CoordOp,
    Dirac,
    LaplaceOp,
    MixedEuler,
    MixedLaplace,
    ScalarMix,
    VectorMult,
)
from hsdfactor.weights import Weight, weight

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_modules(code: str) -> set:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code + "\nimport sys; print(' '.join(sys.modules))"],
                         env=env, capture_output=True, text=True, check=True, timeout=60).stdout
    return set(out.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # site may load modules before any program runs, so only what the import adds counts
    added = _loaded_modules("import hsdfactor.cli") - _loaded_modules("pass")
    assert "hsdfactor.cli" in added
    assert not {"dataclasses", "inspect"} & added


def test_a_valid_run_does_not_load_argparse():
    run = ("import contextlib, io\nfrom hsdfactor import cli\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.run(['box', '--mu', '2,1']) == 0")
    added = _loaded_modules(run) - _loaded_modules("pass")
    assert "hsdfactor.cli" in added
    assert "argparse" not in added


def _twistor():
    return TwistorSym(weight(1, 0, spin=True), weight(0, 0, spin=True))


def _word():
    t = _twistor()
    return OperatorWord(t.target, t.source, (HsdSym(t.target), t, HsdSym(t.source)), 1)


def _specs():
    """One spec of each class and a few of the same class, each call building new objects."""
    return [
        Dirac(0),
        Dirac(1),
        VectorMult(0),
        LaplaceOp(0),
        MixedEuler(1, 2),
        MixedLaplace(1, 2),
        CoordOp(1, 2),
        Compose(()),
        Compose((VectorMult(1), Dirac(1))),
        ScalarMix(((1, IDENTITY), (2, Dirac(0)))),
    ]


SPECS = _specs()


def test_specs_are_equal_only_within_one_class():
    for a, b in [(Dirac(0), LaplaceOp(0)), (Dirac(0), VectorMult(0)), (LaplaceOp(0), VectorMult(0)),
                 (MixedEuler(1, 2), MixedLaplace(1, 2)), (MixedEuler(1, 2), CoordOp(1, 2))]:
        assert a != b and b != a
    for i, a in enumerate(SPECS):
        for j, b in enumerate(SPECS):
            assert (a == b) == (i == j), (a, b)
    assert Dirac() == Dirac(0) != Dirac(1) and LaplaceOp() == LaplaceOp(0)


def test_equal_values_hash_equal():
    pairs = [
        (Weight((2, 1)), weight(2, 1)),
        (_twistor(), _twistor()),
        (HsdSym(weight(1, 0, spin=True)), HsdSym(Weight((1, 0), True))),
        (_word(), _word()),
        (Compose((VectorMult(1), Dirac(1))), Compose((VectorMult(1), Dirac(1)))),
        (ScalarMix(((1, IDENTITY),)), ScalarMix(((1, Compose(())),))),
    ] + list(zip(_specs(), _specs()))
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1


def test_values_are_not_equal_to_their_fields_as_tuples():
    t = _twistor()
    assert weight(2, 1) != ((2, 1), False)
    assert t != (t.target, t.source)
    assert HsdSym(t.target) != (t.target,) and HsdSym(t.target) != OperatorWord(t.target, t.target)
    assert Dirac(0) != (0,) and MixedEuler(1, 2) != (1, 2)


def test_the_default_constructor_takes_one_value_per_slot():
    assert (CoordOp(1, 2).mult, CoordOp(1, 2).deriv) == (1, 2)
    for build in (lambda: VectorMult(), lambda: MixedEuler(1), lambda: CoordOp(1, 2, 3)):
        with pytest.raises(ValueError):
            build()


def test_hashes_are_the_hashes_of_the_field_tuples():
    t = _twistor()
    w = _word()
    assert hash(weight(2, 1)) == hash(((2, 1), False))
    assert hash(t) == hash((t.target, t.source))
    assert hash(HsdSym(t.target)) == hash((t.target,))
    assert hash(w) == hash((w.target, w.source, w.syms, w.lap))
    assert hash(MixedEuler(1, 2)) == hash((1, 2)) and hash(Compose(())) == hash(((),))


IMMUTABLE = [
    (weight(2, 1), ["entries", "spin"]),
    (_twistor(), ["target", "source", "step"]),
    (HsdSym(weight(1, 0, spin=True)), ["at"]),
    (_word(), ["target", "source", "syms", "lap"]),
    (Dirac(0), ["var"]),
    (VectorMult(0), ["var"]),
    (LaplaceOp(0), ["var"]),
    (MixedEuler(1, 2), ["p", "q"]),
    (MixedLaplace(1, 2), ["p", "q"]),
    (CoordOp(1, 2), ["mult", "deriv"]),
    (Compose((Dirac(0),)), ["specs"]),
    (ScalarMix(((1, IDENTITY),)), ["parts"]),
]


@pytest.mark.parametrize("value,fields", IMMUTABLE, ids=[type(v).__name__ for v, _ in IMMUTABLE])
def test_values_are_immutable(value, fields):
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.brand_new = 0
