"""Single polynomials as one-column `BlockPoly`s, and the readings only the tests take.

The engine holds every polynomial space as one `BlockPoly`; one
polynomial is its one-column case.  Here are the constructor from a
dict of QQi spinor vectors (`poly`), the spinor units, `stack` (spaces
side by side as one) and `columns` (one space split into its
polynomials), the fraction-free reading of one column (`vectors`), its
`coordinates`, linear combinations (`lin`, `sub`, `scale`) and
`x_shift`.
"""

from math import gcd, lcm

from hsdfactor.linalg import Mat, _qqi
from hsdfactor.polyspace import BlockPoly


def spinor_dim(m: int) -> int:
    return 2 ** ((m - 1) // 2)


def poly(m: int, k: int, terms=None) -> BlockPoly:
    """The polynomial with spinor vector terms[e] (scalars QQi accepts) at exponent e."""
    width = (k + 1) * m
    blocks = {}
    for exp, vec in (terms or {}).items():
        if len(exp) != width:
            raise ValueError(f"exponent length {len(exp)} != {width}")
        block = Mat([[c] for c in vec])
        if not block.is_zero():
            blocks[tuple(exp)] = block
    return BlockPoly(m, k, 1, blocks)


def zero(m: int, k: int) -> BlockPoly:
    return BlockPoly(m, k, 1, {})


def spinor_unit(m: int, k: int, index: int) -> BlockPoly:
    return poly(m, k, {(0,) * ((k + 1) * m): [int(s == index) for s in range(spinor_dim(m))]})


def stack(spaces) -> BlockPoly:
    """The nonempty list of spaces (one-column polynomials or wider) of one
    polynomial space side by side, their columns in listed order."""
    m, k, n = spaces[0].m, spaces[0].k, sum(f.ncols for f in spaces)
    den = lcm(1, *(b.den for f in spaces for b in f.blocks.values()))
    nums, offset = {}, 0
    for f in spaces:
        for exp, b in f.blocks.items():
            rows = nums.setdefault(exp, [{} for _ in b.num])
            g = den // b.den
            for row, brow in zip(rows, b.num):
                row.update((offset + j, (re * g, im * g)) for j, (re, im) in brow.items())
        offset += f.ncols
    return BlockPoly(m, k, n, {exp: Mat._reduced(rows, den, n) for exp, rows in nums.items()})


def columns(f: BlockPoly) -> list:
    """The polynomials of f as one-column `BlockPoly`s, split in one pass
    over the blocks (f[j] scans them all for each j)."""
    split = [{} for _ in range(f.ncols)]
    for exp, b in f.blocks.items():
        cols = {}
        for s, row in enumerate(b.num):
            for j, pair in row.items():
                cols.setdefault(j, [{} for _ in b.num])[s][0] = pair
        for j, rows in cols.items():
            split[j][exp] = Mat._reduced(rows, b.den, 1)
    return [BlockPoly(f.m, f.k, 1, blocks) for blocks in split]


def vectors(f: BlockPoly) -> tuple:
    """(num, den) of a one-column polynomial: num maps an exponent to its
    spinor vector of (re, im) numerators over den, the lcm of the blocks'
    denominators, so that den shares no prime with all the numerators."""
    den = lcm(1, *(b.den for b in f.blocks.values()))
    num = {}
    for exp, b in f.blocks.items():
        g = den // b.den
        num[exp] = tuple((row[0][0] * g, row[0][1] * g) if row else (0, 0) for row in b.num)
    return num, den


def coordinates(f: BlockPoly) -> dict:
    """Sparse dict (exponent, spinor index) -> QQi of a one-column polynomial."""
    return {(exp, s): _qqi(*row[0], b.den) for exp, b in f.blocks.items() for s, row in enumerate(b.num) if row}


def lin(*terms) -> BlockPoly:
    """sum c f over the nonempty pairs (f, c) of polynomials of one space."""
    first = terms[0][0]
    if any((f.m, f.k, f.ncols) != (first.m, first.k, first.ncols) for f, _ in terms):
        raise ValueError("mixed polynomial spaces")
    groups = {}
    for f, c in terms:
        for exp, b in f.blocks.items():
            groups.setdefault(exp, []).append((b, c))
    return first.summed(groups)


def sub(f: BlockPoly, g: BlockPoly) -> BlockPoly:
    return lin((f, 1), (g, -1))


def scale(f: BlockPoly, c) -> BlockPoly:
    return lin((f, c))


def x_shift(f: BlockPoly, alpha: tuple) -> BlockPoly:
    """Multiply dummy-variable polynomials by the x-monomial x^alpha."""
    return BlockPoly(f.m, f.k, f.ncols, {alpha + exp[f.m:]: b for exp, b in f.blocks.items()})


def assert_canonical(f: BlockPoly, rows: int = None):
    """Every block nonzero, of rows x ncols (rows defaults to the spinor
    dimension), with a positive denominator sharing no prime with all its
    numerators; so zero has no blocks and equality compares integers."""
    for b in f.blocks.values():
        assert not b.is_zero() and b.den > 0
        assert (b.nrows, b.ncols) == (spinor_dim(f.m) if rows is None else rows, f.ncols)
        g = b.den
        for row in b.num:
            assert all(re or im for re, im in row.values())
            for re, im in row.values():
                g = gcd(g, re, im)
        assert g == 1
