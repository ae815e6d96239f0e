"""Exact Gaussian-rational scalars a + b*i with Fraction components.

These are the scalars of every public interface.  The engine's own data
keeps Gaussian-integer numerators over one common denominator instead:
the dense matrices of `linalg.Mat`, the polynomials of
`polyspace.SpinorPoly` and the rows of the eliminations in `linalg`,
which take and return those numerators.  QQi goes in and comes out only
at the boundary (entries, rows, traces, matrix-vector products,
polynomial coordinates, a particular solution of `solve_sparse`).
Only the tests' reference `linalg.SpanSolver` eliminates on QQi rows.
There is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

# operands taken besides QQi; others get NotImplemented, so QQi * Mat reaches Mat.__rmul__
_RATIONAL = (int, Fraction)


class QQi:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def coerce(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        return QQi(x)

    def __add__(self, other):
        if not isinstance(other, QQi):
            return QQi(self.re + other, self.im) if isinstance(other, _RATIONAL) else NotImplemented
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, QQi):
            return QQi(self.re - other, self.im) if isinstance(other, _RATIONAL) else NotImplemented
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QQi(other) - self if isinstance(other, _RATIONAL) else NotImplemented

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, QQi):
            return QQi(self.re * other, self.im * other) if isinstance(other, _RATIONAL) else NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return QQi(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, QQi):
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            other = QQi(other)
        c, d = other.re, other.im
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self.re, self.im
        return QQi((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        return QQi(other) / self if isinstance(other, _RATIONAL) else NotImplemented

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        if not isinstance(other, QQi):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)
QQI_I = QQi(0, 1)


def fraction_str(q: Fraction) -> str:
    """Render a rational as "num/den" (den always present)."""
    return f"{q.numerator}/{q.denominator}"
