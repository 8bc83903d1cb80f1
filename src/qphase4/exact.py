"""Exact linear algebra over the Gaussian rationals.

Scalars carry Fraction real and imaginary parts; they serve where user
rationals come in or go out, and as the tests' reference arithmetic.
Matrices (2x2 and 4x4) store integer real and imaginary numerators over one
shared denominator in lowest terms, so their arithmetic is integer
arithmetic, nothing rounds, and equality, used directly by the exhaustive
verification sweeps, compares integer tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

#: Largest decimal length of a numerator or denominator read from JSON.
#: Wigner values and transported states of inputs at this bound print below
#: Python's 4300-digit limit on converting integers to text (a vector of
#: sixteen distinct 100-digit parts gives about 1600 digits); a matrix's
#: shared denominator can be longer, but only its reduced entries print.
MAX_JSON_DIGITS = 100


class Scalar:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def conj(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"Scalar({self.re}, {self.im})"

    def to_json(self) -> dict:
        return {key: [x.numerator, x.denominator] for key, x in (("re", self.re), ("im", self.im))}

    @classmethod
    def from_json(cls, obj: dict) -> "Scalar":
        """Inverse of to_json; anything but two [int, nonzero int] parts of at
        most MAX_JSON_DIGITS digits is a ValueError, so no float, string, bool
        or unprintably large integer reaches the exact arithmetic."""
        parts = [obj.get(key) if isinstance(obj, dict) else None for key in ("re", "im")]
        for part in parts:
            if not (isinstance(part, list) and len(part) == 2
                    and all(type(x) is int for x in part) and part[1] != 0):
                raise ValueError(f"scalar parts must be [integer, nonzero integer]: {obj!r}")
            if any(abs(x) >= 10**MAX_JSON_DIGITS for x in part):
                raise ValueError(f"scalar parts must have at most {MAX_JSON_DIGITS} digits")
        return cls(Fraction(*parts[0]), Fraction(*parts[1]))


#: i^k for k = 0..3.
I_POWERS = (Scalar(1), Scalar(0, 1), Scalar(-1), Scalar(0, -1))


def dot(a, b) -> int:
    return sum(map(mul, a, b))


def numerators(v: Sequence[Scalar]) -> tuple[list, list, int]:
    """(re, im, den): the entries of v as integer real and imaginary
    numerators over their least common denominator den > 0."""
    den = lcm(*(x.denominator for s in v for x in (s.re, s.im)))
    return ([s.re.numerator * (den // s.re.denominator) for s in v],
            [s.im.numerator * (den // s.im.denominator) for s in v], den)


class Matrix:
    """Immutable square matrix of Gaussian rationals: flat row-major tuples
    of integer real and imaginary numerators over one positive denominator,
    kept in lowest terms (gcd(den, all numerators) == 1).  The form is
    canonical, so equality and hashing compare integers only."""

    __slots__ = ("n", "re", "im", "den")

    def __init__(self, rows: Sequence[Sequence]):
        rows = [tuple(row) for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        re, im, den = numerators([x for row in rows for x in vector(row)])
        # Fractions are in lowest terms, so their lcm leaves no common factor.
        self.n, self.re, self.im, self.den = len(rows), tuple(re), tuple(im), den

    @classmethod
    def _reduced(cls, n: int, re, im, den: int) -> "Matrix":
        g = gcd(den, *re, *im)
        if g != 1:
            re, im, den = [x // g for x in re], [x // g for x in im], den // g
        out = object.__new__(cls)
        out.n, out.re, out.im, out.den = n, tuple(re), tuple(im), den
        return out

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._reduced(n, [int(i == j) for i in range(n) for j in range(n)], [0] * n * n, 1)

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """Read-only view of the entries as Scalars."""
        n, d = self.n, self.den
        entries = [Scalar(Fraction(r, d), Fraction(i, d)) for r, i in zip(self.re, self.im)]
        return tuple(tuple(entries[i:i + n]) for i in range(0, n * n, n))

    def __add__(self, other: "Matrix") -> "Matrix":
        g = gcd(self.den, other.den)
        a, b = other.den // g, self.den // g
        return Matrix._reduced(self.n, [x * a + y * b for x, y in zip(self.re, other.re)],
                               [x * a + y * b for x, y in zip(self.im, other.im)], self.den * a)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return Matrix._reduced(self.n, [-x for x in self.re], [-x for x in self.im], self.den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        n = self.n  # as in mat_vec, with the columns of other for v
        rows = [self.re[i:i + n] + self.im[i:i + n] for i in range(0, n * n, n)]
        cols = [((*cr, *(-x for x in ci)), (*ci, *cr))
                for cr, ci in ((other.re[j::n], other.im[j::n]) for j in range(n))]
        return Matrix._reduced(n, [sum(map(mul, r, c)) for r in rows for c, _ in cols],
                               [sum(map(mul, r, c)) for r in rows for _, c in cols],
                               self.den * other.den)

    def scaled(self, c) -> "Matrix":
        if isinstance(c, Scalar):
            (cr,), (ci,), q = numerators([c])
        else:  # an int or a Fraction
            cr, ci, q = c.numerator, 0, c.denominator
        return Matrix._reduced(self.n, [x * cr - y * ci for x, y in zip(self.re, self.im)],
                               [x * ci + y * cr for x, y in zip(self.re, self.im)], self.den * q)

    def dagger(self) -> "Matrix":
        n = self.n
        return Matrix._reduced(n, [x for j in range(n) for x in self.re[j::n]],
                               [-x for j in range(n) for x in self.im[j::n]], self.den)

    def trace(self) -> Scalar:
        step = self.n + 1
        return Scalar(Fraction(sum(self.re[::step]), self.den),
                      Fraction(sum(self.im[::step]), self.den))

    def kron(self, other: "Matrix") -> "Matrix":
        n, m, ar, ai, br, bi = self.n, other.n, self.re, self.im, other.re, other.im
        pairs = [(i * n + j, k * m + l) for i in range(n) for k in range(m)
                 for j in range(n) for l in range(m)]
        return Matrix._reduced(n * m, [ar[p] * br[q] - ai[p] * bi[q] for p, q in pairs],
                               [ar[p] * bi[q] + ai[p] * br[q] for p, q in pairs],
                               self.den * other.den)

    def is_hermitian(self) -> bool:
        return self == self.dagger()

    def is_unitary(self) -> bool:
        return self.dagger() @ self == Matrix.identity(self.n)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.den == other.den
                and self.re == other.re and self.im == other.im)

    def __hash__(self) -> int:
        return hash((self.den, self.re, self.im))

    def __repr__(self) -> str:
        return f"Matrix({[[str(a) for a in row] for row in self.rows]})"

    def to_json(self) -> list:
        return [[a.to_json() for a in row] for row in self.rows]

    @classmethod
    def from_json(cls, obj: list) -> "Matrix":
        return cls([[Scalar.from_json(a) for a in row] for row in obj])


Vector = tuple[Scalar, ...]


def vector(values: Iterable) -> Vector:
    return tuple(v if isinstance(v, Scalar) else Scalar(v) for v in values)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    """m v on numerators: a row's real then imaginary numerators dotted with
    (vr, -vi) and (vi, vr) give the real and imaginary part."""
    vr, vi, d = numerators(v)
    n, den, v_re, v_im = m.n, m.den * d, (*vr, *(-x for x in vi)), (*vi, *vr)
    rows = [m.re[i:i + n] + m.im[i:i + n] for i in range(0, n * n, n)]
    return tuple(Scalar(Fraction(dot(r, v_re), den), Fraction(dot(r, v_im), den)) for r in rows)


def inner(u: Vector, v: Vector) -> Scalar:
    """Hermitian inner product <u|v>, conjugate-linear in the first slot."""
    (ur, ui, ud), (vr, vi, vd) = numerators(u), numerators(v)
    return Scalar(Fraction(dot(ur, vr) + dot(ui, vi), ud * vd),
                  Fraction(dot(ur, vi) - dot(ui, vr), ud * vd))


def norm_sq(v: Vector) -> Fraction:
    vr, vi, d = numerators(v)
    return Fraction(dot(vr, vr) + dot(vi, vi), d * d)


def outer(u: Vector, v: Vector) -> Matrix:
    """The operator |u><v|."""
    (ur, ui, ud), (vr, vi, vd) = numerators(u), numerators(v)
    u, v = list(zip(ur, ui)), list(zip(vr, vi))
    return Matrix._reduced(len(u), [a * c + b * d for a, b in u for c, d in v],
                           [b * c - a * d for a, b in u for c, d in v], ud * vd)


def proportional(a: Matrix, b: Matrix):
    """Return k with a == i^k * b, or None if no power of i relates them
    (a unit ratio of Gaussian-rational unitaries is always a power of i)."""
    if a == b and not any(a.re + a.im):
        raise ValueError("proportionality of two zero matrices is undefined")
    return next((k for k, phase in enumerate(I_POWERS) if a == b.scaled(phase)), None)
