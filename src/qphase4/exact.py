"""Exact linear algebra over the Gaussian rationals.

Scalars carry rational real and imaginary parts; no operation ever rounds.
Matrices are small (2x2 and 4x4) immutable tuples of scalars, so equality is
decidable and used directly by the exhaustive verification sweeps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

#: Largest decimal length of a numerator or denominator read from JSON.
#: Wigner values and transported states of inputs at this bound stay below
#: Python's 4300-digit limit on converting integers to text (a vector of
#: sixteen distinct 100-digit parts gives about 1600 digits).
MAX_JSON_DIGITS = 100


class Scalar:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "Scalar":
        out = object.__new__(cls)
        out.re = re
        out.im = im
        return out

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar._raw(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar._raw(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "Scalar":
        return Scalar._raw(-self.re, -self.im)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar._raw(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conj(self) -> "Scalar":
        return Scalar._raw(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar) and self.re == other.re and self.im == other.im
        )

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"Scalar({self.re}, {self.im})"

    def to_json(self) -> dict:
        return {
            "re": [self.re.numerator, self.re.denominator],
            "im": [self.im.numerator, self.im.denominator],
        }

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


ZERO = Scalar(0)
ONE = Scalar(1)
I_UNIT = Scalar(0, 1)

#: i^k for k = 0..3.
I_POWERS = (ONE, I_UNIT, Scalar(-1), Scalar(0, -1))


def _coerce(v) -> Scalar:
    return v if isinstance(v, Scalar) else Scalar(v)


class Matrix:
    """Immutable square matrix of exact scalars."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(_coerce(v) for v in row) for row in rows)
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise ValueError("matrix must be square")
        self._hash = None

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        cols = tuple(zip(*other.rows))
        return Matrix(
            [
                [
                    sum((a * b for a, b in zip(row, col)), ZERO)
                    for col in cols
                ]
                for row in self.rows
            ]
        )

    def scaled(self, c) -> "Matrix":
        c = _coerce(c)
        return Matrix([[c * a for a in row] for row in self.rows])

    def dagger(self) -> "Matrix":
        return Matrix([[a.conj() for a in col] for col in zip(*self.rows)])

    def trace(self) -> Scalar:
        return sum((self.rows[i][i] for i in range(self.n)), ZERO)

    def kron(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [
                [a * b for a in ra for b in rb]
                for ra in self.rows
                for rb in other.rows
            ]
        )

    def is_hermitian(self) -> bool:
        return self == self.dagger()

    def is_unitary(self) -> bool:
        return self.dagger() @ self == Matrix.identity(self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __repr__(self) -> str:
        return f"Matrix({[[str(a) for a in row] for row in self.rows]})"

    def to_json(self) -> list:
        return [[a.to_json() for a in row] for row in self.rows]

    @classmethod
    def from_json(cls, obj: list) -> "Matrix":
        return cls([[Scalar.from_json(a) for a in row] for row in obj])


Vector = tuple[Scalar, ...]


def vector(values: Iterable) -> Vector:
    return tuple(_coerce(v) for v in values)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in m.rows)


def inner(u: Vector, v: Vector) -> Scalar:
    """Hermitian inner product <u|v>, conjugate-linear in the first slot."""
    return sum((a.conj() * b for a, b in zip(u, v)), ZERO)


def norm_sq(v: Vector) -> Fraction:
    return sum((a.re * a.re + a.im * a.im for a in v), Fraction(0))


def outer(u: Vector, v: Vector) -> Matrix:
    """The operator |u><v|."""
    return Matrix([[a * b.conj() for b in v] for a in u])


def proportional(a: Matrix, b: Matrix):
    """Return k with a == i^k * b, or None if no power of i relates them.

    Entries are Gaussian rationals, so any unit-modulus ratio between exact
    unitaries is one of the four powers of i; anything else means the
    matrices differ by more than a phase.
    """
    pivot = None
    for i, row in enumerate(b.rows):
        for j, entry in enumerate(row):
            if not entry.is_zero():
                pivot = (i, j)
                break
        if pivot:
            break
    if pivot is None:
        if all(e.is_zero() for row in a.rows for e in row):
            raise ValueError("proportionality of two zero matrices is undefined")
        return None
    ratio = a.rows[pivot[0]][pivot[1]] / b.rows[pivot[0]][pivot[1]]
    for k, phase in enumerate(I_POWERS):
        if ratio == phase:
            return k if a == b.scaled(phase) else None
    return None
