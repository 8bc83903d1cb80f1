"""Exact linear algebra over the Gaussian rationals.

Scalars carry Fraction real and imaginary parts and have no arithmetic:
they serve only where user rationals come in or go out (construction, JSON,
printing).  Matrices (2x2 and 4x4) store integer real and imaginary
numerators over one shared denominator in lowest terms, so their arithmetic
is integer arithmetic, nothing rounds, and equality, used directly by the
exhaustive verification sweeps, compares integer tuples.  One kernel,
product, multiplies numerators for @, for is_unitary (which compares them
unreduced with den^2 I) and for clifford.conjugate.  A sweep of many
products packs each factor once instead, a big integer per column or row
with every numerator in a lane of lane_width bits (packed_left,
packed_right), so one dot of two packings holds every entry of their
product in its own lane.  Many matrices packed side by side (chunked) put
one product per chunk of 32 lanes in a single dot, and one chunk reader,
chunk_keys, reads each chunk as a slice of the dot's bytes that compares
exactly; a Family of right factors scaled to one denominator reads every
product of a left factor that way and keys each factor's four phases
i^k m for lookup.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import gcd, lcm
from operator import lshift, mul, neg
from typing import Iterable, NamedTuple, Sequence

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
        most MAX_JSON_DIGITS digits, and no other key, is a ValueError, so no
        float, string, bool or unprintably large integer reaches the exact
        arithmetic and no misspelt key goes unnoticed."""
        if isinstance(obj, dict) and obj.keys() - {"re", "im"}:
            raise ValueError(f'scalar must have only "re" and "im" parts: {obj!r}')
        parts = [obj.get(key) if isinstance(obj, dict) else None for key in ("re", "im")]
        for part in parts:
            if not (isinstance(part, list) and len(part) == 2
                    and all(type(x) is int for x in part) and part[1] != 0):
                raise ValueError(f"scalar parts must be [integer, nonzero integer]: {obj!r}")
            if any(abs(x) >= 10**MAX_JSON_DIGITS for x in part):
                raise ValueError(f"scalar parts must have at most {MAX_JSON_DIGITS} digits")
        return cls(Fraction(*parts[0]), Fraction(*parts[1]))


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
        return Matrix._reduced(self.n, *product(self.n, self.re, self.im, other.re, other.im),
                               self.den * other.den)

    def packed_left(self, w: int) -> tuple[int, ...]:
        """Packed as a left factor: per column k, its real and its imaginary
        numerators, row i in lane 2 n i (lanes of w bits; see pack)."""
        n = self.n
        return tuple(pack(part[k::n], 2 * n * w) for k in range(n) for part in (self.re, self.im))

    def packed_right(self, w: int) -> tuple[int, ...]:
        """Packed as a right factor: per row k, that row and i times it, entry j
        in lanes 2j (re) and 2j + 1 (im).  Dotted with a.packed_left(w), entry
        (i, j) of a @ self over a.den * self.den is in lanes 2(n i + j), +1."""
        n, out = self.n, []
        for p in range(0, n * n, n):
            re, im = pack(self.re[p:p + n], 2 * w), pack(self.im[p:p + n], 2 * w)
            out += (re + (im << w), (re << w) - im)
        return tuple(out)

    def scaled(self, c: int | Fraction) -> "Matrix":
        return Matrix._reduced(self.n, [x * c.numerator for x in self.re],
                               [x * c.numerator for x in self.im], self.den * c.denominator)

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
        """self^dag self == I, compared on the product's numerators over
        den^2, so the product is not reduced."""
        n, d, a = self.n, self.den, self.dagger()
        re, im = product(n, a.re, a.im, self.re, self.im)
        return not any(im) and re == [d * d * (i == j) for i in range(n) for j in range(n)]

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


def norm_sq(v: Vector) -> Fraction:
    vr, vi, d = numerators(v)
    return Fraction(dot(vr, vr) + dot(vi, vi), d * d)


def outer(u: Vector, v: Vector) -> Matrix:
    """The operator |u><v|."""
    (ur, ui, ud), (vr, vi, vd) = numerators(u), numerators(v)
    u, v = list(zip(ur, ui)), list(zip(vr, vi))
    return Matrix._reduced(len(u), [a * c + b * d for a, b in u for c, d in v],
                           [b * c - a * d for a, b in u for c, d in v], ud * vd)


def product(n: int, ar, ai, br, bi) -> tuple[list, list]:
    """The real and imaginary numerators of the n x n product a b, given
    a's (ar, ai) and b's (br, bi) row-major: over the product of the two
    denominators, unreduced."""
    # row: real then imaginary numerators; column: (re, -im) and (im, re)
    rows = [ar[i:i + n] + ai[i:i + n] for i in range(0, n * n, n)]
    re_cols, im_cols = [], []
    for j in range(n):
        cr, ci = br[j::n], bi[j::n]
        re_cols.append((*cr, *map(neg, ci)))
        im_cols.append((*ci, *cr))
    return ([sum(map(mul, r, c)) for r in rows for c in re_cols],
            [sum(map(mul, r, c)) for r in rows for c in im_cols])


def pack(lanes: Sequence[int], w: int) -> int:
    """The sum of lanes[l] * 2^(l w).  With every |lane| < 2^(w-1) the lanes
    are its balanced base-2^w digits, so equal packings have equal lanes."""
    return sum(map(lshift, lanes, range(0, len(lanes) * w, w)))


def lane_width(matrices: Sequence[Matrix]) -> int:
    """Bits per lane so that, for numerators up to m and a common denominator
    d, a product's lane times d and an entry times d^2 stay below 2^(w-1)."""
    m, d = max(max(map(abs, u.re + u.im)) for u in matrices), lcm(*(u.den for u in matrices))
    return (2 * matrices[0].n * m * m * d * d).bit_length() + 1


def chunked(packings: Iterable[Sequence[int]], w: int) -> list[int]:
    """Several matrices' packings (lanes of w bits) side by side: one
    integer per packed column or row, matrix j's in chunk j of 32 w bits.
    Dotted with one packing of the other side, chunk j holds the product
    with matrix j in its 32 lanes."""
    return [pack(lanes, 32 * w) for lanes in zip(*packings)]


def chunk_keys(x: int, count: int, w: int) -> tuple[bytes, ...]:
    """The count chunks of x, 32 w bits each, as keys that are equal exactly
    when the chunks are.  Every lane is below 2^(w-1) in absolute value, so
    a chunk lies in (-2^(32w-1), 2^(32w-1)); with 2^(32w-1) added to every
    chunk (the top bit of its last byte), chunk j is bytes 4wj to 4w(j+1)
    of the little-endian bytes."""
    size = 4 * w
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    return struct.unpack(f"{size}s" * count, (x + offset).to_bytes(size * count, "little"))


class Family(NamedTuple):
    """Matrices m_j packed once, side by side, as right factors, so that one
    dot per left factor a holds every product a m_j.  Their packed_right
    numerators are scaled to their common denominator d (rights), one
    integer per packed row holds them all (rows, chunked), and a's dot is
    read times d / a.den, so chunk j is a m_j over d^2 when a.den divides d.

    w must be lane_width of a and the family together.  For numerators up
    to m, a product lane is then at most 2 n m^2 d^2 and a key's lane, d
    times a numerator scaled to d, at most m d^2: both below 2^(w-1), so
    chunk_keys reads each chunk exactly."""

    w: int
    d: int
    rights: list
    rows: list

    @classmethod
    def of(cls, matrices: Sequence[Matrix], w: int) -> "Family":
        d = lcm(*(m.den for m in matrices))
        rights = [[x * (d // m.den) for x in m.packed_right(w)] for m in matrices]
        return cls(w, d, rights, chunked(rights, w))

    def products(self, a: Matrix) -> tuple[bytes, ...]:
        """Per m_j, the key (chunk_keys) of a m_j over d^2; a.den must divide d."""
        return chunk_keys(dot(a.packed_left(self.w), self.rows) * (self.d // a.den),
                          len(self.rights), self.w)

    def phases(self, j: int) -> dict[bytes, int]:
        """k by the key of i^k m_j over d, read as d i^k m_j over d^2, for
        k = 0..3.  The rows of a right packing, 8 lanes apart, are m_j and
        i m_j in a product's lanes."""
        r, w = self.rights[j], self.w
        p, ip = pack(r[::2], 8 * w), pack(r[1::2], 8 * w)
        return {chunk_keys(self.d * x, 1, w)[0]: k for k, x in enumerate((p, ip, -p, -ip))}


def proportional(a: Matrix, b: Matrix):
    """Return k with a == i^k * b, or None if no power of i relates them
    (a unit ratio of Gaussian-rational unitaries is always a power of i).
    i^k b keeps b's denominator, and its numerators are (re, im), (-im, re),
    (-re, -im) and (im, -re) for k = 0..3, so only integers are compared."""
    if a == b and not any(a.re + a.im):
        raise ValueError("proportionality of two zero matrices is undefined")
    if a.den != b.den:
        return None
    re, im, neg_re, neg_im = b.re, b.im, tuple(map(neg, b.re)), tuple(map(neg, b.im))
    pairs = ((re, im), (neg_im, re), (neg_re, neg_im), (im, neg_re))
    return next((k for k, pair in enumerate(pairs) if pair == (a.re, a.im)), None)
