"""Arithmetic in the four-element field and its 2-vectors and 2x2 matrices.

Field elements are the ints 0..3 with the encoding

    0 -> 0,  1 -> 1,  2 -> w (omega),  3 -> W (omega-bar).

Arithmetic is table-driven: the addition and multiplication tables below are
the single source of truth, not a polynomial representation.  Every element
is its own additive inverse (characteristic 2), and the nonzero elements form
a cyclic group of order 3.
"""

from __future__ import annotations

from typing import Iterable

OMEGA = 2
OMEGA_BAR = 3

#: Display/iteration order is always 0, 1, w, W.
ELEMENTS = (0, 1, OMEGA, OMEGA_BAR)

# fmt: off
_ADD = (
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 1, 0),
)

_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
# fmt: on

# Squaring is a bijection; its own inverse map gives square roots.
_SQRT = tuple(next(b for b in ELEMENTS if _MUL[b][b] == a) for a in range(4))

_INV = (None, 1, 3, 2)

#: Distinguished "infinite" slope, arising when the q-component vanishes.
INF = "inf"

# Tokens used in JSON and on the CLI; ASCII rendering uses w~ for omega-bar.
_TOKENS = ("0", "1", "w", "W")
_ASCII = ("0", "1", "w", "w~")


def add(a: int, b: int) -> int:
    return _ADD[a][b]


def mul(a: int, b: int) -> int:
    return _MUL[a][b]


def inv(a: int) -> int:
    """Multiplicative inverse of a nonzero element."""
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(4)")
    return _INV[a]


def div(a: int, b: int) -> int:
    return mul(a, inv(b))


def sqrt(a: int) -> int:
    """The unique b with b*b == a (squaring is a bijection in GF(4))."""
    return _SQRT[a]


def to_token(a: int) -> str:
    return _TOKENS[a]


def to_ascii(a: int) -> str:
    return _ASCII[a]


def from_token(tok: str) -> int:
    try:
        return _TOKENS.index(tok)
    except ValueError:
        raise ValueError(f"not a GF(4) token: {tok!r}") from None


# ---------------------------------------------------------------------------
# 2-vectors and 2x2 matrices.  A vector (q, p) is treated as a column vector:
# matrices act from the left.


Vec2 = tuple[int, int]
Mat2 = tuple[tuple[int, int], tuple[int, int]]

MAT_IDENTITY: Mat2 = ((1, 0), (0, 1))


def vec_add(u: Vec2, v: Vec2) -> Vec2:
    return (add(u[0], v[0]), add(u[1], v[1]))


def slope(v: Vec2):
    """Slope p/q of a nonzero vector; INF when q == 0."""
    q, p = v
    if q == 0:
        if p == 0:
            raise ValueError("slope undefined at origin")
        return INF
    return div(p, q)


def slope_add(x: int, s):
    """x + s where s may be the infinite slope (x + inf == inf)."""
    return INF if s is INF else add(x, s)


def expand(x: int) -> tuple[int, int]:
    """Coordinates (x1, x2) of x in the self-dual field basis (W, w).

    Satisfies x == x1*W + x2*w with x1, x2 in {0, 1}.
    """
    return ((0, 0), (1, 1), (0, 1), (1, 0))[x]


def unexpand(x1: int, x2: int) -> int:
    return add(mul(x1, OMEGA_BAR), mul(x2, OMEGA))


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return tuple(
        tuple(add(mul(a[i][0], b[0][j]), mul(a[i][1], b[1][j])) for j in range(2))
        for i in range(2)
    )


def mat_vec(a: Mat2, v: Vec2) -> Vec2:
    return (
        add(mul(a[0][0], v[0]), mul(a[0][1], v[1])),
        add(mul(a[1][0], v[0]), mul(a[1][1], v[1])),
    )


def det(a: Mat2) -> int:
    # ad - bc == ad + bc in characteristic 2
    return add(mul(a[0][0], a[1][1]), mul(a[0][1], a[1][0]))


def transpose(a: Mat2) -> Mat2:
    return ((a[0][0], a[1][0]), (a[0][1], a[1][1]))


def inverse(a: Mat2) -> Mat2:
    d = det(a)
    if d == 0:
        raise ValueError("singular matrix")
    di = inv(d)
    return (
        (mul(di, a[1][1]), mul(di, a[0][1])),
        (mul(di, a[1][0]), mul(di, a[0][0])),
    )


def mat_pow(a: Mat2, n: int) -> Mat2:
    out = MAT_IDENTITY
    for _ in range(n):
        out = mat_mul(out, a)
    return out


def all_points() -> Iterable[Vec2]:
    """The 16 points of the phase space, q varying slowest."""
    for q in ELEMENTS:
        for p in ELEMENTS:
            yield (q, p)
