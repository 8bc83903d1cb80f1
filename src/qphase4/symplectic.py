"""The 60-element group of unit-determinant 2x2 matrices over GF(4).

Every group element has a unique canonical factorization R^r H_x R^s where
H_x is a vertical shear and R is the order-5 "rotation" that cycles the five
slopes; r is fixed at 0 when x is 0 or omega-bar (those elements need no left
rotation).  The 60 triples are enumerated once, into one mapping from matrix to
triple: ``enumerate_group`` returns its keys and ``decompose`` reads it back.
The group's product table, on indices into that enumeration (``cayley``), is
composed from the left multiplications by R and the three shears.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from . import gf4
from .gf4 import Mat2, OMEGA, OMEGA_BAR

SympMat = Mat2

IDENTITY: SympMat = gf4.MAT_IDENTITY

#: The rotation matrix R = [[W, 1], [1, 0]]; R^5 == identity.
R: SympMat = ((OMEGA_BAR, 1), (1, 0))

#: R^n for n = 0..4; index with n % 5 for any other exponent.
R_POWERS: tuple[SympMat, ...] = tuple(accumulate([R] * 4, gf4.mat_mul, initial=IDENTITY))


def shear(x: int) -> SympMat:
    """Vertical shear H_x = [[1, 0], [x, 1]]; H_x * H_y == H_{x+y}."""
    return ((1, 0), (x, 1))


class DomainError(ValueError):
    """A matrix outside the symplectic group was given where one is required."""


def require_symplectic(m: Mat2) -> None:
    if gf4.det(m) != 1:
        raise DomainError(f"matrix is not symplectic (det != 1): {m}")


#: The group's product and inverse are GF(4)'s 2x2 matrix product and inverse.
product = gf4.mat_mul
inverse = gf4.inverse


class Decomposition(NamedTuple):
    """Canonical factorization L = R^r H_x R^s (r == 0 when x in {0, W})."""

    r: int
    x: int
    s: int

    def matrix(self) -> SympMat:
        return product(R_POWERS[self.r], product(shear(self.x), R_POWERS[self.s]))

    def __str__(self) -> str:
        return f"R^{self.r} H_{gf4.to_ascii(self.x)} R^{self.s}"


@lru_cache(maxsize=1)
def _canonical() -> dict[SympMat, Decomposition]:
    """Each symplectic matrix's canonical triple, in the four-family order.

    Families: H_0 R^s, H_W R^s, R^r H_1 R^s, R^r H_w R^s, with the rotation
    exponents ascending within each family; each key is its triple's matrix.
    """
    triples = [Decomposition(0, x, s) for x in (0, OMEGA_BAR) for s in range(5)]
    triples += [Decomposition(r, x, s) for x in (1, OMEGA) for r in range(5) for s in range(5)]
    out = {d.matrix(): d for d in triples}
    if len(out) != 60:
        raise AssertionError("group enumeration did not give 60 distinct matrices")
    return out


@lru_cache(maxsize=1)
def enumerate_group() -> tuple[SympMat, ...]:
    """All 60 symplectic matrices, in the canonical four-family order."""
    return tuple(_canonical())


@lru_cache(maxsize=1)
def cayley() -> tuple[tuple[int, ...], ...]:
    """Row i, entry j: the index in enumerate_group() of the product of its
    elements i and j.  Left multiplication by R and by each shear H_x is read
    once off gf4.mat_mul as a permutation of the indices, R^k's by composing
    R's, and element i = R^r H_x R^s's row is R^s's taken through H_x's and
    then R^r's permutation."""
    group = enumerate_group()
    at = {L: j for j, L in enumerate(group)}
    rotate, *shears = ([at[gf4.mat_mul(g, L)] for L in group] if g != IDENTITY else range(60)
                       for g in (R, *map(shear, gf4.ELEMENTS)))
    powers = [range(60)]
    for _ in range(4):
        powers.append(list(map(rotate.__getitem__, powers[-1])))
    return tuple(tuple(map(powers[r].__getitem__, map(shears[x].__getitem__, powers[s])))
                 for r, x, s in _canonical().values())


def decompose(L: SympMat) -> Decomposition:
    """The canonical (r, x, s) of a symplectic matrix, read back from the
    one enumeration of the group."""
    require_symplectic(L)
    return _canonical()[L]


def to_text(m: Mat2) -> str:
    rows = ",".join(
        "[" + ",".join(gf4.to_token(e) for e in row) + "]" for row in m
    )
    return f"[{rows}]"
