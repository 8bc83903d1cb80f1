"""The 60-element group of unit-determinant 2x2 matrices over GF(4).

Every group element has a unique canonical factorization R^r H_x R^s where
H_x is a vertical shear and R is the order-5 "rotation" that cycles the five
slopes; r is fixed at 0 when x is 0 or omega-bar (those elements need no left
rotation).  The decomposition is recovered from slope lookup tables rather
than by searching the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import gf4
from .gf4 import INF, Mat2, OMEGA, OMEGA_BAR

SympMat = Mat2

IDENTITY: SympMat = gf4.MAT_IDENTITY

#: The rotation matrix R = [[W, 1], [1, 0]]; R^5 == identity.
R: SympMat = ((OMEGA_BAR, 1), (1, 0))


def shear(x: int) -> SympMat:
    """Vertical shear H_x = [[1, 0], [x, 1]]; H_x * H_y == H_{x+y}."""
    return ((1, 0), (x, 1))


class DomainError(ValueError):
    """A matrix outside the symplectic group was given where one is required."""


def require_symplectic(m: Mat2) -> None:
    if gf4.det(m) != 1:
        raise DomainError(f"matrix is not symplectic (det != 1): {m}")


def product(a: SympMat, b: SympMat) -> SympMat:
    return gf4.mat_mul(a, b)


def inverse(a: SympMat) -> SympMat:
    return gf4.inverse(a)


@lru_cache(maxsize=1)
def enumerate_group() -> tuple[SympMat, ...]:
    """All 60 symplectic matrices, in the canonical four-family order.

    Families: H_0 R^s, H_W R^s, R^r H_1 R^s, R^r H_w R^s, with the rotation
    exponents ascending within each family.
    """
    r_pow = [gf4.mat_pow(R, n) for n in range(5)]
    out = []
    for x in (0, OMEGA_BAR):
        for s in range(5):
            out.append(gf4.mat_mul(shear(x), r_pow[s]))
    for x in (1, OMEGA):
        for r in range(5):
            for s in range(5):
                out.append(gf4.mat_mul(r_pow[r], gf4.mat_mul(shear(x), r_pow[s])))
    if len(set(out)) != 60:
        raise AssertionError("group enumeration did not give 60 distinct matrices")
    return tuple(out)


@dataclass(frozen=True)
class Decomposition:
    """Canonical factorization L = R^r H_x R^s (r == 0 when x in {0, W})."""

    r: int
    x: int
    s: int

    def matrix(self) -> SympMat:
        return product(
            gf4.mat_pow(R, self.r), product(shear(self.x), gf4.mat_pow(R, self.s))
        )

    def __str__(self) -> str:
        return f"R^{self.r} H_{gf4.to_ascii(self.x)} R^{self.s}"


# Slope lookup tables keyed by slope value (INF included).
_S_TABLE_EASY = {OMEGA: 1, OMEGA_BAR: 3, 0: 0, 1: 2, INF: 4}
_S_TABLE_HARD = {OMEGA: 0, OMEGA_BAR: 1, 0: 2, 1: 3, INF: 4}
_R_TABLE = {OMEGA: 1, OMEGA_BAR: 2, 0: 3, 1: 4, INF: 0}

_H_WBAR = shear(OMEGA_BAR)


def decompose(L: SympMat) -> Decomposition:
    """Recover the canonical (r, x, s) for a symplectic matrix.

    The shear parameter satisfies x^2 == Tr(L^T H_W L H_W); the rotation
    exponents follow from the slopes of small auxiliary vectors via fixed
    five-row tables.
    """
    require_symplectic(L)
    lt = gf4.transpose(L)
    m = gf4.mat_mul(gf4.mat_mul(lt, _H_WBAR), gf4.mat_mul(L, _H_WBAR))
    x = gf4.sqrt(gf4.add(m[0][0], m[1][1]))

    if x in (0, OMEGA_BAR):
        mu = gf4.mat_vec(L, (1, 0))
        s = _S_TABLE_EASY[gf4.slope_add(x, gf4.slope(mu))]
        return Decomposition(0, x, s)

    e1x = (1, x)
    nu = gf4.vec_add(gf4.mat_vec(gf4.mat_mul(gf4.mat_mul(lt, _H_WBAR), L), (1, 0)), e1x)
    tau = gf4.vec_add(gf4.mat_vec(gf4.mat_mul(gf4.mat_mul(L, _H_WBAR), lt), (1, 0)), e1x)
    s = _S_TABLE_HARD[gf4.slope(nu)]
    r = _R_TABLE[gf4.slope(tau)]
    return Decomposition(r, x, s)


def to_text(m: Mat2) -> str:
    rows = ",".join(
        "[" + ",".join(gf4.to_token(e) for e in row) + "]" for row in m
    )
    return f"[{rows}]"
