"""Lines, striations, and the index calculus of the 4x4 phase space.

Striation n consists of the lines R^n applied to the vertical lines; its
label is fixed by that generative definition, never by slope values.  The
index of a point (or of one line per striation) is the five-component GF(4)
vector recording which line of each striation is selected.  Symplectic
matrices act on indices through monomial 5x5 index operators S_L plus, on
the Hilbert side, an affine shift vector f_L.
"""

from __future__ import annotations

from functools import lru_cache

from . import gf4, symplectic
from .gf4 import ELEMENTS, Vec2
from .symplectic import SympMat

Index = tuple[int, int, int, int, int]
IndexOperator = tuple[tuple[int, ...], ...]

ZERO_INDEX: Index = (0, 0, 0, 0, 0)

_R_POW = [gf4.mat_pow(symplectic.R, n) for n in range(5)]


def _r_power(n: int) -> gf4.Mat2:
    return _R_POW[n % 5]


@lru_cache(maxsize=None)
def line_points(n: int, k: int) -> frozenset[Vec2]:
    """The 4 points of line k of striation n (R^n applied to q == k)."""
    r = _r_power(n)
    return frozenset(gf4.mat_vec(r, (k, p)) for p in ELEMENTS)


@lru_cache(maxsize=1)
def _striation_of_slope() -> dict:
    """Derived correspondence from ray slope to striation number."""
    out = {}
    for n in range(5):
        pt = next(p for p in line_points(n, 0) if p != (0, 0))
        out[gf4.slope(pt)] = n
    if len(out) != 5:
        raise AssertionError("the five striations do not have distinct ray slopes")
    return out


@lru_cache(maxsize=1)
def qp_vectors() -> tuple[Index, Index]:
    """The vectors Q, P with (R^-n beta)_q == beta_q Q_n + beta_p P_n."""
    q = tuple(gf4.mat_vec(_r_power(-n), (1, 0))[0] for n in range(5))
    p = tuple(gf4.mat_vec(_r_power(-n), (0, 1))[0] for n in range(5))
    return q, p


def point_index(alpha: Vec2) -> Index:
    """Index of a point: component n is the line of striation n through it."""
    q, p = qp_vectors()
    return tuple(
        gf4.add(gf4.mul(alpha[0], q[n]), gf4.mul(alpha[1], p[n])) for n in range(5)
    )


def point_index_by_membership(alpha: Vec2) -> Index:
    """Index computed by direct line-membership search (test oracle)."""
    out = []
    for n in range(5):
        ks = [k for k in ELEMENTS if alpha in line_points(n, k)]
        if len(ks) != 1:
            raise AssertionError(f"{alpha} lies on {len(ks)} lines of striation {n}")
        out.append(ks[0])
    return tuple(out)


def displace_index(idx: Index, beta: Vec2) -> Index:
    """Index after displacement by beta: add beta_q Q + beta_p P."""
    return tuple(gf4.add(a, b) for a, b in zip(idx, point_index(beta)))


def index_add(a: Index, b: Index) -> Index:
    return tuple(gf4.add(x, y) for x, y in zip(a, b))


@lru_cache(maxsize=None)
def index_operator(L: SympMat) -> IndexOperator:
    """The monomial 5x5 matrix S_L with I(L alpha) == S_L I(alpha).

    Row m of column n is nonzero exactly when L sends striation n to
    striation m; the entry is the common ratio of transformed to original
    line labels, checked to agree over every admissible displacement.
    """
    symplectic.require_symplectic(L)
    q, p = qp_vectors()
    slopes = _striation_of_slope()
    rows = [[0] * 5 for _ in range(5)]
    for n in range(5):
        ray_pt = next(pt for pt in line_points(n, 0) if pt != (0, 0))
        m = slopes[gf4.slope(gf4.mat_vec(L, ray_pt))]
        values = set()
        for beta in gf4.all_points():
            den = gf4.add(gf4.mul(beta[0], q[n]), gf4.mul(beta[1], p[n]))
            if den == 0:
                continue
            lb = gf4.mat_vec(L, beta)
            num = gf4.add(gf4.mul(lb[0], q[m]), gf4.mul(lb[1], p[m]))
            values.add(gf4.div(num, den))
        if len(values) != 1:
            raise AssertionError(f"index-operator entry not well defined for {L}")
        rows[m][n] = values.pop()
    return tuple(tuple(r) for r in rows)


def apply_index_operator(s: IndexOperator, idx: Index) -> Index:
    out = []
    for m in range(5):
        acc = 0
        for n in range(5):
            acc = gf4.add(acc, gf4.mul(s[m][n], idx[n]))
        out.append(acc)
    return tuple(out)


_H_WBAR_T = gf4.transpose(symplectic.shear(gf4.OMEGA_BAR))


@lru_cache(maxsize=None)
def shift_vector(L: SympMat) -> Index:
    """The shift vector f_L, computed purely over the field.

    Component n is the slope of R^-n L H_W^T L^T R^-n (1,0)^T, which is
    always finite for symplectic L.
    """
    symplectic.require_symplectic(L)
    core = gf4.mat_mul(gf4.mat_mul(L, _H_WBAR_T), gf4.transpose(L))
    out = []
    for n in range(5):
        rn = _r_power(-n)
        mu = gf4.mat_vec(gf4.mat_mul(gf4.mat_mul(rn, core), rn), (1, 0))
        s = gf4.slope(mu)
        if s is gf4.INF:
            raise AssertionError(f"shift-vector slope infinite for {L}, n={n}")
        out.append(s)
    return tuple(out)


def compose_frame(f: Index, L: SympMat) -> Index:
    """Frame reached from f after performing U_L: S_L f + f_L."""
    return index_add(apply_index_operator(index_operator(L), f), shift_vector(L))


@lru_cache(maxsize=1)
def canonical_shift_vectors() -> tuple[Index, ...]:
    """The 12 distinct shift vectors arising from the 60 group elements."""
    vecs = sorted({shift_vector(L) for L in symplectic.enumerate_group()})
    if len(vecs) != 12:
        raise AssertionError(f"expected 12 canonical shift vectors, found {len(vecs)}")
    return tuple(vecs)
