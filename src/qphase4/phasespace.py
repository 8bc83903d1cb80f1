"""Lines, striations, and the index calculus of the 4x4 phase space.

Striation n consists of the lines R^n applied to the vertical lines; its
label is fixed by that generative definition, never by slope values.  The
index of a point (or of one line per striation) is the five-component GF(4)
vector recording which line of each striation is selected.  It is linear,
I(alpha) = alpha_q Q + alpha_p P, so a symplectic matrix L acts on indices
through the monomial 5x5 index operator S_L read off the indices of L's two
basis images, plus, on the Hilbert side, an affine shift vector f_L.
"""

from __future__ import annotations

from functools import lru_cache

from . import gf4, symplectic
from .gf4 import ELEMENTS, Vec2
from .symplectic import R_POWERS, SympMat

Index = tuple[int, int, int, int, int]
IndexOperator = tuple[tuple[int, ...], ...]

ZERO_INDEX: Index = (0, 0, 0, 0, 0)


def line_points(n: int, k: int) -> frozenset[Vec2]:
    """The 4 points of line k of striation n (R^n applied to q == k)."""
    r = R_POWERS[n % 5]
    return frozenset(gf4.mat_vec(r, (k, p)) for p in ELEMENTS)


@lru_cache(maxsize=1)
def qp_vectors() -> tuple[Index, Index]:
    """The vectors Q, P with (R^-n beta)_q == beta_q Q_n + beta_p P_n."""
    q = tuple(gf4.mat_vec(R_POWERS[-n % 5], (1, 0))[0] for n in range(5))
    p = tuple(gf4.mat_vec(R_POWERS[-n % 5], (0, 1))[0] for n in range(5))
    return q, p


def point_index(alpha: Vec2) -> Index:
    """Index of a point: component n is the line of striation n through it."""
    q, p = qp_vectors()
    return tuple(
        gf4.add(gf4.mul(alpha[0], q[n]), gf4.mul(alpha[1], p[n])) for n in range(5)
    )


def displace_index(idx: Index, beta: Vec2) -> Index:
    """Index after displacement by beta: add beta_q Q + beta_p P."""
    return index_add(idx, point_index(beta))


def index_add(a: Index, b: Index) -> Index:
    if len(a) != len(b):
        raise AssertionError(f"index lengths differ: {len(a)} and {len(b)}")
    add = gf4._ADD
    return tuple([add[x][y] for x, y in zip(a, b)])


@lru_cache(maxsize=None)
def index_operator(L: SympMat) -> IndexOperator:
    """The monomial 5x5 matrix S_L with I(L alpha) == S_L I(alpha).

    I is linear, so S_L is fixed by the indices of the basis images L e_q and
    L e_p.  Row m has one nonzero entry s, in the column n of the striation
    that L sends to striation m, with (I(L e_q)_m, I(L e_p)_m) == s (Q_n, P_n);
    exactly one (n, s) must fit each row.  Each row reads its (n, s) from a
    table of the 15 pairs s (Q_n, P_n), built from qp_vectors() on every
    call, in which a pair that two (n, s) give fits neither.
    """
    symplectic.require_symplectic(L)
    q, p = qp_vectors()
    mul, fits = gf4._MUL, {}
    for n in range(5):
        for s in ELEMENTS[1:]:
            pair = (mul[s][q[n]], mul[s][p[n]])
            fits[pair] = None if pair in fits else (n, s)
    a, b = map(point_index, gf4.transpose(L))  # the columns L e_q and L e_p
    rows = []
    for m in range(5):
        fit = fits.get((a[m], b[m]))
        if fit is None:
            raise AssertionError(f"index-operator row {m} not well defined for {L}")
        n, s = fit
        rows.append(tuple(s if j == n else 0 for j in range(5)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _monomial(L: SympMat) -> tuple[tuple[int, int], ...]:
    """Per row of index_operator(L), the column n and value s of its one
    nonzero entry."""
    rows = index_operator(L)
    return tuple((row.index(s), s) for row, s in zip(rows, map(max, rows)))


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
        rn = R_POWERS[-n % 5]
        mu = gf4.mat_vec(gf4.mat_mul(gf4.mat_mul(rn, core), rn), (1, 0))
        s = gf4.slope(mu)
        if s is gf4.INF:
            raise AssertionError(f"shift-vector slope infinite for {L}, n={n}")
        out.append(s)
    return tuple(out)


@lru_cache(maxsize=720)  # the 12 canonical frames times 60 L of verify and stream
def compose_frame(f: Index, L: SympMat) -> Index:
    """Frame reached from f after performing U_L: S_L f + f_L.  S_L is
    monomial, so component m of S_L f is s f_n for the one nonzero entry s
    of row m, in column n (_monomial, read once per L), off gf4's table."""
    mul = gf4._MUL
    return index_add([mul[s][f[n]] for n, s in _monomial(L)], shift_vector(L))


@lru_cache(maxsize=1)
def canonical_shift_vectors() -> tuple[Index, ...]:
    """The 12 distinct shift vectors arising from the 60 group elements."""
    vecs = sorted({shift_vector(L) for L in symplectic.enumerate_group()})
    if len(vecs) != 12:
        raise AssertionError(f"expected 12 canonical shift vectors, found {len(vecs)}")
    return tuple(vecs)
