"""Displacement operators, the metaplectic unitaries U_L, and the five MUBs.

Displacements are Pauli tensors sigma_j (x) sigma_k with the phase fixed so
that every displacement operator is Hermitian as well as unitary.  The
unitary attached to a symplectic matrix L is the literal product
U_R^r U_{H_x} U_R^s given by the canonical decomposition of L, with the
global phase fixed by the generator matrices below -- not merely up to phase.
unitary_for is the only route from L to U_L: every sweep, the named
identities of the representation included, checks the unitaries it gives.

The first tensor factor is the first qubit, i.e. the coefficient of
omega-bar in the field-basis expansion.

Both sweeps pack each factor once per side (Matrix.packed_left, packed_right)
and compare exact products of big integers with packed targets, one dot
holding many products in chunks of one integer, each chunk read as a slice
of its bytes (exact.chunk_keys): U_L D_a with +/- D_{La} U_L, one dot per
side and L for all 16 a, after one dense check U_L^dag U_L == I per L; and
U_{L1} U_{L2} with i^k U_{L1 L2}, whose phase table holds the named
identities, one dot per L1 for all 60 L2 (exact.Family), each chunk looked
up among its target's four phases.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate

from . import gf4, symplectic
from .exact import (Family, Matrix, Scalar as _S, Vector, chunk_keys, chunked, dot, lane_width,
                    product)
from .gf4 import ELEMENTS, Vec2
from .symplectic import SympMat

HALF = Fraction(1, 2)

PAULI_I = Matrix([[1, 0], [0, 1]])
PAULI_X = Matrix([[0, 1], [1, 0]])
PAULI_Y = Matrix([[_S(0), _S(0, -1)], [_S(0, 1), _S(0)]])
PAULI_Z = Matrix([[1, 0], [0, -1]])

# Single-qubit Pauli (name, matrix) indexed by (x-power, z-power); XZ is
# replaced by Y.
_PAULIS = {
    (0, 0): ("I", PAULI_I),
    (1, 0): ("X", PAULI_X),
    (0, 1): ("Z", PAULI_Z),
    (1, 1): ("Y", PAULI_Y),
}


@lru_cache(maxsize=None)
def displacement(beta: Vec2) -> Matrix:
    """The Hermitian unitary Pauli tensor displacing phase space by beta."""
    q1, q2 = gf4.expand(beta[0])
    p1, p2 = gf4.expand(beta[1])
    return _PAULIS[(q1, p1)][1].kron(_PAULIS[(q2, p2)][1])


def displacement_name(beta: Vec2) -> str:
    q1, q2 = gf4.expand(beta[0])
    p1, p2 = gf4.expand(beta[1])
    return f"{_PAULIS[(q1, p1)][0]}⊗{_PAULIS[(q2, p2)][0]}"


_GENERATORS = {
    0: Matrix.identity(4),
    1: Matrix(
        [
            [0, 0, 0, _S(0, -1)],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [_S(0, 1), 0, 0, 0],
        ]
    ),
    gf4.OMEGA: Matrix(
        [
            [0, _S(0, -1), 0, 0],
            [_S(0, 1), 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    ),
    gf4.OMEGA_BAR: Matrix(
        [
            [0, 0, _S(0, -1), 0],
            [0, 0, 0, 1],
            [_S(0, 1), 0, 0, 0],
            [0, 1, 0, 0],
        ]
    ),
}

_U_R = Matrix(
    [
        [_S(0, HALF), _S(HALF), _S(0, HALF), _S(-HALF)],
        [_S(0, HALF), _S(-HALF), _S(0, HALF), _S(HALF)],
        [_S(0, HALF), _S(HALF), _S(0, -HALF), _S(HALF)],
        [_S(0, HALF), _S(-HALF), _S(0, -HALF), _S(-HALF)],
    ]
)

#: U_R^n for n = 0..4.
_U_R_POWERS = tuple(accumulate([_U_R] * 4, Matrix.__matmul__, initial=Matrix.identity(4)))


@lru_cache(maxsize=None)
def unitary_for(L: SympMat) -> Matrix:
    """U_L = U_R^r U_{H_x} U_R^s from the canonical decomposition of L, a
    product of only the factors that are not I (r, x or s nonzero)."""
    d = symplectic.decompose(L)
    factors = [u for u, k in zip((_U_R_POWERS[d.r], _GENERATORS[d.x], _U_R_POWERS[d.s]), d) if k]
    return reduce(Matrix.__matmul__, factors or [_GENERATORS[0]])


def conjugate(u: Matrix, rho: Matrix) -> Matrix:
    """u rho u^dag: two products on numerators (exact.product), reduced once."""
    ud, n = u.dagger(), u.n
    return Matrix._reduced(n, *product(n, *product(n, u.re, u.im, rho.re, rho.im), ud.re, ud.im),
                           u.den * rho.den * u.den)


@lru_cache(maxsize=None)
def mub_vector(n: int, k: int) -> Vector:
    """Vector k of mutually unbiased basis n: U_R^n D_(k,0) |0>, the first
    column of the product U_R^n D_(k,0).

    Basis 0 is the computational basis; the others follow by repeated
    rotation.  All 20 vectors have exact unit norm.
    """
    return tuple(row[0] for row in (_U_R_POWERS[n % 5] @ displacement((k, 0))).rows)


def verify_metaplectic() -> dict:
    """Check U_L D_a U_L^dag == +/- D_{La} over all 60 x 16 pairs.

    U_L^dag U_L == I (Matrix.is_unitary) is the one dense product per L.
    Given that, the identity holds exactly when U_L D_a == +/- D_{La} U_L.
    As in verify_projective_rep, each U_L and each D_beta is packed once per
    side, and the 16 D_beta are packed side by side, D_beta in chunk j for
    beta the j-th point, into one integer per packed row (right factors) or
    column (left factors) (exact.chunked).  So per L one dot holds the 16
    U_L D_a and one the 16 D_beta U_L, each chunk the 32 lanes of a product
    over U_L's denominator (every D_beta has denominator 1).  The lanes are
    those of the one-pair dots, all below 2^(w-1) (lane_width), so equal
    chunk keys (exact.chunk_keys) mean equal products.  U_L D_a is compared
    with D_{La} U_L and its negation, read at La's chunk."""
    group, points = symplectic.enumerate_group(), gf4.all_points()
    units, ds = [unitary_for(L) for L in group], [displacement(b) for b in points]
    w, count = lane_width(units + ds), len(points)
    d_left_all = chunked((d.packed_left(w) for d in ds), w)
    d_right_all = chunked((d.packed_right(w) for d in ds), w)
    at = {b: j for j, b in enumerate(points)}
    signs = {}
    for L, u in zip(group, units):
        # Without unitarity the identity already fails at alpha == (0, 0), the first point.
        unitary = u.is_unitary()
        lhs = chunk_keys(dot(u.packed_left(w), d_right_all), count, w)
        rhs = dot(d_left_all, u.packed_right(w))
        plus, minus = chunk_keys(rhs, count, w), chunk_keys(-rhs, count, w)
        for x, alpha in zip(lhs, points):
            y = at[gf4.mat_vec(L, alpha)]
            sign = 1 if x == plus[y] else -1 if x == minus[y] else None
            if sign is None or not unitary:
                raise AssertionError(f"metaplectic check failed for "
                                     f"L={symplectic.to_text(L)}, alpha={alpha}")
            signs[(L, alpha)] = sign
    return {"checked": len(signs), "signs": signs}


def verify_projective_rep() -> dict:
    """Check U_{L1} U_{L2} == i^k U_{L1 L2} over all 3600 ordered pairs.

    The 60 U_L are one exact.Family, in lanes of w = lane_width bits: each
    is packed once as a left and once as a right factor, the right
    factors' numerators scaled to the common denominator d = 2 of the U_L
    (each has 1 or 2), and one dot of big integers per L1 holds its 60
    products, chunk j holding U_{L1} U_{L2} over d^2 in 32 lanes (entry
    (i, j) real and imaginary at lanes 8i + 2j and 8i + 2j + 1).  Each
    chunk's key is looked up among the keys of the four i^k U_{L1 L2}
    (Family.phases), which also give k.

    The named special cases are entries of the same phase table, on the
    unitaries unitary_for gives: exact shear composition, the
    R H_W R == H_W identity, U_R^5 == I, and the shear-rotation-shear family.
    """
    group = symplectic.enumerate_group()
    units = [unitary_for(L) for L in group]
    family = Family.of(units, lane_width(units))
    targets = {L: family.phases(j) for j, L in enumerate(group)}
    phases = {}
    for l1, u1 in zip(group, units):
        for l2, key in zip(group, family.products(u1)):
            k = targets[symplectic.product(l1, l2)].get(key)
            if k is None:
                raise AssertionError(f"projective representation failed for "
                                     f"{symplectic.to_text(l1)}, {symplectic.to_text(l2)}")
            phases[(l1, l2)] = k

    shear, R, R_POWERS = symplectic.shear, symplectic.R, symplectic.R_POWERS
    # Shears compose exactly, with no phase.
    for x in ELEMENTS:
        for y in ELEMENTS:
            if phases[(shear(x), shear(y))]:
                raise AssertionError(f"shear composition failed for x={x}, y={y}")
    if phases[(R, symplectic.product(shear(gf4.OMEGA_BAR), R))]:
        raise AssertionError("U_R U_HW U_R != U_HW")
    if phases[(R, R_POWERS[4])]:
        raise AssertionError("U_R does not have order 5")
    # Shear-rotation-shear family, the crux case of the composition proof:
    # U_{H_x R^s} U_{H_y} == i^k U_{H_x R^s H_y}.
    srs_phases = {(x, s, y): phases[(symplectic.product(shear(x), R_POWERS[s]), shear(y))]
                  for x in ELEMENTS for s in range(5) for y in ELEMENTS}
    return {"checked": len(phases), "phases": phases, "shear_rotation_shear": srs_phases}


@lru_cache(maxsize=1)
def projector_numerators() -> tuple[tuple[int, ...], ...]:
    """Per MUB projector |b><b|, b = mub_vector(n, k), at 4n + k: its real
    then its imaginary numerators, row-major, over 4.  b is the first column
    of U_R^n D_(k,0), read as integer numerators (x_i + i y_i) over that
    product's denominator e, so b_i conj(b_j) is (x_i x_j + y_i y_j) +
    i (y_i x_j - x_i y_j) over e^2, and e divides 2."""
    out = []
    for n in range(5):
        for k in ELEMENTS:
            u = _U_R_POWERS[n] @ displacement((k, 0))
            b, scale = list(zip(u.re[::4], u.im[::4])), 4 // (u.den * u.den)
            out.append(tuple([scale * (x * z + y * t) for x, y in b for z, t in b]
                             + [scale * (y * z - x * t) for x, y in b for z, t in b]))
    return tuple(out)


@lru_cache(maxsize=16)  # a state's 16 displacements, D_0 rho D_0 = rho among them
def born_probability(rho: Matrix) -> tuple[int, tuple[int, ...]]:
    """The 20 Born probabilities Tr(P rho) of the MUB projectors P =
    |b><b|, b = mub_vector(n, k), as (den, nums): nums[4n + k] over the one
    denominator den = 4 rho.den.  Each is the real Hilbert-Schmidt product
    sum_ij P_ij conj(rho_ij), the dot of P's numerators over 4
    (projector_numerators) with rho's real then imaginary numerators, exact
    for Hermitian rho only; any other rho raises ValueError."""
    if not rho.is_hermitian():
        raise ValueError("Born probabilities of a non-Hermitian operator")
    entries = rho.re + rho.im
    return 4 * rho.den, tuple(dot(p, entries) for p in projector_numerators())
