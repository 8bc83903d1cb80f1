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
and compare each exact product, one big-int dot, with its packed target:
U_L D_a with +/- D_{La} U_L after one dense check U_L^dag U_L == I per L, and
U_{L1} U_{L2} with i^k U_{L1 L2}, whose phase table holds the named identities.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from . import gf4, symplectic
from .exact import Matrix, Scalar as _S, Vector, dot, lane_width, outer, pack
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
    """U_L = U_R^r U_{H_x} U_R^s from the canonical decomposition of L."""
    d = symplectic.decompose(L)
    return _U_R_POWERS[d.r] @ _GENERATORS[d.x] @ _U_R_POWERS[d.s]


# 16 entries hold one state's 16 displacements.  Measured: verify all hits
# 288 of 420 calls, all in symmetry, whose 60 L give only 12 distinct
# (R_L, V, f_L), so each (V, state) check runs five times in a row; a
# stream of fresh states hits 0 of 950, and apply 0 of 2.
@lru_cache(maxsize=16)
def conjugate(u: Matrix, rho: Matrix) -> Matrix:
    """u rho u^dag, which no frame changes: marginal_check in several frames
    conjugates each (D_beta, rho) once."""
    return u @ rho @ u.dagger()


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
    side, and each side of a pair is one dot of big integers; every D_beta
    has denominator 1, so both dots are over U_L's denominator."""
    group, points = symplectic.enumerate_group(), gf4.all_points()
    units, ds = [unitary_for(L) for L in group], [displacement(b) for b in points]
    w = lane_width(units + ds)
    d_lefts = {b: d.packed_left(w) for b, d in zip(points, ds)}
    d_rights = [d.packed_right(w) for d in ds]
    signs = {}
    for L, u in zip(group, units):
        # Without unitarity the identity already fails at alpha == (0, 0), the first point.
        unitary, left, right = u.is_unitary(), u.packed_left(w), u.packed_right(w)
        for alpha, d_right in zip(points, d_rights):
            lhs, rhs = dot(left, d_right), dot(d_lefts[gf4.mat_vec(L, alpha)], right)
            sign = 1 if lhs == rhs else -1 if lhs == -rhs else None
            if sign is None or not unitary:
                raise AssertionError(f"metaplectic check failed for "
                                     f"L={symplectic.to_text(L)}, alpha={alpha}")
            signs[(L, alpha)] = sign
    return {"checked": len(signs), "signs": signs}


def verify_projective_rep() -> dict:
    """Check U_{L1} U_{L2} == i^k U_{L1 L2} over all 3600 ordered pairs.

    Each U_L is packed once as a left and once as a right factor; the
    product c of a pair is one dot of big integers, and its phase the k with
    c t == packed(i^k U_{L1 L2}) a b, for a, b, t the three denominators.  The
    named special cases are entries of the same phase table, on the
    unitaries unitary_for gives: exact shear composition, the
    R H_W R == H_W identity, U_R^5 == I, and the shear-rotation-shear family.
    """
    group = symplectic.enumerate_group()
    units = [unitary_for(L) for L in group]
    w = lane_width(units)
    rights = [u.packed_right(w) for u in units]
    # The rows of a right packing, 8 lanes apart, are U and i U in a product's lanes.
    targets = {L: (u.den, pack(r[::2], 8 * w), pack(r[1::2], 8 * w))
               for L, u, r in zip(group, units, rights)}
    phases = {}
    for l1, u1 in zip(group, units):
        left = u1.packed_left(w)
        for l2, u2, right in zip(group, units, rights):
            t, p, ip = targets[symplectic.product(l1, l2)]
            lhs, ab = dot(left, right) * t, u1.den * u2.den
            k = next((k for k, rhs in enumerate((p, ip, -p, -ip)) if lhs == rhs * ab), None)
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
    then its imaginary numerators, row-major, over 4."""
    return tuple(tuple(x * (4 // p.den) for x in p.re + p.im) for p in (
        outer(mub_vector(n, k), mub_vector(n, k)) for n in range(5) for k in ELEMENTS))


@lru_cache(maxsize=16)  # a state's 16 displacements, D_0 rho D_0 = rho among them
def born_probability(rho: Matrix) -> tuple[int, tuple[int, ...]]:
    """The 20 Born probabilities Tr(P rho) of the MUB projectors P =
    |b><b|, b = mub_vector(n, k), as (den, nums): nums[4n + k] over the one
    denominator den = 4 rho.den.  Each is the real Hilbert-Schmidt product
    sum_ij P_ij conj(rho_ij) on numerators, exact for Hermitian rho only; any
    other rho raises ValueError."""
    if not rho.is_hermitian():
        raise ValueError("Born probabilities of a non-Hermitian operator")
    return 4 * rho.den, born_numerators(rho.re + rho.im)


def born_numerators(entries) -> tuple[int, ...]:
    """Per MUB projector P at its Born index, the dot of its numerators
    with entries, a matrix's real then imaginary numerators: Tr(P rho) over
    4 times their denominator for a Hermitian rho.  The dot is linear, so
    entries that pack one matrix per lane give every lane's numerators."""
    return tuple(dot(p, entries) for p in projector_numerators())
