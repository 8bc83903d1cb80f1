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
of its bytes: U_L D_a with +/- D_{La} U_L, one dot per side and L for all
16 a, after one dense check U_L^dag U_L == I per L; and U_{L1} U_{L2} with
i^k U_{L1 L2}, whose phase table holds the named identities, one dot per L1
for all 60 L2, each chunk looked up among its target's four phases.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import lcm

from . import gf4, symplectic
from .exact import Matrix, Scalar as _S, Vector, dot, lane_width, pack, product
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
    side, and the 16 D_beta are packed 32w bits apart, D_beta in chunk j for
    beta the j-th point, into one integer per packed row (right factors) or
    column (left factors).  So per L one dot holds the 16 U_L D_a and one
    the 16 D_beta U_L, each chunk the 32 lanes of a product over U_L's
    denominator (every D_beta has denominator 1).  The lanes are those of
    the one-pair dots, all below 2^(w-1) (lane_width), so a chunk lies in
    (-2^(32w-1), 2^(32w-1)); with 2^(32w-1) added to every chunk, chunk j is
    bytes 4wj to 4w(j+1) of the little-endian bytes, and equal bytes mean
    equal products.  U_L D_a is compared with D_{La} U_L and its negation,
    read at La's chunk."""
    group, points = symplectic.enumerate_group(), gf4.all_points()
    units, ds = [unitary_for(L) for L in group], [displacement(b) for b in points]
    w = lane_width(units + ds)
    chunk, size = 32 * w, 4 * w * len(points)
    offset = pack([1 << (chunk - 1)] * len(points), chunk)
    d_left_all = [pack(col, chunk) for col in zip(*(d.packed_left(w) for d in ds))]
    d_right_all = [pack(row, chunk) for row in zip(*(d.packed_right(w) for d in ds))]
    at = {b: slice(4 * w * j, 4 * w * (j + 1)) for j, b in enumerate(points)}
    signs = {}
    for L, u in zip(group, units):
        # Without unitarity the identity already fails at alpha == (0, 0), the first point.
        unitary = u.is_unitary()
        lhs = (dot(u.packed_left(w), d_right_all) + offset).to_bytes(size, "little")
        rhs = dot(d_left_all, u.packed_right(w))
        plus, minus = ((offset + x).to_bytes(size, "little") for x in (rhs, -rhs))
        for alpha in points:
            x, y = lhs[at[alpha]], at[gf4.mat_vec(L, alpha)]
            sign = 1 if x == plus[y] else -1 if x == minus[y] else None
            if sign is None or not unitary:
                raise AssertionError(f"metaplectic check failed for "
                                     f"L={symplectic.to_text(L)}, alpha={alpha}")
            signs[(L, alpha)] = sign
    return {"checked": len(signs), "signs": signs}


def verify_projective_rep() -> dict:
    """Check U_{L1} U_{L2} == i^k U_{L1 L2} over all 3600 ordered pairs.

    Each U_L is packed once as a left and once as a right factor
    (Matrix.packed_left, packed_right; lanes of w = lane_width bits), and
    one dot of big integers per L1 holds its 60 products.  The right
    factors' numerators are scaled to the common denominator d = 2 of the
    U_L (each has 1 or 2), and each packed row of all 60 is one integer:
    right factor j in chunk j, 32w bits wide, the 32 lanes of a product
    (entry (i, j) real and imaginary at lanes 8i + 2j and 8i + 2j + 1).
    Times d / den(U_{L1}), chunk j of the dot holds U_{L1} U_{L2} over d^2.
    A chunk's lanes are balanced, so it lies in (-2^(32w-1), 2^(32w-1));
    with 2^(32w-1) added to every chunk, chunk j is bytes 4wj to 4w(j+1)
    of the little-endian bytes, looked up among the four packings of
    d i^k U_{L1 L2} over d^2 (k = 0..3), each plus 2^(32w-1), as 4w bytes.

    The lane bound: for numerators up to m and denominators up to e, a
    scaled numerator is (d/den) m <= m d, so a product lane is at most
    2n m^2 d^2 (n = 4) and a target lane m d^2, and lane_width keeps
    2^(w-1) above 2n m^2 e^2; d == e, as every denominator divides 2.

    The named special cases are entries of the same phase table, on the
    unitaries unitary_for gives: exact shear composition, the
    R H_W R == H_W identity, U_R^5 == I, and the shear-rotation-shear family.
    """
    group = symplectic.enumerate_group()
    units = [unitary_for(L) for L in group]
    w, d = lane_width(units), lcm(*(u.den for u in units))
    chunk, half, size = 32 * w, 1 << (32 * w - 1), 4 * w
    rights = [[x * (d // u.den) for x in u.packed_right(w)] for u in units]
    right_all = [pack(row, chunk) for row in zip(*rights)]
    offset = pack([half] * len(group), chunk)
    # The rows of a right packing, 8 lanes apart, are U and i U in a product's lanes.
    targets = {}
    for L, r in zip(group, rights):
        p, ip = pack(r[::2], 8 * w), pack(r[1::2], 8 * w)
        targets[L] = {(d * x + half).to_bytes(size, "little"): k
                      for k, x in enumerate((p, ip, -p, -ip))}
    phases = {}
    for l1, u1 in zip(group, units):
        x = dot(u1.packed_left(w), right_all) * (d // u1.den) + offset
        x = x.to_bytes(size * len(group), "little")
        for j, l2 in enumerate(group):
            k = targets[symplectic.product(l1, l2)].get(x[size * j:size * (j + 1)])
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
