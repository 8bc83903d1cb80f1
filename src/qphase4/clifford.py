"""Displacement operators, the metaplectic unitaries U_L, and the five MUBs.

Displacements are Pauli tensors sigma_j (x) sigma_k with the phase fixed so
that every displacement operator is Hermitian as well as unitary.  The
unitary attached to a symplectic matrix L is the literal product
U_R^r U_{H_x} U_R^s given by the canonical decomposition of L, with the
global phase fixed by the generator matrices below -- not merely up to phase.

The first tensor factor is the first qubit, i.e. the coefficient of
omega-bar in the field-basis expansion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import gf4, symplectic
from .exact import Matrix, Scalar as _S, Vector, dot, mat_vec, outer, proportional, vector
from .gf4 import ELEMENTS, Vec2
from .symplectic import SympMat

HALF = Fraction(1, 2)

PAULI_I = Matrix([[1, 0], [0, 1]])
PAULI_X = Matrix([[0, 1], [1, 0]])
PAULI_Y = Matrix([[_S(0), _S(0, -1)], [_S(0, 1), _S(0)]])
PAULI_Z = Matrix([[1, 0], [0, -1]])

# Single-qubit Pauli indexed by (x-power, z-power); XZ is replaced by Y.
_PAULI_XZ = {
    (0, 0): PAULI_I,
    (1, 0): PAULI_X,
    (0, 1): PAULI_Z,
    (1, 1): PAULI_Y,
}

_PAULI_NAMES = {
    (0, 0): "I",
    (1, 0): "X",
    (0, 1): "Z",
    (1, 1): "Y",
}


@lru_cache(maxsize=None)
def displacement(beta: Vec2) -> Matrix:
    """The Hermitian unitary Pauli tensor displacing phase space by beta."""
    q1, q2 = gf4.expand(beta[0])
    p1, p2 = gf4.expand(beta[1])
    return _PAULI_XZ[(q1, p1)].kron(_PAULI_XZ[(q2, p2)])


def displacement_name(beta: Vec2) -> str:
    q1, q2 = gf4.expand(beta[0])
    p1, p2 = gf4.expand(beta[1])
    return f"{_PAULI_NAMES[(q1, p1)]}⊗{_PAULI_NAMES[(q2, p2)]}"


def generator_unitary(x: int) -> Matrix:
    """The fixed 4x4 unitary attached to the vertical shear H_x."""
    return _GENERATORS[x]


def _i(n=1):
    return _S(0, n)


_GENERATORS = {
    0: Matrix.identity(4),
    1: Matrix(
        [
            [0, 0, 0, _i(-1)],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [_i(1), 0, 0, 0],
        ]
    ),
    gf4.OMEGA: Matrix(
        [
            [0, _i(-1), 0, 0],
            [_i(1), 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    ),
    gf4.OMEGA_BAR: Matrix(
        [
            [0, 0, _i(-1), 0],
            [0, 0, 0, 1],
            [_i(1), 0, 0, 0],
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


def rotation_unitary() -> Matrix:
    """The order-5 unitary attached to the rotation matrix R."""
    return _U_R


@lru_cache(maxsize=8)
def _rotation_power(n: int) -> Matrix:
    out = Matrix.identity(4)
    for _ in range(n % 5):
        out = out @ _U_R
    return out


@lru_cache(maxsize=None)
def unitary_for(L: SympMat) -> Matrix:
    """U_L = U_R^r U_{H_x} U_R^s from the canonical decomposition of L."""
    d = symplectic.decompose(L)
    return _rotation_power(d.r) @ generator_unitary(d.x) @ _rotation_power(d.s)


@lru_cache(maxsize=None)
def mub_vector(n: int, k: int) -> Vector:
    """Vector k of mutually unbiased basis n: U_R^n D_(k,0) |0>.

    Basis 0 is the computational basis; the others follow by repeated
    rotation.  All 20 vectors have exact unit norm.
    """
    e0 = vector([1, 0, 0, 0])
    v = mat_vec(displacement((k, 0)), e0)
    return mat_vec(_rotation_power(n % 5), v)


@lru_cache(maxsize=None)
def mub_projector(n: int, k: int) -> Matrix:
    """|b><b| for the unit vector b = mub_vector(n, k), as an integer Matrix."""
    b = mub_vector(n, k)
    return outer(b, b)


def verify_metaplectic() -> dict:
    """Check U_L D_a U_L^dag == +/- D_{La} over all 60 x 16 pairs."""
    signs = {}
    for L in symplectic.enumerate_group():
        u = unitary_for(L)
        ud = u.dagger()
        for alpha in gf4.all_points():
            lhs = u @ displacement(alpha) @ ud
            rhs = displacement(gf4.mat_vec(L, alpha))
            if lhs == rhs:
                signs[(L, alpha)] = 1
            elif lhs == -rhs:
                signs[(L, alpha)] = -1
            else:
                raise AssertionError(
                    f"metaplectic check failed for L={symplectic.to_text(L)}, "
                    f"alpha={alpha}"
                )
    return {"checked": len(signs), "signs": signs}


def verify_projective_rep() -> dict:
    """Check U_{L1} U_{L2} == i^k U_{L1 L2} over all 3600 ordered pairs.

    Also runs the named special cases: exact shear composition, the
    R H_W R == H_W identity, U_R^5 == I, and the shear-rotation-shear family.
    """
    # Special case: shears compose exactly, with no phase.
    for x in ELEMENTS:
        for y in ELEMENTS:
            lhs = generator_unitary(x) @ generator_unitary(y)
            if lhs != generator_unitary(gf4.add(x, y)):
                raise AssertionError(f"shear composition failed for x={x}, y={y}")
    if _U_R @ generator_unitary(gf4.OMEGA_BAR) @ _U_R != generator_unitary(gf4.OMEGA_BAR):
        raise AssertionError("U_R U_HW U_R != U_HW")
    if _U_R @ _rotation_power(4) != Matrix.identity(4):
        raise AssertionError("U_R does not have order 5")

    # Shear-rotation-shear family, the crux case of the composition proof.
    srs_phases = {}
    for x in ELEMENTS:
        for s in range(5):
            for y in ELEMENTS:
                lhs = generator_unitary(x) @ _rotation_power(s) @ generator_unitary(y)
                mat = symplectic.product(
                    symplectic.shear(x),
                    symplectic.product(gf4.mat_pow(symplectic.R, s), symplectic.shear(y)),
                )
                k = proportional(lhs, unitary_for(mat))
                if k is None:
                    raise AssertionError(
                        f"shear-rotation-shear check failed for x={x}, s={s}, y={y}"
                    )
                srs_phases[(x, s, y)] = k

    group = symplectic.enumerate_group()
    phases = {}
    for l1 in group:
        u1 = unitary_for(l1)
        for l2 in group:
            prod = u1 @ unitary_for(l2)
            k = proportional(prod, unitary_for(symplectic.product(l1, l2)))
            if k is None:
                raise AssertionError(
                    f"projective representation failed for "
                    f"{symplectic.to_text(l1)}, {symplectic.to_text(l2)}"
                )
            phases[(l1, l2)] = k
    return {
        "checked": len(phases),
        "phases": phases,
        "shear_rotation_shear": srs_phases,
    }


def cnot_counterexample() -> dict:
    """Show that CNOT's displacement permutation is not GF(4)-linear.

    Conjugation by CNOT permutes the 16 displacement operators, but no
    symplectic matrix realizes the induced permutation of phase-space labels,
    so CNOT is a Clifford operation outside the restricted group.
    """
    cnot = Matrix(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    )
    perm = {}
    for beta in gf4.all_points():
        conj = cnot @ displacement(beta) @ cnot.dagger()
        image = None
        for target in gf4.all_points():
            if proportional(conj, displacement(target)) is not None:
                image = target
                break
        if image is None:
            raise AssertionError(f"CNOT conjugate of D_{beta} is not a displacement")
        perm[beta] = image
    matches = [
        L
        for L in symplectic.enumerate_group()
        if all(gf4.mat_vec(L, b) == perm[b] for b in perm)
    ]
    return {
        "permutation": perm,
        "fixes_origin": perm[(0, 0)] == (0, 0),
        "linear": bool(matches),
        "matching_matrices": matches,
    }


def born_probability(rho: Matrix, n: int, k: int) -> Fraction:
    """Tr(P rho) for P = mub_projector(n, k).  For Hermitian rho that is the
    real Hilbert-Schmidt product sum_ij P_ij conj(rho_ij) of the integer
    numerators, one Fraction; the caller checks that rho is Hermitian."""
    p = mub_projector(n, k)
    return Fraction(dot(p.re, rho.re) + dot(p.im, rho.im), p.den * rho.den)
