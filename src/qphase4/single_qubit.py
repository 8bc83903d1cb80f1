"""Self-contained single-qubit demonstration of frame reinterpretation.

The 2x2 phase space over the two-element field admits a rotation whose
unitary permutes the phase point operators directly, but the axis swap does
not: its would-be Bloch action is a reflection.  Swapping axes still works
if the permuted Wigner values are reinterpreted against a second operator
basis.  The two relevant unitaries have irrational 1/sqrt(2) prefactors, so
they are represented here by integer matrices together with the squared
scale, which cancels exactly under conjugation.
"""

from __future__ import annotations

from fractions import Fraction

from .clifford import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z
from .exact import Matrix, Scalar

_POINTS = ((0, 0), (1, 0), (0, 1), (1, 1))

# Matrices over F2 = {0, 1}; arithmetic is mod 2.
_R2 = ((1, 1), (1, 0))
_F2 = ((0, 1), (1, 0))


def _mat_vec2(m, v):
    return (
        (m[0][0] * v[0] + m[0][1] * v[1]) % 2,
        (m[1][0] * v[0] + m[1][1] * v[1]) % 2,
    )


def _phase_point_ops(sign: int) -> dict:
    """The four A operators built from (I +/- X +/- Y +/- Z)/2."""
    a00 = (PAULI_I + (PAULI_X + PAULI_Y + PAULI_Z).scaled(sign)).scaled(Fraction(1, 2))
    return {
        (0, 0): a00,
        (1, 0): PAULI_X @ a00 @ PAULI_X,
        (1, 1): PAULI_Y @ a00 @ PAULI_Y,
        (0, 1): PAULI_Z @ a00 @ PAULI_Z,
    }


def _conjugate_scaled(m: Matrix, denom: int, a: Matrix) -> Matrix:
    """(m/sqrt(denom)) a (m/sqrt(denom))^dag, exactly."""
    return (m @ a @ m.dagger()).scaled(Fraction(1, denom))


def single_qubit_demo() -> dict:
    """Run every identity of the single-qubit construction; raise on failure."""
    a = _phase_point_ops(1)
    a_tilde = _phase_point_ops(-1)

    # Orthogonal Hermitian bases: Tr(A_a A_b) == 2 delta_ab, trace 1 each.
    for ops in (a, a_tilde):
        for p1 in _POINTS:
            if ops[p1].trace() != Scalar(1):
                raise AssertionError("phase point operator trace != 1")
            for p2 in _POINTS:
                expect = Scalar(2 if p1 == p2 else 0)
                if (ops[p1] @ ops[p2]).trace() != expect:
                    raise AssertionError("phase point operators not orthogonal")

    # U_R = (1/sqrt(2)) [[1, -i], [1, i]]; conjugation is exact with the
    # scale tracked as denom=2.
    u_r = Matrix([[Scalar(1), Scalar(0, -1)], [Scalar(1), Scalar(0, 1)]])
    pauli_cycle = [(PAULI_X, PAULI_Y), (PAULI_Y, PAULI_Z), (PAULI_Z, PAULI_X)]
    for src, dst in pauli_cycle:
        if _conjugate_scaled(u_r, 2, src) != dst:
            raise AssertionError("U_R does not cycle X -> Y -> Z -> X")
    for alpha in _POINTS:
        if _conjugate_scaled(u_r, 2, a[alpha]) != a[_mat_vec2(_R2, alpha)]:
            raise AssertionError("U_R does not move phase point operators by R")

    # U_F = (Z - X)/sqrt(2): permuting Wigner values by the axis swap F is
    # equivalent to conjugating by U_F, provided the values are reinterpreted
    # in the tilde frame.  Checked on the Hermitian operator basis, as
    # Tr(A rho): the Wigner values' common factor 1/2 cancels.
    u_f = PAULI_Z - PAULI_X
    for rho in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z):
        moved = _conjugate_scaled(u_f, 2, rho)
        for alpha in _POINTS:
            if (a_tilde[alpha] @ moved).trace() != (a[_mat_vec2(_F2, alpha)] @ rho).trace():
                raise AssertionError("reinterpretation identity failed")

    # Obstruction: X -> Z, Z -> X, Y -> Y is a Bloch-sphere reflection.
    # Its action on (x, y, z) coordinates has determinant -1, while unitary
    # conjugation always induces a rotation (determinant +1).
    bloch_map = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    det = (
        bloch_map[0][0] * (bloch_map[1][1] * bloch_map[2][2] - bloch_map[1][2] * bloch_map[2][1])
        - bloch_map[0][1] * (bloch_map[1][0] * bloch_map[2][2] - bloch_map[1][2] * bloch_map[2][0])
        + bloch_map[0][2] * (bloch_map[1][0] * bloch_map[2][1] - bloch_map[1][1] * bloch_map[2][0])
    )
    if det != -1:
        raise AssertionError("Bloch reflection determinant check failed")

    return {
        "points_checked": len(_POINTS),
        "rotation_covariance": True,
        "reinterpretation": True,
        "bloch_reflection_determinant": det,
    }
