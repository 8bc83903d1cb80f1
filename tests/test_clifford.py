"""Displacements, metaplectic unitaries, and the five mutually unbiased bases."""

from fractions import Fraction

import pytest

from qphase4 import clifford, gf4, symplectic
from qphase4.clifford import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    displacement,
    displacement_name,
    generator_unitary,
    mub_projector,
    mub_vector,
    proportional,
    rotation_unitary,
    unitary_for,
)
from qphase4.exact import Matrix, Scalar, inner, norm_sq, outer
from qphase4.gf4 import ELEMENTS, OMEGA, OMEGA_BAR

G = ((OMEGA_BAR, 0), (0, OMEGA))


def test_displacement_examples():
    assert displacement((1, 0)) == PAULI_X.kron(PAULI_X)
    assert displacement((0, 1)) == PAULI_Z.kron(PAULI_Z)
    assert displacement((0, 0)) == Matrix.identity(4)
    assert displacement((OMEGA, OMEGA)) == PAULI_I.kron(PAULI_Y)
    assert displacement_name((OMEGA_BAR, OMEGA_BAR)) == "Y⊗I"


def test_displacements_hermitian_unitary_orthogonal():
    ops = {beta: displacement(beta) for beta in gf4.all_points()}
    for a, da in ops.items():
        assert da.is_hermitian()
        assert da.is_unitary()
        for b, db in ops.items():
            expect = Scalar(4 if a == b else 0)
            assert (da @ db).trace() == expect


def test_displacement_composition_rule():
    for a in gf4.all_points():
        for b in gf4.all_points():
            prod = displacement(a) @ displacement(b)
            target = displacement(gf4.vec_add(a, b))
            assert proportional(prod, target) is not None


def test_generator_matrices():
    assert generator_unitary(0) == Matrix.identity(4)
    for x in ELEMENTS:
        assert generator_unitary(x).is_unitary()
    u_r = rotation_unitary()
    assert u_r.is_unitary()
    prod = Matrix.identity(4)
    for _ in range(5):
        prod = prod @ u_r
    assert prod == Matrix.identity(4)
    h_wb = generator_unitary(OMEGA_BAR)
    assert u_r @ h_wb @ u_r == h_wb


def test_unitary_for_example():
    expect = Matrix([[-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1], [0, 1, 0, 0]])
    assert unitary_for(G) == expect
    assert unitary_for(symplectic.IDENTITY) == Matrix.identity(4)


def test_unitary_for_is_exact_product():
    for L in symplectic.enumerate_group():
        d = symplectic.decompose(L)
        u = Matrix.identity(4)
        for _ in range(d.r):
            u = u @ rotation_unitary()
        u = u @ generator_unitary(d.x)
        for _ in range(d.s):
            u = u @ rotation_unitary()
        assert unitary_for(L) == u


def test_unitary_for_rejects_non_symplectic():
    with pytest.raises(ValueError):
        unitary_for(((1, 0), (0, OMEGA)))


def test_product_unitary_proportional():
    prod = rotation_unitary() @ generator_unitary(1)
    mat = symplectic.product(symplectic.R, symplectic.shear(1))
    assert proportional(prod, unitary_for(mat)) is not None


def test_mub_vector_base_cases():
    e0 = mub_vector(0, 0)
    assert e0 == tuple(Scalar(v) for v in (1, 0, 0, 0))
    from qphase4.exact import mat_vec

    assert mub_vector(0, 1) == mat_vec(displacement((1, 0)), e0)


def test_mub_completeness():
    vecs = {(n, k): mub_vector(n, k) for n in range(5) for k in ELEMENTS}
    assert len(vecs) == 20
    cross = 0
    for (n1, k1), v1 in vecs.items():
        assert norm_sq(v1) == 1
        for (n2, k2), v2 in vecs.items():
            ov = inner(v1, v2)
            mag = ov.re * ov.re + ov.im * ov.im
            if n1 == n2:
                assert mag == (1 if k1 == k2 else 0)
            else:
                assert mag == Fraction(1, 4)
                cross += 1
    assert cross == 20 * 16


def test_mub_projectors():
    for n in range(5):
        total = Matrix.identity(4).scaled(0)
        for k in ELEMENTS:
            p = mub_projector(n, k)
            assert p.is_hermitian()
            assert p @ p == p
            assert p.trace() == Scalar(1)
            assert p == outer(mub_vector(n, k), mub_vector(n, k))
            total = total + p
        assert total == Matrix.identity(4)


def test_verify_metaplectic():
    rep = clifford.verify_metaplectic()
    assert rep["checked"] == 960
    assert set(rep["signs"].values()) <= {1, -1}
    for alpha in gf4.all_points():
        assert rep["signs"][(symplectic.IDENTITY, alpha)] == 1


def test_verify_projective_rep():
    rep = clifford.verify_projective_rep()
    assert rep["checked"] == 3600
    assert set(rep["phases"].values()) <= {0, 1, 2, 3}
    for L in symplectic.enumerate_group():
        assert rep["phases"][(symplectic.IDENTITY, L)] == 0
    assert set(rep["shear_rotation_shear"]) == {
        (x, s, y) for x in ELEMENTS for s in range(5) for y in ELEMENTS
    }


def test_cnot_counterexample():
    rep = clifford.cnot_counterexample()
    assert rep["fixes_origin"]
    assert not rep["linear"]
    assert rep["matching_matrices"] == []
    perm = rep["permutation"]
    assert sorted(perm.values()) == sorted(perm.keys())
