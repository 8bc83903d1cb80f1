"""Frames, Wigner tables, transport, and the classification of definitions."""

from fractions import Fraction

import pytest

from qphase4 import clifford, gf4, phasespace, symplectic, wigner
from qphase4.exact import Matrix, Scalar
from qphase4.gf4 import ELEMENTS, OMEGA, OMEGA_BAR
from qphase4.phasespace import ZERO_INDEX
from qphase4.single_qubit import single_qubit_demo

G = ((OMEGA_BAR, 0), (0, OMEGA))
UP_RIGHT = wigner.density_from_vector([1, 1, 0, 0])


def test_frame_origin_operator():
    std = wigner.frame(ZERO_INDEX)
    a0 = std.origin()
    assert a0.is_hermitian()
    assert a0.trace() == Scalar(1)
    for alpha, op in std.ops.items():
        d = clifford.displacement(alpha)
        assert op == d @ a0 @ d.dagger()


def test_frame_orthogonality():
    std = wigner.frame(ZERO_INDEX)
    for a1, op1 in std.ops.items():
        for a2, op2 in std.ops.items():
            expect = Scalar(4 if a1 == a2 else 0)
            assert (op1 @ op2).trace() == expect


def test_frame_line_labels_shifted_by_f():
    f_g = phasespace.shift_vector(G)
    fr = wigner.frame(f_g)
    for k in ELEMENTS:
        assert fr.line_label[(1, k)] == (1, gf4.add(k, OMEGA))


def test_operator_index():
    std = wigner.frame(ZERO_INDEX)
    assert wigner.operator_index(std.origin()) == ZERO_INDEX
    for alpha, op in std.ops.items():
        assert wigner.operator_index(op) == phasespace.point_index(alpha)
    u = clifford.unitary_for(symplectic.shear(1))
    moved = u @ std.origin() @ u.dagger()
    assert wigner.operator_index(moved) == (1, 0, 1, 0, OMEGA)
    with pytest.raises(ValueError):
        wigner.operator_index(Matrix.identity(4))


def test_operator_index_general_frames():
    for f in phasespace.canonical_shift_vectors():
        fr = wigner.frame(f)
        for alpha, op in fr.ops.items():
            assert wigner.operator_index(op) == phasespace.displace_index(f, alpha)


def test_shift_vector_cross_validation():
    std = wigner.frame(ZERO_INDEX)
    a0 = std.origin()
    for L in symplectic.enumerate_group():
        u = clifford.unitary_for(L)
        assert wigner.operator_index(u @ a0 @ u.dagger()) == phasespace.shift_vector(L)


def test_index_transport_of_general_phase_point_operators():
    for f in (ZERO_INDEX, phasespace.shift_vector(G)):
        fr = wigner.frame(f)
        for L in symplectic.enumerate_group():
            u = clifford.unitary_for(L)
            s = phasespace.index_operator(L)
            f_l = phasespace.shift_vector(L)
            for alpha, op in fr.ops.items():
                moved = u @ op @ u.dagger()
                expect = phasespace.index_add(
                    phasespace.apply_index_operator(
                        s, phasespace.displace_index(f, alpha)
                    ),
                    f_l,
                )
                assert wigner.operator_index(moved) == expect


def test_wigner_table_of_product_state():
    t = wigner.wigner_table(UP_RIGHT, ZERO_INDEX)
    quarter = Fraction(1, 4)
    nonzero = {(0, 0), (OMEGA, 0), (0, OMEGA_BAR), (OMEGA, OMEGA_BAR)}
    for alpha, v in t.values.items():
        assert v == (quarter if alpha in nonzero else 0)
    assert t.total() == 1


def test_wigner_table_of_maximally_mixed():
    for f in (ZERO_INDEX, phasespace.shift_vector(G)):
        t = wigner.wigner_table(wigner.MAXIMALLY_MIXED, f)
        assert set(t.values.values()) == {Fraction(1, 16)}


def test_transport_example_first_step():
    rho2, g, table = wigner.transport(UP_RIGHT, ZERO_INDEX, G)
    assert rho2 == wigner.density_from_vector([-1, 0, 0, 1])
    assert g == phasespace.shift_vector(G)
    nonzero = {a for a, v in table.values.items() if v}
    assert nonzero == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_transport_example_second_step():
    rho2, g, _ = wigner.transport(UP_RIGHT, ZERO_INDEX, G)
    rho3, g2, table = wigner.transport(rho2, g, G)
    assert g2 == (0, 1, 0, OMEGA, 1)
    assert rho3 == wigner.density_from_vector([1, 0, -1, 0])
    nonzero = {a for a, v in table.values.items() if v}
    assert nonzero == {(0, 0), (OMEGA_BAR, 0), (0, OMEGA), (OMEGA_BAR, OMEGA)}


def test_transport_identity():
    rho2, g, table = wigner.transport(UP_RIGHT, ZERO_INDEX, symplectic.IDENTITY)
    assert rho2 == UP_RIGHT
    assert g == ZERO_INDEX
    assert table.values == wigner.wigner_table(UP_RIGHT, ZERO_INDEX).values


def test_similarity_class_values():
    assert wigner.similarity_class(ZERO_INDEX) == 0
    for L in symplectic.enumerate_group():
        assert wigner.similarity_class(phasespace.shift_vector(L)) == 0
    from itertools import product

    values = {wigner.similarity_class(f) for f in product(ELEMENTS, repeat=5)}
    assert values == set(ELEMENTS)


def test_similarity_class_invariant_under_compose():
    from itertools import product

    group = symplectic.enumerate_group()
    for L in group:
        for f in product(ELEMENTS, repeat=5):
            assert wigner.similarity_class(
                phasespace.compose_frame(f, L)
            ) == wigner.similarity_class(f)


def test_census():
    rep = wigner.census()
    assert rep["total"] == 1024
    assert len(rep["class_counts"]) == 4
    assert rep["e0_orbit_count"] == 12
    assert rep["e0_member_count"] == 192
    assert rep["canonical_covers_e0"]
    assert sum(rep["class_counts"].values()) == 1024
    assert sum(rep["orbit_counts"].values()) == 64


def test_rotational_symmetry():
    rep = wigner.rotational_symmetry_check(symplectic.IDENTITY)
    assert rep["period"] == 5
    rep = wigner.rotational_symmetry_check(G)
    assert rep["striations_cycled"] == 5


def test_marginals_of_transported_state():
    rho2, g, _ = wigner.transport(UP_RIGHT, ZERO_INDEX, G)
    rho3, g2, table = wigner.transport(rho2, g, G)
    wigner.marginal_check(rho3, g2)
    # first qubit is left-polarized: the two "left" rows sum to 1
    left_rows = [
        p
        for p in ELEMENTS
        if _is_left_row(p, g2)
    ]
    total = sum(
        (table.values[(q, p)] for p in left_rows for q in ELEMENTS), Fraction(0)
    )
    assert total == 1


def _is_left_row(p, f):
    b = clifford.mub_vector(1, gf4.add(p, f[1]))
    target = wigner.density_from_vector(b)
    left = (1, -1)
    for second in ((1, 1), (1, -1)):
        prod = [a * c for a in left for c in second]
        if wigner.density_from_vector(prod) == target:
            return True
    return False


def test_marginals_maximally_mixed():
    t = wigner.wigner_table(wigner.MAXIMALLY_MIXED, ZERO_INDEX)
    for n in range(5):
        for k in ELEMENTS:
            s = sum(
                (t.values[pt] for pt in phasespace.line_points(n, k)), Fraction(0)
            )
            assert s == Fraction(1, 4)


def test_reconstruct_roundtrip():
    for f in (ZERO_INDEX, phasespace.shift_vector(G)):
        for rho in wigner.standard_test_states():
            table = wigner.wigner_table(rho, f)
            assert wigner.reconstruct(table) == rho


def test_reconstruct_uniform_table():
    uniform = wigner.WignerTable(
        f=ZERO_INDEX, values={a: Fraction(1, 16) for a in gf4.all_points()}
    )
    assert wigner.reconstruct(uniform) == wigner.MAXIMALLY_MIXED


def test_reconstruct_rejects_corrupt_table():
    bad = wigner.WignerTable(
        f=ZERO_INDEX,
        values={a: Fraction(1, 8) for a in gf4.all_points()},
    )
    with pytest.raises(ValueError):
        wigner.reconstruct(bad)


def test_density_entries_of_product_state():
    vals = {v for row in UP_RIGHT.rows for v in row}
    assert vals == {Scalar(0), Scalar(Fraction(1, 2))}


def test_validate_density():
    wigner.validate_density(UP_RIGHT)
    wigner.validate_density(wigner.MAXIMALLY_MIXED)
    with pytest.raises(ValueError):
        wigner.validate_density(Matrix.identity(4))
    with pytest.raises(ValueError):
        # trace 1, Hermitian, but indefinite
        wigner.validate_density(
            Matrix(
                [
                    [2, 0, 0, 0],
                    [0, -1, 0, 0],
                    [0, 0, 0, 0],
                    [0, 0, 0, 0],
                ]
            )
        )


def test_single_qubit_demo():
    rep = single_qubit_demo()
    assert rep["points_checked"] == 4
    assert rep["bloch_reflection_determinant"] == -1
