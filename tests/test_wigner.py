"""Frames, Wigner tables, transport, and the classification of definitions."""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations, product

import pytest

from qphase4 import cli, clifford, gf4, phasespace, symplectic, wigner
from qphase4.exact import Matrix, Scalar, inner, mat_vec
from qphase4.gf4 import ELEMENTS, OMEGA, OMEGA_BAR
from qphase4.phasespace import ZERO_INDEX
from qphase4.single_qubit import single_qubit_demo

G = ((OMEGA_BAR, 0), (0, OMEGA))
UP_RIGHT = wigner.density_from_vector([1, 1, 0, 0])


def _generic_state():
    """A full-rank mixture of four generic pure states with weights 1..4 / 10."""
    vectors = (
        [1, Scalar(2, -1), Scalar(0, 3), -4],
        [Scalar(1, 1), 0, 5, Scalar(0, -2)],
        [3, -1, Scalar(2, 2), 1],
        [0, Scalar(1, -3), 1, 2],
    )
    rho = Matrix.identity(4).scaled(0)
    for weight, v in enumerate(vectors, start=1):
        rho = rho + wigner.density_from_vector(v).scaled(Fraction(weight, 10))
    return wigner.validate_density(rho)


GENERIC = _generic_state()


def operator_index(a: Matrix) -> phasespace.Index:
    """Index of a phase point operator: per basis, the unique unit overlap."""
    out = []
    for m in range(5):
        hits = []
        for k in ELEMENTS:
            b = clifford.mub_vector(m, k)
            val = inner(b, mat_vec(a, b))
            if val == Scalar(1):
                hits.append(k)
            elif not val.is_zero():
                raise ValueError("not a phase point operator")
        if len(hits) != 1:
            raise ValueError("not a phase point operator")
        out.append(hits[0])
    return tuple(out)


def test_frame_origin_operator():
    std = wigner.frame(ZERO_INDEX)
    a0 = std[(0, 0)]
    assert a0.is_hermitian()
    assert a0.trace() == Scalar(1)
    for alpha, op in std.items():
        d = clifford.displacement(alpha)
        assert op == d @ a0 @ d.dagger()


def test_frame_orthogonality():
    std = wigner.frame(ZERO_INDEX)
    for a1, op1 in std.items():
        for a2, op2 in std.items():
            expect = Scalar(4 if a1 == a2 else 0)
            assert (op1 @ op2).trace() == expect


def test_operator_index():
    std = wigner.frame(ZERO_INDEX)
    assert operator_index(std[(0, 0)]) == ZERO_INDEX
    for alpha, op in std.items():
        assert operator_index(op) == phasespace.point_index(alpha)
    u = clifford.unitary_for(symplectic.shear(1))
    moved = u @ std[(0, 0)] @ u.dagger()
    assert operator_index(moved) == (1, 0, 1, 0, OMEGA)
    with pytest.raises(ValueError):
        operator_index(Matrix.identity(4))


def test_operator_index_general_frames():
    for f in phasespace.canonical_shift_vectors():
        fr = wigner.frame(f)
        for alpha, op in fr.items():
            assert operator_index(op) == phasespace.displace_index(f, alpha)


def test_shift_vector_cross_validation():
    a0 = wigner.frame(ZERO_INDEX)[(0, 0)]
    for L in symplectic.enumerate_group():
        u = clifford.unitary_for(L)
        assert operator_index(u @ a0 @ u.dagger()) == phasespace.shift_vector(L)


def test_index_transport_of_general_phase_point_operators():
    for f in (ZERO_INDEX, phasespace.shift_vector(G)):
        fr = wigner.frame(f)
        for L in symplectic.enumerate_group():
            u = clifford.unitary_for(L)
            s = phasespace.index_operator(L)
            f_l = phasespace.shift_vector(L)
            for alpha, op in fr.items():
                moved = u @ op @ u.dagger()
                expect = phasespace.index_add(
                    phasespace.apply_index_operator(
                        s, phasespace.displace_index(f, alpha)
                    ),
                    f_l,
                )
                assert operator_index(moved) == expect


def _det(rows):
    """Determinant by cofactor expansion in Scalar arithmetic, the reference."""
    if len(rows) == 1:
        return rows[0][0]
    total = Scalar(0)
    for j, head in enumerate(rows[0]):
        minor = [[r[c] for c in range(len(rows)) if c != j] for r in rows[1:]]
        term = head * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _principal_minors_nonnegative(m: Matrix) -> bool:
    rows = m.rows
    for size in range(1, m.n + 1):
        for idx in combinations(range(m.n), size):
            minor = _det([[rows[i][j] for j in idx] for i in idx])
            if minor.im != 0 or minor.re < 0:
                return False
    return True


def _real_rank(ops) -> int:
    """Dimension of the real span of 4x4 operators, by elimination over Q on
    their real and imaginary numerators (a row's scale does not matter)."""
    rows = [[Fraction(x) for x in m.re + m.im] for m in ops]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                c = row[col] / rows[rank][col]
                rows[i] = [a - c * b for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


def test_standard_states_do_not_span_the_hermitian_operators():
    # The forward map is linear, so a check on a spanning set covers every input.
    assert _real_rank(wigner.standard_test_states()) == 5
    assert _real_rank([*wigner.standard_test_states(), GENERIC]) == 6
    assert _real_rank([clifford.displacement(beta) for beta in gf4.all_points()]) == 16


def _operator_sum(table, ops):
    """sum_alpha W_alpha A^f_alpha over the frame's operators."""
    return sum((a.scaled(table.values[alpha]) for alpha, a in ops.items()),
               Matrix.identity(4).scaled(0))


def test_tables_and_reconstruction_match_the_operator_oracle():
    assert _det([list(row) for row in GENERIC.rows]) != Scalar(0)
    rng = random.Random(2004)
    states = [*wigner.standard_test_states(), GENERIC]
    # The 16 Hermitian D_beta span all Hermitian operators; one frame per
    # displacement orbit.
    spanning = [clifford.displacement(beta) for beta in gf4.all_points()]
    orbit_reps = {min(phasespace.displace_index(f, beta) for beta in gf4.all_points())
                  for f in product(ELEMENTS, repeat=5)}
    assert len(orbit_reps) == 64
    for f in product(ELEMENTS, repeat=5):
        ops = wigner.frame(f)
        for d in spanning if f in orbit_reps else ():
            table = wigner.wigner_table(d, f)
            for alpha, a in ops.items():
                assert table.values[alpha] == (a @ d).trace().re / 4
        for rho in states:
            table = wigner.wigner_table(rho, f)
            for alpha, a in ops.items():
                assert table.values[alpha] == (a @ rho).trace().re / 4
            assert wigner.reconstruct(table) == _operator_sum(table, ops) == rho
        # A random table of total 1, in general no state's: still the same map.
        values = {alpha: Fraction(rng.randint(-99, 99), 64) for alpha in gf4.all_points()}
        values[(0, 0)] += 1 - sum(values.values())
        table = wigner.WignerTable(f=f, values=values)
        assert wigner.reconstruct(table) == _operator_sum(table, ops)


def test_wigner_table_rejects_non_hermitian():
    # Real diagonal, so every computational-basis probability is real.
    bad = Matrix([[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(ValueError):
        wigner.wigner_table(bad, ZERO_INDEX)


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


def test_covariant_rejects_a_wrong_move_or_frame():
    up_up = wigner.density_from_vector([1, 0, 0, 0])
    d = clifford.displacement((1, 0))
    shift = partial(gf4.vec_add, (1, 0))
    rho2, table = wigner.covariant(up_up, ZERO_INDEX, d, ZERO_INDEX, shift, "D[1,0]")
    assert rho2 == d @ up_up @ d.dagger()
    assert table == wigner.wigner_table(rho2, ZERO_INDEX)
    # f_0 = 1 relabels the computational basis, the one basis up*up is not unbiased to.
    for g, move in ((ZERO_INDEX, lambda alpha: alpha), ((1, 0, 0, 0, 0), shift)):
        with pytest.raises(AssertionError, match=r"^D\[1,0\] .* f=\(0, 0, 0, 0, 0\)$"):
            wigner.covariant(up_up, ZERO_INDEX, d, g, move, "D[1,0]")


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
    left_rows = [p for p in ELEMENTS if _product_label(1, gf4.add(p, g2[1])).startswith("<-")]
    total = sum(
        (table.values[(q, p)] for p in left_rows for q in ELEMENTS), Fraction(0)
    )
    assert total == 1


def _product_label(n, k):
    """Arrow label of the product state mub_vector(n, k) of the vertical
    (n = 0) or horizontal (n = 1) striation, found by matching its density
    against the four products of up/down or right/left."""
    arrows = {"^": (1, 0), "v": (0, 1)} if n == 0 else {"->": (1, 1), "<-": (1, -1)}
    target = wigner.density_from_vector(clifford.mub_vector(n, k))
    (label,) = [a + b for (a, u), (b, v) in product(arrows.items(), repeat=2)
                if wigner.density_from_vector([x * y for x in u for y in v]) == target]
    return label


def test_arrow_labels_match_the_product_states():
    for n in (0, 1):
        assert cli._ARROWS[n] == tuple(_product_label(n, k) for k in ELEMENTS)


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


def _random_vector(rng):
    while True:
        v = [Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)]
        if any(not x.is_zero() for x in v):
            return v


def test_psd_check_matches_principal_minors():
    # Mixtures of rank 1-3 are PSD (rank-deficient ones have zero minors);
    # affine combinations with a negative weight mostly are not.
    rng = random.Random(2901)
    verdicts = []
    while len(verdicts) < 1000:
        pure = [wigner.density_from_vector(_random_vector(rng)) for _ in range(rng.randint(1, 3))]
        weights = [Fraction(rng.randint(1, 6)) for _ in pure]
        if len(verdicts) % 2 and len(pure) > 1:
            weights[0] = -weights[0]
        if sum(weights) == 0:
            continue
        rho = Matrix.identity(4).scaled(0)
        for w, p in zip(weights, pure):
            rho = rho + p.scaled(w / sum(weights))
        expect = _principal_minors_nonnegative(rho)
        try:
            wigner.validate_density(rho)
            verdicts.append(True)
        except wigner.StateError:
            verdicts.append(False)
        assert verdicts[-1] == expect
    assert 100 < verdicts.count(False) < 900


def test_psd_check_sees_past_a_flat_diagonal():
    # Eigenvalues 1/2, 1/3, 1/4, -1/12: trace 1, and only e_4 is negative.
    u = clifford.rotation_unitary()
    diag = Matrix([[Fraction(1, 2), 0, 0, 0], [0, Fraction(1, 3), 0, 0],
                   [0, 0, Fraction(1, 4), 0], [0, 0, 0, Fraction(-1, 12)]])
    rho = u @ diag @ u.dagger()
    assert all(rho.rows[i][i] == Scalar(Fraction(1, 4)) for i in range(4))
    assert _det([list(row) for row in rho.rows]) == Scalar(Fraction(-1, 288))
    assert not _principal_minors_nonnegative(rho)
    with pytest.raises(wigner.StateError, match="positive semidefinite"):
        wigner.validate_density(rho)


def test_single_qubit_demo():
    rep = single_qubit_demo()
    assert rep["points_checked"] == 4
    assert rep["bloch_reflection_determinant"] == -1
