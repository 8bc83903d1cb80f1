"""Displacements, metaplectic unitaries, and the five mutually unbiased bases."""

from collections import Counter
from fractions import Fraction

import pytest

from qphase4 import clifford, exact, gf4, symplectic
from qphase4.clifford import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    displacement,
    displacement_name,
    mub_vector,
    unitary_for,
)
from qphase4.exact import Matrix, Scalar, dot, lane_width, norm_sq, outer, pack, proportional
from qphase4.gf4 import ELEMENTS, OMEGA, OMEGA_BAR
from reference import (I_POWERS, dense_metaplectic_signs, dense_rep_phases, inner, mat_vec,
                       mub_columns_by_scalars, scaled, shear_rotation_shear_phases, unpack)

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
    # The literal matrices, not unitary_for's products of them.
    generators, u_r = clifford._GENERATORS, clifford._U_R
    assert generators[0] == Matrix.identity(4)
    for x in ELEMENTS:
        assert generators[x].is_unitary()
    assert u_r.is_unitary()
    prod = Matrix.identity(4)
    for _ in range(5):
        prod = prod @ u_r
    assert prod == Matrix.identity(4)
    h_wb = generators[OMEGA_BAR]
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
            u = u @ clifford._U_R
        u = u @ clifford._GENERATORS[d.x]
        for _ in range(d.s):
            u = u @ clifford._U_R
        assert unitary_for(L) == u


def test_unitary_for_multiplies_only_the_factors_that_are_not_the_identity(monkeypatch):
    # The 60 L share 12 left factors U_R^r U_{H_x}, 11 besides I (which is
    # never looked up): 8 of them are products
    # (r and x nonzero), and 44 U_L multiply theirs by U_R^s (s nonzero and
    # the left factor not I), 52 products where three-factor products one
    # U_L at a time made 84; every U_L is the literal three-factor product.
    calls, product = [], exact.product
    monkeypatch.setattr(exact, "product", lambda *args: calls.append(1) or product(*args))
    unitary_for.cache_clear()
    clifford._left_factor.cache_clear()
    units = [unitary_for(L) for L in symplectic.enumerate_group()]
    monkeypatch.undo()
    assert len(calls) == 52
    assert clifford._left_factor.cache_info().currsize == 11
    powers, generators = clifford._U_R_POWERS, clifford._GENERATORS
    for L, u in zip(symplectic.enumerate_group(), units):
        d = symplectic.decompose(L)
        assert u == powers[d.r] @ generators[d.x] @ powers[d.s]


def test_unitary_for_rejects_non_symplectic():
    with pytest.raises(ValueError):
        unitary_for(((1, 0), (0, OMEGA)))


def test_product_unitary_proportional():
    prod = clifford._U_R @ clifford._GENERATORS[1]
    mat = symplectic.product(symplectic.R, symplectic.shear(1))
    assert proportional(prod, unitary_for(mat)) is not None


def test_mub_vector_base_cases():
    e0 = mub_vector(0, 0)
    assert e0 == tuple(Scalar(v) for v in (1, 0, 0, 0))
    assert mub_vector(0, 1) == mat_vec(displacement((1, 0)), e0)
    # The paper's definition on the dense oracle: vector k of basis n is the
    # first column of U_R^n D_(k,0), U_R^n multiplied out from U_R.
    u_r, power = unitary_for(symplectic.R), Matrix.identity(4)
    for n in range(5):
        for k in ELEMENTS:
            column = [row[0] for row in (power @ displacement((k, 0))).rows]
            assert list(mub_vector(n, k)) == column
            assert clifford.mub_columns()[4 * n + k] == Matrix([[x, 0, 0, 0] for x in column])
        power = power @ u_r


def test_mub_columns_copy_the_numerators_of_the_scalar_columns():
    clifford.mub_columns.cache_clear()
    assert clifford.mub_columns() == mub_columns_by_scalars()


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
    # projector_numerators holds |b><b| at 4n + k: real, then imaginary parts, over 4.
    projectors = clifford.projector_numerators()
    assert len(projectors) == 20
    for n in range(5):
        total = Matrix.identity(4).scaled(0)
        for k in ELEMENTS:
            nums = projectors[4 * n + k]
            p = Matrix._reduced(4, nums[:16], nums[16:], 4)
            assert p.is_hermitian()
            assert p @ p == p
            assert p.trace() == Scalar(1)
            assert p == outer(mub_vector(n, k), mub_vector(n, k))
            total = total + p
        assert total == Matrix.identity(4)


def test_verify_metaplectic():
    rep = clifford.verify_metaplectic()
    assert rep["checked"] == 960
    # The sweep's own histogram, which the verify line does not print.
    assert Counter(rep["signs"].values()) == {1: 510, -1: 450}
    for alpha in gf4.all_points():
        assert rep["signs"][(symplectic.IDENTITY, alpha)] == 1


def test_metaplectic_signs_match_the_dense_oracle():
    # Same signs in the same order: one dense check per L, integer comparisons otherwise.
    signs = clifford.verify_metaplectic()["signs"]
    assert list(signs.items()) == list(dense_metaplectic_signs().items())


def test_verify_projective_rep():
    rep = clifford.verify_projective_rep()
    assert rep["checked"] == 3600
    # Every phase is +1 or -1, never +/-i, which the verify line does not say.
    assert Counter(rep["phases"].values()) == {0: 2600, 2: 1000}
    for L in symplectic.enumerate_group():
        assert rep["phases"][(symplectic.IDENTITY, L)] == 0
    assert set(rep["shear_rotation_shear"]) == {
        (x, s, y) for x in ELEMENTS for s in range(5) for y in ELEMENTS
    }


def test_shear_rotation_shear_phases_match_the_dense_products():
    # rep reads the family off its phase table as U_{H_x R^s} U_{H_y}; the
    # reference multiplies G_x U_R^s G_y from the literal matrices.
    for x in ELEMENTS:
        for s in range(5):
            u = clifford._GENERATORS[x]
            for _ in range(s):
                u = u @ clifford._U_R
            assert unitary_for(symplectic.product(symplectic.shear(x),
                                                  symplectic.R_POWERS[s])) == u
    srs = clifford.verify_projective_rep()["shear_rotation_shear"]
    assert len(srs) == 80
    assert srs == shear_rotation_shear_phases()


def test_rep_phases_match_the_dense_oracle():
    # Same 3600 phases in the same order as dense @ products tested with proportional.
    phases = clifford.verify_projective_rep()["phases"]
    assert list(phases.items()) == list(dense_rep_phases().items())


def test_packed_rep_chunks_hold_every_dense_product():
    # rep's layout: the right factors scaled to d = 2 and packed 32w bits
    # apart, one dot per L1, times d / den(U_{L1}).  Chunk j, read with the
    # offset as the sweep reads it (4w little-endian bytes), holds
    # U_{L1} U_{L2} over d^2 in 32 lanes (entry (i, j) real and imaginary at
    # 8i + 2j, +1), none reaching 2^(w-1); and the phases read off the
    # chunks are the dense ones.
    units = [unitary_for(L) for L in symplectic.enumerate_group()]
    w, d = lane_width(units), 2
    chunk, half, size = 32 * w, 1 << (32 * w - 1), 4 * w
    assert {u.den for u in units} == {1, d}
    rights = ([x * (d // u.den) for x in u.packed_right(w)] for u in units)
    right_all = [pack(row, chunk) for row in zip(*rights)]
    for u1 in units:
        x = dot(u1.packed_left(w), right_all) * (d // u1.den) + pack([half] * 60, chunk)
        x = x.to_bytes(size * 60, "little")
        for j, u2 in enumerate(units):
            lanes = unpack(int.from_bytes(x[size * j:size * (j + 1)], "little") - half, w, 32)
            product = u1 @ u2
            scale = d * d // product.den
            assert lanes == [v * scale for pair in zip(product.re, product.im) for v in pair]
            assert max(map(abs, lanes)) < 1 << (w - 1)
    phases = clifford.verify_projective_rep()["phases"]
    assert list(phases.items()) == list(dense_rep_phases().items())


def test_packed_metaplectic_chunks_hold_every_dense_product():
    # metaplectic's layout: the 16 D_beta packed 32w bits apart, as right
    # factors and as left factors, so one dot per L and side holds U_L D_beta
    # and D_beta U_L for every beta, chunk j for the j-th point, over
    # den(U_L), none of its 32 lanes reaching 2^(w-1).
    group, points = symplectic.enumerate_group(), gf4.all_points()
    units, ds = [unitary_for(L) for L in group], [displacement(b) for b in points]
    w = lane_width(units + ds)
    chunk, half, size = 32 * w, 1 << (32 * w - 1), 4 * w
    assert {d.den for d in ds} == {1}
    offset = pack([half] * 16, chunk)
    d_left_all = [pack(col, chunk) for col in zip(*(d.packed_left(w) for d in ds))]
    d_right_all = [pack(row, chunk) for row in zip(*(d.packed_right(w) for d in ds))]
    for u in units:
        for x, pairs in ((dot(u.packed_left(w), d_right_all), [(u, d) for d in ds]),
                         (dot(d_left_all, u.packed_right(w)), [(d, u) for d in ds])):
            x = (x + offset).to_bytes(size * 16, "little")
            for j, (a, b) in enumerate(pairs):
                lanes = unpack(int.from_bytes(x[size * j:size * (j + 1)], "little") - half, w, 32)
                product = a @ b
                scale = u.den // product.den
                assert lanes == [v * scale for pair in zip(product.re, product.im) for v in pair]
                assert max(map(abs, lanes)) < 1 << (w - 1)
    signs = clifford.verify_metaplectic()["signs"]
    assert list(signs.items()) == list(dense_metaplectic_signs().items())


def test_rep_phases_see_one_unitary_off_by_i(monkeypatch):
    # R^2 is no shear, neither R nor R^4, and in no pair the named identities
    # read, so i U_{R^2} passes the sweep; its +/-i phases must be the dense ones.
    unitary, r2 = clifford.unitary_for, symplectic.R_POWERS[2]
    monkeypatch.setattr(clifford, "unitary_for",
                        lambda L: scaled(unitary(L), I_POWERS[1]) if L == r2 else unitary(L))
    phases = clifford.verify_projective_rep()["phases"]
    assert Counter(phases.values()) == {0: 2425, 2: 1001, 1: 116, 3: 58}
    assert list(phases.items()) == list(dense_rep_phases().items())


@pytest.mark.parametrize("sweep, checked, counts", [
    # The 3600 products are dots of big integers and the named special cases are
    # read off the phase table, so no dense product runs and no Matrix is built.
    (clifford.verify_projective_rep, 3600,
     {"__matmul__": 0, "_reduced": 0, "packed_left": 60, "packed_right": 60}),
    # U_L^dag U_L == I is the one dense product per L, compared on its
    # numerators, so it builds U_L^dag alone; the 960 pairs are read off two
    # dots per L, of the 60 U_L and 16 D_beta packed once per side.
    (clifford.verify_metaplectic, 960,
     {"__matmul__": 0, "_reduced": 60, "packed_left": 76, "packed_right": 76}),
], ids=["rep", "metaplectic"])
def test_clifford_sweeps_lay_out_each_unitary_once(monkeypatch, sweep, checked, counts):
    # Each U_L is packed once as a left and once as a right factor; @ is the
    # dense kernel, _reduced builds every Matrix.
    for L in symplectic.enumerate_group():
        unitary_for(L)
    for beta in gf4.all_points():
        displacement(beta)
    calls = dict.fromkeys(counts, 0)
    for name in calls:
        fn = getattr(Matrix, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(Matrix, name, counted)
    assert sweep()["checked"] == checked
    assert calls == counts


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


def test_cnot_counterexample():
    rep = cnot_counterexample()
    assert rep["fixes_origin"]
    assert not rep["linear"]
    assert rep["matching_matrices"] == []
    perm = rep["permutation"]
    assert sorted(perm.values()) == sorted(perm.keys())
