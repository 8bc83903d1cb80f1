"""Frames, Wigner tables, transport, and the classification of definitions."""

import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import gcd
from operator import mul

import pytest

from qphase4 import cli, clifford, exact, gf4, phasespace, symplectic, wigner
from qphase4.exact import Matrix, Scalar, dot, numerators, outer
from qphase4.gf4 import ELEMENTS, OMEGA, OMEGA_BAR
from qphase4.phasespace import ZERO_INDEX
from qphase4.single_qubit import single_qubit_demo
from reference import (add, apply_index_operator, inner, line_map_by_sets, line_sum, mat_vec,
                       operator_sum, per_frame_sweep, sub, table_of, tables_covariant, total,
                       unpack)
from reference import mul as scalar_mul

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


def into(g) -> phasespace.FrameMap:
    """The constant frame map f -> g: linear part 0, shift g."""
    return phasespace.FrameMap(((0, 0),) * 5, g)


def step_into(g, u: Matrix, move) -> wigner.Step:
    """A Step named "step" that performs u along move from any frame into g."""
    return wigner.Step("step", "step", u, move, into(g))


def _mat_vec(m: Matrix, v) -> tuple:
    """m v on numerators: a row's real then imaginary numerators dotted with
    (vr, -vi) and (vi, vr) give the real and imaginary part."""
    vr, vi, d = numerators(v)
    n, den, v_re, v_im = m.n, m.den * d, (*vr, *(-x for x in vi)), (*vi, *vr)
    rows = [m.re[i:i + n] + m.im[i:i + n] for i in range(0, n * n, n)]
    return tuple(Scalar(Fraction(dot(r, v_re), den), Fraction(dot(r, v_im), den)) for r in rows)


def operator_index(a: Matrix) -> phasespace.Index:
    """Index of a phase point operator: per basis, the unique unit overlap."""
    out = []
    for m in range(5):
        hits = []
        for k in ELEMENTS:
            b = clifford.mub_vector(m, k)
            val = inner(b, _mat_vec(a, b))
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
    for op in std.values():
        for b in (clifford.mub_vector(n, k) for n in range(5) for k in ELEMENTS):
            assert _mat_vec(op, b) == mat_vec(op, b)
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
                    apply_index_operator(
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
        term = scalar_mul(head, _det(minor))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
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
    # The 20 MUB projectors do span them (Wootters & Fields), so the verify
    # kernel, which checks each step on the 20 MUB vectors, covers every state.
    assert _real_rank([outer(b, b) for b in (clifford.mub_vector(n, k)
                                             for n in range(5) for k in ELEMENTS)]) == 16


def _trace_product(a: Matrix, b: Matrix) -> Scalar:
    """Tr(ab) = sum_ij a_ij b_ji on the integer numerators, without forming ab."""
    n = a.n
    b_re, b_im = ([x[j * n + i] for i in range(n) for j in range(n)] for x in (b.re, b.im))
    re = sum(map(mul, a.re, b_re)) - sum(map(mul, a.im, b_im))
    im = sum(map(mul, a.re, b_im)) + sum(map(mul, a.im, b_re))
    return Scalar(Fraction(re, a.den * b.den), Fraction(im, a.den * b.den))


def test_trace_product_matches_the_matrix_product():
    ops = [GENERIC, UP_RIGHT, clifford.unitary_for(G), clifford.displacement((OMEGA, 1)),
           *wigner.frame(phasespace.shift_vector(G)).values()]
    for a, b in product(ops[:6], ops[2:]):
        assert _trace_product(a, b) == (a @ b).trace()


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
            values = wigner.wigner_table(d, f).values
            for alpha, a in ops.items():
                assert values[alpha] == _trace_product(a, d).re / 4
        for rho in states:
            table = wigner.wigner_table(rho, f)
            values = table.values
            for alpha, a in ops.items():
                assert values[alpha] == _trace_product(a, rho).re / 4
            assert wigner.reconstruct(table) == operator_sum(table, ops) == rho
        # A random table of total 1, in general no state's: still the same map.
        values = {alpha: Fraction(rng.randint(-99, 99), 64) for alpha in gf4.all_points()}
        values[(0, 0)] += 1 - sum(values.values())
        table = table_of(f, values)
        assert wigner.reconstruct(table) == operator_sum(table, ops)


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
    assert total(t) == 1


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
    shift = wigner.translation_perm((1, 0))
    step = wigner.displacement_step((1, 0))
    f = phasespace.canonical_shift_vectors()[3]
    assert step == ("D[1,0]", "D[1,0]", d, shift, phasespace.FRAME_IDENTITY) and step.frame(f) == f
    rho2, g, table = wigner.perform(up_up, ZERO_INDEX, step)
    assert (rho2, g, table) == (d @ up_up @ d.dagger(), ZERO_INDEX,
                                wigner.wigner_table(rho2, ZERO_INDEX))
    assert wigner.displace(up_up, ZERO_INDEX, (1, 0)) == (rho2, g, table)
    # f_0 = 1 relabels the computational basis, the one basis up*up is not unbiased to.
    # Swapping the first two points takes lines off the lines, which no state
    # survives, not even I/4, whose table every point permutation keeps.
    swap = (1, 0, *range(2, 16))
    cases = [(up_up, d, ZERO_INDEX, tuple(range(16))), (up_up, d, (1, 0, 0, 0, 0), shift),
             (up_up, d, ZERO_INDEX, swap),
             (wigner.MAXIMALLY_MIXED, Matrix.identity(4), ZERO_INDEX, swap)]
    for rho, u, g, move in cases:
        with pytest.raises(AssertionError, match=r"^D\[1,0\] .* f=\(0, 0, 0, 0, 0\)$"):
            wigner.perform(rho, ZERO_INDEX, step._replace(u=u, move=move, frame=into(g)))
    assert tables_covariant(wigner.MAXIMALLY_MIXED, ZERO_INDEX, Matrix.identity(4), ZERO_INDEX,
                            swap)


def test_every_move_is_one_step_that_perform_performs(capsys, monkeypatch):
    # A transport step carries U_L's frame map as data, S_L's rows and f_L,
    # which compose_frame applies too; transport, displace, marginal_check's
    # 16 displacements and apply's ops each perform one step.
    step = wigner.transport_step(G)
    assert step == ("[[W,0],[0,w]]", "transport by L=[[W,0],[0,w]]", clifford.unitary_for(G),
                    wigner.linear_perm(G), (phasespace._monomial(G), phasespace.shift_vector(G)))
    assert step.frame(ZERO_INDEX) == phasespace.compose_frame(ZERO_INDEX, G)
    performed, perform = [], wigner.perform
    monkeypatch.setattr(wigner, "perform",
                        lambda rho, f, step: performed.append(step.name) or perform(rho, f, step))
    wigner.transport(UP_RIGHT, ZERO_INDEX, G)
    wigner.displace(UP_RIGHT, ZERO_INDEX, (OMEGA, 1))
    assert performed == ["[[W,0],[0,w]]", "D[w,1]"]
    performed.clear()
    wigner.marginal_check(GENERIC, ZERO_INDEX)
    assert performed == [wigner.displacement_step(beta).name for beta in gf4.all_points()]
    performed.clear()
    assert cli.main(["apply", "--state", "up*right", "D[w,1]", "[[W,0],[0,w]]"]) == 0
    assert performed == ["D[w,1]", "[[W,0],[0,w]]"]
    capsys.readouterr()


def test_covariant_names_the_first_wrong_frame_of_twelve():
    # The 12 canonical frames performed in order, one pair per call.  With
    # target frame k off in one component, alone or with every later one,
    # the first failure is at frame k and names it; with every frame right
    # each call passes.  Each wrong pair also fails alone, naming its own f.
    u, move = clifford.unitary_for(G), wigner.linear_perm(G)
    pairs = [(f, phasespace.compose_frame(f, G)) for f in phasespace.canonical_shift_vectors()]

    def check_in_order(pairs):
        for f, g in pairs:
            rho2, _, _ = wigner.perform(GENERIC, f, step_into(g, u, move))
        return rho2

    assert check_in_order(pairs) == u @ GENERIC @ u.dagger()
    wrong = [(f, (gf4.add(g[0], 1), *g[1:])) for f, g in pairs]
    for k, (f, g) in enumerate(wrong):
        assert not tables_covariant(GENERIC, f, u, g, move)
        for bad in ([(f, g)], pairs[:k] + wrong[k:k + 1] + pairs[k + 1:], pairs[:k] + wrong[k:]):
            with pytest.raises(AssertionError) as error:
                check_in_order(bad)
            assert str(error.value) == f"step is not covariant in frame f={f}"


def kernel_units(capsys, monkeypatch, scope):
    """The unitaries verify <scope> hands the kernel, in order."""
    seen, maps = [], wigner._hilbert_maps
    monkeypatch.setattr(wigner, "_hilbert_maps", lambda units: seen.append(units) or maps(units))
    assert cli.main(["verify", scope]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    (units,) = seen
    return units


def assert_kernel_matches_the_matrix_oracle(units):
    """Each u's kernel map is the dense map u P_i u^dag = P_j of the 20 MUB
    projectors; chunk i of its dot, unpacked, is the dense u |b_i><0| over
    d^2; and no lane of the dot or of a key it is looked up among reaches
    2^(w-1), below which equal keys have equal lanes."""
    columns = clifford.mub_columns()
    w = exact.lane_width([*units, *columns])
    family, born_index = wigner._mub_family(w)
    projectors = [outer(b, b) for b in
                  (clifford.mub_vector(n, k) for n in range(5) for k in ELEMENTS)]
    assert family.d == 2 and len(born_index) == 80
    keys = [unpack(int.from_bytes(key, "little") - (1 << (32 * w - 1)), w, 32)
            for key in born_index]
    assert 0 < max(abs(x) for lanes in keys for x in lanes) < 1 << (w - 1)
    for u, image in zip(units, wigner._hilbert_maps(units)):
        assert image == tuple(projectors.index(clifford.conjugate(u, p)) for p in projectors)
        lanes = unpack(dot(u.packed_left(w), family.rows) * (family.d // u.den), w, 32 * 20)
        for i, b in enumerate(columns):
            dense = u @ b
            scale = family.d ** 2 // dense.den
            assert lanes[32 * i:32 * (i + 1)] == [
                x * scale for pair in zip(dense.re, dense.im) for x in pair]
        assert max(map(abs, lanes)) < 1 << (w - 1)


def test_packed_transport_lanes_match_the_matrix_oracle(capsys, monkeypatch):
    # The 60 U_L of verify transport, in group order.
    units = kernel_units(capsys, monkeypatch, "transport")
    assert units == [clifford.unitary_for(L) for L in symplectic.enumerate_group()]
    assert_kernel_matches_the_matrix_oracle(units)


def test_packed_marginal_lanes_match_the_matrix_oracle(capsys, monkeypatch):
    # The 16 D_beta of verify marginals, in gf4.all_points() order.
    units = kernel_units(capsys, monkeypatch, "marginals")
    assert units == [clifford.displacement(beta) for beta in gf4.all_points()]
    assert_kernel_matches_the_matrix_oracle(units)


def test_packed_symmetry_lanes_match_the_matrix_oracle(capsys, monkeypatch):
    # The 12 distinct V = U_L U_R U_L^dag of verify symmetry.
    units = kernel_units(capsys, monkeypatch, "symmetry")
    assert len(units) == len(set(units)) == 12
    u_r = clifford.unitary_for(symplectic.R)
    assert set(units) == {clifford.conjugate(clifford.unitary_for(L), u_r)
                          for L in symplectic.enumerate_group()}
    assert_kernel_matches_the_matrix_oracle(units)


def test_verify_all_tables_have_equal_keys_exactly_when_their_values_are_equal():
    # The 108 tables a state-by-state marginals sweep builds, the standard
    # states and their displacements in the 12 canonical frames: the key is in
    # lowest terms and reads back the values, so keys and values partition
    # the tables the same way.
    displaced = {d @ rho @ d.dagger() for rho in wigner.standard_test_states()
                 for d in map(clifford.displacement, gf4.all_points())}
    tables = {(rho, f): wigner.wigner_table(rho, f)
              for rho in displaced for f in phasespace.canonical_shift_vectors()}
    assert len(tables) == 108
    points = gf4.all_points()
    values = [tuple(map(t.values.__getitem__, points)) for t in tables.values()]
    keys = [t.key for t in tables.values()]
    for (den, nums), vals in zip(keys, values):
        assert den > 0 and gcd(den, *nums) == 1
        assert tuple(Fraction(n, den) for n in nums) == vals
    assert len(set(values)) == len(set(keys)) == len(set(zip(values, keys))) < len(tables)


def test_covariant_sees_one_changed_value_of_the_moved_table(monkeypatch):
    # Each of rho''s 20 Born numerators one unit more in turn, then its
    # denominator one more: every one changes a value of the moved table.
    rho2, _, _ = wigner.transport(GENERIC, ZERO_INDEX, G)
    born = clifford.born_probability
    den, nums = born(rho2)
    wrong = [(den, (*nums[:i], nums[i] + 1, *nums[i + 1:])) for i in range(20)]
    for probs in [*wrong, (den + 1, nums)]:
        monkeypatch.setattr(clifford, "born_probability", lambda rho, probs=probs:
                            probs if rho == rho2 else born(rho))
        with pytest.raises(AssertionError, match=r"^transport by L=\[\[W,0\],\[0,w\]\] "):
            wigner.transport(GENERIC, ZERO_INDEX, G)


def test_covariant_passes_exactly_when_the_moved_tables_match():
    # perform's line route against reference.tables_covariant.  Each right
    # step (60 L x the 12 canonical frames, then 16 beta x 16 sampled frames)
    # also runs with a wrong target frame or another element's move, which
    # still takes lines to lines, so both verdicts occur.
    rng = random.Random(1604)
    states = [*wigner.standard_test_states(), GENERIC,
              wigner.density_from_vector(_random_vector(rng))]
    group = symplectic.enumerate_group()
    steps = [(clifford.unitary_for(L), f, phasespace.compose_frame(f, L), wigner.linear_perm(L),
              wigner.linear_perm(group[i - 1]))
             for i, L in enumerate(group) for f in phasespace.canonical_shift_vectors()]
    frames = rng.sample(list(product(ELEMENTS, repeat=5)), 16)
    points = gf4.all_points()
    steps += [(clifford.displacement(beta), f, f, wigner.translation_perm(beta),
               wigner.translation_perm(points[i - 1]))
              for i, beta in enumerate(points) for f in frames]
    verdicts = Counter()
    for rho in states:
        for i, (u, f, g, move, other) in enumerate(steps):
            n = i % 5
            wrong_g = (*g[:n], gf4.add(g[n], 1 + i % 3), *g[n + 1:])
            for case in ((g, move), (wrong_g, move) if i % 2 else (g, other)):
                try:
                    wigner.perform(rho, f, step_into(case[0], u, case[1]))
                    verdict = True
                except AssertionError:
                    verdict = False
                assert verdict == tables_covariant(rho, f, u, *case)
                verdicts[case == (g, move), verdict] += 1
    assert verdicts[True, False] == 0
    assert verdicts[False, True] and verdicts[False, False]


def test_cached_point_permutations_match_the_field_arithmetic():
    # The 60 L, the 60 conjugated rotations R_L = L R L^-1 and the 16 beta.
    points = gf4.all_points()
    group = symplectic.enumerate_group()
    rotations = [symplectic.product(symplectic.product(L, symplectic.R), symplectic.inverse(L))
                 for L in group]
    cases = [(wigner.linear_perm(L), partial(gf4.mat_vec, L)) for L in (*group, *rotations)]
    cases += [(wigner.translation_perm(beta), partial(gf4.vec_add, beta)) for beta in points]
    assert len(cases) == 136
    for perm, image in cases:
        assert sorted(perm) == list(range(16))
        assert [points[j] for j in perm] == [image(alpha) for alpha in points]


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
    # With e0_orbit_count == 12 and each canonical frame of class 0, the
    # canonical frames in 12 distinct displacement orbits cover the E = 0 class.
    canonical = phasespace.canonical_shift_vectors()
    assert {wigner.similarity_class(f) for f in canonical} == {0}
    assert len({frozenset(phasespace.displace_index(f, b) for b in gf4.all_points())
                for f in canonical}) == 12
    assert sum(rep["class_counts"].values()) == 1024
    assert sum(rep["orbit_counts"].values()) == 64


def test_tables_transport_and_marginals_use_lines_not_point_indices(monkeypatch):
    f = phasespace.shift_vector(G)
    expect = wigner.wigner_table(GENERIC, f)
    for L in (G, symplectic.shear(1)):
        phasespace.compose_frame(f, L)  # S_L is read off two point indices, once per L
    wigner.wigner_table.cache_clear()

    def forbidden(*args):
        raise RuntimeError("per-point index arithmetic")

    monkeypatch.setattr(phasespace, "displace_index", forbidden)
    monkeypatch.setattr(phasespace, "point_index", forbidden)
    assert wigner.wigner_table(GENERIC, f) == expect
    for L in (G, symplectic.shear(1)):
        rho2, _, table = wigner.transport(GENERIC, f, L)
        assert wigner.reconstruct(table) == rho2
    assert wigner.marginal_check(GENERIC, f) == {"lines": 20, "displacements": 16}


@pytest.mark.parametrize(
    "name, fake",
    [
        # Displacements that forget the frame give every frame the same orbit.
        ("displace_index", lambda f, beta: phasespace.point_index(beta)),
        # Displacements that move nothing give orbits of one frame.
        ("displace_index", lambda f, beta: f),
        # A class that is not constant on displacement orbits.
        ("similarity_class", lambda f: f[4]),
    ],
    ids=["overlapping", "size-1", "mixed-class"],
)
def test_census_rejects_a_broken_orbit(monkeypatch, name, fake):
    monkeypatch.setattr(phasespace if name == "displace_index" else wigner, name, fake)
    with pytest.raises(AssertionError, match="is not 16 new frames of one class"):
        wigner.census()


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
    values = table.values
    assert sum((values[(q, p)] for p in left_rows for q in ELEMENTS), Fraction(0)) == 1


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
    # One arrow per product state mub_vector(n, k), at its Born index 4n + k.
    assert cli._ARROWS == tuple(_product_label(n, k) for n in (0, 1) for k in ELEMENTS)


def test_marginals_maximally_mixed():
    t = wigner.wigner_table(wigner.MAXIMALLY_MIXED, ZERO_INDEX)
    for n in range(5):
        for k in ELEMENTS:
            assert line_sum(t, n, k) == Fraction(1, 4)


def test_reconstruct_roundtrip():
    for f in (ZERO_INDEX, phasespace.shift_vector(G)):
        for rho in wigner.standard_test_states():
            table = wigner.wigner_table(rho, f)
            assert wigner.reconstruct(table) == rho


def test_reconstruct_does_integer_work_only(monkeypatch):
    # The column table is warm and every state is built before Matrix's
    # Fraction-scaling and addition start to raise.
    wigner._projector_columns()
    states = [*wigner.standard_test_states(), GENERIC]

    def refuse(*args):
        raise AssertionError("Matrix.scaled or Matrix.__add__ ran")

    monkeypatch.setattr(Matrix, "scaled", refuse)
    monkeypatch.setattr(Matrix, "__add__", refuse)
    for rho in states:
        for f in phasespace.canonical_shift_vectors():
            rho2, _, table = wigner.transport(rho, f, G)
            assert wigner.reconstruct(table) == rho2


def test_importing_the_cli_builds_no_projector():
    code = ("import qphase4.cli; from qphase4 import clifford, wigner; print("
            "wigner._projector_columns.cache_info().currsize, "
            "clifford.projector_numerators.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "0 0\n")


def test_mub_vectors_projectors_and_kernel_family_take_no_product():
    # In a fresh interpreter, after import: the projector numerators, the 20
    # MUB vectors and the verify kernel's MUB family are read off the powers
    # of U_R built at import, with no dense product.
    code = ("import qphase4.cli; from qphase4 import clifford, exact, gf4, wigner\n"
            "calls = []\n"
            "matmul, product = exact.Matrix.__matmul__, exact.product\n"
            "exact.Matrix.__matmul__ = lambda a, b: calls.append('@') or matmul(a, b)\n"
            "exact.product = clifford.product = lambda *a: calls.append('product') or product(*a)\n"
            "clifford.projector_numerators()\n"
            "vectors = [clifford.mub_vector(n, k) for n in range(5) for k in gf4.ELEMENTS]\n"
            "wigner._mub_family(exact.lane_width(clifford.mub_columns()))\n"
            "print(len(set(vectors)), calls)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "20 []\n"), proc.stderr


def test_a_frame_is_read_by_one_rule():
    # Line 4n + k of frame f is read by vector k + f_n of basis n, whose Born
    # probability sits at 4n + k + f_n; each line's points are line_points'.
    points = gf4.all_points()
    positions = wigner._line_positions()
    lines = [phasespace.line_points(n, k) for n in range(5) for k in ELEMENTS]
    assert [sorted(p) for p in positions] == [sorted(map(points.index, ln)) for ln in lines]
    for f in product(ELEMENTS, repeat=5):
        labels = wigner.line_labels(f)
        assert len(labels) == 20
        for n in range(5):
            for k in ELEMENTS:
                assert labels[4 * n + k] == 4 * n + gf4.add(k, f[n])


def test_marginal_check_sees_two_values_swapped_across_lines(capsys, monkeypatch):
    assert cli.main(["verify", "marginals"]) == 0
    assert capsys.readouterr().out == (
        "marginals: 72/72 (frame, state) pairs, 20 lines + 16 displacements each\n")
    # (0,0) and (1,0) lie on lines k = 0 and k = 1 of striation 0; swapping
    # their values keeps the total and breaks both line sums.
    values = wigner.wigner_table(GENERIC, ZERO_INDEX).values
    a, b = (0, 0), (1, 0)
    assert values[a] != values[b]
    bad = table_of(ZERO_INDEX, {**values, a: values[b], b: values[a]})
    assert total(bad) == 1
    monkeypatch.setattr(wigner, "wigner_table", lambda rho, f: bad)
    with pytest.raises(AssertionError,
                       match=r"^marginal failed at line \(n=0, k=0\), f=\(0, 0, 0, 0, 0\)$"):
        wigner.marginal_check(GENERIC, ZERO_INDEX)


@pytest.mark.parametrize("s", range(6))
def test_verify_marginals_reads_wigner_table_in_the_first_frame(capsys, monkeypatch, s):
    # wigner_table off at one point, for standard state s in the first frame
    # alone: only the cross-check of wigner_table's line sums sees it, and
    # the per-state replay names the first line through that point.
    rho, f = wigner.standard_test_states()[s], phasespace.canonical_shift_vectors()[0]
    table = wigner.wigner_table
    values = table(rho, f).values
    bad = table_of(f, {**values, (0, 0): values[(0, 0)] + 1})
    monkeypatch.setattr(wigner, "wigner_table",
                        lambda r, g: bad if (r, g) == (rho, f) else table(r, g))
    assert cli.main(["verify", "marginals"]) == 1
    assert capsys.readouterr() == (
        "", "FAIL marginals: marginal failed at line (n=0, k=0), f=(0, 0, 0, 0, 0)\n")


def test_first_bad_line_names_the_first_line_through_a_changed_value():
    # GENERIC and the standard states in the 12 canonical frames: every line
    # sums right, as a WignerTable.key against born_probability and as an
    # integer table against its Born numerators.  One table value one unit
    # more breaks the five lines through its point, and the first of them
    # is named.
    states = (*wigner.standard_test_states(), GENERIC)
    lines = wigner._line_positions()
    for f in phasespace.canonical_shift_vectors():
        for rho in states:
            born = clifford.born_probability(rho)
            table = wigner._integer_table(born[1], sum(rho.re[::5]), f)
            values = wigner.wigner_table(rho, f).values
            assert [Fraction(x, 4 * born[0]) for x in table] == [
                values[a] for a in gf4.all_points()]
            assert wigner._first_bad_line((4, table), (1, born[1]), f) is None
            assert wigner._first_bad_line(wigner.wigner_table(rho, f).key, born, f) is None
        den, nums = wigner.wigner_table(GENERIC, f).key
        born = clifford.born_probability(GENERIC)
        table = wigner._integer_table(born[1], sum(GENERIC.re[::5]), f)
        for i in range(16):
            first = min(j for j, points in enumerate(lines) if i in points)
            changed = (*nums[:i], nums[i] + 1, *nums[i + 1:])
            assert wigner._first_bad_line((den, changed), born, f) == first
            changed = (*table[:i], table[i] + 1, *table[i + 1:])
            assert wigner._first_bad_line((4, changed), (1, born[1]), f) == first


def test_born_map_is_frame_free_and_the_projector_map():
    # Each of the 60 L in all 1024 frames f, read in g = compose_frame(f, L),
    # and each of the 16 beta with g = f, gives one map of the 20 Born
    # indices, whatever f; on the dense oracle it is the map of the MUB
    # projectors, u P_i u^dag = P_map[i].
    frames = list(product(ELEMENTS, repeat=5))
    steps = [(clifford.unitary_for(L), wigner.linear_perm(L),
              partial(phasespace.compose_frame, L=L))
             for L in symplectic.enumerate_group()]
    steps += [(clifford.displacement(beta), wigner.translation_perm(beta), lambda f: f)
              for beta in gf4.all_points()]
    projectors = [outer(b, b) for b in
                  (clifford.mub_vector(n, k) for n in range(5) for k in ELEMENTS)]
    for u, move, reads in steps:
        (image,) = {wigner.born_map(move, f, reads(f)) for f in frames}
        assert [clifford.conjugate(u, p) for p in projectors] == [projectors[j] for j in image]


def test_packed_sweeps_take_one_born_map_per_step(capsys, monkeypatch):
    # verify transport, marginals and symmetry hand the kernel 60, 16 and 12
    # steps and compute one Hilbert map per step, in one _hilbert_maps call:
    # a permutation of the 20 Born indices, and the born_map of each of the
    # step's frame pairs.
    seen, maps = [], wigner._hilbert_maps
    monkeypatch.setattr(wigner, "_hilbert_maps",
                        lambda units: seen.append(maps(units)) or seen[-1])
    sweeps, sweep = [], wigner._packed_sweep
    monkeypatch.setattr(wigner, "_packed_sweep",
                        lambda moves: sweeps.append(moves) or sweep(moves))
    for scope, count in (("transport", 60), ("marginals", 16), ("symmetry", 12)):
        seen.clear()
        sweeps.clear()
        assert cli.main(["verify", scope]) == 0
        (images,), (moves,) = seen, sweeps
        assert len(images) == len(moves) == count
        for (step, frames), image in zip(moves, images):
            assert sorted(image) == list(range(20))
            assert all(wigner.born_map(step.move, f, step.frame(f)) == image for f in frames)
    capsys.readouterr()


def test_packed_comparison_fails_a_wrong_map_or_a_non_unitary_at_its_step(capsys, monkeypatch):
    # Every step verify transport, marginals and symmetry hand the kernel,
    # 60 U_L, 16 D_beta and 12 V, holds.  At the middle step of each sweep
    # five faults fail the sweep there: its Hilbert map with entries 0 and
    # 1 swapped, or None; its u doubled, or with its first column doubled,
    # neither of them unitary; and a u and a move that both have no map.
    sweep, maps = wigner._packed_sweep, wigner._hilbert_maps
    calls = verify_moves(capsys, monkeypatch)
    assert [len(moves) for moves in calls] == [60, 16, 12]
    for moves in calls:
        assert sweep(moves) == len(moves)
        i = len(moves) // 2
        step, frames = moves[i]
        m = maps([step.u])[0]
        for bad in ((m[1], m[0], *m[2:]), None):
            monkeypatch.setattr(wigner, "_hilbert_maps", lambda units: [
                bad if k == i else image for k, image in enumerate(maps(units))])
            assert sweep(moves) == i
            monkeypatch.undo()
        u = step.u
        doubled = Matrix._reduced(4, [x * (1 + (j % 4 == 0)) for j, x in enumerate(u.re)],
                                  [x * (1 + (j % 4 == 0)) for j, x in enumerate(u.im)], u.den)
        for bad in (u.scaled(2), doubled):
            assert not bad.is_unitary()
            assert sweep([*moves[:i], (step._replace(u=bad), frames), *moves[i + 1:]]) == i
        # u / 3 has no Hilbert map (its denominator does not divide 2), and a
        # move that takes lines off the lines has no born_map: they still
        # do not match.
        off = step._replace(u=u.scaled(Fraction(1, 3)), move=step.move[1:] + step.move[:1])
        assert maps([off.u]) == [None]
        assert all(wigner.born_map(off.move, f, off.frame(f)) is None for f in frames)
        assert sweep([*moves[:i], (off, frames), *moves[i + 1:]]) == i


def verify_moves(capsys, monkeypatch) -> list:
    """The (step, frames) lists verify transport, marginals and symmetry
    hand the kernel, in that order."""
    calls, sweep = [], wigner._packed_sweep
    monkeypatch.setattr(wigner, "_packed_sweep", lambda moves: calls.append(moves) or sweep(moves))
    for scope in ("transport", "marginals", "symmetry"):
        assert cli.main(["verify", scope]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    return calls


def _off(f, n, c):
    return tuple(gf4.add(x, c) if i == n else x for i, x in enumerate(f))


def test_born_map_runs_once_per_step(capsys, monkeypatch):
    # One comparison per step, at its first frame: 60, 16 and 12 born_maps
    # where a comparison in every listed frame took 720, 192 and 12.
    calls, born_map = [], wigner.born_map
    monkeypatch.setattr(wigner, "born_map", lambda *args: calls.append(args) or born_map(*args))
    for scope, count in (("transport", 60), ("marginals", 16), ("symmetry", 12)):
        calls.clear()
        assert cli.main(["verify", scope]) == 0
        assert len(calls) == count
    capsys.readouterr()


def test_one_comparison_per_step_agrees_with_the_per_frame_kernel(capsys, monkeypatch):
    # The 88 steps of verify transport, marginals and symmetry, each alone:
    # the kernel holds it, and the per-frame kernel finds the kernel's map
    # in every listed frame.  With the step's shift off in one component
    # both fail it; with one row's value times w the kernel fails it too,
    # by the frame law, even where no listed frame shows the fault.
    steps = [move for moves in verify_moves(capsys, monkeypatch) for move in moves]
    assert len(steps) == 88
    for i, (step, frames) in enumerate(steps):
        (image,) = wigner._hilbert_maps([step.u])
        assert wigner._packed_sweep([(step, frames)]) == 1
        assert per_frame_sweep([(step, frames)]) == (1, [{image}])
        n, frame = i % 5, step.frame
        shifted = step._replace(frame=frame._replace(shift=_off(frame.shift, n, 1 + i % 3)))
        assert wigner._packed_sweep([(shifted, frames)]) == 0
        assert per_frame_sweep([(shifted, frames)])[0] == 0
        rows = list(frame.rows)
        rows[n] = (rows[n][0], gf4.mul(rows[n][1], OMEGA))
        assert wigner._packed_sweep([(step._replace(frame=frame._replace(rows=tuple(rows))),
                                      frames)]) == 0


def test_every_single_entry_shift_vector_mutant_fails_the_kernel():
    # 60 L x 5 components x 3 nonzero offsets: each f_L off in one entry
    # fails its transport step in the 12 canonical frames.
    frames = phasespace.canonical_shift_vectors()
    for L in symplectic.enumerate_group():
        step = wigner.transport_step(L)
        for n in range(5):
            for c in (1, OMEGA, OMEGA_BAR):
                bad = step.frame._replace(shift=_off(step.frame.shift, n, c))
                assert wigner._packed_sweep([(step._replace(frame=bad), frames)]) == 0


def test_every_transport_step_rereads_frames_as_compose_frame_does():
    # 60 L x 1024 frames; compose_frame itself is checked against S_L's
    # 25 entries in test_phasespace.
    frames = list(product(ELEMENTS, repeat=5))
    for L in symplectic.enumerate_group():
        step = wigner.transport_step(L)
        assert step.frame == phasespace.frame_map(L)
        assert [step.frame(f) for f in frames] == [phasespace.compose_frame(f, L) for f in frames]


def test_line_map_matches_the_map_by_sets_on_every_move(capsys, monkeypatch):
    # Every move verify makes, each also turned one position on (a
    # bijection that takes lines off the lines), and a move that is no
    # bijection.
    moves = {step.move for moves in verify_moves(capsys, monkeypatch) for step, _ in moves}
    # The 60 L's, each R_L among them, and the 16 beta's, beta = 0 moving as L = I.
    assert len(moves) == 60 + 16 - 1
    broken = {move[1:] + move[:1] for move in moves} | {(0,) * 16}
    for move in moves | broken:
        assert wigner._line_map(move) == line_map_by_sets(move)
        assert (wigner._line_map(move) is None) == (move in broken)


def test_marginal_check_reports_the_first_failure_in_frame_order(monkeypatch):
    # One frame per call, as marginal_sweep's replay makes them: its 20 line
    # checks and then its 16 displacements, frame after frame.  Three
    # faults: D[beta_12] checked against beta_13's move (fails in every
    # frame), f1 read with lines k = 0 and 1 of striation 0 swapped (its
    # displacements beta_8..beta_15 fail) and f1's table with two values
    # swapped across those lines (its line checks fail).  In that order the
    # first failure is beta_12 in f0; every frame's lines first would report
    # f1's lines, every frame per beta would report beta_8 in f1.
    points = gf4.all_points()
    f0, f1 = ZERO_INDEX, phasespace.canonical_shift_vectors()[3]
    labels, perm, table = wigner.line_labels, wigner.translation_perm, wigner.wigner_table
    values = table(GENERIC, f1).values
    a, b = (0, 0), (1, 0)
    bad = table_of(f1, {**values, a: values[b], b: values[a]})
    monkeypatch.setattr(wigner, "line_labels",
                        lambda f: (*labels(f)[1::-1], *labels(f)[2:]) if f == f1 else labels(f))
    monkeypatch.setattr(wigner, "translation_perm",
                        lambda beta: perm(points[13] if beta == points[12] else beta))
    monkeypatch.setattr(wigner, "wigner_table",
                        lambda rho, f: bad if (rho, f) == (GENERIC, f1) else table(rho, f))
    name = "D[" + ",".join(map(gf4.to_token, points[12])) + "]"
    with pytest.raises(AssertionError) as error:
        for f in (f0, f1):
            wigner.marginal_check(GENERIC, f)
    assert str(error.value) == f"{name} is not covariant in frame f={f0}"
    with pytest.raises(AssertionError, match=r"^marginal failed at line \(n=0, k=0\)"):
        wigner.marginal_check(GENERIC, f1)
    wigner.displace(GENERIC, f0, points[8])
    with pytest.raises(AssertionError, match=r" is not covariant in frame f=\(1, 0, 1, 0, 2\)$"):
        wigner.displace(GENERIC, f1, points[8])


def test_reconstruct_uniform_table():
    uniform = table_of(ZERO_INDEX, {a: Fraction(1, 16) for a in gf4.all_points()})
    assert wigner.reconstruct(uniform) == wigner.MAXIMALLY_MIXED


def test_reconstruct_rejects_corrupt_table():
    bad = table_of(ZERO_INDEX, {a: Fraction(1, 8) for a in gf4.all_points()})
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
    u = clifford._U_R
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
