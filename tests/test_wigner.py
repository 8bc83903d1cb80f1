"""Frames, Wigner tables, transport, and the classification of definitions."""

import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import gcd, lcm
from operator import mul

import pytest

from qphase4 import cli, clifford, gf4, phasespace, symplectic, wigner
from qphase4.exact import MAX_JSON_DIGITS, Matrix, Scalar, dot, numerators
from qphase4.gf4 import ELEMENTS, OMEGA, OMEGA_BAR
from qphase4.phasespace import ZERO_INDEX
from qphase4.single_qubit import single_qubit_demo
from reference import (add, inner, line_sum, mat_vec, operator_sum, sub, table_of,
                       tables_covariant, total, unpack)
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
    rho2 = wigner.covariant(up_up, d, shift, [(ZERO_INDEX, ZERO_INDEX)], "D[1,0]")
    assert rho2 == d @ up_up @ d.dagger()
    assert wigner.displace(up_up, ZERO_INDEX, (1, 0)) == (
        rho2, ZERO_INDEX, wigner.wigner_table(rho2, ZERO_INDEX))
    # f_0 = 1 relabels the computational basis, the one basis up*up is not unbiased to.
    # Swapping the first two points takes lines off the lines, which no state
    # survives, not even I/4, whose table every point permutation keeps.
    swap = (1, 0, *range(2, 16))
    cases = [(up_up, d, ZERO_INDEX, tuple(range(16))), (up_up, d, (1, 0, 0, 0, 0), shift),
             (up_up, d, ZERO_INDEX, swap),
             (wigner.MAXIMALLY_MIXED, Matrix.identity(4), ZERO_INDEX, swap)]
    for rho, u, g, move in cases:
        with pytest.raises(AssertionError, match=r"^D\[1,0\] .* f=\(0, 0, 0, 0, 0\)$"):
            wigner.covariant(rho, u, move, [(ZERO_INDEX, g)], "D[1,0]")
    assert tables_covariant(wigner.MAXIMALLY_MIXED, ZERO_INDEX, Matrix.identity(4), ZERO_INDEX,
                            swap)


def test_covariant_names_the_first_wrong_frame_of_twelve():
    # One call checks the 12 canonical frames in order.  With target frame k
    # off in one component, alone or with every later one, it must fail at
    # frame k and name it; with every frame right it passes.
    u, move = clifford.unitary_for(G), wigner.linear_perm(G)
    pairs = [(f, phasespace.compose_frame(f, G)) for f in phasespace.canonical_shift_vectors()]
    assert wigner.covariant(GENERIC, u, move, pairs, "step") == u @ GENERIC @ u.dagger()
    wrong = [(f, (gf4.add(g[0], 1), *g[1:])) for f, g in pairs]
    for k, (f, g) in enumerate(wrong):
        assert not tables_covariant(GENERIC, f, u, g, move)
        for bad in (pairs[:k] + wrong[k:k + 1] + pairs[k + 1:], pairs[:k] + wrong[k:]):
            with pytest.raises(AssertionError) as error:
                wigner.covariant(GENERIC, u, move, bad, "step")
            assert str(error.value) == f"step is not covariant in frame f={f}"


def test_packed_transport_lanes_match_the_matrix_oracle():
    # All 60 L x the six standard states: each lane of the packed sweep,
    # unpacked and reduced, is clifford.conjugate's u rho u^dag, its Born
    # lanes are born_probability's, and no lane that the sweep compares
    # reaches 2^(w-1), below which equal packings have equal lanes.
    states = wigner.standard_test_states()
    units = [clifford.unitary_for(L) for L in symplectic.enumerate_group()]
    w, entries = wigner._packed_states(states, units)
    den = lcm(*(rho.den for rho in states))

    def lanes(packed):  # per state, its lane of each packed integer
        return list(zip(*(unpack(x, w, len(states)) for x in packed)))

    assert lanes(entries) == [tuple(x * (den // rho.den) for x in rho.re + rho.im)
                              for rho in states]
    before = lanes(clifford.born_numerators(entries))
    widest = 0
    for u in units:
        conj = wigner._conjugated(u, entries)
        after, scale = lanes(clifford.born_numerators(conj)), u.den * u.den
        for rho, c, b, b0 in zip(states, lanes(conj), after, before):
            rho2 = clifford.conjugate(u, rho)
            assert Matrix._reduced(4, c[:16], c[16:], scale * den) == rho2
            for (bden, nums), lane, d in ((clifford.born_probability(rho2), b, scale * den),
                                          (clifford.born_probability(rho), b0, den)):
                assert [Fraction(x, 4 * d) for x in lane] == [Fraction(x, bden) for x in nums]
            widest = max(widest, *map(abs, c + b), *(abs(x) * scale for x in b0))
    assert 0 < widest < 1 << (w - 1)


def test_packed_marginal_lanes_match_the_matrix_oracle():
    # The six standard states, GENERIC and a state read from 100-digit parts,
    # in the 12 canonical frames: each lane of the packed table, over 16 den,
    # is wigner_table's values; each lane of each packed displacement is the
    # dense D_beta rho D_beta^dag, with born_probability's Born lanes; and no
    # lane that the marginals sweep compares reaches 2^(w-1).
    top = 10**MAX_JSON_DIGITS
    wide = wigner.density_from_vector(
        [Scalar(Fraction(top - k, top - k - 1), Fraction(top - k - 2, top - k - 3))
         for k in (1, 5, 9, 13)])
    states = (*wigner.standard_test_states(), GENERIC, wide)
    points = gf4.all_points()
    units = [clifford.displacement(beta) for beta in points]
    w, entries = wigner._packed_states(states, units)
    den = lcm(*(rho.den for rho in states))

    def lanes(packed):  # per state, its lane of each packed integer
        return list(zip(*(unpack(x, w, len(states)) for x in packed)))

    before, trace = clifford.born_numerators(entries), sum(entries[:16:5])
    widest = 0
    for f in phasespace.canonical_shift_vectors():
        table = wigner._packed_table(before, trace, f)
        sums = [sum(map(table.__getitem__, line)) for line in wigner._line_positions()]
        for rho, lane in zip(states, lanes(table)):
            values = wigner.wigner_table(rho, f).values
            assert [Fraction(x, 16 * den) for x in lane] == [values[a] for a in points]
        widest = max(widest, *(abs(x) for lane in lanes(table) + lanes(sums) for x in lane))
    for u in units:
        conj, scale = wigner._conjugated(u, entries), u.den * u.den * den
        for rho, c, b in zip(states, lanes(conj), lanes(clifford.born_numerators(conj))):
            rho2 = u @ rho @ u.dagger()
            assert Matrix._reduced(4, c[:16], c[16:], scale) == rho2
            bden, nums = clifford.born_probability(rho2)
            assert [Fraction(x, 4 * scale) for x in b] == [Fraction(x, bden) for x in nums]
            widest = max(widest, *map(abs, c + b))
    assert 0 < widest < 1 << (w - 1)


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
    # covariant's line route against reference.tables_covariant.  Each right
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
                    wigner.covariant(rho, u, case[1], [(f, case[0])], "step")
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
    assert rep["canonical_covers_e0"]
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


def test_verify_marginals_reads_wigner_table_in_the_first_frame(capsys, monkeypatch):
    # wigner_table off at one point, for the first state in the first frame
    # alone: only the packed table's cross-check with wigner_table sees it,
    # and the per-state replay names the first line through that point.
    rho, f = wigner.standard_test_states()[0], phasespace.canonical_shift_vectors()[0]
    table = wigner.wigner_table
    values = table(rho, f).values
    bad = table_of(f, {**values, (0, 0): values[(0, 0)] + 1})
    monkeypatch.setattr(wigner, "wigner_table",
                        lambda r, g: bad if (r, g) == (rho, f) else table(r, g))
    assert cli.main(["verify", "marginals"]) == 1
    assert capsys.readouterr() == (
        "", "FAIL marginals: marginal failed at line (n=0, k=0), f=(0, 0, 0, 0, 0)\n")


def test_marginal_check_reports_the_first_failure_in_frame_order(monkeypatch):
    # Frame by frame, its 20 line checks and then its 16 displacements.  Three
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
        wigner.marginal_check(GENERIC, f0, f1)
    assert str(error.value) == f"{name} is not covariant in frame f={f0}"
    with pytest.raises(AssertionError, match=r"^marginal failed at line \(n=0, k=0\)"):
        wigner.marginal_check(GENERIC, f1)
    _, check = wigner._displacement(GENERIC, points[8])
    check(f0, f0)
    with pytest.raises(AssertionError, match=r" is not covariant in frame f=\(1, 0, 1, 0, 2\)$"):
        check(f1, f1)


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
