"""Lines, striations, and the index calculus."""

import itertools

import pytest

from qphase4 import gf4, phasespace, symplectic
from qphase4.gf4 import ELEMENTS, OMEGA, OMEGA_BAR
from qphase4.phasespace import (
    ZERO_INDEX,
    canonical_shift_vectors,
    compose_frame,
    displace_index,
    index_operator,
    line_points,
    point_index,
    qp_vectors,
    shift_vector,
)
from reference import apply_index_operator, index_operator_by_search

G = ((OMEGA_BAR, 0), (0, OMEGA))


def point_index_by_membership(alpha):
    """Index computed by direct line-membership search (test oracle)."""
    out = []
    for n in range(5):
        ks = [k for k in ELEMENTS if alpha in line_points(n, k)]
        if len(ks) != 1:
            raise AssertionError(f"{alpha} lies on {len(ks)} lines of striation {n}")
        out.append(ks[0])
    return tuple(out)


def test_vertical_lines():
    assert line_points(0, OMEGA) == {(OMEGA, p) for p in ELEMENTS}


def test_ray_of_slope_omega():
    expect = {(0, 0), (1, OMEGA), (OMEGA, OMEGA_BAR), (OMEGA_BAR, 1)}
    rays = {n: line_points(n, 0) for n in range(5)}
    matching = [n for n, pts in rays.items() if pts == expect]
    assert len(matching) == 1


def test_striations_partition_the_plane():
    for n in range(5):
        seen = set()
        for k in ELEMENTS:
            pts = line_points(n, k)
            assert len(pts) == 4
            assert not (seen & pts)
            seen |= pts
        assert len(seen) == 16


def test_lines_satisfy_a_common_linear_equation():
    for n in range(5):
        for k in ELEMENTS:
            pts = sorted(line_points(n, k))
            # brute-force a nonzero (a, b, c) satisfied by all four points
            found = False
            for a in ELEMENTS:
                for b in ELEMENTS:
                    if a == b == 0:
                        continue
                    cs = {
                        gf4.add(gf4.mul(a, q), gf4.mul(b, p)) for q, p in pts
                    }
                    if len(cs) == 1:
                        found = True
            assert found


def test_qp_vectors_match_printed_values():
    q, p = qp_vectors()
    assert q == (1, 0, 1, OMEGA_BAR, OMEGA_BAR)
    assert p == (0, 1, OMEGA_BAR, OMEGA_BAR, 1)
    assert (q[0], p[0]) == (1, 0)


def test_point_index_example():
    assert point_index((1, OMEGA)) == (1, OMEGA, 0, OMEGA, 1)
    assert point_index((0, 0)) == ZERO_INDEX


def test_point_index_matches_membership_oracle():
    for alpha in gf4.all_points():
        assert point_index(alpha) == point_index_by_membership(alpha)


def test_displace_index():
    q, p = qp_vectors()
    assert displace_index(ZERO_INDEX, (1, 0)) == q
    for alpha in gf4.all_points():
        idx = point_index(alpha)
        for beta in gf4.all_points():
            moved = displace_index(idx, beta)
            assert moved == point_index(gf4.vec_add(alpha, beta))
            assert displace_index(moved, beta) == idx


def test_index_operator_h1():
    s = index_operator(symplectic.shear(1))
    assert s == (
        (1, 0, 0, 0, 0),
        (0, 0, 0, OMEGA, 0),
        (0, 0, 0, 0, OMEGA_BAR),
        (0, OMEGA_BAR, 0, 0, 0),
        (0, 0, OMEGA, 0, 0),
    )


def test_h1_striation_permutation():
    s = index_operator(symplectic.shear(1))
    images = {n: next(m for m in range(5) if s[m][n] != 0) for n in range(5)}
    assert images == {0: 0, 1: 3, 2: 4, 3: 1, 4: 2}


def test_index_operator_r_is_cyclic_shift():
    s = index_operator(symplectic.R)
    expect = tuple(
        tuple(1 if n == (m - 1) % 5 else 0 for n in range(5)) for m in range(5)
    )
    assert s == expect
    assert index_operator(symplectic.IDENTITY) == tuple(
        tuple(1 if m == n else 0 for n in range(5)) for m in range(5)
    )


def test_index_operator_monomial_and_functorial():
    group = symplectic.enumerate_group()
    for L in group:
        s = index_operator(L)
        for row in s:
            assert sum(1 for v in row if v != 0) == 1
        for n in range(5):
            assert sum(1 for m in range(5) if s[m][n] != 0) == 1
    for l1 in group:
        s1 = index_operator(l1)
        for l2 in group:
            s12 = index_operator(symplectic.product(l1, l2))
            s2 = index_operator(l2)
            composed = tuple(
                tuple(
                    _dot_row_col(s1, s2, m, n) for n in range(5)
                )
                for m in range(5)
            )
            assert composed == s12


def _dot_row_col(a, b, m, n):
    acc = 0
    for j in range(5):
        acc = gf4.add(acc, gf4.mul(a[m][j], b[j][n]))
    return acc


def test_index_operator_acts_on_point_indices():
    for L in symplectic.enumerate_group():
        s = index_operator(L)
        for alpha in gf4.all_points():
            assert apply_index_operator(s, point_index(alpha)) == point_index(
                gf4.mat_vec(L, alpha)
            )


def test_index_operator_rejects_non_symplectic():
    with pytest.raises(ValueError):
        index_operator(((1, 0), (0, OMEGA)))


@pytest.mark.parametrize("name", ["point_index", "qp_vectors"])
def test_index_operator_row_needs_exactly_one_fit(monkeypatch, name):
    q, p = qp_vectors()
    fake = {
        # The zero index is s (Q_n, P_n) for no striation n and s != 0.
        "point_index": lambda alpha: ZERO_INDEX,
        # Striations 0 and 1 share (Q_n, P_n), so row 0 fits both.
        "qp_vectors": lambda: ((q[0], q[0], *q[2:]), (p[0], p[0], *p[2:])),
    }[name]
    index_operator.cache_clear()
    monkeypatch.setattr(phasespace, name, fake)
    with pytest.raises(AssertionError, match="row 0 not well defined"):
        index_operator(symplectic.IDENTITY)


def test_shift_vectors_of_generators():
    assert shift_vector(symplectic.shear(0)) == ZERO_INDEX
    assert shift_vector(symplectic.shear(1)) == (1, 0, 1, 0, OMEGA)
    assert shift_vector(symplectic.shear(OMEGA)) == (
        OMEGA,
        1,
        OMEGA_BAR,
        OMEGA,
        OMEGA_BAR,
    )
    assert shift_vector(symplectic.shear(OMEGA_BAR)) == (OMEGA_BAR,) * 5
    assert shift_vector(symplectic.R) == ZERO_INDEX
    assert shift_vector(G) == (0, OMEGA, 1, 0, 1)


def test_shift_vector_rotation_rules():
    s_r = index_operator(symplectic.R)
    for L in symplectic.enumerate_group():
        f = shift_vector(L)
        assert shift_vector(symplectic.product(L, symplectic.R)) == f
        assert shift_vector(
            symplectic.product(symplectic.R, L)
        ) == apply_index_operator(s_r, f)


def test_compose_frame():
    f_g = shift_vector(G)
    assert compose_frame(f_g, G) == (0, 1, 0, OMEGA, 1)
    assert compose_frame(ZERO_INDEX, G) == f_g


def test_index_operator_matches_the_search_on_every_L():
    # index_operator reads each row's (n, s) from its 15-pair table; the
    # reference tries all 15 (n, s) against every row.
    for L in symplectic.enumerate_group():
        assert index_operator(L) == index_operator_by_search(L)


def test_compose_frame_matches_the_index_operator_on_every_frame():
    # compose_frame reads each row's one nonzero entry, once per L, off gf4's
    # tables; the reference multiplies and adds all 25 entries of S_L, found
    # by search.
    searched = {L: index_operator_by_search(L) for L in symplectic.enumerate_group()}
    for f in itertools.product(ELEMENTS, repeat=5):
        for L, s_l in searched.items():
            expect = phasespace.index_add(apply_index_operator(s_l, f), shift_vector(L))
            assert compose_frame.__wrapped__(f, L) == expect


def test_compose_frame_matches_product_shift_exhaustively():
    group = symplectic.enumerate_group()
    for l1 in group:
        f1 = shift_vector(l1)
        for l2 in group:
            assert compose_frame(f1, l2) == shift_vector(symplectic.product(l2, l1))


def test_canonical_shift_vectors():
    vecs = canonical_shift_vectors()
    assert len(vecs) == 12
    assert ZERO_INDEX in vecs
    s_r = index_operator(symplectic.R)
    assert {apply_index_operator(s_r, f) for f in vecs} == set(vecs)
