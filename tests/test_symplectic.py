"""Group enumeration and the canonical r/x/s decomposition."""

import itertools

import pytest

from qphase4 import gf4, symplectic
from qphase4.gf4 import ELEMENTS, OMEGA, OMEGA_BAR
from reference import group_by_mat_mul, product_table

G = ((OMEGA_BAR, 0), (0, OMEGA))


def brute_force_group():
    out = set()
    for entries in itertools.product(ELEMENTS, repeat=4):
        m = ((entries[0], entries[1]), (entries[2], entries[3]))
        if gf4.det(m) == 1:
            out.add(m)
    return out


def test_shears():
    assert symplectic.shear(0) == symplectic.IDENTITY
    assert symplectic.shear(1) == ((1, 0), (1, 1))
    for x in ELEMENTS:
        for y in ELEMENTS:
            assert symplectic.product(
                symplectic.shear(x), symplectic.shear(y)
            ) == symplectic.shear(gf4.add(x, y))


def test_rotation_order_five():
    powers = symplectic.R_POWERS
    assert powers[1] == symplectic.R
    assert symplectic.product(powers[4], symplectic.R) == symplectic.IDENTITY
    for n in range(1, 5):
        assert powers[n] != symplectic.IDENTITY


def test_rotation_fixes_omega_bar_shear():
    h = symplectic.shear(OMEGA_BAR)
    assert symplectic.product(symplectic.product(symplectic.R, h), symplectic.R) == h


def test_enumeration_matches_brute_force():
    group = symplectic.enumerate_group()
    assert len(group) == 60
    assert len(set(group)) == 60
    assert symplectic.IDENTITY in group
    assert set(group) == brute_force_group()


def test_enumeration_is_the_mat_mul_spelling_in_order():
    # Built from the canonical triples through Decomposition.matrix: the same
    # 60 matrices, in the same order, as the products spelled out directly.
    assert symplectic.enumerate_group() == group_by_mat_mul()


def test_cayley_table_is_the_product_on_every_pair():
    # Composed from four left multiplications, it agrees with the 3600
    # products symplectic.product gives.
    table = symplectic.cayley()
    assert table == product_table()
    assert all(sorted(row) == list(range(60)) for row in table)


def test_group_closure_and_inverses():
    group = set(symplectic.enumerate_group())
    for a in group:
        assert symplectic.product(a, symplectic.inverse(a)) == symplectic.IDENTITY
        for b in group:
            assert symplectic.product(a, b) in group


def test_determinant_multiplicative():
    group = symplectic.enumerate_group()
    for a in group[:10]:
        for b in group:
            assert gf4.det(symplectic.product(a, b)) == gf4.mul(gf4.det(a), gf4.det(b))


def test_decompose_example_matrix():
    d = symplectic.decompose(G)
    assert (d.r, d.x, d.s) == (2, 1, 1)


def test_decompose_identity():
    d = symplectic.decompose(symplectic.IDENTITY)
    assert (d.r, d.x, d.s) == (0, 0, 0)


def test_decompose_roundtrip_all_sixty():
    triples = set()
    for L in symplectic.enumerate_group():
        d = symplectic.decompose(L)
        assert d.matrix() == L
        if d.x in (0, OMEGA_BAR):
            assert d.r == 0
        triples.add((d.r, d.x, d.s))
    assert len(triples) == 60


def test_canonical_form_is_complete_over_every_matrix():
    # decompose reads back the enumeration, so check it against every 2x2
    # matrix over GF(4): the 60 of det 1 are the group and factor canonically,
    # the other 196 are rejected.
    group = []
    for a, b, c, d in itertools.product(ELEMENTS, repeat=4):
        m = ((a, b), (c, d))
        if gf4.det(m) != 1:
            with pytest.raises(symplectic.DomainError):
                symplectic.decompose(m)
            continue
        group.append(m)
        dec = symplectic.decompose(m)
        assert dec.matrix() == m
        if dec.x in (0, OMEGA_BAR):
            assert dec.r == 0
    assert len(group) == 60
    assert set(group) == set(symplectic.enumerate_group())


def test_decompose_rejects_non_symplectic():
    with pytest.raises(ValueError):
        symplectic.decompose(((1, 0), (0, OMEGA)))


def test_inverse_of_diagonal():
    assert symplectic.inverse(G) == ((OMEGA, 0), (0, OMEGA_BAR))
    assert symplectic.product(
        symplectic.shear(1), symplectic.shear(1)
    ) == symplectic.IDENTITY


def test_text_rendering():
    assert symplectic.to_text(G) == "[[W,0],[0,w]]"
    assert str(symplectic.decompose(G)) == "R^2 H_1 R^1"
