"""Field arithmetic, slopes, and the two-qubit basis expansion."""

import pytest

from qphase4 import gf4
from qphase4.gf4 import ELEMENTS, OMEGA, OMEGA_BAR


def unexpand(x1, x2):
    """Inverse of gf4.expand: x1*W + x2*w."""
    return gf4.add(gf4.mul(x1, OMEGA_BAR), gf4.mul(x2, OMEGA))


def test_addition_table_values():
    assert gf4.add(OMEGA, OMEGA_BAR) == 1
    assert gf4.add(1, 1) == 0
    assert gf4.add(0, OMEGA) == OMEGA


def test_multiplication_table_values():
    assert gf4.mul(OMEGA, OMEGA) == OMEGA_BAR
    assert gf4.mul(OMEGA, OMEGA_BAR) == 1
    assert gf4.mul(1, OMEGA_BAR) == OMEGA_BAR


def test_field_axioms_exhaustive():
    for a in ELEMENTS:
        assert gf4.add(a, a) == 0
        assert gf4.add(a, 0) == a
        assert gf4.mul(a, 1) == a
        for b in ELEMENTS:
            assert gf4.add(a, b) == gf4.add(b, a)
            assert gf4.mul(a, b) == gf4.mul(b, a)
            for c in ELEMENTS:
                assert gf4.add(gf4.add(a, b), c) == gf4.add(a, gf4.add(b, c))
                assert gf4.mul(gf4.mul(a, b), c) == gf4.mul(a, gf4.mul(b, c))
                assert gf4.mul(a, gf4.add(b, c)) == gf4.add(
                    gf4.mul(a, b), gf4.mul(a, c)
                )


def test_multiplicative_inverses():
    for a in ELEMENTS[1:]:
        assert gf4.mul(a, gf4.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf4.inv(0)


def test_nonzero_elements_cyclic_of_order_3():
    powers = {1}
    x = OMEGA
    for _ in range(2):
        powers.add(x)
        x = gf4.mul(x, OMEGA)
    assert x == 1
    assert powers == {1, OMEGA, OMEGA_BAR}


def test_expand_bijection():
    assert gf4.expand(OMEGA_BAR) == (1, 0)
    assert gf4.expand(1) == (1, 1)  # w~ + w == 1
    assert gf4.expand(0) == (0, 0)
    seen = set()
    for x in ELEMENTS:
        x1, x2 = gf4.expand(x)
        assert unexpand(x1, x2) == x
        seen.add((x1, x2))
    assert len(seen) == 4


def test_matrix_operations():
    h1 = ((1, 0), (1, 1))
    assert gf4.det(h1) == 1
    r = ((OMEGA_BAR, 1), (1, 0))
    assert gf4.mat_vec(r, (1, 0)) == (OMEGA_BAR, 1)
    assert gf4.inverse(gf4.MAT_IDENTITY) == gf4.MAT_IDENTITY
    with pytest.raises(ValueError):
        gf4.inverse(((1, 1), (1, 1)))


def test_matrix_inverse_roundtrip():
    import itertools

    for entries in itertools.product(ELEMENTS, repeat=4):
        m = ((entries[0], entries[1]), (entries[2], entries[3]))
        if gf4.det(m) == 0:
            continue
        assert gf4.mat_mul(m, gf4.inverse(m)) == gf4.MAT_IDENTITY


def test_matrix_products_follow_the_field_tables():
    # mat_mul and mat_vec index the tables directly; add and mul define them.
    import itertools

    mats = [((a, b), (c, d)) for a, b, c, d in itertools.product(ELEMENTS, repeat=4)]
    for a in mats:
        for v in itertools.product(ELEMENTS, repeat=2):
            assert gf4.mat_vec(a, v) == tuple(
                gf4.add(gf4.mul(a[i][0], v[0]), gf4.mul(a[i][1], v[1])) for i in range(2))
        for b in mats:
            assert gf4.mat_mul(a, b) == tuple(
                tuple(gf4.add(gf4.mul(a[i][0], b[0][j]), gf4.mul(a[i][1], b[1][j]))
                      for j in range(2)) for i in range(2))


def test_tokens_roundtrip():
    assert [gf4.to_token(a) for a in ELEMENTS] == ["0", "1", "w", "W"]
    assert gf4.to_ascii(OMEGA_BAR) == "w~"
    for a in ELEMENTS:
        assert gf4.from_token(gf4.to_token(a)) == a
    with pytest.raises(ValueError):
        gf4.from_token("z")
