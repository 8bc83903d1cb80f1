"""Gaussian-rational scalar and matrix arithmetic."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from qphase4 import clifford, gf4, symplectic
from qphase4.exact import (MAX_JSON_DIGITS, Family, Matrix, Scalar, dot, lane_width, norm_sq,
                           outer, pack, proportional, vector)
from reference import I_POWERS, add, conj, inner, mul, neg, scalar_sum, scaled, sub, unpack


def test_scalar_ring_ops():
    a = Scalar(Fraction(1, 2), Fraction(-1, 3))
    b = Scalar(2, 1)
    assert add(a, b) == Scalar(Fraction(5, 2), Fraction(2, 3))
    assert sub(a, b) == Scalar(Fraction(-3, 2), Fraction(-4, 3))
    assert mul(a, b) == Scalar(
        Fraction(1, 2) * 2 + Fraction(1, 3), Fraction(1, 2) - Fraction(2, 3)
    )
    assert conj(conj(a)) == a
    assert add(neg(a), a) == Scalar(0)


def test_matrix_basics():
    i2 = Matrix.identity(2)
    x = Matrix([[0, 1], [1, 0]])
    assert x @ x == i2
    assert x.dagger() == x
    assert x.trace() == Scalar(0)
    assert x.is_unitary() and x.is_hermitian()
    y = Matrix([[Scalar(0), Scalar(0, -1)], [Scalar(0, 1), Scalar(0)]])
    assert (x @ y).trace() == Scalar(0)
    assert y.is_hermitian()


def test_kron_dimensions_and_values():
    x = Matrix([[0, 1], [1, 0]])
    z = Matrix([[1, 0], [0, -1]])
    xz = x.kron(z)
    assert xz.n == 4
    assert xz.rows[0][2] == Scalar(1)
    assert xz.rows[1][3] == Scalar(-1)


def test_vector_helpers():
    v = vector([1, 1, 0, 0])
    assert norm_sq(v) == 2
    assert inner(v, v) == Scalar(2)
    m = outer(v, v)
    assert m.rows[0][1] == Scalar(1)


def test_proportional_phases():
    x = Matrix([[0, 1], [1, 0]])
    for k in range(4):
        assert proportional(scaled(x, I_POWERS[k]), x) == k
    z = Matrix([[1, 0], [0, -1]])
    assert proportional(x, z) is None
    assert proportional(scaled(x, Scalar(2)), x) is None
    with pytest.raises(ValueError):
        proportional(scaled(x, Scalar(0)), scaled(z, Scalar(0)))


def test_json_roundtrip():
    m = Matrix([[Scalar(Fraction(1, 2), Fraction(-3, 4)), Scalar(0)], [1, Scalar(0, 1)]])
    assert Matrix.from_json(m.to_json()) == m


# --- integer numerators against a Scalar reference ----------------------------

def _random_matrix(rng, n=4):
    """Negative parts and mixed denominators, so sums and products cancel."""
    def part():
        return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, 12)))
    return Matrix([[Scalar(part(), part()) for _ in range(n)] for _ in range(n)])


def _ref_proportional(a, b):
    if all(x.is_zero() for row in a.rows + b.rows for x in row):
        raise ValueError
    return next((k for k, phase in enumerate(I_POWERS)
                 if all(x == mul(phase, y) for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))),
                None)


def _assert_canonical(m):
    assert m.den > 0 and gcd(m.den, *m.re, *m.im) == 1
    assert m == Matrix(m.rows) and hash(m) == hash(Matrix(m.rows))


def test_integer_arithmetic_matches_scalar_reference():
    rng = random.Random(5)
    zero, ident = Matrix.identity(4).scaled(0), Matrix.identity(4)
    pool = [zero, ident, ident.scaled(Fraction(-3, 2)), *(_random_matrix(rng) for _ in range(12))]
    for a in pool:
        c = Scalar(Fraction(rng.randint(-9, 9), 6), Fraction(rng.randint(-9, 9), 4))
        small = _random_matrix(rng, 2)
        results = [
            (-a, [[neg(x) for x in row] for row in a.rows]),
            (scaled(a, c), [[mul(c, x) for x in row] for row in a.rows]),
            (a.scaled(Fraction(-4, 6)), [[mul(Scalar(Fraction(-2, 3)), x) for x in row] for row in a.rows]),
            (a.dagger(), [[conj(x) for x in col] for col in zip(*a.rows)]),
            (small.kron(a), [[mul(x, y) for x in ra for y in rb] for ra in small.rows for rb in a.rows]),
        ]
        for b in pool:
            results += [
                (a @ b, [[scalar_sum(map(mul, row, col)) for col in zip(*b.rows)] for row in a.rows]),
                (a + b, [list(map(add, ra, rb)) for ra, rb in zip(a.rows, b.rows)]),
                (a - b, [list(map(sub, ra, rb)) for ra, rb in zip(a.rows, b.rows)]),
            ]
        for got, expect in results:
            assert got.rows == tuple(map(tuple, expect))
            _assert_canonical(got)
        assert a.trace() == scalar_sum(a.rows[i][i] for i in range(4))
        u, v = _random_matrix(rng).rows[0], _random_matrix(rng).rows[1]
        assert inner(u, v) == scalar_sum(mul(conj(x), y) for x, y in zip(u, v))
        assert norm_sq(u) == sum(x.re * x.re + x.im * x.im for x in u)
        assert outer(u, v).rows == tuple(tuple(mul(x, conj(y)) for y in v) for x in u)
        for b in (zero, ident, a, *(scaled(a, phase) for phase in I_POWERS), a.scaled(2),
                  _random_matrix(rng)):
            for x, y in ((a, b), (b, a)):
                try:
                    expect = _ref_proportional(x, y)
                except ValueError:
                    with pytest.raises(ValueError):
                        proportional(x, y)
                else:
                    assert proportional(x, y) == expect


def test_proportional_reads_the_phase_off_the_numerators():
    group = symplectic.enumerate_group()
    units = {L: clifford.unitary_for(L) for L in group}
    # U_{L1} U_{L2} against U_{L1 L2}: all 3600 ordered pairs.
    for l1, l2 in product(group, repeat=2):
        a, b = units[l1] @ units[l2], units[symplectic.product(l1, l2)]
        assert proportional(a, b) == _ref_proportional(a, b) is not None
    for u in units.values():
        for k, phase in enumerate(I_POWERS):
            assert proportional(scaled(u, phase), u) == _ref_proportional(scaled(u, phase), u) == k
    # Different denominators, then unrelated matrices with equal ones.
    u, d = units[symplectic.R], clifford.displacement((1, 0))
    other = [(u, u.scaled(Fraction(1, 3))), (u.scaled(2), u), (u, d)]
    same = [(u, units[symplectic.product(symplectic.R, symplectic.R)]),
            (d, clifford.displacement((0, 1))), (Matrix.identity(4), Matrix.identity(4).scaled(0))]
    assert [a.den == b.den for a, b in other + same] == [False] * 3 + [True] * 3
    for a, b in other + same:
        assert proportional(a, b) is proportional(b, a) is _ref_proportional(a, b) is None


def _interleaved(re, im):
    return [x for pair in zip(re, im) for x in pair]


def _assert_packed_product(a, b):
    """Every lane of the packed product at a's and b's own lane width is an
    entry of a @ b over a.den * b.den; cross-multiplied with the packed dense
    product at the width of all three, as the rep sweep compares them."""
    c = a @ b
    scale = a.den * b.den // c.den
    w = lane_width([a, b])
    lanes = unpack(dot(a.packed_left(w), b.packed_right(w)), w, 32)
    assert lanes == [x * scale for x in _interleaved(c.re, c.im)]
    # c and i c, packed as the rep sweep packs its targets: c's right rows 8 lanes apart.
    w = lane_width([a, b, c])
    rows = c.packed_right(w)
    p, ip = pack(rows[::2], 8 * w), pack(rows[1::2], 8 * w)
    assert unpack(p, w, 32) == _interleaved(c.re, c.im)
    assert unpack(ip, w, 32) == _interleaved([-x for x in c.im], c.re)
    assert dot(a.packed_left(w), b.packed_right(w)) * c.den == p * a.den * b.den


# One pair at the JSON bound: its lanes are over 40,000 bits wide, about 1 s a pair.
@pytest.mark.parametrize("digits, pairs", [(1, 6), (3, 6), (MAX_JSON_DIGITS, 1)])
def test_packed_product_is_the_packed_dense_product(digits, pairs):
    rng = random.Random(digits)
    bound = 10**digits

    def part():  # numerator and denominator of up to `digits` digits, as JSON allows
        return Fraction(rng.randrange(1 - bound, bound), rng.randrange(1, bound))

    for _ in range(pairs):
        a, b = (Matrix([[Scalar(part(), part()) for _ in range(4)] for _ in range(4)])
                for _ in range(2))
        _assert_packed_product(a, b)
    # Every lane of the product at its largest: 4 terms of 2 m^2, all one sign.
    m = bound - 1
    a = Matrix([[Scalar(m, -m)] * 4] * 4)
    b = Matrix([[Scalar(m, m)] * 4] * 4)
    _assert_packed_product(a, b)
    _assert_packed_product(a, -b)
    assert (a @ b).re == (8 * m * m,) * 16


@pytest.mark.parametrize("digits", [1, 3])
def test_family_chunk_keys_hold_every_product_and_phase(digits):
    # Four random matrices over denominators 1, 2, 3 and 4 (so d = 12) as one
    # exact.Family, read through its one chunk reader: chunk j of a left
    # factor a's dot, read back from its key, is a @ m_j over d^2 in 32
    # lanes, none reaching 2^(w-1); the keys of i^k I are phases(j)'s for
    # k = 0..3, and those of a random a are none of them.
    rng = random.Random(digits)
    bound = 10**digits

    def random_matrix(den):
        return Matrix([[Scalar(Fraction(rng.randrange(1 - bound, bound), den),
                               Fraction(rng.randrange(1 - bound, bound), den))
                        for _ in range(4)] for _ in range(4)])

    family_matrices = [random_matrix(den) for den in (1, 2, 3, 4)]
    a = random_matrix(12)
    units = [scaled(Matrix.identity(4), i_k) for i_k in I_POWERS]
    w = lane_width([*family_matrices, a, *units])
    family = Family.of(family_matrices, w)
    assert family.d == a.den == 12
    for k, unit in enumerate(units):
        assert [family.phases(j)[key] for j, key in enumerate(family.products(unit))] == [k] * 4
    half = 1 << (32 * w - 1)
    for j, (m, key) in enumerate(zip(family_matrices, family.products(a))):
        lanes = unpack(int.from_bytes(key, "little") - half, w, 32)
        dense = a @ m
        assert lanes == [x * (144 // dense.den) for x in _interleaved(dense.re, dense.im)]
        assert max(map(abs, lanes)) < 1 << (w - 1)
        assert all(key not in family.phases(i) for i in range(4))


def test_equal_values_have_one_form():
    half = Matrix([[Fraction(1, 2)]])
    assert Matrix([[Fraction(2, 4)]]) == half and hash(Matrix([[Fraction(2, 4)]])) == hash(half)
    assert (half + half).den == 1 and (half - half) == Matrix([[0]])
    assert Matrix.identity(2).scaled(Fraction(6, 4)) == Matrix([[Fraction(3, 2), 0], [0, Fraction(3, 2)]])


def test_unitaries_and_displacements_have_denominator_at_most_2():
    for L in symplectic.enumerate_group():
        assert clifford.unitary_for(L).den <= 2
    for beta in gf4.all_points():
        assert clifford.displacement(beta).den <= 2
