"""Gaussian-rational scalar and matrix arithmetic."""

import random
from fractions import Fraction
from math import gcd

import pytest

from qphase4 import clifford, gf4, symplectic
from qphase4.exact import (
    I_POWERS,
    Matrix,
    Scalar,
    inner,
    mat_vec,
    norm_sq,
    outer,
    proportional,
    vector,
)


def test_scalar_ring_ops():
    a = Scalar(Fraction(1, 2), Fraction(-1, 3))
    b = Scalar(2, 1)
    assert a + b == Scalar(Fraction(5, 2), Fraction(2, 3))
    assert a * b == Scalar(
        Fraction(1, 2) * 2 + Fraction(1, 3), Fraction(1, 2) - Fraction(2, 3)
    )
    assert a.conj().conj() == a
    assert -a + a == Scalar(0)


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
    assert mat_vec(Matrix.identity(4), v) == v


def test_proportional_phases():
    x = Matrix([[0, 1], [1, 0]])
    for k in range(4):
        from qphase4.exact import I_POWERS

        assert proportional(x.scaled(I_POWERS[k]), x) == k
    z = Matrix([[1, 0], [0, -1]])
    assert proportional(x, z) is None
    assert proportional(x.scaled(Scalar(2)), x) is None
    with pytest.raises(ValueError):
        proportional(x.scaled(Scalar(0)), z.scaled(Scalar(0)))


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
                 if all(x == phase * y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))),
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
            (-a, [[-x for x in row] for row in a.rows]),
            (a.scaled(c), [[c * x for x in row] for row in a.rows]),
            (a.scaled(Fraction(-4, 6)), [[Scalar(Fraction(-2, 3)) * x for x in row] for row in a.rows]),
            (a.dagger(), [[x.conj() for x in col] for col in zip(*a.rows)]),
            (small.kron(a), [[x * y for x in ra for y in rb] for ra in small.rows for rb in a.rows]),
        ]
        for b in pool:
            results += [
                (a @ b, [[sum((x * y for x, y in zip(row, col)), Scalar(0)) for col in zip(*b.rows)]
                         for row in a.rows]),
                (a + b, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]),
                (a - b, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]),
            ]
        for got, expect in results:
            assert got.rows == tuple(map(tuple, expect))
            _assert_canonical(got)
        assert a.trace() == sum((a.rows[i][i] for i in range(4)), Scalar(0))
        u, v = _random_matrix(rng).rows[0], _random_matrix(rng).rows[1]
        assert mat_vec(a, u) == tuple(sum((x * y for x, y in zip(row, u)), Scalar(0))
                                      for row in a.rows)
        assert inner(u, v) == sum((x.conj() * y for x, y in zip(u, v)), Scalar(0))
        assert norm_sq(u) == sum(x.re * x.re + x.im * x.im for x in u)
        assert outer(u, v).rows == tuple(tuple(x * y.conj() for y in v) for x in u)
        for b in (zero, ident, a, *(a.scaled(phase) for phase in I_POWERS), a.scaled(2),
                  _random_matrix(rng)):
            for x, y in ((a, b), (b, a)):
                try:
                    expect = _ref_proportional(x, y)
                except ValueError:
                    with pytest.raises(ValueError):
                        proportional(x, y)
                else:
                    assert proportional(x, y) == expect


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
