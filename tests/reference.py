"""Exact helpers only the tests use: complex conjugation, the powers of i,
the Hermitian inner product, and a Wigner table's Fraction line sums, total
and operator sum, beside qphase4's integer arithmetic."""

from fractions import Fraction

from qphase4 import phasespace
from qphase4.exact import Matrix, Scalar, dot, numerators

#: i^k for k = 0..3.
I_POWERS = (Scalar(1), Scalar(0, 1), Scalar(-1), Scalar(0, -1))


def conj(x: Scalar) -> Scalar:
    return Scalar(x.re, -x.im)


def inner(u, v) -> Scalar:
    """Hermitian inner product <u|v>, conjugate-linear in the first slot,
    on the integer numerators of u and v."""
    (ur, ui, ud), (vr, vi, vd) = numerators(u), numerators(v)
    return Scalar(Fraction(dot(ur, vr) + dot(ui, vi), ud * vd),
                  Fraction(dot(ur, vi) - dot(ui, vr), ud * vd))


def total(table) -> Fraction:
    return sum(table.values.values(), Fraction(0))


def line_sum(table, n: int, k: int) -> Fraction:
    values = table.values
    return sum((values[pt] for pt in phasespace.line_points(n, k)), Fraction(0))


def operator_sum(table, ops) -> Matrix:
    """sum_alpha W_alpha A_alpha over a frame's operators alpha -> A_alpha."""
    values = table.values
    return sum((a.scaled(values[alpha]) for alpha, a in ops.items()),
               Matrix.identity(4).scaled(0))
