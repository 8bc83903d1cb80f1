"""Exact helpers only the tests use: complex conjugation, the powers of i and
the Hermitian inner product, beside qphase4.exact's integer arithmetic."""

from fractions import Fraction

from qphase4.exact import Scalar, dot, numerators

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
