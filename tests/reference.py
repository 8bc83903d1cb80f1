"""Exact helpers only the tests use, beside qphase4's integer arithmetic:
the Gaussian-rational ring operations on Scalars (the library has none),
scaling a matrix by a Scalar, a matrix times a vector, complex conjugation,
the powers of i, the Hermitian inner product, a Wigner table from its
Fraction values, covariance by comparing moved tables, a table's Fraction
line sums, total and operator sum, the metaplectic check and the
shear-rotation-shear phases on dense products, and the 60 group elements
spelled out with gf4.mat_mul."""

from fractions import Fraction
from functools import reduce
from math import lcm

from qphase4 import clifford, gf4, phasespace, symplectic
from qphase4.exact import Matrix, Scalar, dot, numerators, proportional
from qphase4.wigner import WignerTable, wigner_table

#: i^k for k = 0..3.
I_POWERS = (Scalar(1), Scalar(0, 1), Scalar(-1), Scalar(0, -1))


def add(x: Scalar, y: Scalar) -> Scalar:
    return Scalar(x.re + y.re, x.im + y.im)


def sub(x: Scalar, y: Scalar) -> Scalar:
    return Scalar(x.re - y.re, x.im - y.im)


def mul(x: Scalar, y: Scalar) -> Scalar:
    return Scalar(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


def neg(x: Scalar) -> Scalar:
    return Scalar(-x.re, -x.im)


def scalar_sum(xs) -> Scalar:
    return reduce(add, xs, Scalar(0))


def conj(x: Scalar) -> Scalar:
    return Scalar(x.re, -x.im)


def scaled(m: Matrix, c: Scalar) -> Matrix:
    """c m on numerators: (x + iy)(cr + i ci) over m.den times c's denominator."""
    (cr,), (ci,), q = numerators([c])
    return Matrix._reduced(m.n, [x * cr - y * ci for x, y in zip(m.re, m.im)],
                           [x * ci + y * cr for x, y in zip(m.re, m.im)], m.den * q)


def mat_vec(m: Matrix, v) -> tuple:
    """m v by Scalar ring operations, row by row."""
    return tuple(scalar_sum(map(mul, row, v)) for row in m.rows)


def inner(u, v) -> Scalar:
    """Hermitian inner product <u|v>, conjugate-linear in the first slot,
    on the integer numerators of u and v."""
    (ur, ui, ud), (vr, vi, vd) = numerators(u), numerators(v)
    return Scalar(Fraction(dot(ur, vr) + dot(ui, vi), ud * vd),
                  Fraction(dot(ur, vi) - dot(ui, vr), ud * vd))


def table_of(f, values: dict) -> WignerTable:
    """The table of `values` (Vec2 -> Fraction) in frame f, in its integer
    form: the values' numerators over their least common denominator."""
    vals = [values[alpha] for alpha in gf4.all_points()]
    den = lcm(*(v.denominator for v in vals))
    return WignerTable(f, (den, tuple(v.numerator * (den // v.denominator) for v in vals)))


def tables_covariant(rho: Matrix, f, u: Matrix, g, move) -> bool:
    """The table route to wigner.covariant's verdict: the g-table of
    u rho u^dag, a dense product, equals the f-table of rho with the value at
    point i of gf4.all_points() moved to point move[i], compared by keys."""
    den, nums = wigner_table(u @ rho @ u.dagger(), g).key
    return (den, tuple(map(nums.__getitem__, move))) == wigner_table(rho, f).key


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


def dense_metaplectic_signs(unitary_for=clifford.unitary_for) -> dict:
    """(L, alpha) -> s with U_L D_alpha U_L^dag == s D_{L alpha}, from two dense
    products per pair; raises AssertionError with verify_metaplectic's text
    at the first pair where no sign fits."""
    signs = {}
    for L in symplectic.enumerate_group():
        u = unitary_for(L)
        for alpha in gf4.all_points():
            lhs = u @ clifford.displacement(alpha) @ u.dagger()
            rhs = clifford.displacement(gf4.mat_vec(L, alpha))
            if lhs not in (rhs, -rhs):
                raise AssertionError(f"metaplectic check failed for "
                                     f"L={symplectic.to_text(L)}, alpha={alpha}")
            signs[(L, alpha)] = 1 if lhs == rhs else -1
    return signs


def dense_rep_phases() -> dict:
    """(L1, L2) -> k with U_{L1} U_{L2} == i^k U_{L1 L2} (None where no power of
    i fits) over all 3600 ordered pairs in verify_projective_rep's order, each
    a dense @ product tested with proportional."""
    group, u = symplectic.enumerate_group(), clifford.unitary_for
    return {(l1, l2): proportional(u(l1) @ u(l2), u(symplectic.product(l1, l2)))
            for l1 in group for l2 in group}


def shear_rotation_shear_phases() -> dict:
    """(x, s, y) -> k with G_x U_R^s G_y == i^k U_{H_x R^s H_y}, the left side a
    dense product of the literal generator matrices and U_R, the right side
    unitary_for's; raises AssertionError where no power of i fits."""
    phases = {}
    for x in gf4.ELEMENTS:
        left = clifford._GENERATORS[x]
        for s in range(5):
            for y in gf4.ELEMENTS:
                L = symplectic.product(symplectic.shear(x), symplectic.product(
                    symplectic.R_POWERS[s], symplectic.shear(y)))
                k = proportional(left @ clifford._GENERATORS[y], clifford.unitary_for(L))
                if k is None:
                    raise AssertionError(f"shear-rotation-shear check failed for "
                                         f"x={x}, s={s}, y={y}")
                phases[(x, s, y)] = k
            left = left @ clifford._U_R
    return phases


def group_by_mat_mul() -> tuple:
    """The 60 symplectic matrices in enumerate_group's order, each R^r H_x R^s
    spelled out with gf4.mat_mul: H_0 R^s, H_W R^s, R^r H_1 R^s, R^r H_w R^s."""
    R_POWERS, shear = symplectic.R_POWERS, symplectic.shear
    out = []
    for x in (0, gf4.OMEGA_BAR):
        for s in range(5):
            out.append(gf4.mat_mul(shear(x), R_POWERS[s]))
    for x in (1, gf4.OMEGA):
        for r in range(5):
            for s in range(5):
                out.append(gf4.mat_mul(R_POWERS[r], gf4.mat_mul(shear(x), R_POWERS[s])))
    return tuple(out)
