"""Wigner frames, tables, transport, and the classification of definitions.

A frame is fixed by a five-component GF(4) vector f: its phase point
operator at alpha is the sum of the projectors onto vector (f + I(alpha))_n
of each mutually unbiased basis n, minus the identity.  Tables are therefore
read off the 20 MUB Born probabilities and reconstruction sums the 20
projectors by line sums; frame() builds the 16 operators as the test oracle.
Performing the unitary of a symplectic matrix L is the same as permuting
Wigner values by L while replacing frame f with S_L f + f_L -- the
transport function computes both sides and insists they agree entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from . import clifford, gf4, phasespace, symplectic
from .exact import Matrix, Scalar, inner, mat_vec, norm_sq, outer, vector
from .gf4 import ELEMENTS, Vec2
from .phasespace import Index, ZERO_INDEX
from .symplectic import SympMat


class StateError(ValueError):
    """A rejected state: not four amplitudes, or not a 4x4 density operator."""


@dataclass(frozen=True)
class WignerFrame:
    """A shift vector f with its 16 phase point operators and line labels."""

    f: Index
    ops: dict  # Vec2 -> Matrix
    line_label: dict  # (n, k) -> (n, k + f_n)

    def origin(self) -> Matrix:
        return self.ops[(0, 0)]


@dataclass(frozen=True)
class WignerTable:
    """16 exact rational Wigner values together with their frame."""

    f: Index
    values: dict  # Vec2 -> Fraction

    def total(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))

    def line_sum(self, n: int, k: int) -> Fraction:
        return sum((self.values[pt] for pt in phasespace.line_points(n, k)), Fraction(0))


@lru_cache(maxsize=None)
def frame(f: Index) -> WignerFrame:
    """Build the frame for shift vector f; f == 0 is the standard frame."""
    a0 = -Matrix.identity(4)
    for n in range(5):
        b = clifford.mub_vector(n, f[n])
        a0 = a0 + outer(b, b).scaled(Fraction(1) / norm_sq(b))
    ops = {}
    for alpha in gf4.all_points():
        d = clifford.displacement(alpha)
        ops[alpha] = d @ a0 @ d.dagger()
    labels = {
        (n, k): (n, gf4.add(k, f[n])) for n in range(5) for k in ELEMENTS
    }
    return WignerFrame(f=f, ops=ops, line_label=labels)


def operator_index(a: Matrix) -> Index:
    """Index of a phase point operator: per basis, the unique unit overlap."""
    out = []
    for m in range(5):
        hits = []
        for k in ELEMENTS:
            b = clifford.mub_vector(m, k)
            val = inner(b, mat_vec(a, b))
            if val == Scalar(1):
                hits.append(k)
            elif not val.is_zero():
                raise ValueError("not a phase point operator")
        if len(hits) != 1:
            raise ValueError("not a phase point operator")
        out.append(hits[0])
    return tuple(out)


def density_from_vector(v) -> Matrix:
    """Density operator v v^dag / |v|^2 from an unnormalized state vector."""
    v = vector(v)
    if len(v) != 4:
        raise StateError(f"state vector must have 4 entries, got {len(v)}")
    n = norm_sq(v)
    if n == 0:
        raise StateError("zero vector is not a state")
    return outer(v, v).scaled(Fraction(1) / n)


MAXIMALLY_MIXED = Matrix.identity(4).scaled(Fraction(1, 4))


def validate_density(rho: Matrix) -> Matrix:
    """Exact trust-boundary check: Hermitian, trace 1, positive semidefinite.

    PSD is decided by nonnegativity of all principal minors, computed
    exactly.
    """
    if rho.n != 4:
        raise StateError("density operator must be 4x4")
    if not rho.is_hermitian():
        raise StateError("density operator is not Hermitian")
    if rho.trace() != Scalar(1):
        raise StateError("density operator does not have trace 1")
    for minor in _principal_minors(rho):
        if minor.im != 0 or minor.re < 0:
            raise StateError("density operator is not positive semidefinite")
    return rho


def _principal_minors(m: Matrix):
    for size in range(1, m.n + 1):
        for idx in combinations(range(m.n), size):
            yield _det([[m.rows[i][j] for j in idx] for i in idx])


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = Scalar(0)
    for j, head in enumerate(rows[0]):
        minor = [[r[c] for c in range(len(rows)) if c != j] for r in rows[1:]]
        term = head * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


# Bounded: the verify sweep's working set is 624 keys, so it never evicts,
# while a stream of fresh states would otherwise grow the cache (and peak
# memory) with every request served.  It stays an lru_cache because the
# benchmark reads wigner_table.cache_info().
@lru_cache(maxsize=1024)
def wigner_table(rho: Matrix, f: Index) -> WignerTable:
    """W^f_alpha = Tr(A^f_alpha rho) / 4: five of the 20 Born probabilities
    (basis n, vector (f + I(alpha))_n) minus Tr(rho), over 4.  The projectors
    are informationally complete, so a non-Hermitian rho raises ValueError."""
    prob = {(n, k): clifford.born_probability(rho, clifford.mub_vector(n, k))
            for n in range(5) for k in ELEMENTS}
    trace = rho.trace().re
    values = {}
    for alpha in gf4.all_points():
        idx = phasespace.displace_index(f, alpha)
        values[alpha] = (sum(prob[(n, idx[n])] for n in range(5)) - trace) / 4
    return WignerTable(f=f, values=values)


def transport(rho: Matrix, f: Index, L: SympMat):
    """Apply U_L: returns (rho', new frame g, table), both routes checked.

    The table of rho' in frame g = S_L f + f_L is computed directly and also
    by moving the f-table of rho along alpha -> L alpha; the two must agree
    exactly.
    """
    u = clifford.unitary_for(L)
    rho2 = u @ rho @ u.dagger()
    g = phasespace.compose_frame(f, L)
    direct = wigner_table(rho2, g)
    old = wigner_table(rho, f)
    moved = {gf4.mat_vec(L, alpha): val for alpha, val in old.values.items()}
    if moved != direct.values:
        raise AssertionError(
            f"transport mismatch for L={symplectic.to_text(L)}, f={f}"
        )
    return rho2, g, direct


def displace_state(rho: Matrix, beta: Vec2) -> Matrix:
    d = clifford.displacement(beta)
    return d @ rho @ d.dagger()


# Quadratic form classifying frame definitions into similarity classes.
_E_R = (gf4.OMEGA,) * 5
_E_M = (
    (0, 1, gf4.OMEGA, 0, 0),
    (0, 0, 1, gf4.OMEGA, 0),
    (0, 0, 0, 1, gf4.OMEGA),
    (gf4.OMEGA, 0, 0, 0, 1),
    (1, gf4.OMEGA, 0, 0, 0),
)


def similarity_class(f: Index) -> int:
    """E(f) = r^T f + f^T M f; the canonical twelve frames all have E == 0."""
    e = 0
    for n in range(5):
        e = gf4.add(e, gf4.mul(_E_R[n], f[n]))
        for m in range(5):
            e = gf4.add(e, gf4.mul(f[n], gf4.mul(_E_M[n][m], f[m])))
    return e


def _all_indices():
    return product(ELEMENTS, repeat=5)


def census() -> dict:
    """Classify all 1024 frame definitions.

    Groups them into displacement orbits (always of size 16) and counts
    orbits and members per similarity class; the E == 0 class must consist
    of exactly 12 orbits, one per canonical shift vector.
    """
    class_counts = {}
    orbit_reps = {}
    total = 0
    for f in _all_indices():
        f = tuple(f)
        total += 1
        e = similarity_class(f)
        class_counts[e] = class_counts.get(e, 0) + 1
        orbit = {phasespace.displace_index(f, beta) for beta in gf4.all_points()}
        rep = min(orbit)
        if len(orbit) != 16 or orbit_reps.setdefault(rep, e) != e:
            raise AssertionError(f"displacement orbit of {f} is not 16 frames of one class")
    orbit_counts = {}
    for e in orbit_reps.values():
        orbit_counts[e] = orbit_counts.get(e, 0) + 1
    canonical = set(phasespace.canonical_shift_vectors())
    canonical_reps = {min({phasespace.displace_index(f, b) for b in gf4.all_points()})
                      for f in canonical}
    return {
        "total": total,
        "class_counts": dict(sorted(class_counts.items())),
        "orbit_counts": dict(sorted(orbit_counts.items())),
        "e0_orbit_count": orbit_counts.get(0, 0),
        "e0_member_count": class_counts.get(0, 0),
        "canonical_orbit_reps": canonical_reps,
        "canonical_covers_e0": canonical_reps
        == {rep for rep, e in orbit_reps.items() if e == 0},
    }


def standard_test_states() -> list[Matrix]:
    """Fixed exact test suite: the four basis states, (1,1,0,0), and I/4."""
    basis = [density_from_vector([1 if i == j else 0 for j in range(4)])
             for i in range(4)]
    return basis + [density_from_vector([1, 1, 0, 0]), MAXIMALLY_MIXED]


def rotational_symmetry_check(L: SympMat, states=None) -> dict:
    """Check the conjugated-rotation covariance of the f_L frame.

    R_L = L R L^-1 must have period five and cycle all five striations, and
    W^{f_L}(V rho V^dag) at alpha must equal W^{f_L}(rho) at R_L^-1 alpha
    for V = U_L U_R U_L^dag over the test states.
    """
    if states is None:
        states = standard_test_states()
    f_l = phasespace.shift_vector(L)
    r_l = symplectic.product(
        symplectic.product(L, symplectic.R), symplectic.inverse(L)
    )
    power, period = r_l, 1
    while power != symplectic.IDENTITY and period < 5:
        power = symplectic.product(power, r_l)
        period += 1
    if power != symplectic.IDENTITY or period != 5:
        raise AssertionError(f"R_L does not have period 5 for {symplectic.to_text(L)}")

    s_rl = phasespace.index_operator(r_l)
    striation = 0
    seen = set()
    for _ in range(5):
        seen.add(striation)
        striation = next(m for m in range(5) if s_rl[m][striation] != 0)
    if len(seen) != 5:
        raise AssertionError(
            f"R_L does not cycle all striations for {symplectic.to_text(L)}"
        )

    u_l = clifford.unitary_for(L)
    v = u_l @ clifford.rotation_unitary() @ u_l.dagger()
    r_l_inv = symplectic.inverse(r_l)
    for rho in states:
        before = wigner_table(rho, f_l)
        after = wigner_table(v @ rho @ v.dagger(), f_l)
        for alpha in gf4.all_points():
            if after.values[alpha] != before.values[gf4.mat_vec(r_l_inv, alpha)]:
                raise AssertionError(
                    f"rotational covariance failed for {symplectic.to_text(L)} "
                    f"at alpha={alpha}"
                )
    return {"period": period, "striations_cycled": len(seen), "states": len(states)}


def marginal_check(rho: Matrix, f: Index) -> dict:
    """Line sums are Born probabilities; displacement covariance holds.

    For every line of every striation, the sum of Wigner values over the
    line equals the exact Born probability of the associated basis vector;
    and displacing the state shifts the table by the same vector.
    """
    table = wigner_table(rho, f)
    checked = 0
    for n in range(5):
        for k in ELEMENTS:
            b = clifford.mub_vector(n, gf4.add(k, f[n]))
            if table.line_sum(n, k) != clifford.born_probability(rho, b):
                raise AssertionError(f"marginal failed at line (n={n}, k={k}), f={f}")
            checked += 1
    for beta in gf4.all_points():
        moved = wigner_table(displace_state(rho, beta), f)
        for alpha in gf4.all_points():
            diff = (gf4.add(alpha[0], beta[0]), gf4.add(alpha[1], beta[1]))
            if moved.values[alpha] != table.values[diff]:
                raise AssertionError(f"displacement covariance failed at beta={beta}")
    return {"lines": checked, "displacements": 16}


def reconstruct(table: WignerTable) -> Matrix:
    """Inverse transform: rho = sum_alpha W_alpha A^f_alpha, collected per
    line: line sums times the projectors onto the frame's labels (unit MUB
    vectors), minus the total times I.  The same map on every table."""
    rho = Matrix.identity(4).scaled(-table.total())
    for n, k in product(range(5), ELEMENTS):
        w = Scalar(table.line_sum(n, k))
        b = clifford.mub_vector(n, gf4.add(k, table.f[n]))
        rho = rho + outer([w * x for x in b], b)
    if not rho.is_hermitian() or rho.trace() != Scalar(1):
        raise ValueError("corrupted Wigner table: reconstruction is not a state")
    return rho
