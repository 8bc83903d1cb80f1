"""Wigner frames, tables, transport, and the classification of definitions.

A frame is fixed by a five-component GF(4) vector f: its phase point
operator at alpha is the sum of the projectors onto vector (f + I(alpha))_n
of each mutually unbiased basis n, minus the identity.  Tables are therefore
read off the 20 MUB Born probabilities and reconstruction sums the 20
projectors by line sums, both on clifford.mub_projector's cached integer
matrices; frame() builds the 16 operators from mub_vector as the test oracle.
Performing a unitary is the same as moving Wigner values by a phase-space
map while reinterpreting the frame.  covariant() is the one check of that:
transport (U_L, f -> S_L f + f_L, alpha -> L alpha), the displacements of
marginal_check and of the CLI's apply (D_beta, f -> f, alpha -> alpha + beta)
and the conjugated rotations (V, f_L -> f_L, alpha -> R_L alpha) all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product

from . import clifford, gf4, phasespace, symplectic
from .exact import Matrix, Scalar, norm_sq, outer, vector
from .gf4 import ELEMENTS
from .phasespace import Index
from .symplectic import SympMat


class StateError(ValueError):
    """A rejected state: not four amplitudes, or not a 4x4 density operator."""


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
def frame(f: Index) -> dict:
    """The phase point operators alpha -> A^f_alpha of shift vector f;
    f == 0 is the standard frame."""
    a0 = -Matrix.identity(4)
    for n in range(5):
        b = clifford.mub_vector(n, f[n])
        a0 = a0 + outer(b, b).scaled(Fraction(1) / norm_sq(b))
    ops = {}
    for alpha in gf4.all_points():
        d = clifford.displacement(alpha)
        ops[alpha] = d @ a0 @ d.dagger()
    return ops


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

    Hermitian rho is PSD exactly when the elementary symmetric polynomials
    e_1..e_4 of its eigenvalues are all >= 0 (its characteristic polynomial
    then has no negative root).  Newton's identities give them from the power
    traces: k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) Tr(rho^i).
    """
    if rho.n != 4:
        raise StateError("density operator must be 4x4")
    if not rho.is_hermitian():
        raise StateError("density operator is not Hermitian")
    if rho.trace() != Scalar(1):
        raise StateError("density operator does not have trace 1")
    sq = rho @ rho
    power_traces = [m.trace().re for m in (rho, sq, sq @ rho, sq @ sq)]
    e = [Fraction(1)]
    for k in range(1, 5):
        e.append(sum((-1) ** i * e[k - 1 - i] * power_traces[i] for i in range(k)) / k)
    if min(e) < 0:
        raise StateError("density operator is not positive semidefinite")
    return rho


# Bounded by the sweep it serves: verify all's working set is 624 keys, so
# it never evicts, while a stream of fresh states never hits an entry left by
# an earlier request and would otherwise only add memory.  It stays an
# lru_cache because the benchmark reads wigner_table.cache_info().
@lru_cache(maxsize=640)
def wigner_table(rho: Matrix, f: Index) -> WignerTable:
    """W^f_alpha = Tr(A^f_alpha rho) / 4: five of the 20 Born probabilities
    (basis n, vector (f + I(alpha))_n) minus Tr(rho), over 4.  These are
    exact for Hermitian rho only; any other rho raises ValueError."""
    if not rho.is_hermitian():
        raise ValueError("Wigner table of a non-Hermitian operator")
    prob = {(n, k): clifford.born_probability(rho, n, k) for n in range(5) for k in ELEMENTS}
    trace = rho.trace().re
    values = {}
    for alpha in gf4.all_points():
        idx = phasespace.displace_index(f, alpha)
        values[alpha] = (sum(prob[(n, idx[n])] for n in range(5)) - trace) / 4
    return WignerTable(f=f, values=values)


def covariant(rho: Matrix, f: Index, u: Matrix, g: Index, move, what: str):
    """Perform u and check it against the phase-space map: returns (rho', table).

    The table of rho' = u rho u^dag in frame g is computed directly and must
    equal the f-table of rho with every value moved from alpha to move(alpha);
    otherwise AssertionError names `what` and f.
    """
    rho2 = u @ rho @ u.dagger()
    table = wigner_table(rho2, g)
    moved = {move(alpha): val for alpha, val in wigner_table(rho, f).values.items()}
    if moved != table.values:
        raise AssertionError(f"{what} is not covariant in frame f={f}")
    return rho2, table


def transport(rho: Matrix, f: Index, L: SympMat):
    """Apply U_L: returns (rho', new frame g = S_L f + f_L, table), checked
    by covariant() along alpha -> L alpha."""
    g = phasespace.compose_frame(f, L)
    rho2, table = covariant(rho, f, clifford.unitary_for(L), g, partial(gf4.mat_vec, L),
                            f"transport by L={symplectic.to_text(L)}")
    return rho2, g, table


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
    V = U_L U_R U_L^dag must move the f_L-table of each test state along
    alpha -> R_L alpha.
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
    for rho in states:
        covariant(rho, f_l, v, f_l, partial(gf4.mat_vec, r_l),
                  f"conjugated rotation for L={symplectic.to_text(L)}")
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
            if table.line_sum(n, k) != clifford.born_probability(rho, n, gf4.add(k, f[n])):
                raise AssertionError(f"marginal failed at line (n={n}, k={k}), f={f}")
            checked += 1
    for beta in gf4.all_points():
        covariant(rho, f, clifford.displacement(beta), f, partial(gf4.vec_add, beta),
                  f"displacement by beta={beta}")
    return {"lines": checked, "displacements": 16}


def reconstruct(table: WignerTable) -> Matrix:
    """Inverse transform: rho = sum_alpha W_alpha A^f_alpha, collected per
    line: line sums times the cached MUB projectors onto the frame's labels,
    minus the total times I.  The same map on every table."""
    rho = Matrix.identity(4).scaled(-table.total())
    for n, k in product(range(5), ELEMENTS):
        p = clifford.mub_projector(n, gf4.add(k, table.f[n]))
        rho = rho + p.scaled(table.line_sum(n, k))
    if not rho.is_hermitian() or rho.trace() != Scalar(1):
        raise ValueError("corrupted Wigner table: reconstruction is not a state")
    return rho
