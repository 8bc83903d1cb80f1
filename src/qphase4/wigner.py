"""Wigner frames, tables, transport, and the classification of definitions.

A frame is fixed by a five-component GF(4) vector f, a quantum net: line k
of striation n is read by vector k + f_n of mutually unbiased basis n
(line_labels), and the phase point operator at alpha is the sum of the
projectors of the five lines through alpha, minus the identity.  Tables are
therefore built line by line from the 20 MUB Born probabilities, which
clifford.born_probability gives as integer numerators over one denominator.
A table stores only its canonical integer form (WignerTable.key), which
wigner_table builds directly.  Every routine reads a line as its four
positions in gf4.all_points() (_line_positions): wigner_table adds each
line's probability there, reconstruct and marginal_check read integer line
sums there, and reconstruct weights the projectors' numerators by them in
one dot product per entry.  frame() builds the 16 operators from mub_vector
and the displacements as the test oracle.
Performing a unitary is the same as moving Wigner values by a phase-space
map while reinterpreting the frame.  A step is performed by one of two
routes: transport (U_L, f -> S_L f + f_L, alpha -> L alpha) or displace
(D_beta, f -> f, alpha -> alpha + beta); marginal_check and the CLI's apply
use only these, and the verify sweep uses transported, transport without
the new table.  Both, and the conjugated rotations of
rotational_symmetry_check (V, f_L -> f_L, alpha -> R_L alpha), are checked
by covariant().  Each map is a cached permutation of the 16 positions of
gf4.all_points() (linear_perm, translation_perm), and rho' comes from
clifford.conjugate, so a sweep over frames conjugates each state once per
unitary.  A table is a fixed bijective function of the 20 line
probabilities, so covariant() builds no table: it compares the Born
numerators of rho' with those of rho through the map's action on the 20
lines (_line_map, one per map), on integers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import NamedTuple

from . import clifford, gf4, phasespace, symplectic
from .exact import Matrix, Scalar, dot, norm_sq, outer, vector
from .gf4 import ELEMENTS
from .phasespace import Index
from .symplectic import SympMat


class StateError(ValueError):
    """A rejected state: not four amplitudes, or not a 4x4 density operator."""


class WignerTable(NamedTuple):
    """16 exact rational Wigner values in frame f, stored only as their
    integer form key = (den, nums): the values' numerators over their least
    common denominator, in gf4.all_points() order.  The form is canonical, so
    two tables hold equal values at every point exactly when their keys are
    equal."""

    f: Index
    key: tuple  # (int, tuple[int, ...])

    @property
    def values(self) -> dict:  # Vec2 -> Fraction, rebuilt from key on every access
        return {a: Fraction(x, self.key[0]) for a, x in zip(gf4.all_points(), self.key[1])}


def line_labels(f: Index) -> tuple[tuple[int, int, int], ...]:
    """The 20 lines of frame f as (n, k, label): line k of striation n is
    read by mub_vector(n, label), label = k + f_n."""
    return tuple((n, k, gf4.add(k, f[n])) for n in range(5) for k in ELEMENTS)


@lru_cache(maxsize=None)
def _line_positions(n: int, k: int) -> tuple[int, ...]:
    """The positions in gf4.all_points() of the 4 points of line k of striation n."""
    return tuple(map(gf4.all_points().index, phasespace.line_points(n, k)))


@lru_cache(maxsize=None)
def _label_positions(f: Index) -> tuple[int, ...]:
    """Per line 4n + k, the position 4n + k + f_n of the probability that
    frame f reads it by in clifford.born_probability's numerators."""
    return tuple(4 * n + label for n, _, label in line_labels(f))


@lru_cache(maxsize=1)
def _projector_columns() -> tuple[tuple[int, ...], ...]:
    """Per entry of a 4x4 matrix, real parts first: the numerators over 4 at
    that entry of the 20 MUB projectors, (n, label) at 4n + label, then of I."""
    identity = [4 * (j in (0, 5, 10, 15)) for j in range(32)]
    return tuple(zip(*clifford.projector_numerators(), identity))


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


# Bounded by the sweep it serves: verify all's working set is 108 keys, the
# marginals scope's states and their displacements in the 12 canonical
# frames, so it never evicts, while a stream of fresh states never hits an
# entry left by an earlier request and would otherwise only add memory.  It
# stays an lru_cache because the benchmark reads wigner_table.cache_info().
@lru_cache(maxsize=128)
def wigner_table(rho: Matrix, f: Index) -> WignerTable:
    """W^f_alpha = Tr(A^f_alpha rho) / 4: the Born probabilities of the five
    lines through alpha minus Tr(rho), over 4.  Every point starts at
    -Tr(rho) and each line adds its probability from
    clifford.born_probability at its four positions in gf4.all_points(); the
    key is the values' numerators over their least common denominator.
    These are exact for Hermitian rho only; any other rho raises ValueError."""
    den, nums = clifford.born_probability(rho)
    sums = [-rho.trace().re] * 16
    for n, k, label in line_labels(f):
        prob = Fraction(nums[4 * n + label], den)
        for i in _line_positions(n, k):
            sums[i] += prob
    values = [s / 4 for s in sums]
    den = lcm(*(v.denominator for v in values))
    return WignerTable(f, (den, tuple(v.numerator * (den // v.denominator) for v in values)))


@lru_cache(maxsize=None)
def linear_perm(L: SympMat) -> tuple[int, ...]:
    """alpha -> L alpha: entry i is the position of L points[i] in points."""
    points = gf4.all_points()
    return tuple(points.index(gf4.mat_vec(L, alpha)) for alpha in points)


@lru_cache(maxsize=None)
def translation_perm(beta: gf4.Vec2) -> tuple[int, ...]:
    """alpha -> alpha + beta: entry i is the position of points[i] + beta."""
    points = gf4.all_points()
    return tuple(points.index(gf4.vec_add(beta, alpha)) for alpha in points)


@lru_cache(maxsize=None)
def _line_map(move: tuple[int, ...]) -> tuple[int, ...] | None:
    """Line 4n + k goes to 4m + k' when move (a linear_perm or
    translation_perm) takes its four _line_positions onto those of line k' of
    striation m; None when the image of some line is not a line."""
    lines = {frozenset(_line_positions(n, k)): 4 * n + k for n in range(5) for k in ELEMENTS}
    image = tuple(lines.get(frozenset(map(move.__getitem__, _line_positions(n, k))))
                  for n in range(5) for k in ELEMENTS)
    return None if None in image else image


def covariant(rho: Matrix, f: Index, u: Matrix, g: Index, move, what: str) -> Matrix:
    """Perform u and check it against the phase-space map: returns rho'.

    rho' = u rho u^dag comes from clifford.conjugate, once per (u, rho) while
    only the frame varies.  Its g-table must be the f-table of rho with the
    value at point i of gf4.all_points() moved to point move[i].  A table is
    a fixed bijective function of the 20 line probabilities, so this holds
    exactly when move takes lines to lines and each line k of striation n,
    read in frame f by label k + f_n, has the Born probability under rho
    that its image, line k' of striation m read in frame g by label
    k' + g_m, has under rho'; otherwise AssertionError names `what` and f.
    The probabilities are clifford.born_probability's integer numerators,
    cross-multiplied by the two denominators.
    """
    rho2 = clifford.conjugate(u, rho)
    image = _line_map(move)
    den, nums = clifford.born_probability(rho)
    den2, nums2 = clifford.born_probability(rho2)
    at_g = _label_positions(g)
    if image is None or ([nums2[at_g[j]] * den for j in image]
                         != [nums[i] * den2 for i in _label_positions(f)]):
        raise AssertionError(f"{what} is not covariant in frame f={f}")
    return rho2


def transported(rho: Matrix, f: Index, L: SympMat) -> tuple[Matrix, Index]:
    """Perform U_L: returns (rho', new frame g = S_L f + f_L), checked by
    covariant() along alpha -> L alpha."""
    g = phasespace.compose_frame(f, L)
    rho2 = covariant(rho, f, clifford.unitary_for(L), g, linear_perm(L),
                     f"transport by L={symplectic.to_text(L)}")
    return rho2, g


def transport(rho: Matrix, f: Index, L: SympMat):
    """Apply U_L: returns (rho', g, table), transported() and the table of
    rho' in the new frame g."""
    rho2, g = transported(rho, f, L)
    return rho2, g, wigner_table(rho2, g)


def displace(rho: Matrix, f: Index, beta: gf4.Vec2):
    """Apply D_beta: returns (rho', f, table), checked by covariant() along
    alpha -> alpha + beta in the unchanged frame; a failure names the step
    as the CLI's apply op D[q,p]."""
    name = "D[" + ",".join(map(gf4.to_token, beta)) + "]"
    rho2 = covariant(rho, f, clifford.displacement(beta), f, translation_perm(beta), name)
    return rho2, f, wigner_table(rho2, f)


def similarity_class(f: Index) -> int:
    """E(f) = sum_n f_n (w + f_(n+1) + w f_(n+2)), indices mod 5: the quadratic
    form classifying frame definitions; the canonical twelve frames have E == 0."""
    e = 0
    for n in range(5):
        cross = gf4.add(f[(n + 1) % 5], gf4.mul(gf4.OMEGA, f[(n + 2) % 5]))
        e = gf4.add(e, gf4.mul(f[n], gf4.add(gf4.OMEGA, cross)))
    return e


def census() -> dict:
    """Classify all 1024 frame definitions.

    Walks each displacement orbit once, from its least frame: the orbit must
    hold 16 frames, overlap no earlier orbit and lie in one similarity class.
    Counts orbits and members per similarity class; the E == 0 class must
    consist of exactly 12 orbits, one per canonical shift vector.
    """
    rep_of = {}  # frame -> the least frame of its orbit
    orbit_class = {}  # least frame -> the orbit's similarity class
    for f in product(ELEMENTS, repeat=5):
        if f in rep_of:
            continue
        orbit = {phasespace.displace_index(f, beta) for beta in gf4.all_points()}
        classes = {similarity_class(g) for g in orbit}
        if len(orbit) != 16 or not orbit.isdisjoint(rep_of) or len(classes) != 1:
            raise AssertionError(f"displacement orbit of {f} is not 16 new frames of one class")
        rep_of.update(dict.fromkeys(orbit, f))
        (orbit_class[f],) = classes
    class_counts = dict(sorted(Counter(orbit_class[rep] for rep in rep_of.values()).items()))
    orbit_counts = dict(sorted(Counter(orbit_class.values()).items()))
    canonical_reps = {rep_of[f] for f in phasespace.canonical_shift_vectors()}
    return {
        "total": len(rep_of),
        "class_counts": class_counts,
        "orbit_counts": orbit_counts,
        "e0_orbit_count": orbit_counts.get(0, 0),
        "e0_member_count": class_counts.get(0, 0),
        "canonical_covers_e0": canonical_reps == {r for r, e in orbit_class.items() if e == 0},
    }


@lru_cache(maxsize=1)
def standard_test_states() -> tuple[Matrix, ...]:
    """Fixed exact test suite: the four basis states, (1,1,0,0), and I/4,
    built once."""
    basis = [density_from_vector([1 if i == j else 0 for j in range(4)])
             for i in range(4)]
    return (*basis, density_from_vector([1, 1, 0, 0]), MAXIMALLY_MIXED)


def rotational_symmetry_check(L: SympMat) -> dict:
    """Check the conjugated-rotation covariance of the f_L frame.

    R_L = L R L^-1 must have period five and cycle all five striations, and
    V = U_L U_R U_L^dag must move the f_L-table of each standard test state
    along alpha -> R_L alpha.
    """
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
    v = clifford.conjugate(u_l, clifford.unitary_for(symplectic.R))
    for rho in standard_test_states():
        covariant(rho, f_l, v, f_l, linear_perm(r_l),
                  f"conjugated rotation for L={symplectic.to_text(L)}")
    return {"period": period, "striations_cycled": len(seen)}


def marginal_check(rho: Matrix, f: Index) -> dict:
    """Line sums are Born probabilities; displacement covariance holds.

    For every line of every striation, the sum of Wigner values over the
    line equals the exact Born probability of the associated basis vector;
    and displacing the state shifts the table by the same vector.
    """
    den, nums = wigner_table(rho, f).key
    prob_den, probs = clifford.born_probability(rho)
    checked = 0
    for n, k, label in line_labels(f):
        line_sum = sum(map(nums.__getitem__, _line_positions(n, k)))
        if line_sum * prob_den != probs[4 * n + label] * den:
            raise AssertionError(f"marginal failed at line (n={n}, k={k}), f={f}")
        checked += 1
    for beta in gf4.all_points():
        displace(rho, f, beta)
    return {"lines": checked, "displacements": 16}


def reconstruct(table: WignerTable) -> Matrix:
    """Inverse transform: rho = sum_alpha W_alpha A^f_alpha, collected per
    line: line sums times the MUB projectors onto the frame's labels, minus
    the total times I.  The same map on every table, on integers: over 4 den,
    each entry is the line sums and -total, in numerators over den, dotted
    with its _projector_columns column; the sum is reduced once.  Integer
    weights on Hermitian projectors give a Hermitian sum, so only a total
    other than 1 can reject a table."""
    den, nums = table.key
    weights = [0] * 20 + [-sum(nums)]
    if weights[20] != -den:
        raise ValueError("corrupted Wigner table: reconstruction is not a state")
    for n, k, label in line_labels(table.f):
        weights[4 * n + label] = sum(map(nums.__getitem__, _line_positions(n, k)))
    entries = [dot(column, weights) for column in _projector_columns()]
    return Matrix._reduced(4, entries[:16], entries[16:], 4 * den)
