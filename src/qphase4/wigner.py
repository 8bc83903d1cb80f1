"""Wigner frames, tables, transport, and the classification of definitions.

A frame is fixed by a five-component GF(4) vector f, a quantum net: line k
of striation n is read by vector k + f_n of mutually unbiased basis n, and
the phase point operator at alpha is the sum of the projectors of the five
lines through alpha, minus the identity.  Tables are therefore built line
by line from the 20 integer Born numerators of clifford.born_probability.
Every routine reads line 4n + k by two cached tuples: line_labels(f), its
Born index 4n + k + f_n, and _line_positions(), its four positions in
gf4.all_points().  wigner_table adds each line's probability there and
keeps only the table's integer form (WignerTable.key); reconstruct and
marginal_check read integer line sums there, and reconstruct weights the
projectors' numerators by them in one dot product per entry.  frame()
builds the 16 operators from mub_vector and the displacements as the oracle.
Performing a unitary is the same as moving Wigner values by a phase-space
map while reinterpreting the frame.  A step is performed by one of two
routes: transport (U_L, f -> S_L f + f_L, alpha -> L alpha) or displace
(D_beta, f -> f, alpha -> alpha + beta); marginal_check and the CLI's apply
use only these.  transported is transport without the new table, for
any number of frames at once.  The verify sweeps pack a set of states once,
as the lanes of one matrix, and run each unitary as one step of one kernel,
_packed_sweep: one conjugation, one Born pass and one comparison per frame
pair, covering every state.  transport_sweep checks what transported checks
for every L; marginal_sweep checks what marginal_check checks, its line
sums on a packed table of integers and its 16 displacements as steps.
Either runs the per-state route only when a check fails.  Both routes, and the
conjugated rotations of rotational_symmetry_check (V, f_L -> f_L,
alpha -> R_L alpha), are checked by covariant(), once per (unitary, state)
for any number of frame pairs (f, g): rho' from clifford.conjugate, the
Born numerators of rho and rho', cross-multiplied by the two denominators,
and the map's action on the 20 lines (_line_map, one per map; each map a
cached permutation of the 16 positions, linear_perm or translation_perm)
are formed once.  A table is a fixed bijective function of the 20 line
probabilities, so covariant() builds no table: each pair costs two reads
of those integers in line order and one comparison.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import NamedTuple

from . import clifford, exact, gf4, phasespace, symplectic
from .exact import Matrix, Scalar, dot, norm_sq, outer, pack, vector
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


@lru_cache(maxsize=None)
def line_labels(f: Index) -> tuple[int, ...]:
    """Per line 4n + k, the Born index 4n + k + f_n of mub_vector(n, k + f_n),
    the vector by which frame f reads it."""
    return tuple(4 * n + gf4.add(k, f[n]) for n in range(5) for k in ELEMENTS)


@lru_cache(maxsize=1)
def _line_positions() -> tuple[tuple[int, ...], ...]:
    """Per line 4n + k, the positions in gf4.all_points() of its 4 points."""
    index = gf4.all_points().index
    return tuple(tuple(map(index, phasespace.line_points(n, k)))
                 for n in range(5) for k in ELEMENTS)


@lru_cache(maxsize=1)
def _projector_columns() -> tuple[tuple[int, ...], ...]:
    """Per entry of a 4x4 matrix, real parts first: the numerators over 4 at
    that entry of the 20 MUB projectors, at their Born indices, then of I."""
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


# Bounded because a stream of fresh states never hits an entry left by an
# earlier request and would otherwise only add memory.  128 keys hold the 17
# tables of one marginal_check(rho, f), the state's and its 16
# displacements', several times over; verify all builds only 6, one per
# standard state in the first canonical frame.  It stays an lru_cache
# because the benchmark reads wigner_table.cache_info().
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
    for label, points in zip(line_labels(f), _line_positions()):
        prob = Fraction(nums[label], den)
        for i in points:
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
    translation_perm) takes its four positions onto those of line 4m + k';
    None when the image of some line is not a line."""
    lines = {frozenset(points): j for j, points in enumerate(_line_positions())}
    image = tuple(lines.get(frozenset(map(move.__getitem__, points)))
                  for points in _line_positions())
    return None if None in image else image


def _lines_agree(before, after, image, f: Index, g: Index) -> bool:
    """Whether each line, read in frame f by its label in line_labels(f),
    has the Born numerator in before that its image line (image, a _line_map
    or None), read in frame g, has in after."""
    if image is None:
        return False
    at_g = line_labels(g)
    return [after[at_g[j]] for j in image] == [before[i] for i in line_labels(f)]


def _covariance(rho: Matrix, u: Matrix, move, what: str):
    """Perform u: returns (rho', check), check(f, g) raising AssertionError
    that names `what` and f unless the phase-space map holds in the frame
    pair (f, g).

    rho' = u rho u^dag comes from clifford.conjugate, and with the Born
    numerators of rho and rho' and the line map, once for any number of
    pairs: no frame changes them.  In a pair, the g-table of rho' must be the
    f-table of rho with the value at point i of gf4.all_points() moved to
    point move[i].  A table is a fixed bijective function of the 20 line
    probabilities, so this holds exactly when move takes lines to lines and
    each line, read in frame f by its label in line_labels(f), has the Born
    probability under rho that its image line (_line_map), read in frame g,
    has under rho'.  The probabilities are clifford.born_probability's
    integer numerators, cross-multiplied by the two denominators; a pair
    then costs two reads of those integers in line order and one comparison.
    """
    rho2 = clifford.conjugate(u, rho)
    image = _line_map(move)
    den, nums = clifford.born_probability(rho)
    den2, nums2 = clifford.born_probability(rho2)
    before, after = [x * den2 for x in nums], [x * den for x in nums2]

    def check(f: Index, g: Index) -> None:
        if not _lines_agree(before, after, image, f, g):
            raise AssertionError(f"{what} is not covariant in frame f={f}")

    return rho2, check


def covariant(rho: Matrix, u: Matrix, move, frames, what: str) -> Matrix:
    """Perform u and check it against the phase-space map in each frame
    pair (f, g) of frames, in order (see _covariance): returns rho'; the
    first pair that fails raises AssertionError naming `what` and its f."""
    rho2, check = _covariance(rho, u, move, what)
    for f, g in frames:
        check(f, g)
    return rho2


def transported(rho: Matrix, L: SympMat, frames) -> Matrix:
    """Perform U_L: returns rho', checked by covariant() along alpha -> L alpha
    in each frame pair (f, g), g the frame compose_frame gives for f."""
    return covariant(rho, clifford.unitary_for(L), linear_perm(L), frames,
                     f"transport by L={symplectic.to_text(L)}")


def transport(rho: Matrix, f: Index, L: SympMat):
    """Apply U_L: returns (rho', g, table), rho' from transported() and the
    table of rho' in the new frame g = S_L f + f_L."""
    g = phasespace.compose_frame(f, L)
    rho2 = transported(rho, L, [(f, g)])
    return rho2, g, wigner_table(rho2, g)


def _packed_states(states, units) -> tuple[int, list[int]]:
    """(w, entries): the states as lanes of one 4x4 matrix, entry e of
    state s in lane s of entries[e] (real parts, then imaginary), its
    numerator over the states' least common denominator, in lanes of w bits.

    w keeps under 2^(w-1) every lane the packed sweeps form from these
    states and unitaries u.  For state numerators up to m, u's numerators
    up to a and denominators up to d, and projector numerators summing in
    absolute value to at most s: an entry of u rho u^dag is at most
    4 n^2 a^2 m (n = 4; two products of 2n terms), its Born lanes at most s
    times that, and a Born lane of rho times u.den^2 at most s m d^2.  As
    a >= 1, also 2^(w-1) > 64 s m: a lane of a packed table (_packed_table)
    is at most 5 s m + 16 m, and the sum of a line's four at most
    20 s m + 64 m, below 64 s m because every projector has trace 1, so
    s >= 4."""
    den = lcm(*(rho.den for rho in states))
    scaled = [[x * (den // rho.den) for x in rho.re + rho.im] for rho in states]
    m = max(abs(x) for lanes in scaled for x in lanes)
    a, d = max(abs(x) for u in units for x in u.re + u.im), max(u.den for u in units)
    s = max(sum(map(abs, p)) for p in clifford.projector_numerators())
    w = (s * m * max(4 * 4**2 * a * a, d * d)).bit_length() + 1
    return w, [pack(lanes, w) for lanes in zip(*scaled)]


def _conjugated(u: Matrix, entries) -> list[int]:
    """u X u^dag for X the 4x4 matrix of packed entries, real parts then
    imaginary, as packed entries over u.den^2 times X's denominator: each
    lane conjugated, nothing reduced."""
    ud = u.dagger()
    re, im = exact.product(4, *exact.product(4, u.re, u.im, entries[:16], entries[16:]),
                           ud.re, ud.im)
    return re + im


def _packed_sweep(entries, steps) -> int:
    """How many steps (u, move, pairs), in order, hold on every state packed
    in entries (_packed_states, its width computed with every step's u)
    before the first that fails; len(steps) when all hold.  A step holds
    when performing u moves each state's Born numerators along move in each
    frame pair (f, g) of pairs.

    Per step the packed states are conjugated (_conjugated), checked
    Hermitian entry by entry and given one Born pass; each pair is then one
    _lines_agree for all states, against the packed states' Born numerators
    times u.den^2, which puts both over one denominator.  No lane reaches
    2^(w-1), so equal packings have equal lanes.  A sweep that meets a
    failing step runs its per-state route, which names the failure as a
    state-by-state sweep would."""
    before = clifford.born_numerators(entries)
    for i, (u, move, pairs) in enumerate(steps):
        conj = _conjugated(u, entries)
        re, im = conj[:16], conj[16:]
        hermitian = (re == [x for j in range(4) for x in re[j::4]]
                     and im == [-x for j in range(4) for x in im[j::4]])
        after, image = clifford.born_numerators(conj), _line_map(move)
        scaled = [x * u.den * u.den for x in before]
        if not (hermitian and all(_lines_agree(scaled, after, image, f, g) for f, g in pairs)):
            return i
    return len(steps)


def transport_sweep(states, frames) -> int:
    """transported(rho, L, pairs) for every L of the group and every rho in
    states, in that order, pairs the frames f with compose_frame(f, L):
    returns the number of (L, frame, state) triples checked.

    The states are packed once (_packed_states) and each L is one step of
    _packed_sweep: one conjugation, one Born pass and one comparison per
    frame, each covering all states.  An L that fails runs transported()
    state by state, which raises for the first state in order at its first
    failing frame."""
    group = symplectic.enumerate_group()
    steps = [(clifford.unitary_for(L), linear_perm(L),
              [(f, phasespace.compose_frame(f, L)) for f in frames]) for L in group]
    _, entries = _packed_states(states, [u for u, _, _ in steps])
    passed = _packed_sweep(entries, steps)
    if passed < len(steps):
        L, (_, _, pairs) = group[passed], steps[passed]
        for rho in states:
            transported(rho, L, pairs)
        raise AssertionError(f"transport by L={symplectic.to_text(L)} fails packed "
                             f"but passes state by state")
    return sum(len(pairs) for _, _, pairs in steps) * len(states)


def _op_name(beta: gf4.Vec2) -> str:
    """D_beta as the CLI's apply op D[q,p]."""
    return "D[" + ",".join(map(gf4.to_token, beta)) + "]"


def _displacement(rho: Matrix, beta: gf4.Vec2):
    """_covariance of D_beta along alpha -> alpha + beta, in frame pairs
    (f, f): a displacement keeps the frame.  A failure names the step as the
    CLI's apply op D[q,p]."""
    return _covariance(rho, clifford.displacement(beta), translation_perm(beta),
                       _op_name(beta))


def displace(rho: Matrix, f: Index, beta: gf4.Vec2):
    """Apply D_beta: returns (rho', f, table), rho' checked in frame f by
    _displacement and its table in that unchanged frame."""
    rho2, check = _displacement(rho, beta)
    check(f, f)
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
        covariant(rho, v, linear_perm(r_l), [(f_l, f_l)],
                  f"conjugated rotation for L={symplectic.to_text(L)}")
    return {"period": period, "striations_cycled": len(seen)}


def marginal_check(rho: Matrix, f: Index, *more: Index) -> dict:
    """Line sums are Born probabilities; displacement covariance holds.

    In frame f and then in each further frame: for every line of every
    striation, the sum of Wigner values over the line equals the exact Born
    probability of the associated basis vector; and displacing the state
    shifts the table by the same vector, as displace() checks it and builds
    the new table.  Each displaced state, its Born numerators and its line
    map are formed once, in the first frame, and reused in the others.  The
    counts are per frame.
    """
    prob_den, probs = clifford.born_probability(rho)
    displaced = {}
    for f in (f, *more):
        den, nums = wigner_table(rho, f).key
        checked = 0
        for j, (label, points) in enumerate(zip(line_labels(f), _line_positions())):
            if sum(map(nums.__getitem__, points)) * prob_den != probs[label] * den:
                n, k = divmod(j, 4)
                raise AssertionError(f"marginal failed at line (n={n}, k={k}), f={f}")
            checked += 1
        for beta in gf4.all_points():
            if beta not in displaced:
                displaced[beta] = _displacement(rho, beta)
            rho2, check = displaced[beta]
            check(f, f)
            wigner_table(rho2, f)
    return {"lines": checked, "displacements": 16}


def _packed_table(before, trace: int, f: Index) -> list[int]:
    """The packed Wigner table in frame f, per point of gf4.all_points():
    the packed Born numerators before of the five lines through it, minus
    4 times the packed trace.  Each lane is 16 den W^f for its state, den
    the denominator of the packing."""
    table = [-4 * trace] * 16
    for label, points in zip(line_labels(f), _line_positions()):
        for i in points:
            table[i] += before[label]
    return table


def _keys_match(table, keys, scale: int, w: int) -> bool:
    """Whether lane s of each entry of a packed table over scale holds the
    value that keys[s], a WignerTable.key, holds at that point."""
    if any(scale % den for den, _ in keys):
        return False
    lanes = [[x * (scale // den) for x in nums] for den, nums in keys]
    return (all(abs(x) < 1 << (w - 1) for lane in lanes for x in lane)
            and [pack(point, w) for point in zip(*lanes)] == table)


def marginal_sweep(states, frames) -> dict:
    """marginal_check(rho, *frames) for every rho in states: returns the
    number of (frame, state) pairs and, per pair, of line sums and of
    displacements checked.

    The states are packed once (_packed_states).  Line sums, on integers
    only: in each frame the packed table (_packed_table) holds every state's
    table, and each line's four entries must sum to 4 times its packed Born
    numerators; in the first frame each state's lane must also be
    wigner_table's key.  Displacements: 16 steps of _packed_sweep, D_beta
    along translation_perm(beta) in the pairs (f, f).  Any failure runs
    marginal_check state by state, which raises what a per-state sweep
    meets first."""
    points = gf4.all_points()
    units = [clifford.displacement(beta) for beta in points]
    w, entries = _packed_states(states, units)
    scale = 16 * lcm(*(rho.den for rho in states))
    before, trace = clifford.born_numerators(entries), sum(entries[:16:5])

    failed = None
    for k, f in enumerate(frames):
        table = _packed_table(before, trace, f)
        lines = [sum(map(table.__getitem__, positions)) == 4 * before[label]
                 for label, positions in zip(line_labels(f), _line_positions())]
        if not all(lines) or k == 0 and not _keys_match(
                table, [wigner_table(rho, f).key for rho in states], scale, w):
            failed = f"marginal in frame f={f}"
            break
    steps = [(u, translation_perm(beta), [(f, f) for f in frames])
             for beta, u in zip(points, units)]
    passed = 0 if failed else _packed_sweep(entries, steps)
    if failed or passed < len(steps):
        for rho in states:
            marginal_check(rho, *frames)
        raise AssertionError(f"{failed or _op_name(points[passed])} fails packed "
                             f"but passes state by state")
    return {"pairs": len(frames) * len(states), "lines": len(lines), "displacements": passed}


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
    for label, points in zip(line_labels(table.f), _line_positions()):
        weights[label] = sum(map(nums.__getitem__, points))
    entries = [dot(column, weights) for column in _projector_columns()]
    return Matrix._reduced(4, entries[:16], entries[16:], 4 * den)
