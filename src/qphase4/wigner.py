"""Wigner frames, tables, transport, and the classification of definitions.

A frame is fixed by a five-component GF(4) vector f, a quantum net: line k
of striation n is read by vector k + f_n of mutually unbiased basis n, and
the phase point operator at alpha is the sum of the projectors of the five
lines through alpha, minus the identity.  Tables are therefore built line
by line from the 20 integer Born numerators of clifford.born_probability.
Every routine reads line 4n + k by two cached tuples: line_labels(f), its
Born index 4n + k + f_n, and _line_positions(), its four positions in
gf4.all_points().  wigner_table adds each line's probability there and
keeps only the table's integer form (WignerTable.key).  One helper,
_line_sums, reads a table's 20 line sums by Born index: _first_bad_line
compares them with the Born probabilities, and reconstruct weights the
projectors' numerators by them in one dot product per entry.  frame()
builds the 16 operators from mub_vector and the displacements as the
oracle.  Performing a unitary is the same as moving Wigner values by a
phase-space map while reinterpreting the frame.  Every move is one Step:
u, its permutation of the 16 positions (phasespace.linear_perm or
translation_perm), its frame map f -> g as data (phasespace.FrameMap, the
affine f -> S f + t), the text apply prints and the text FAIL lines name.
transport_step gives U_L (alpha -> L alpha, f -> S_L f + f_L),
displacement_step D_beta (alpha -> alpha + beta, f -> f), and
rotational_symmetry_check its conjugated rotations V (alpha -> R_L alpha,
with R_L's frame map, checked from f_L, which it must fix).  One performer,
perform(), performs every step in one frame pair (f, g) per call: rho' from
clifford.conjugate, the Born numerators of rho and rho', cross-multiplied
by the two denominators and compared once under born_map, the step's map of
the 20 Born indices (from its cached permutation of the 16 positions).
transport, displace, marginal_check and the CLI's apply perform their moves
through it.  A table is a fixed bijective function of the 20 line
probabilities, so the check builds no table.  When the move takes line
(n, k) to line (m, s k + c_m) for each row m's (n, s) of S, the frame law
(_obeys_frame_law), born_map in (f, S f + t) is one map whatever f: the
step's map of the MUB projectors.  marginal_check checks one frame: its 20
line sums, then its 16 displacements.  The verify sweeps share one loop,
_sweep, and one kernel, _packed_sweep, which checks a step for every state
at once.  A^f_alpha is a sum of MUB projectors minus I, so a step holds for
every state in the frame pair (f, g) when u P_i u^dag == P_j for each of
the 20 projectors P_i = |b_i><b_i|, j = born_map(move, f, g)[i]; they span
the Hermitian operators (Wootters & Fields, Ann. Phys. 191, 363 (1989)), so
only then.  _hilbert_maps reads that j off u b_i == i^k b_j: one dot of u
with the 20 matrices |b_i><0| (clifford.mub_columns) packed side by side
(exact.Family), each product's chunk looked up among the keys of every i^k
|b_j><0|.  A step holds when its move obeys the frame law and that one map
is the born_map of its first frame pair; once per sweep, each listed frame
f must read line (n, k) by Born index 4n + k + f_n.  So one comparison per
step covers every frame, listed or not.  transport_sweep checks what
transport checks for every L in the 12 canonical frames; marginal_sweep
checks what marginal_check checks in those frames, its line sums on integer
tables and then its 16 displacements as steps; rotational_symmetry_check
checks each L's R_L, read off the group's product table
(symplectic.cayley), and runs each distinct (V, R_L, f_L) once, 12 steps
for the 60 L.  Only when a check fails does one helper, _replay, run the
per-state route, the failing step or marginal_check, state by state and
frame by frame, on the standard test states and then the 20 MUB states.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import lcm
from operator import itemgetter
from typing import NamedTuple, NoReturn

from . import clifford, exact, gf4, phasespace, symplectic
from .exact import Matrix, Scalar, dot, norm_sq, outer, vector
from .gf4 import ELEMENTS
from .phasespace import FrameMap, Index, linear_perm, translation_perm
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
    add = gf4._ADD
    return tuple(4 * n + add[k][f[n]] for n in range(5) for k in ELEMENTS)


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


@lru_cache(maxsize=1)
def _line_through() -> dict[tuple[int, int], int]:
    """Line 4n + k by each ordered pair of two of its positions in
    gf4.all_points(); two distinct points lie on exactly one line."""
    return {(a, b): j for j, points in enumerate(_line_positions())
            for a in points for b in points if a != b}


@lru_cache(maxsize=None)
def _line_map(move: tuple[int, ...]) -> tuple[int, ...] | None:
    """Line 4n + k goes to 4m + k' when move (a linear_perm or
    translation_perm) takes its four positions onto those of line 4m + k':
    the line through the images of its first two points, which the images
    of the other two must lie on.  None when the image of some line is not
    a line."""
    through, image = _line_through(), []
    for a, b, c, d in _line_positions():
        j = through.get((move[a], move[b]))
        if (j is None or through.get((move[a], move[c])) != j
                or through.get((move[a], move[d])) != j):
            return None
        image.append(j)
    return tuple(image)


def born_map(move: tuple[int, ...], f: Index, g: Index) -> tuple[int, ...] | None:
    """The Born indices' map that move (a linear_perm or translation_perm)
    makes in the frame pair (f, g): entry i is line_labels(g) of the
    _line_map(move) image of line line_labels(f)[i] (line_labels(f) is its
    own inverse); None when _line_map(move) is."""
    image, at_g = _line_map(move), line_labels(g)
    return None if image is None else tuple([at_g[image[j]] for j in line_labels(f)])


class Step(NamedTuple):
    """One phase-space move: performing u takes the Wigner value at point i
    of gf4.all_points() to point move[i] (a linear_perm or translation_perm)
    while frame f is reread as frame(f), an affine phasespace.FrameMap.
    name is the move as apply prints it, what as FAIL lines name it."""

    name: str
    what: str
    u: Matrix
    move: tuple[int, ...]
    frame: FrameMap


def transport_step(L: SympMat) -> Step:
    """U_L: alpha -> L alpha, f -> S_L f + f_L (phasespace.frame_map)."""
    name = symplectic.to_text(L)
    return Step(name, f"transport by L={name}", clifford.unitary_for(L), linear_perm(L),
                phasespace.frame_map(L))


def displacement_step(beta: gf4.Vec2) -> Step:
    """D_beta: alpha -> alpha + beta, f -> f, named as the CLI's apply op
    D[q,p]."""
    name = "D[" + ",".join(map(gf4.to_token, beta)) + "]"
    return Step(name, name, clifford.displacement(beta), translation_perm(beta),
                phasespace.FRAME_IDENTITY)


def perform(rho: Matrix, f: Index, step: Step):
    """Perform step on rho read in frame f: returns (rho', g, table), rho' =
    u rho u^dag (clifford.conjugate), g = step.frame(f) and the table of
    rho' in g.  Raises AssertionError naming step.what and f unless the
    phase-space map holds in the frame pair (f, g).

    The g-table of rho' must be the f-table of rho with the value at point
    i of gf4.all_points() moved to point move[i].  A table is a fixed
    bijective function of the 20 line probabilities, so this holds exactly
    when move takes lines to lines and each Born probability i of rho is
    the Born probability born_map(move, f, g)[i] of rho'.  The probabilities
    are clifford.born_probability's integer numerators, cross-multiplied by
    the two denominators, so the check builds no table.
    """
    g, rho2 = step.frame(f), clifford.conjugate(step.u, rho)
    den, nums = clifford.born_probability(rho)
    den2, nums2 = clifford.born_probability(rho2)
    image = born_map(step.move, f, g)
    if image is None or [nums2[j] * den for j in image] != [x * den2 for x in nums]:
        raise AssertionError(f"{step.what} is not covariant in frame f={f}")
    return rho2, g, wigner_table(rho2, g)


def transport(rho: Matrix, f: Index, L: SympMat):
    """Apply U_L: perform(rho, f, transport_step(L))."""
    return perform(rho, f, transport_step(L))


def displace(rho: Matrix, f: Index, beta: gf4.Vec2):
    """Apply D_beta: perform(rho, f, displacement_step(beta))."""
    return perform(rho, f, displacement_step(beta))


@lru_cache(maxsize=None)
def _mub_family(w: int) -> tuple[exact.Family, dict[bytes, int]]:
    """The 20 clifford.mub_columns as one exact.Family in lanes of w bits, and
    the Born index j by the key of each i^k |b_j><0|, k = 0..3."""
    family = exact.Family.of(clifford.mub_columns(), w)
    return family, {key: j for j in range(20) for key in family.phases(j)}


def _hilbert_maps(units) -> list[tuple | None]:
    """Per unitary u, its map of the 20 Born indices: entry i is the j with
    u b_i == i^k b_j for some k (b_i = mub_vector at Born index i), or None
    when u b_i is no such vector.  One dot per u holds every u |b_i><0|
    (exact.Family.products), and each chunk is looked up among the keys of
    every i^k |b_j><0|.  The map is None when u.den does not divide 2, the
    b_j's common denominator: u's columns, u b_i for the computational
    basis b_0..b_3, are then none of the i^k b_j.  The lanes are the
    clifford sweeps' (clifford.sweep_width), so each U_L is packed as
    clifford.verify_metaplectic packed it."""
    family, born_index = _mub_family(clifford.sweep_width(units))
    return [None if family.d % u.den else tuple(map(born_index.get, family.products(u)))
            for u in units]


def _obeys_frame_law(move: tuple[int, ...], frame: FrameMap) -> bool:
    """Whether move takes line (n, k) to line (m, s k + c_m), for each row
    m's (n, s) of frame's linear part and one c_m per row.  Then the Born
    index 4n + j, read in f by line k = j + f_n, goes in g = frame(f) to
    4m + s j + c_m + t_m (t = frame.shift), the same for every f."""
    image = _line_map(move)
    if image is None:
        return False
    add, mul, law = gf4._ADD, gf4._MUL, [None] * 20
    for m, (n, s) in enumerate(frame.rows):
        c = image[4 * n] - 4 * m  # line (n, 0) goes to line (m, c_m)
        if not 0 <= c < 4:
            return False
        law[4 * n:4 * n + 4] = [4 * m + add[mul[s][k]][c] for k in ELEMENTS]
    return law == list(image)


def _packed_sweep(moves) -> int:
    """How many (step, frames) of moves, in order, hold before the first
    that fails; len(moves) when all hold.  Once per sweep, each listed frame
    f must read line (n, k) by Born index 4n + k + f_n (line_labels), or the
    first step fails.  A step holds when its move obeys its frame map's law
    (_obeys_frame_law) and its _hilbert_maps map is born_map(step.move, f,
    step.frame(f)) at its first frame f: by the law, born_map is that one
    map in every frame, so the step holds in every frame, listed or not."""
    add = gf4._ADD
    listed = dict.fromkeys(f for _, frames in moves for f in frames)
    if any(line_labels(f) != tuple(4 * n + add[k][f[n]] for n in range(5) for k in ELEMENTS)
           for f in listed):
        return 0
    images = _hilbert_maps([step.u for step, _ in moves])
    for i, ((step, frames), image) in enumerate(zip(moves, images)):
        f = frames[0]
        if (image is None or not _obeys_frame_law(step.move, step.frame)
                or born_map(step.move, f, step.frame(f)) != image):
            return i
    return len(moves)


def _sweep(moves, route=None) -> int:
    """Check each (step, frames) of moves, in order, for every state
    (_packed_sweep): returns len(moves).  The first step that fails is
    replayed (_replay) in its frames by route, or by performing the step
    when route is None."""
    passed = _packed_sweep(moves)
    if passed < len(moves):
        step, frames = moves[passed]
        _replay(step.what, route or partial(perform, step=step), frames)
    return passed


def _replay(what: str, route, frames) -> NoReturn:
    """Run route(rho, f) for each standard test state and then each of the
    20 MUB states, each in every frame in turn, which raises what a
    state-by-state sweep meets first; the MUB states give a witness to a
    fault that no standard state shows.  When nothing raises, raise that
    `what` fails packed but passes state by state."""
    mub_states = (density_from_vector(clifford.mub_vector(n, k))
                  for n in range(5) for k in ELEMENTS)
    for rho in (*standard_test_states(), *mub_states):
        for f in frames:
            route(rho, f)
    raise AssertionError(f"{what} fails packed but passes state by state")


def transport_sweep() -> int:
    """What transport(rho, f, L) checks, for every L of the group, every
    standard test state rho and every canonical frame f, in that order:
    returns the number of (L, frame, state) triples checked.

    Each L is one transport_step of _sweep in the 12 frames: one dot for
    its map of the Born indices, compared once, in the first frame, with
    born_map after the frame law, which covers every state in every frame
    whose lines are read by their labels.  An L that fails is performed
    state by state and then frame by frame, which raises for the first
    state in order at its first failing frame."""
    frames = phasespace.canonical_shift_vectors()
    passed = _sweep([(transport_step(L), frames) for L in symplectic.enumerate_group()])
    return passed * len(frames) * len(standard_test_states())


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
    consist of exactly 12 orbits, one per canonical shift vector, or
    AssertionError is raised.
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
    e0_reps = {rep for rep, e in orbit_class.items() if e == 0}
    if len(e0_reps) != 12 or canonical_reps != e0_reps:
        raise AssertionError(f"the E=0 class is {len(e0_reps)} orbits; the canonical shift "
                             f"vectors lie in {len(canonical_reps & e0_reps)} of them and "
                             f"{len(canonical_reps - e0_reps)} others")
    return {
        "total": len(rep_of),
        "class_counts": class_counts,
        "orbit_counts": orbit_counts,
        "e0_orbit_count": orbit_counts.get(0, 0),
        "e0_member_count": class_counts.get(0, 0),
    }


@lru_cache(maxsize=1)
def standard_test_states() -> tuple[Matrix, ...]:
    """Fixed exact test suite: the four basis states, (1,1,0,0), and I/4,
    built once."""
    basis = [density_from_vector([1 if i == j else 0 for j in range(4)])
             for i in range(4)]
    return (*basis, density_from_vector([1, 1, 0, 0]), MAXIMALLY_MIXED)


def rotational_symmetry_check(L: SympMat, *more: SympMat) -> dict:
    """Check the conjugated-rotation covariance of the f_L frame, for L and
    then for each further L: returns R_L's period, the striations it cycles
    and the number of L checked.

    For each L, R_L = L R L^-1, read off the group's product table
    (symplectic.cayley) at the indices of L, R and L^-1, must have period
    five, as the same table gives it, and cycle all five striations; its
    frame map f -> S_{R_L} f + f_{R_L} (phasespace.frame_map) must fix f_L;
    and V = U_L U_R U_L^dag must move the f_L-table of each state along
    alpha -> R_L alpha.  Many L share one Step (V, R_L, f_L): the 60 L of
    the group give 12, each checked from the one frame f_L by _sweep in the
    order of its first L, which also names it.  A step that fails is
    performed state by state, which raises what a sweep L by L meets first
    at that step.
    """
    group, table = symplectic.enumerate_group(), symplectic.cayley()
    at = {m: j for j, m in enumerate(group)}
    one, rotation = at[symplectic.IDENTITY], at[symplectic.R]
    u_r = clifford.unitary_for(symplectic.R)
    firsts = {}  # (V, R_L, f_L) -> what FAIL lines name it by, from the first L that gives it
    for L in (L, *more):
        symplectic.require_symplectic(L)
        k = table[table[at[L]][rotation]][at[symplectic.inverse(L)]]  # R_L's index
        power, period = k, 1
        while power != one and period < 5:
            power = table[power][k]
            period += 1
        if power != one or period != 5:
            raise AssertionError(f"R_L does not have period 5 for {symplectic.to_text(L)}")
        r_l = group[k]

        # R_L sends striation n to m for row m's (n, s); the walk follows the
        # inverse map, which cycles all five exactly when the map does.
        monomial = phasespace._monomial(r_l)
        striation = 0
        seen = set()
        for _ in range(5):
            seen.add(striation)
            striation = monomial[striation][0]
        if len(seen) != 5:
            raise AssertionError(
                f"R_L does not cycle all striations for {symplectic.to_text(L)}"
            )
        f_l = phasespace.shift_vector(L)
        if phasespace.compose_frame(f_l, r_l) != f_l:
            raise AssertionError(f"R_L does not fix f_L for {symplectic.to_text(L)}")
        v = clifford.conjugate(clifford.unitary_for(L), u_r)
        firsts.setdefault((v, r_l, f_l), f"conjugated rotation for L={symplectic.to_text(L)}")

    _sweep([(Step(what, what, v, linear_perm(r_l), phasespace.frame_map(r_l)), (f_l,))
            for (v, r_l, f_l), what in firsts.items()])
    return {"period": period, "striations_cycled": len(seen), "rotations": 1 + len(more)}


def _line_sums(nums, f: Index) -> list[int]:
    """Per Born index, the sum of the 16 values nums, in gf4.all_points()
    order, over the line of frame f that the index labels."""
    sums = [0] * 20
    for label, points in zip(line_labels(f), _line_positions()):
        sums[label] = sum(map(nums.__getitem__, points))
    return sums


def _first_bad_line(key, born, f: Index) -> int | None:
    """The first line 4n + k of frame f whose values in key do not sum to
    its Born probability in born, or None; both are (den, nums): a
    WignerTable.key and born_probability, or (4, an _integer_table) and (1,
    its Born numerators)."""
    (den, nums), (prob_den, probs) = key, born
    sums = _line_sums(nums, f)
    return next((j for j, label in enumerate(line_labels(f))
                 if sums[label] * prob_den != probs[label] * den), None)


def marginal_check(rho: Matrix, f: Index) -> dict:
    """Line sums are Born probabilities; displacement covariance holds.

    In frame f: for every line of every striation, the sum of Wigner values
    over the line equals the exact Born probability of the associated basis
    vector (_first_bad_line on wigner_table's key); then displacing the
    state by each beta in turn shifts the table by beta, as displace()
    checks it and builds the new table.
    """
    j = _first_bad_line(wigner_table(rho, f).key, clifford.born_probability(rho), f)
    if j is not None:
        n, k = divmod(j, 4)
        raise AssertionError(f"marginal failed at line (n={n}, k={k}), f={f}")
    for beta in gf4.all_points():
        displace(rho, f, beta)
    return {"lines": len(_line_positions()), "displacements": 16}


@lru_cache(maxsize=1)
def _point_lines() -> tuple[itemgetter, ...]:
    """Per position in gf4.all_points(), a getter of the five lines 4n + k
    through it."""
    return tuple(itemgetter(*(j for j, points in enumerate(_line_positions()) if i in points))
                 for i in range(16))


def _integer_table(before, trace: int, f: Index) -> list[int]:
    """A state's Wigner table in frame f on integers, per point of
    gf4.all_points(): the sum of the tuple of the state's Born numerators
    before (over 4 den) of the five lines through it, each line's read at
    its label, minus 4 times its trace numerator (over den): 16 den W^f."""
    by_line = itemgetter(*line_labels(f))(before)
    return [sum(lines(by_line)) - 4 * trace for lines in _point_lines()]


def marginal_sweep() -> dict:
    """marginal_check(rho, f) for every standard test state rho and every
    canonical frame f: returns the number of (frame, state) pairs and, per
    pair, of line sums and of displacements checked.

    Line sums first, each through _first_bad_line: in each frame, on every
    state's _integer_table; in the first frame also on each state's
    wigner_table key, as marginal_check reads it.  Then displacements: the
    16 displacement_steps of _sweep in the 12 frames.  Any failure runs
    marginal_check state by state and frame by frame (_replay), which
    raises what a per-state sweep meets first."""
    states, frames = standard_test_states(), phasespace.canonical_shift_vectors()
    borns = [(clifford.born_probability(rho)[1], sum(rho.re[::5])) for rho in states]
    checks = [((4, _integer_table(before, trace, f)), (1, before), f)
              for f in frames for before, trace in borns]
    checks += [(wigner_table(rho, frames[0]).key, clifford.born_probability(rho), frames[0])
               for rho in states]
    bad = next((f for key, born, f in checks if _first_bad_line(key, born, f) is not None), None)
    if bad is not None:
        _replay(f"marginal in frame f={bad}", marginal_check, frames)
    passed = _sweep([(displacement_step(beta), frames) for beta in gf4.all_points()],
                    marginal_check)
    return {"pairs": len(frames) * len(states), "lines": len(_line_positions()),
            "displacements": passed}


def reconstruct(table: WignerTable) -> Matrix:
    """Inverse transform: rho = sum_alpha W_alpha A^f_alpha, collected per
    line: line sums times the MUB projectors onto the frame's labels, minus
    the total times I.  The same map on every table, on integers: over 4 den,
    each entry is the line sums and -total, in numerators over den, dotted
    with its _projector_columns column; the sum is reduced once.  Integer
    weights on Hermitian projectors give a Hermitian sum, so only a total
    other than 1 can reject a table."""
    den, nums = table.key
    if sum(nums) != den:
        raise ValueError("corrupted Wigner table: reconstruction is not a state")
    weights = [*_line_sums(nums, table.f), -den]
    entries = [dot(column, weights) for column in _projector_columns()]
    return Matrix._reduced(4, entries[:16], entries[16:], 4 * den)
