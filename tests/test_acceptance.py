"""Acceptance gate: twelve exact criteria, one pass/fail line each.

Every assertion here is zero-tolerance; run with -s to see the lines as the
suite progresses.
"""

import itertools
import pathlib
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

from qphase4 import clifford, gf4, phasespace, symplectic, wigner
from qphase4.exact import Matrix, Scalar, norm_sq
from qphase4.gf4 import ELEMENTS, OMEGA, OMEGA_BAR
from qphase4.phasespace import ZERO_INDEX
from qphase4.single_qubit import single_qubit_demo
from reference import apply_index_operator, inner
from test_wigner import operator_index

GOLDEN = pathlib.Path(__file__).parent / "golden"
G = ((OMEGA_BAR, 0), (0, OMEGA))


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"FAIL {num:2d}: {desc}")
        raise
    print(f"PASS {num:2d}: {desc}")


def test_01_group_structure():
    with criterion(1, "60-element group enumeration and decomposition round-trip"):
        group = symplectic.enumerate_group()
        assert len(group) == 60 and len(set(group)) == 60
        brute = {
            ((a, b), (c, d))
            for a, b, c, d in itertools.product(ELEMENTS, repeat=4)
            if gf4.det(((a, b), (c, d))) == 1
        }
        assert set(group) == brute
        for L in group:
            assert symplectic.decompose(L).matrix() == L


def test_02_metaplectic_correspondence():
    with criterion(2, "U_L D U_L^dag = +/-D over all 960 pairs"):
        rep = clifford.verify_metaplectic()
        assert rep["checked"] == 960
        assert set(rep["signs"].values()) <= {1, -1}


def test_03_projective_representation():
    with criterion(3, "projective representation over all 3600 pairs, i^k phases"):
        rep = clifford.verify_projective_rep()
        assert rep["checked"] == 3600
        assert set(rep["phases"].values()) <= {0, 1, 2, 3}
        assert len(rep["shear_rotation_shear"]) == 80


def test_04_mub_completeness():
    with criterion(4, "five mutually unbiased bases, exact overlaps"):
        vecs = {(n, k): clifford.mub_vector(n, k) for n in range(5) for k in ELEMENTS}
        assert len(vecs) == 20
        cross = 0
        for (n1, k1), v1 in vecs.items():
            assert norm_sq(v1) == 1
            for (n2, k2), v2 in vecs.items():
                if (n1, k1) >= (n2, k2):
                    continue
                ov = inner(v1, v2)
                mag = ov.re * ov.re + ov.im * ov.im
                if n1 == n2:
                    assert mag == 0
                else:
                    assert mag == Fraction(1, 4)
                    cross += 1
        assert cross == 160


def test_05_index_calculus():
    with criterion(5, "index vectors, index operators, functoriality"):
        q, p = phasespace.qp_vectors()
        assert q == (1, 0, 1, OMEGA_BAR, OMEGA_BAR)
        assert p == (0, 1, OMEGA_BAR, OMEGA_BAR, 1)
        assert phasespace.index_operator(symplectic.shear(1)) == (
            (1, 0, 0, 0, 0),
            (0, 0, 0, OMEGA, 0),
            (0, 0, 0, 0, OMEGA_BAR),
            (0, OMEGA_BAR, 0, 0, 0),
            (0, 0, OMEGA, 0, 0),
        )
        assert phasespace.index_operator(symplectic.R) == tuple(
            tuple(1 if n == (m - 1) % 5 else 0 for n in range(5)) for m in range(5)
        )
        group = symplectic.enumerate_group()
        for L in group:
            s = phasespace.index_operator(L)
            for alpha in gf4.all_points():
                assert apply_index_operator(
                    s, phasespace.point_index(alpha)
                ) == phasespace.point_index(gf4.mat_vec(L, alpha))
        for l1 in group:
            s1 = phasespace.index_operator(l1)
            for l2 in group:
                s2 = phasespace.index_operator(l2)
                s12 = phasespace.index_operator(symplectic.product(l1, l2))
                composed = tuple(
                    tuple(
                        _gf4_dot(s1[m], tuple(s2[j][n] for j in range(5)))
                        for n in range(5)
                    )
                    for m in range(5)
                )
                assert composed == s12


def _gf4_dot(row, col):
    acc = 0
    for a, b in zip(row, col):
        acc = gf4.add(acc, gf4.mul(a, b))
    return acc


def test_06_shift_vectors():
    with criterion(6, "shift vectors: generators, closed form, twelve values"):
        assert phasespace.shift_vector(symplectic.shear(0)) == ZERO_INDEX
        assert phasespace.shift_vector(symplectic.shear(1)) == (1, 0, 1, 0, OMEGA)
        assert phasespace.shift_vector(symplectic.shear(OMEGA)) == (
            OMEGA, 1, OMEGA_BAR, OMEGA, OMEGA_BAR,
        )
        assert phasespace.shift_vector(symplectic.shear(OMEGA_BAR)) == (OMEGA_BAR,) * 5
        f_g = phasespace.shift_vector(G)
        assert f_g == (0, OMEGA, 1, 0, 1)
        assert phasespace.compose_frame(f_g, G) == (0, 1, 0, OMEGA, 1)
        a0 = wigner.frame(ZERO_INDEX)[(0, 0)]
        seen = set()
        for L in symplectic.enumerate_group():
            f = phasespace.shift_vector(L)
            u = clifford.unitary_for(L)
            assert operator_index(u @ a0 @ u.dagger()) == f
            seen.add(f)
        assert len(seen) == 12
        assert seen == set(phasespace.canonical_shift_vectors())


def test_07_transport_theorem():
    with criterion(7, "transport theorem over 60 x 12 x 6 plus golden tables"):
        states = wigner.standard_test_states()
        count = 0
        for L in symplectic.enumerate_group():
            for f in phasespace.canonical_shift_vectors():
                for rho in states:
                    wigner.transport(rho, f, L)  # raises on any mismatch
                    count += 1
        assert count == 60 * 12 * 6
        for argv, name in (
            (["wigner", "--state", "up*right"], "wigner_up_right.txt"),
            (
                ["apply", "--state", "up*right", "[[W,0],[0,w]]", "[[W,0],[0,w]]"],
                "apply_g_twice.txt",
            ),
        ):
            out = subprocess.run(
                [sys.executable, "-m", "qphase4.cli", *argv],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_08_marginals():
    with criterion(8, "line sums are Born probabilities; displacement covariance"):
        for f in phasespace.canonical_shift_vectors():
            for rho in wigner.standard_test_states():
                rep = wigner.marginal_check(rho, f)
                assert rep == {"lines": 20, "displacements": 16}


def test_09_classification():
    with criterion(9, "quadratic classification of all 1024 definitions"):
        for f in phasespace.canonical_shift_vectors():
            assert wigner.similarity_class(f) == 0
        group = symplectic.enumerate_group()
        for L in group:
            for f in itertools.product(ELEMENTS, repeat=5):
                assert wigner.similarity_class(
                    phasespace.compose_frame(f, L)
                ) == wigner.similarity_class(f)
        rep = wigner.census()
        assert len(rep["class_counts"]) == 4
        assert rep["e0_orbit_count"] == 12
        assert rep["e0_member_count"] == 12 * 16
        # The 12 canonical frames, all of class E = 0, lie in 12 distinct
        # displacement orbits: they cover the E = 0 class.
        canonical = phasespace.canonical_shift_vectors()
        assert len({frozenset(phasespace.displace_index(f, b) for b in gf4.all_points())
                    for f in canonical}) == 12


def test_10_rotational_symmetry():
    with criterion(10, "conjugated rotations: period five, striations cycled"):
        for L in symplectic.enumerate_group():
            rep = wigner.rotational_symmetry_check(L)
            assert rep["period"] == 5
            assert rep["striations_cycled"] == 5


def test_11_single_qubit_demo():
    with criterion(11, "single-qubit demo: covariance, reinterpretation, obstruction"):
        rep = single_qubit_demo()
        assert rep["points_checked"] == 4
        assert rep["rotation_covariance"] and rep["reinterpretation"]
        assert rep["bloch_reflection_determinant"] == -1


def test_12_reconstruction():
    with criterion(12, "reconstruction round-trip and frame orthogonality"):
        for f in phasespace.canonical_shift_vectors():
            fr = wigner.frame(f)
            for a1, op1 in fr.items():
                for a2, op2 in fr.items():
                    assert (op1 @ op2).trace() == Scalar(4 if a1 == a2 else 0)
            for rho in wigner.standard_test_states():
                table = wigner.wigner_table(rho, f)
                assert wigner.reconstruct(table) == rho
