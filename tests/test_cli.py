"""Command-line parsing, rendering, exit codes, and JSON output."""

import ast
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import qphase4
from qphase4 import cli, clifford, exact, gf4, phasespace, symplectic, wigner
from qphase4.exact import MAX_JSON_DIGITS, Matrix, Scalar
from qphase4.gf4 import OMEGA, OMEGA_BAR
from reference import dense_metaplectic_signs

GOLDEN = pathlib.Path(__file__).parent / "golden"
G_TEXT = "[[W,0],[0,w]]"
NON_SYMPLECTIC = "[[1,0],[0,w]]"
ONE = {"re": [1, 1], "im": [0, 1]}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


# --- parsing -----------------------------------------------------------------

def test_parse_matrix():
    assert cli.parse_matrix("[[W,0],[0,w]]") == ((OMEGA_BAR, 0), (0, OMEGA))
    assert cli.parse_matrix(" [[1, 0], [1, 1]] ") == ((1, 0), (1, 1))
    for bad in ("[[W,0],[0]]", "[[2,0],[0,1]]", "W", ""):
        with pytest.raises(cli.ParseError):
            cli.parse_matrix(bad)


def test_parse_frame():
    assert cli.parse_frame("0,w,1,0,1") == (0, OMEGA, 1, 0, 1)
    for bad in ("0,w,1,0", "0,w,1,0,2", "0 w 1 0 1"):
        with pytest.raises(cli.ParseError):
            cli.parse_frame(bad)


def test_parse_state_named_products():
    rho = cli.parse_state("up*right")
    assert rho == wigner.density_from_vector([1, 1, 0, 0])
    assert cli.parse_state("left*up") == wigner.density_from_vector([1, 0, -1, 0])
    for bad in ("up", "up*sideways", "up*up*up"):
        with pytest.raises(cli.StateError):
            cli.parse_state(bad)


def test_parse_state_json_vector():
    obj = {"vector": [{"re": [1, 1], "im": [0, 1]} for _ in range(2)]
           + [{"re": [0, 1], "im": [0, 1]} for _ in range(2)]}
    assert cli.parse_state(json.dumps(obj)) == wigner.density_from_vector([1, 1, 0, 0])


def test_parse_state_json_density(tmp_path):
    rho = wigner.MAXIMALLY_MIXED
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"density": rho.to_json()}), encoding="utf-8")
    assert cli.parse_state(f"@{path}") == rho
    with pytest.raises(cli.StateError):
        cli.parse_state(f"@{tmp_path / 'missing.json'}")
    path.write_bytes(b"\xff\xfe not utf-8")
    with pytest.raises(cli.StateError):
        cli.parse_state(f"@{path}")


def test_parse_op():
    assert cli.parse_op("D[w,0]") == ("displace", (OMEGA, 0))
    assert cli.parse_op(G_TEXT) == ("symplectic", ((OMEGA_BAR, 0), (0, OMEGA)))
    # A malformed displacement is named as one, in the user's own text.
    with pytest.raises(cli.ParseError, match=re.escape("displacement: 'D[w, 5]' (expected D[q,p]")):
        cli.parse_op("D[w, 5]")


# --- text rendering against golden files -------------------------------------

def test_tables_golden(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert out == golden("tables.txt")


def test_wigner_golden(capsys):
    code, out, _ = run(capsys, "wigner", "--state", "up*right")
    assert code == 0
    assert out == golden("wigner_up_right.txt")


def test_apply_golden(capsys):
    code, out, _ = run(capsys, "apply", "--state", "up*right", G_TEXT, G_TEXT)
    assert code == 0
    assert out == golden("apply_g_twice.txt")


#: A general pure state in a frame off zero, displaced and transported in turn.
MIXED_CHAIN = ["--state", '{"vector":[{"re":[1,2],"im":[0,1]},{"re":[0,1],"im":[1,3]},'
               '{"re":[-1,1],"im":[0,1]},{"re":[0,1],"im":[0,1]}]}', "--frame", "w,0,1,W,0",
               "D[1,w]", "[[W,1],[1,0]]", "D[W,0]", "[[0,1],[1,0]]"]


@pytest.mark.parametrize("json_flag, name", [([], "apply_mixed_chain.txt"),
                                             (["--json"], "apply_mixed_chain.json")],
                         ids=["text", "json"])
def test_apply_mixed_chain_golden(capsys, json_flag, name):
    code, out, err = run(capsys, "apply", *json_flag, *MIXED_CHAIN)
    assert (code, out, err) == (0, golden(name), "")


def test_verify_all_golden(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    assert out == golden("verify_all.txt")


def test_census_golden(capsys):
    code, out, _ = run(capsys, "census")
    assert code == 0
    assert out == golden("census.txt")


# --- simple commands ----------------------------------------------------------

def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", G_TEXT)
    assert code == 0
    assert out.strip() == "R^2 H_1 R^1"
    code, out, _ = run(capsys, "decompose", G_TEXT, "--json")
    assert json.loads(out) == {"r": 2, "x": "1", "s": 1}


def test_shift(capsys):
    code, out, _ = run(capsys, "shift", G_TEXT)
    assert code == 0
    assert out.strip() == "[0,w,1,0,1]"
    code, out, _ = run(capsys, "shift", "[[1,0],[1,1]]", "--json")
    assert json.loads(out) == ["1", "0", "1", "0", "w"]


def test_unitary(capsys):
    code, out, _ = run(capsys, "unitary", G_TEXT)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["-1", "0", "0", "0"]
    assert lines[1].split() == ["0", "0", "1", "0"]
    assert lines[3].split() == ["0", "1", "0", "0"]


def test_indexop(capsys):
    code, out, _ = run(capsys, "indexop", "[[1,0],[1,1]]", "--json")
    assert code == 0
    expect = [
        [gf4.to_token(v) for v in row]
        for row in phasespace.index_operator(symplectic.shear(1))
    ]
    assert json.loads(out) == expect


def test_census(capsys):
    code, out, _ = run(capsys, "census", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["total"] == 1024
    assert rep["e0_orbit_count"] == 12
    assert rep["e0_member_count"] == 192
    assert rep["class_counts"] == {"0": 192, "1": 192, "w": 320, "W": 320}
    assert rep["orbit_counts"] == {"0": 12, "1": 12, "w": 20, "W": 20}


def test_census_whose_canonical_frames_miss_the_e0_class_is_one_fail_line(capsys, monkeypatch):
    # Twelve frames of class E = 1 in place of the canonical shift vectors:
    # the E = 0 class is still 12 orbits, but none of them is reached.  One
    # FAIL line and exit 1, also under -O, where a bare assert would vanish.
    mutation = ("frames = tuple([f for f in product(gf4.ELEMENTS, repeat=5)\n"
                "                if wigner.similarity_class(f) == 1][:12])\n"
                "phasespace.canonical_shift_vectors = lambda: frames\n")
    expect = (1, "", "FAIL census: the E=0 class is 12 orbits; the canonical shift vectors "
                     "lie in 0 of them and 12 others\n")
    monkeypatch.setattr(phasespace, "canonical_shift_vectors", phasespace.canonical_shift_vectors)
    exec(mutation, {"product": itertools.product, "gf4": gf4, "wigner": wigner,
                    "phasespace": phasespace})
    assert run(capsys, "census") == expect
    assert run(capsys, "census", "--json") == expect
    program = ("import sys\nfrom itertools import product\n"
               "from qphase4 import cli, gf4, phasespace, wigner\n" + mutation
               + "sys.exit(cli.main(['census']))")
    proc = subprocess.run([sys.executable, "-O", "-c", program], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == expect


# --- JSON / text equivalence --------------------------------------------------

def test_wigner_json_matches_table(capsys):
    code, out, _ = run(capsys, "wigner", "--state", "up*right", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["f"] == ["0", "0", "0", "0", "0"]
    values = wigner.wigner_table(
        wigner.density_from_vector([1, 1, 0, 0]), phasespace.ZERO_INDEX
    ).values
    for i, p in enumerate(reversed(gf4.ELEMENTS)):
        for j, q in enumerate(gf4.ELEMENTS):
            num, den = obj["values"][i][j]
            assert values[(q, p)] == Fraction(num, den)


def test_apply_json_final_frame(capsys):
    code, out, _ = run(
        capsys, "apply", "--state", "up*right", "--json", G_TEXT, G_TEXT
    )
    assert code == 0
    steps = json.loads(out)
    assert len(steps) == 3
    assert steps[0]["op"] == "initial"
    assert steps[2]["table"]["f"] == ["0", "1", "0", "w", "1"]


def test_apply_displacement_op(capsys):
    code, out, _ = run(capsys, "apply", "--state", "up*up", "--json", "D[1,0]")
    assert code == 0
    steps = json.loads(out)
    before = steps[0]["table"]["values"]
    after = steps[1]["table"]["values"]
    # D[1,0] shifts every Wigner value horizontally by q -> q + 1
    swap = {0: 1, 1: 0, 2: 3, 3: 2}
    for i in range(4):
        for j in range(4):
            assert after[i][j] == before[i][swap[j]]


# --- verification and exit codes ---------------------------------------------

def test_verify_fast_scopes(capsys):
    wigner.wigner_table.cache_clear()  # only verify all reads it, in marginals
    for scope in ("metaplectic", "single-qubit", "all"):
        code, out, _ = run(capsys, "verify", scope)
        assert code == 0
        assert out.startswith("metaplectic: " if scope == "all" else scope.split("-")[0])
        # -O drops assert statements; the sweeps' own checks must still run.
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "qphase4.cli", "verify", scope],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == out
    # verify all builds one table per standard state, in the first canonical
    # frame, to cross-check the packed tables: six misses, none evicted.
    info = wigner.wigner_table.cache_info()
    assert info.currsize == info.misses == len(wigner.standard_test_states())


@pytest.mark.parametrize(
    "scope, module, name, report, line",
    [
        ("metaplectic", clifford, "verify_metaplectic", {"checked": 7, "signs": {}},
         "metaplectic: 7/7 signs in {+1,-1}"),
        ("marginals", wigner, "marginal_sweep", {"pairs": 5, "lines": 3, "displacements": 2},
         "marginals: 5/5 (frame, state) pairs, 3 lines + 2 displacements each"),
        ("symmetry", wigner, "rotational_symmetry_check",
         {"period": 3, "striations_cycled": 2, "rotations": 7},
         "symmetry: 7/7 conjugated rotations, period 3, 2 striations cycled"),
    ],
    ids=["metaplectic", "marginals", "symmetry"],
)
def test_verify_line_counts_come_from_the_sweep(capsys, monkeypatch, scope, module, name,
                                                report, line):
    monkeypatch.setattr(module, name, lambda *args: report)
    code, out, _ = run(capsys, "verify", scope)
    assert code == 0
    assert out == line + "\n"


def test_verify_symmetry_runs_each_distinct_packed_step_once(capsys, monkeypatch):
    # Each of the 60 L forms its own V = U_L U_R U_L^dag, one conjugate call
    # each; the 60 give 12 distinct steps (V, R_L, f_L), one kernel dot
    # each.
    packed, read = [], exact.Family.products
    calls, conjugate = [], clifford.conjugate
    monkeypatch.setattr(exact.Family, "products", lambda family, a: packed.append(a)
                        or read(family, a))
    monkeypatch.setattr(clifford, "conjugate", lambda u, rho: calls.append(u) or conjugate(u, rho))
    code, out, _ = run(capsys, "verify", "symmetry")
    assert (code, out) == (0, golden("verify_all.txt").splitlines()[4] + "\n")
    assert calls == [clifford.unitary_for(L) for L in symplectic.enumerate_group()]
    assert (len(packed), len(set(packed))) == (12, 12)


def test_wrong_permutation_for_one_rotation_fails_packed_verify_symmetry_at_its_first_L(
        capsys, monkeypatch):
    # R_L of L = group[23] moved one position on: still a bijection, but it
    # takes lines off the lines.  The packed step fails and is performed
    # for the first L in group order that gives it, group[20], and raises at
    # the first state: the line a sweep L by L printed.
    group, perm, perform = symplectic.enumerate_group(), wigner.linear_perm, wigner.perform
    L = group[23]
    r_l = symplectic.product(symplectic.product(L, symplectic.R), symplectic.inverse(L))
    replayed = []
    monkeypatch.setattr(wigner, "linear_perm",
                        lambda m: perm(m)[1:] + perm(m)[:1] if m == r_l else perm(m))
    monkeypatch.setattr(wigner, "perform",
                        lambda rho, f, step: replayed.append(rho) or perform(rho, f, step))
    code, out, err = run(capsys, "verify", "symmetry")
    assert symplectic.to_text(group[20]) == "[[0,W],[w,1]]"
    assert (code, out, err) == (1, "", "FAIL symmetry: conjugated rotation for L=[[0,W],[w,1]] "
                                       "is not covariant in frame f=(0, 2, 1, 0, 1)\n")
    assert replayed == [wigner.standard_test_states()[0]]


def _read_every_unitary_as_the_identity(monkeypatch):
    read = exact.Family.products
    monkeypatch.setattr(exact.Family, "products",
                        lambda family, a: read(family, Matrix.identity(4)))


def test_packed_symmetry_that_disagrees_with_each_state_says_so(capsys, monkeypatch):
    # A chunk reader that reads every u as I fails at the first step, L = I,
    # while each state passes alone when performed.
    _read_every_unitary_as_the_identity(monkeypatch)
    code, out, err = run(capsys, "verify", "symmetry")
    assert (code, out, err) == (1, "", "FAIL symmetry: conjugated rotation for L=[[1,0],[0,1]] "
                                       "fails packed but passes state by state\n")


def test_verify_transport_counterexample_exits_1(capsys, monkeypatch):
    # A frame that is never reinterpreted breaks transport for every L that moves it.
    monkeypatch.setattr(phasespace, "frame_map", lambda L: phasespace.FRAME_IDENTITY)
    code, out, err = run(capsys, "verify", "transport")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("FAIL transport: ")


def test_wrong_permutation_for_one_L_fails_verify_transport(capsys, monkeypatch):
    # Point i's value goes where point i + 1 belongs: still a bijection, wrong for R only.
    linear_perm = wigner.linear_perm
    monkeypatch.setattr(wigner, "linear_perm", lambda L: linear_perm(L)[1:] + linear_perm(L)[:1]
                        if L == symplectic.R else linear_perm(L))
    code, out, err = run(capsys, "verify", "transport")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"FAIL transport: transport by L={symplectic.to_text(symplectic.R)} ")


def test_wrong_shift_vector_for_one_L_fails_verify_transport(capsys, monkeypatch):
    # f_R off in component 1: U_R takes the computational basis states into
    # MUB 1, and the frame reached by R then mislabels that basis's lines.
    # The 12 swept frames are read first, from the true shift vectors.
    phasespace.canonical_shift_vectors()
    shift_vector = phasespace.shift_vector

    def wrong(L):
        f = shift_vector(L)
        return (f[0], gf4.add(f[1], 1), *f[2:]) if L == symplectic.R else f

    monkeypatch.setattr(phasespace, "shift_vector", wrong)
    code, out, err = run(capsys, "verify", "transport")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"FAIL transport: transport by L={symplectic.to_text(symplectic.R)} ")


@pytest.mark.parametrize("n, c", [(n, c) for n in range(5) for c in (1, OMEGA, OMEGA_BAR)])
def test_every_wrong_shift_vector_entry_fails_verify_transport(capsys, monkeypatch, n, c):
    # f_L off by c in component n, each of the 15 at its own L: the kernel
    # checks every operator, not only the standard states, so each fails
    # and the replay names L (the MUB states witness what the six standard
    # states miss).
    L = symplectic.enumerate_group()[12 * n + 4 * (c - 1) + 3]
    phasespace.canonical_shift_vectors()
    shift_vector = phasespace.shift_vector
    monkeypatch.setattr(phasespace, "shift_vector",
                        lambda m: _frame_off(shift_vector(m), n, c) if m == L else shift_vector(m))
    code, out, err = run(capsys, "verify", "transport")
    assert (code, out) == (1, "")
    assert re.fullmatch(rf"FAIL transport: transport by L={re.escape(symplectic.to_text(L))} "
                        r"is not covariant in frame f=\(\d, \d, \d, \d, \d\)\n", err), err


def _sign_flipped_displacement(monkeypatch):
    """Patch D_(1,w) to D_(1,w) diag(1, 1, 1, -1): it still moves the six
    standard states as D_(1,w) does, but not every MUB state."""
    displacement, beta = clifford.displacement, (1, OMEGA)
    flip = Matrix([[int(i == j) * (-1 if i == 3 else 1) for j in range(4)] for i in range(4)])
    monkeypatch.setattr(clifford, "displacement",
                        lambda b: displacement(b) @ flip if b == beta else displacement(b))


def test_sign_flipped_displacement_fails_verify_marginals(capsys, monkeypatch):
    # Every standard state passes marginal_check with it in every canonical
    # frame; the kernel fails its step, and the replay meets it at a MUB
    # state, in the first frame.
    _sign_flipped_displacement(monkeypatch)
    for rho in wigner.standard_test_states():
        for f in phasespace.canonical_shift_vectors():
            wigner.marginal_check(rho, f)
    assert run(capsys, "verify", "marginals") == (
        1, "", "FAIL marginals: D[1,w] is not covariant in frame f=(0, 0, 0, 0, 0)\n")


def test_verify_marginals_witness_replays_through_apply(capsys, monkeypatch):
    # The witness of an operator-level fault: the first MUB state that
    # D[1,w] fails, performed by apply in the frame verify names, fails with
    # the same detail.
    _sign_flipped_displacement(monkeypatch)
    detail = "D[1,w] is not covariant in frame f=(0, 0, 0, 0, 0)\n"
    assert run(capsys, "verify", "marginals") == (1, "", "FAIL marginals: " + detail)
    vectors = [clifford.mub_vector(n, k) for n in range(5) for k in gf4.ELEMENTS]
    failing = []
    for b in vectors:
        try:
            wigner.displace(wigner.density_from_vector(b), phasespace.ZERO_INDEX, (1, OMEGA))
        except AssertionError:
            failing.append(b)
    assert 0 < len(failing) < len(vectors)
    state = json.dumps({"vector": [x.to_json() for x in failing[0]]})
    assert run(capsys, "apply", "--state", state, "--frame", "0,0,0,0,0", "D[1,w]") == (
        1, "", "FAIL apply: " + detail)


def test_six_component_shift_vector_fails_verify_transport(capsys, monkeypatch):
    # An extra component, as a range(6) loop in shift_vector would give: the
    # index sum must refuse it, not let zip drop it.
    phasespace.canonical_shift_vectors()
    shift_vector = phasespace.shift_vector
    monkeypatch.setattr(phasespace, "shift_vector", lambda L: (*shift_vector(L), 0))
    code, out, err = run(capsys, "verify", "transport")
    assert (code, out, err) == (1, "", "FAIL transport: index lengths differ: 5 and 6\n")


@pytest.mark.parametrize("scope, steps", [("transport", 60), ("marginals", 16)])
def test_packed_sweeps_take_one_kernel_dot_per_step(capsys, monkeypatch, scope, steps):
    # Each unitary, U_L in group order or D_beta in gf4.all_points() order,
    # is read by one kernel dot (exact.Family.products) that covers every
    # state, and no state is conjugated: no conjugate call and no @, not
    # even for the 20 MUB columns, which the run builds afresh.
    if scope == "transport":
        units = [clifford.unitary_for(L) for L in symplectic.enumerate_group()]
    else:
        units = [clifford.displacement(beta) for beta in gf4.all_points()]
    clifford.mub_columns.cache_clear()
    products, packed, calls = [], [], []
    matmul, read, conjugate = Matrix.__matmul__, exact.Family.products, clifford.conjugate
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    monkeypatch.setattr(clifford, "conjugate", lambda u, rho: calls.append(u) or conjugate(u, rho))
    monkeypatch.setattr(exact.Family, "products", lambda family, a: packed.append(a)
                        or read(family, a))
    code, _, _ = run(capsys, "verify", scope)
    assert code == 0
    assert (len(calls), len(products)) == (0, 0)
    assert packed == units and len(units) == steps


def _frame_off(g, n, c):
    return tuple(gf4.add(x, c) if i == n else x for i, x in enumerate(g))


def _frame_map_off_under_identity(monkeypatch, rows=None, shift=None):
    """Patch L = I's frame map, the data its transport step rereads frames
    by: rows maps m -> (n, s) and shift m -> t replace those entries."""
    frame_map, identity = phasespace.frame_map, phasespace.frame_map(symplectic.IDENTITY)
    wrong = identity._replace(
        rows=tuple((rows or {}).get(m, row) for m, row in enumerate(identity.rows)),
        shift=tuple((shift or {}).get(m, t) for m, t in enumerate(identity.shift)))
    monkeypatch.setattr(phasespace, "frame_map",
                        lambda L: wrong if L == symplectic.IDENTITY else frame_map(L))


def _two_frames_off_under_identity(monkeypatch):
    """Patch L = I's frame map so that canonical frame 0's target is off in
    component 1 (by 1, as every frame's) and frame 3's also in component 0
    (S_00 = W: by w f_0, as in every frame with f_0 != 0)."""
    _frame_map_off_under_identity(monkeypatch, rows={0: (0, OMEGA_BAR)}, shift={1: 1})


def test_verify_transport_names_the_first_state_then_its_first_frame(capsys, monkeypatch):
    # Under L = I, every target off in component 1 fails up*right alone
    # (state 4), from frame 0 on, and the targets off in component 0, from
    # frame 3 on, fail the four basis states.  The packed sweep sees the
    # step fail once; the one line must name what a state-by-state sweep
    # meets first: state 0, at frame 3.
    frames, states = phasespace.canonical_shift_vectors(), wigner.standard_test_states()
    _two_frames_off_under_identity(monkeypatch)
    failing = []
    for rho in states:
        failing.append([])
        for k, f in enumerate(frames):
            try:
                wigner.transport(rho, f, symplectic.IDENTITY)
            except AssertionError:
                failing[-1].append(k)
    assert failing == [list(range(3, 12))] * 4 + [list(range(12)), []]
    code, out, err = run(capsys, "verify", "transport")
    assert (code, out, err) == (1, "", "FAIL transport: transport by L=[[1,0],[0,1]] "
                                       f"is not covariant in frame f={frames[3]}\n")


def test_a_frame_fault_in_the_last_frame_alone_fails_verify_transport(capsys, monkeypatch):
    # The last canonical frame alone is misread: its lines k = 0 and 1 of
    # striation 0 swap labels.  No affine frame map is off in one canonical
    # frame alone, so the fault is in how that frame is read.  The kernel
    # compares one frame per step, but checks every listed frame's labels
    # once per sweep; the first step, L = I, is replayed, and the basis
    # states fail in that frame.
    frames, labels = phasespace.canonical_shift_vectors(), wigner.line_labels
    monkeypatch.setattr(wigner, "line_labels", lambda f: (*labels(f)[1::-1], *labels(f)[2:])
                        if f == frames[-1] else labels(f))
    assert run(capsys, "verify", "transport") == (
        1, "", f"FAIL transport: transport by L=[[1,0],[0,1]] is not covariant in frame "
               f"f={frames[-1]}\n")


def test_an_index_operator_entry_off_with_frame_0_unchanged_fails_verify_transport(
        capsys, monkeypatch):
    # S_I's entry in row 2 is w, not 1: frame 0's target is unchanged, and
    # with it the one born_map the kernel compares, but the move no longer
    # obeys the frame law.  The replay names the first state's first frame
    # with f_2 != 0.
    frames = phasespace.canonical_shift_vectors()
    _frame_map_off_under_identity(monkeypatch, rows={2: (2, OMEGA)})
    assert wigner.transport_step(symplectic.IDENTITY).frame(frames[0]) == frames[0]
    code, out, err = run(capsys, "verify", "transport")
    assert (code, out, err) == (1, "", "FAIL transport: transport by L=[[1,0],[0,1]] is not "
                                       f"covariant in frame f={frames[2]}\n")


def test_a_rotation_frame_map_that_does_not_fix_f_l_fails_verify_symmetry(capsys, monkeypatch):
    # R_L's frame map for L = I, R itself, with its shift off in component
    # 4: f_I is no longer a fixed point, and the symmetry scope says so
    # before any step is packed.
    frame_map = phasespace.frame_map
    monkeypatch.setattr(phasespace, "frame_map", lambda L: frame_map(L)._replace(
        shift=_frame_off(frame_map(L).shift, 4, 1)) if L == symplectic.R else frame_map(L))
    assert run(capsys, "verify", "symmetry") == (
        1, "", "FAIL symmetry: R_L does not fix f_L for [[1,0],[0,1]]\n")


def test_verify_transport_witness_replays_through_apply(capsys, monkeypatch):
    # The witness verify transport names, L = I performed on state 0 (up*up)
    # from frame 3, is an apply call that fails with the same detail.
    frames = phasespace.canonical_shift_vectors()
    _two_frames_off_under_identity(monkeypatch)
    detail = f"transport by L=[[1,0],[0,1]] is not covariant in frame f={frames[3]}\n"
    assert run(capsys, "verify", "transport") == (1, "", "FAIL transport: " + detail)
    assert cli.parse_state("up*up") == wigner.standard_test_states()[0]
    frame = ",".join(map(gf4.to_token, frames[3]))
    assert run(capsys, "apply", "--state", "up*up", "--frame", frame, "[[1,0],[0,1]]") == (
        1, "", "FAIL apply: " + detail)


def test_packed_transport_that_disagrees_with_each_state_says_so(capsys, monkeypatch):
    # A chunk reader that reads every u as I fails at the first L that
    # moves the frames' lines, while each state passes alone through transport.
    _read_every_unitary_as_the_identity(monkeypatch)
    code, out, err = run(capsys, "verify", "transport")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"FAIL transport: transport by L=\S+ fails packed but passes state "
                        r"by state\n", err)


def test_verify_reports_a_fault_that_is_not_an_assertion_in_one_line(capsys, monkeypatch):
    # u rho, not u rho u^dag, is not Hermitian, so born_probability raises
    # ValueError inside the symmetry sweep, the one scope that still calls
    # clifford.conjugate, when its first failing step is performed: one
    # FAIL line with the type, no traceback, exit 1, and the scopes before it
    # printed as usual.
    monkeypatch.setattr(clifford, "conjugate", lambda u, rho: u @ rho)
    code, out, err = run(capsys, "verify", "symmetry")
    assert (code, out, err) == (
        1, "", "FAIL symmetry: ValueError: Born probabilities of a non-Hermitian operator\n")
    code, out, err = run(capsys, "verify", "all")
    assert code == 1 and out.splitlines()[-1].startswith("marginals: ")
    assert err == "FAIL symmetry: ValueError: Born probabilities of a non-Hermitian operator\n"


def test_a_fault_outside_verify_is_one_fail_line(capsys, monkeypatch):
    # The same fault met by apply, outside verify: an exception that is no
    # typed error and no AssertionError is one FAIL line naming the command,
    # in process and in a fresh interpreter, with no traceback.
    monkeypatch.setattr(clifford, "conjugate", lambda u, rho: u @ rho)
    code, out, err = run(capsys, "apply", "--state", "up*right", G_TEXT)
    assert (code, out, err) == (
        1, "", "FAIL apply: ValueError: Born probabilities of a non-Hermitian operator\n")
    program = ("import sys\nfrom qphase4 import cli, clifford\n"
               "clifford.conjugate = lambda u, rho: u @ rho\n"
               f"sys.exit(cli.main(['apply', '--state', 'up*right', {G_TEXT!r}]))")
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def _into_closed_pipe(args, unbuffered=False):
    """Run python with args, stdout a pipe whose read end is closed before start."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, *args], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["verify", "metaplectic"], ["tables"]], ids=["verify", "tables"])
def test_closed_stdout_exits_141_in_silence(argv, unbuffered):
    # A reader that went away is not a counterexample: exit 128 + SIGPIPE, as a
    # shell reports for a filter, whether the write fails at once or at exit.
    proc = _into_closed_pipe(["-m", "qphase4.cli", *argv], unbuffered)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_counterexample_keeps_exit_1_when_stdout_is_closed():
    # The metaplectic line is still buffered when rep fails, so the final
    # flush meets the closed pipe after cmd_verify has returned 1: 1 wins.
    code = ("import sys; from qphase4 import clifford, cli\n"
            "def injected(): raise AssertionError('injected')\n"
            "clifford.verify_projective_rep = injected\n"
            "sys.exit(cli.main(['verify', 'all']))")
    proc = _into_closed_pipe(["-c", code])
    assert (proc.returncode, proc.stderr) == (1, "FAIL rep: injected\n")


def test_stdout_absent_from_the_start_is_not_an_error():
    # With fd 1 closed before start-up, Python has no sys.stdout and print
    # discards: the flush that detects a departed reader must not trip on it.
    proc = subprocess.run([sys.executable, "-m", "qphase4.cli", "tables"],
                          stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_verify_metaplectic_makes_one_dense_product_per_unitary(capsys, monkeypatch):
    # U_L U_L^dag == I is the one dense check; every U_L D_a == +/- D_{La} U_L is
    # two dots of packed factors.  Counted at exact.product, the dense kernel,
    # which Matrix.is_unitary calls without building a product Matrix (no @).
    for L in symplectic.enumerate_group():
        clifford.unitary_for(L)
    products, matmuls = [], []
    product, matmul = exact.product, Matrix.__matmul__
    monkeypatch.setattr(exact, "product", lambda *args: products.append(1) or product(*args))
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: matmuls.append(1) or matmul(a, b))
    code, _, _ = run(capsys, "verify", "metaplectic")
    assert code == 0
    assert (len(products), len(matmuls)) == (60, 0)


def _flip(p):
    """Negate entry p (row-major) of a matrix."""
    def flip(u):
        re, im = list(u.re), list(u.im)
        re[p], im[p] = -re[p], -im[p]
        return Matrix._reduced(4, re, im, u.den)
    return flip


@pytest.mark.parametrize("L, mutate, alpha", [
    # U U^dag == 4 I: only the dense check at alpha == 0 sees a scaled unitary.
    (symplectic.R, lambda u: u.scaled(2), "(0, 0)"),
    # U_R has no zero entry: one sign flip breaks unitarity.
    (symplectic.R, _flip(0), "(0, 0)"),
    # U_H1 has one entry per row, so it stays unitary and a packed comparison fails.
    (symplectic.shear(1), _flip(3), None),
])
def test_metaplectic_counterexample_matches_the_dense_check(capsys, monkeypatch, L, mutate, alpha):
    unitary_for = clifford.unitary_for

    def mutated(m):
        return mutate(unitary_for(m)) if m == L else unitary_for(m)

    with pytest.raises(AssertionError) as dense:
        dense_metaplectic_signs(mutated)
    monkeypatch.setattr(clifford, "unitary_for", mutated)
    code, out, err = run(capsys, "verify", "metaplectic")
    assert code == 1
    assert out == ""
    assert err == f"FAIL metaplectic: {dense.value}\n"
    assert f"L={symplectic.to_text(L)}," in err
    assert (f"alpha={alpha}\n" in err) if alpha else "alpha=(0, 0)" not in err


@pytest.mark.parametrize("mutation, message", [
    # U_R -> -U_R: every product stays proportional, but U_R U_R^4 == -I.
    ("clifford._U_R_POWERS = tuple(-u if n % 2 else u for n, u in enumerate(clifford._U_R_POWERS))",
     "U_R does not have order 5"),
    # U_{H_1} -> -U_{H_1}: U_{H_1} U_{H_w} == -U_{H_W}.
    ("clifford._GENERATORS[1] = -clifford._GENERATORS[1]",
     "shear composition failed for x=1, y=2"),
], ids=["U_R-sign", "H_1-sign"])
def test_rep_counterexample_is_one_fail_line(capsys, monkeypatch, mutation, message):
    # A sign change leaves U a projective representation; only the named
    # identities, read off the phase table of unitary_for's U_L, see it.  The
    # two monkeypatch calls record the originals for undo; unitary_for and
    # its left factors are cached, so they are cleared before and after.
    monkeypatch.setattr(clifford, "_U_R_POWERS", clifford._U_R_POWERS)
    monkeypatch.setitem(clifford._GENERATORS, 1, clifford._GENERATORS[1])
    clifford.unitary_for.cache_clear()
    clifford._left_factor.cache_clear()
    try:
        exec(mutation, {"clifford": clifford})
        code, out, err = run(capsys, "verify", "rep")
    finally:
        monkeypatch.undo()
        clifford.unitary_for.cache_clear()
        clifford._left_factor.cache_clear()
    assert (code, out, err) == (1, "", f"FAIL rep: {message}\n")
    # -O drops assert statements; the identities must still be checked.
    program = f"import sys\nfrom qphase4 import cli, clifford\n{mutation}\n" \
              "sys.exit(cli.main(['verify', 'rep']))"
    proc = subprocess.run([sys.executable, "-O", "-c", program], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"FAIL rep: {message}\n")


# unitary_for(R) with entry 0 negated: no longer unitary, so products with it
# stop being powers of i times U_{L1 L2}.
_NEGATE_AN_ENTRY_OF_U_R = """
unitary_for = clifford.unitary_for
def mutated(L):
    u = unitary_for(L)
    if L != symplectic.R:
        return u
    return Matrix._reduced(4, (-u.re[0], *u.re[1:]), (-u.im[0], *u.im[1:]), u.den)
clifford.unitary_for = mutated
"""


def test_rep_non_proportional_product_is_one_fail_line(capsys, monkeypatch):
    # The first pair whose product is no power of i times U_{L1 L2} is (R, R).
    monkeypatch.setattr(clifford, "unitary_for", clifford.unitary_for)
    try:
        exec(_NEGATE_AN_ENTRY_OF_U_R, {"clifford": clifford, "symplectic": symplectic,
                                       "Matrix": Matrix})
        code, out, err = run(capsys, "verify", "rep")
    finally:
        monkeypatch.undo()
    r = symplectic.to_text(symplectic.R)
    assert r == "[[W,1],[1,0]]"
    expect = (1, "", f"FAIL rep: projective representation failed for {r}, {r}\n")
    assert (code, out, err) == expect
    # -O drops assert statements; the sweep must still raise.
    program = ("import sys\nfrom qphase4 import cli, clifford, symplectic\n"
               "from qphase4.exact import Matrix\n" + _NEGATE_AN_ENTRY_OF_U_R
               + "sys.exit(cli.main(['verify', 'rep']))")
    proc = subprocess.run([sys.executable, "-O", "-c", program], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == expect


def test_apply_counterexample_is_one_fail_line(capsys, monkeypatch):
    # A displacement that moves nothing breaks the covariance of every D[q,p] step.
    # translation_perm is cached, so it is rebuilt from the patched addition and dropped after.
    monkeypatch.setattr(gf4, "vec_add", lambda u, v: v)
    wigner.translation_perm.cache_clear()
    try:
        code, out, err = run(capsys, "apply", "--state", "up*up", "D[1,0]")
    finally:
        wigner.translation_perm.cache_clear()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("FAIL apply: D[1,0] ")


def test_apply_names_each_displacement_step_as_its_op(capsys):
    # apply and the FAIL lines name D_beta by its one displacement_step, in
    # the text apply parses back to the same displacement.
    points = gf4.all_points()
    ops = [wigner.displacement_step(beta).name for beta in points]
    assert ops == [wigner.displacement_step(beta).what for beta in points]
    assert [cli.parse_op(op) for op in ops] == [("displace", beta) for beta in points]
    code, out, _ = run(capsys, "apply", "--json", "--state", "up*right", *ops)
    assert code == 0
    assert [step["op"] for step in json.loads(out)] == ["initial", *ops]
    code, out, _ = run(capsys, "apply", "--state", "up*right", *ops)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("== ")] == [
        f"== {name}" for name in ("initial", *ops)]


def test_marginals_counterexample_names_a_replayable_op(capsys, monkeypatch):
    # The same broken translation, met by verify: its witness must be an op apply accepts.
    monkeypatch.setattr(gf4, "vec_add", lambda u, v: v)
    wigner.translation_perm.cache_clear()
    try:
        code, out, err = run(capsys, "verify", "marginals")
    finally:
        wigner.translation_perm.cache_clear()
    assert code == 1
    assert out == ""
    m = re.fullmatch(r"FAIL marginals: (D\[\S+\]) is not covariant in frame f=\(.*\)\n", err)
    assert m, err
    kind, beta = cli.parse_op(m.group(1))
    assert kind == "displace" and f"D{cli.fmt_index(beta)}" == m.group(1)


def test_rotated_translation_for_one_beta_fails_verify_marginals_state_by_state(capsys,
                                                                              monkeypatch):
    # D[w,1]'s points moved one position on: still a bijection, but it takes
    # lines off the lines.  The packed sweep fails at that step and replays
    # marginal_check state by state and frame by frame, which raises at the
    # first state in the first frame, as a per-state sweep does.
    beta, perm, check = gf4.all_points()[9], wigner.translation_perm, wigner.marginal_check
    replayed = []
    monkeypatch.setattr(wigner, "translation_perm",
                        lambda b: perm(b)[1:] + perm(b)[:1] if b == beta else perm(b))
    monkeypatch.setattr(wigner, "marginal_check",
                        lambda rho, f: replayed.append((rho, f)) or check(rho, f))
    code, out, err = run(capsys, "verify", "marginals")
    assert (code, out, err) == (
        1, "", "FAIL marginals: D[w,1] is not covariant in frame f=(0, 0, 0, 0, 0)\n")
    assert replayed == [(wigner.standard_test_states()[0],
                         phasespace.canonical_shift_vectors()[0])]


def test_packed_table_with_a_flipped_trace_fails_verify_marginals(capsys, monkeypatch):
    # The integer tables alone are wrong: every line sum is off by 32
    # traces, while each state passes marginal_check.  One FAIL line, also
    # under -O.
    mutation = ("table = wigner._integer_table\n"
                "wigner._integer_table = lambda before, trace, f: table(before, -trace, f)\n")
    expect = (1, "", "FAIL marginals: marginal in frame f=(0, 0, 0, 0, 0) fails packed "
                     "but passes state by state\n")
    monkeypatch.setattr(wigner, "_integer_table", wigner._integer_table)
    exec(mutation, {"wigner": wigner})
    assert run(capsys, "verify", "marginals") == expect
    program = ("import sys\nfrom qphase4 import cli, wigner\n" + mutation
               + "sys.exit(cli.main(['verify', 'marginals']))")
    proc = subprocess.run([sys.executable, "-O", "-c", program], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == expect


def test_integer_tables_off_in_the_last_frame_fail_verify_marginals(capsys, monkeypatch):
    # The line sums are checked in every canonical frame, not the first
    # alone: integer tables off in the last frame only fail there, while
    # each state passes marginal_check.
    frames, table = phasespace.canonical_shift_vectors(), wigner._integer_table
    monkeypatch.setattr(wigner, "_integer_table", lambda before, trace, f: table(
        before, -trace if f == frames[-1] else trace, f))
    assert run(capsys, "verify", "marginals") == (
        1, "", f"FAIL marginals: marginal in frame f={frames[-1]} fails packed but passes "
               "state by state\n")


def test_packed_marginals_that_disagree_with_each_state_say_so(capsys, monkeypatch):
    # A chunk reader that reads every u as I fails at the first D_beta that
    # moves a line, while each state passes alone.
    _read_every_unitary_as_the_identity(monkeypatch)
    code, out, err = run(capsys, "verify", "marginals")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"FAIL marginals: D\[\S+\] fails packed but passes state by state\n",
                        err)


def test_src_has_no_bare_assert():
    # verify maps AssertionError to exit 1; a bare assert vanishes under -O.
    for path in sorted(pathlib.Path(qphase4.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: bare assert at lines {lines}"


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "decompose", "[[2,0],[0,1]]")
    assert code == 2
    assert "parse error" in err


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "decompose", "[[1,0],[0,w]]")
    assert code == 3
    assert "domain error" in err


def test_exit_code_invalid_state(capsys):
    code, _, err = run(capsys, "wigner", "--state", "up*sideways")
    assert code == 4
    assert "invalid state" in err
    bad = json.dumps({"density": wigner.Matrix.identity(4).to_json()})
    code, _, err = run(capsys, "wigner", "--state", bad)
    assert code == 4


def _state(first=ONE):
    return json.dumps({"vector": [first, ONE, ONE, ONE]})


def _digits(digits, k=1):
    """A scalar whose four parts are distinct integers of `digits` digits."""
    top = 10**digits
    return {"re": [top - k, top - k - 1], "im": [top - k - 2, top - k - 3]}


VECTOR_SHAPE = "invalid state: state vector must be a list of 4 entries\n"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        *((["wigner", "--state", _state({"re": re, "im": [0, 1]})], 4, None)
          for re in ([1, 0], [0.1], ["1/2"], [], [True])),
        # A wrong "vector" is rejected by its shape, before any entry is read.
        *((["wigner", "--state", json.dumps({"vector": vector})], 4, VECTOR_SHAPE)
          for vector in ([ONE] * 2, 5, None, [ONE] * 5)),
        (["wigner", "--state", json.dumps({"density": [[ONE, ONE], [ONE, ONE]]})], 4, None),
        (["wigner", "--state", json.dumps({"vector": [ONE] * 4, "density": 5})], 4,
         'invalid state: state JSON must contain "vector" or "density", not both\n'),
        (["wigner", "--state", json.dumps({"vectors": [ONE] * 4})], 4,
         'invalid state: state JSON must contain "vector" or "density"\n'),
        # A key the parser does not know is refused, not skipped.
        (["wigner", "--state", json.dumps({"vector": [ONE] * 4, "extra": 1})], 4,
         'invalid state: state JSON has keys other than "vector": "extra"\n'),
        (["wigner", "--state", _state({"re": [1, 1], "im": [0, 1], "junk": 7})], 4,
         "invalid state: scalar must have only \"re\" and \"im\" parts: "
         "{'re': [1, 1], 'im': [0, 1], 'junk': 7}\n"),
        (["wigner", "--state", "[" * 10000], 4, None),
        (["wigner", "--state", _state(_digits(1100)), "--json"], 4, None),
        (["wigner", "--state", _state(_digits(MAX_JSON_DIGITS + 1))], 4, None),
        *(([command, NON_SYMPLECTIC], 3, None)
          for command in ("decompose", "unitary", "shift", "indexop")),
        (["apply", "--state", "up*up", NON_SYMPLECTIC], 3, None),
        *(([command, "--state", "up*up", "--frame", ""], 2, None) for command in ("wigner", "apply")),
        *((["apply", "--state", "up*up", op], 2, f"parse error: cannot parse displacement: "
           f"{op!r} (expected D[q,p] with tokens 0,1,w,W)\n") for op in ("D[w]", "D[5,1]")),
    ],
    ids=["zero-den", "float", "string", "empty", "bool", "vector-2", "vector-int", "vector-null",
         "vector-5", "density-2x2", "vector-and-density", "neither-key", "state-extra-key",
         "scalar-extra-key", "nested", "digits-1100", "digits-over-bound", "decompose",
         "unitary", "shift", "indexop", "apply", "wigner-empty-frame", "apply-empty-frame",
         "displacement-one-token", "displacement-bad-token"],
)
def test_rejected_input_exit_code(argv, code, err):
    stderr = _assert_rejected(argv, code)
    assert err is None or stderr == err


@pytest.mark.parametrize("argv, start", [
    (["wigner"], "qphase4 wigner: the following arguments are required: --state"),
    (["verify", "nope"], "qphase4 verify: argument scope: invalid choice: 'nope' "),
    (["nosuch"], "qphase4: argument command: invalid choice: 'nosuch' "),
], ids=["missing-option", "unknown-scope", "unknown-command"])
def test_usage_error_is_one_parse_error_line(argv, start):
    # argparse's own usage errors end as every parse error does; the list
    # of choices after the start is argparse's wording, which varies.
    assert _assert_rejected(argv, 2).startswith(f"parse error: {start}")


def test_help_still_prints_usage_and_exits_0():
    proc = subprocess.run([sys.executable, "-m", "qphase4.cli", "verify", "--help"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: qphase4 verify [-h]")


def _assert_rejected(argv, code) -> str:
    """Runs the CLI on argv in a fresh interpreter and returns its stderr, one
    line without a traceback, once the exit code is checked."""
    proc = subprocess.run(
        [sys.executable, "-m", "qphase4.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    return proc.stderr


def test_state_file_is_read_up_to_a_bound(tmp_path):
    # A valid state padded with JSON whitespace: the bound is on characters read.
    path = tmp_path / "padded.json"
    path.write_text(_state().ljust(cli.MAX_STATE_FILE_CHARS), encoding="utf-8")
    assert cli.parse_state(f"@{path}") == cli.parse_state(_state())
    path.write_text(_state().ljust(cli.MAX_STATE_FILE_CHARS + 1), encoding="utf-8")
    _assert_rejected(["wigner", "--state", f"@{path}"], 4)


def test_wrong_shape_density_is_rejected_before_its_entries_are_read(capsys, monkeypatch,
                                                                    tmp_path):
    # 2500 entries with distinct 100-digit denominators: bringing them to one
    # denominator first took seconds and hundreds of MB before the shape check.
    top = 10**MAX_JSON_DIGITS
    rows = [[{"re": [1, top - 50 * i - j - 1], "im": [0, 1]} for j in range(50)]
            for i in range(50)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"density": rows}), encoding="utf-8")

    def forbidden(obj):
        raise RuntimeError("Scalar.from_json called")

    monkeypatch.setattr(Scalar, "from_json", forbidden)
    for state in (f"@{path}", json.dumps({"density": [[ONE] * 3] * 4}),
                  json.dumps({"density": [[ONE] * 4] * 3 + [ONE]}), '{"density": 5}'):
        start = time.perf_counter()
        code, out, err = run(capsys, "wigner", "--state", state)
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (4, "", "invalid state: density operator must be 4x4\n")


def test_importing_the_cli_loads_no_dataclasses():
    code = "import sys, qphase4.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_no_scalar_ring_operator_runs_in_src(capsys):
    # Scalar has no ring operators (the tests' reference arithmetic is in
    # reference.py): the library computes on integer numerators.  Every cache
    # is cleared so that the library paths below run from scratch.
    assert not any(hasattr(Scalar, name) for name in ("__add__", "__sub__", "__mul__", "__neg__"))
    mixed = (wigner.density_from_vector([1, Scalar(0, 1), 0, 2])
             + wigner.MAXIMALLY_MIXED).scaled(Fraction(1, 2))
    state = json.dumps({"density": mixed.to_json()})
    f = phasespace.shift_vector(((OMEGA_BAR, 0), (0, OMEGA)))
    for module in (clifford, phasespace, symplectic, wigner):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    assert wigner.validate_density(mixed) is mixed
    rho2, _, table = wigner.transport(mixed, f, symplectic.shear(1))
    assert wigner.reconstruct(table) == rho2
    assert wigner.marginal_check(mixed, f)["lines"] == 20
    for argv in (["verify", "all"], ["wigner", "--state", state],
                 ["apply", "--json", "--state", state, G_TEXT, "D[w,1]"]):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and not err


def test_state_at_digit_bound(capsys):
    state = json.dumps({"vector": [_digits(MAX_JSON_DIGITS, 4 * i + 1) for i in range(4)]})
    for command, *rest in (["wigner"], ["wigner", "--json"], ["apply", G_TEXT, "D[w,1]"],
                           ["apply", "--json", G_TEXT, "D[w,1]"]):
        code, out, err = run(capsys, command, "--state", state, *rest)
        assert code == 0 and not err
        if "--json" in rest:
            json.loads(out)
