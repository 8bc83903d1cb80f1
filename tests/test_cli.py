"""Command-line parsing, rendering, exit codes, and JSON output."""

import ast
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import qphase4
from qphase4 import cli, clifford, gf4, phasespace, symplectic, wigner
from qphase4.exact import MAX_JSON_DIGITS, Scalar
from qphase4.gf4 import OMEGA, OMEGA_BAR

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


# --- JSON / text equivalence --------------------------------------------------

def test_wigner_json_matches_table(capsys):
    code, out, _ = run(capsys, "wigner", "--state", "up*right", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["f"] == ["0", "0", "0", "0", "0"]
    table = wigner.wigner_table(
        wigner.density_from_vector([1, 1, 0, 0]), phasespace.ZERO_INDEX
    )
    for i, p in enumerate(reversed(gf4.ELEMENTS)):
        for j, q in enumerate(gf4.ELEMENTS):
            num, den = obj["values"][i][j]
            assert table.values[(q, p)] == Fraction(num, den)


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
    wigner.wigner_table.cache_clear()  # only verify all reads it
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
    # verify all's tables fit the cache: every key was one miss, none was evicted.
    info = wigner.wigner_table.cache_info()
    assert info.currsize == info.misses <= info.maxsize


@pytest.mark.parametrize(
    "scope, module, name, report, line",
    [
        ("metaplectic", clifford, "verify_metaplectic", {"checked": 7, "signs": {}},
         "metaplectic: 7/7 signs in {+1,-1}"),
        ("marginals", wigner, "marginal_check", {"lines": 3, "displacements": 2},
         "marginals: 72/72 (frame, state) pairs, 3 lines + 2 displacements each"),
        ("symmetry", wigner, "rotational_symmetry_check",
         {"period": 3, "striations_cycled": 2, "states": 6},
         "symmetry: 60/60 conjugated rotations, period 3, 2 striations cycled"),
    ],
    ids=["metaplectic", "marginals", "symmetry"],
)
def test_verify_line_counts_come_from_the_sweep(capsys, monkeypatch, scope, module, name,
                                                report, line):
    monkeypatch.setattr(module, name, lambda *args: report)
    code, out, _ = run(capsys, "verify", scope)
    assert code == 0
    assert out == line + "\n"


def test_verify_transport_counterexample_exits_1(capsys, monkeypatch):
    # A frame that is never reinterpreted breaks transport for every L that moves it.
    monkeypatch.setattr(phasespace, "compose_frame", lambda f, L: f)
    code, out, err = run(capsys, "verify", "transport")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("FAIL transport: ")


def test_apply_counterexample_is_one_fail_line(capsys, monkeypatch):
    # A displacement that moves nothing breaks the covariance of every D[q,p] step.
    monkeypatch.setattr(gf4, "vec_add", lambda u, v: v)
    code, out, err = run(capsys, "apply", "--state", "up*up", "D[1,0]")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("FAIL apply: D[1,0] ")


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


def _state(first=ONE, n=4):
    return json.dumps({"vector": [first] + [ONE] * (n - 1)})


def _digits(digits, k=1):
    """A scalar whose four parts are distinct integers of `digits` digits."""
    top = 10**digits
    return {"re": [top - k, top - k - 1], "im": [top - k - 2, top - k - 3]}


@pytest.mark.parametrize(
    "argv, code",
    [
        *((["wigner", "--state", _state({"re": re, "im": [0, 1]})], 4)
          for re in ([1, 0], [0.1], ["1/2"], [], [True])),
        (["wigner", "--state", _state(n=2)], 4),
        (["wigner", "--state", json.dumps({"density": [[ONE, ONE], [ONE, ONE]]})], 4),
        (["wigner", "--state", "[" * 10000], 4),
        (["wigner", "--state", _state(_digits(1100)), "--json"], 4),
        (["wigner", "--state", _state(_digits(MAX_JSON_DIGITS + 1))], 4),
        *(([command, NON_SYMPLECTIC], 3) for command in ("decompose", "unitary", "shift", "indexop")),
        (["apply", "--state", "up*up", NON_SYMPLECTIC], 3),
        *(([command, "--state", "up*up", "--frame", ""], 2) for command in ("wigner", "apply")),
    ],
    ids=["zero-den", "float", "string", "empty", "bool", "vector-2", "density-2x2", "nested",
         "digits-1100", "digits-over-bound", "decompose", "unitary", "shift", "indexop", "apply",
         "wigner-empty-frame", "apply-empty-frame"],
)
def test_rejected_input_exit_code(argv, code):
    _assert_rejected(argv, code)


def _assert_rejected(argv, code):
    proc = subprocess.run(
        [sys.executable, "-m", "qphase4.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_state_file_is_read_up_to_a_bound(tmp_path):
    # A valid state padded with JSON whitespace: the bound is on characters read.
    path = tmp_path / "padded.json"
    path.write_text(_state().ljust(cli.MAX_STATE_FILE_CHARS), encoding="utf-8")
    assert cli.parse_state(f"@{path}") == cli.parse_state(_state())
    path.write_text(_state().ljust(cli.MAX_STATE_FILE_CHARS + 1), encoding="utf-8")
    _assert_rejected(["wigner", "--state", f"@{path}"], 4)


def test_no_scalar_ring_operator_runs_in_src(capsys, monkeypatch):
    # Scalar arithmetic is the tests' reference: the library computes on
    # integer numerators.  Every cache is cleared so that nothing computed
    # earlier hides a Scalar operation.
    mixed = (wigner.density_from_vector([1, Scalar(0, 1), 0, 2])
             + wigner.MAXIMALLY_MIXED).scaled(Fraction(1, 2))
    state = json.dumps({"density": mixed.to_json()})
    f = phasespace.shift_vector(((OMEGA_BAR, 0), (0, OMEGA)))
    for module in (clifford, phasespace, symplectic, wigner):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()

    def forbidden(*args):
        raise RuntimeError("Scalar ring operator called")

    for name in ("__add__", "__sub__", "__mul__", "__neg__"):
        monkeypatch.setattr(Scalar, name, forbidden)
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
