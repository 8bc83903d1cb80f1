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
    for scope in ("metaplectic", "single-qubit"):
        code, out, _ = run(capsys, "verify", scope)
        assert code == 0
        assert out.strip().startswith(scope.split("-")[0])


def test_verify_line_counts_come_from_the_sweep(capsys, monkeypatch):
    monkeypatch.setattr(clifford, "verify_metaplectic", lambda: {"checked": 7, "signs": {}})
    code, out, _ = run(capsys, "verify", "metaplectic")
    assert code == 0
    assert out == "metaplectic: 7/7 signs in {+1,-1}\n"


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


@pytest.mark.parametrize(
    "argv, code",
    [
        *((["wigner", "--state", _state({"re": re, "im": [0, 1]})], 4)
          for re in ([1, 0], [0.1], ["1/2"], [], [True])),
        (["wigner", "--state", _state(n=2)], 4),
        (["wigner", "--state", json.dumps({"density": [[ONE, ONE], [ONE, ONE]]})], 4),
        (["wigner", "--state", "[" * 10000], 4),
        *(([command, NON_SYMPLECTIC], 3) for command in ("decompose", "unitary", "shift", "indexop")),
        (["apply", "--state", "up*up", NON_SYMPLECTIC], 3),
    ],
    ids=["zero-den", "float", "string", "empty", "bool", "vector-2", "density-2x2", "nested",
         "decompose", "unitary", "shift", "indexop", "apply"],
)
def test_rejected_input_exit_code(argv, code):
    proc = subprocess.run(
        [sys.executable, "-m", "qphase4.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
