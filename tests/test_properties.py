"""Property tests on random exact inputs, and a fuzz of the CLI's parsers,
run deterministically under the hypothesis profile that conftest.py loads."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qphase4 import cli, clifford, gf4, phasespace, symplectic, wigner
from qphase4.exact import Matrix, Scalar
from qphase4.gf4 import ELEMENTS
from reference import conj, operator_sum, table_of

GAUSSIAN = st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3))
VECTORS = st.lists(GAUSSIAN, min_size=4, max_size=4).filter(lambda v: any(not x.is_zero() for x in v))
STATES = VECTORS.map(wigner.density_from_vector)
GROUP = st.sampled_from(symplectic.enumerate_group())
FRAMES = st.sampled_from(phasespace.canonical_shift_vectors())
ALL_FRAMES = st.tuples(*[st.sampled_from(ELEMENTS)] * 5)
#: A step of the apply fold: ("L", L) performs U_L, ("D", beta) performs D_beta.
STEPS = st.lists(st.one_of(st.tuples(st.just("L"), GROUP),
                           st.tuples(st.just("D"), st.sampled_from(gf4.all_points()))),
                 min_size=1, max_size=6)


def _mixture(u, v, a, b):
    """(a rho_u + b rho_v) / (a + b) for the pure states of u and v: rank 1 or 2."""
    return (wigner.density_from_vector(u).scaled(Fraction(a, a + b))
            + wigner.density_from_vector(v).scaled(Fraction(b, a + b)))


def _hermitian(diagonal, upper):
    """The Hermitian matrix with this real diagonal and these entries above it,
    over its trace, which must not be zero."""
    rows = [[Scalar(0)] * 4 for _ in range(4)]
    for i, d in enumerate(diagonal):
        rows[i][i] = Scalar(d)
    for (i, j), x in zip(combinations(range(4), 2), upper):
        rows[i][j], rows[j][i] = x, conj(x)
    return Matrix(rows).scaled(Fraction(1, sum(diagonal)))


def _is_state(rho) -> bool:
    try:
        wigner.validate_density(rho)
    except wigner.StateError:
        return False
    return True


MIXTURES = st.builds(_mixture, VECTORS, VECTORS, st.integers(1, 5), st.integers(1, 5))
STATES_UP_TO_RANK_2 = st.one_of(STATES, MIXTURES)
NON_STATES = (st.builds(_hermitian, st.lists(st.integers(-4, 4), min_size=4, max_size=4)
                        .filter(lambda d: sum(d) != 0),
                        st.lists(GAUSSIAN, min_size=6, max_size=6))
              .filter(lambda rho: not _is_state(rho)))


@settings(max_examples=150)
@given(st.one_of(STATES, MIXTURES, NON_STATES), FRAMES, GROUP, GROUP)
def test_transport_holds_and_keys_compare_as_values(rho, f, L, other):
    # Pure states, rank-2 mixtures and Hermitian trace-1 non-states: transport
    # raises unless the moved table is the new frame's table, and the moved
    # table reconstructs the moved operator.  Its key comparison must agree
    # with a value-by-value comparison, for the right move and for that of
    # another L (equal or not).
    rho2, _, table = wigner.transport(rho, f, L)
    assert wigner.reconstruct(table) == rho2
    old = wigner.wigner_table(rho, f)
    points = gf4.all_points()
    den, nums = table.key
    new_values, old_values = table.values, old.values
    verdicts = []
    for move in (wigner.linear_perm(L), wigner.linear_perm(other)):
        by_key = (den, tuple(nums[j] for j in move)) == old.key
        by_value = all(new_values[points[j]] == old_values[alpha]
                       for alpha, j in zip(points, move))
        assert by_key == by_value
        verdicts.append(by_key)
    assert verdicts[0]


@settings(max_examples=100)
@given(ALL_FRAMES, st.lists(GROUP, min_size=1, max_size=4))
def test_folding_steps_with_apply_reaches_the_frame_of_their_product(f, steps):
    # U_Lk ... U_L1 is U_(Lk...L1) up to a phase, so performing the steps one
    # by one ends in the frame compose_frame gives for their product.
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["apply", "--json", "--state", "up*right",
                         "--frame", ",".join(map(gf4.to_token, f)),
                         *map(symplectic.to_text, steps)]) == 0
    final = json.loads(out.getvalue())[-1]["table"]["f"]
    product = reduce(lambda acc, L: symplectic.product(L, acc), steps, symplectic.IDENTITY)
    assert tuple(map(gf4.from_token, final)) == phasespace.compose_frame(f, product)


@settings(max_examples=60)
@given(STATES_UP_TO_RANK_2, ALL_FRAMES, STEPS)
def test_interleaved_steps_match_the_dense_products_and_round_trip(rho, f, steps):
    # Each step's state is u rho u^dag by dense products, its frame is the one
    # compose_frame gives (a displacement keeps it), and its table
    # reconstructs to that state.
    for kind, op in steps:
        if kind == "L":
            u, frame = clifford.unitary_for(op), phasespace.compose_frame(f, op)
            rho2, g, table = wigner.transport(rho, f, op)
        else:
            u, frame = clifford.displacement(op), f
            rho2, g, table = wigner.displace(rho, f, op)
        assert (rho2, g) == (u @ rho @ u.dagger(), frame)
        assert wigner.reconstruct(table) == rho2
        rho, f = rho2, g


@settings(max_examples=60)
@given(STATES_UP_TO_RANK_2, ALL_FRAMES)
def test_states_round_trip_and_have_born_marginals_in_every_frame(rho, f):
    assert _is_state(rho)
    assert wigner.reconstruct(wigner.wigner_table(rho, f)) == rho
    rep = wigner.marginal_check(rho, f)
    assert rep == {"lines": 20, "displacements": 16}


@settings(max_examples=100)
@given(NON_STATES, ALL_FRAMES)
def test_hermitian_non_states_of_trace_1_round_trip_in_every_frame(rho, f):
    # The forward map and its inverse need Hermitian trace-1 input, not positivity.
    assert wigner.reconstruct(wigner.wigner_table(rho, f)) == rho


@settings(max_examples=60)
@given(st.lists(st.integers(-99, 99), min_size=15, max_size=15), st.integers(1, 64),
       ALL_FRAMES)
def test_integer_tables_of_total_1_reconstruct_to_the_operator_sum(nums, den, f):
    # In general no state's table, so the inverse is checked against
    # sum_alpha W_alpha A^f_alpha on the operator oracle; total != 1 is rejected.
    # reconstruct does not check Hermiticity: real weights on the Hermitian
    # phase point operators must give it.
    points = gf4.all_points()
    values = dict(zip(points, (Fraction(x, den) for x in [den - sum(nums), *nums])))
    table = table_of(f, values)
    rho = wigner.reconstruct(table)
    assert rho == operator_sum(table, wigner.frame(f))
    assert rho.is_hermitian()
    off = table_of(f, {**values, points[0]: values[points[0]] + Fraction(1, den)})
    with pytest.raises(ValueError, match="corrupted Wigner table"):
        wigner.reconstruct(off)


def _run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
                    lambda inner: st.lists(inner, max_size=5)
                    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
                    max_leaves=8)
SCALAR_JSON = st.fixed_dictionaries({"re": JSON, "im": JSON}) | st.fixed_dictionaries(
    {"re": st.lists(st.integers(-3, 3), min_size=2, max_size=2),
     "im": st.lists(st.integers(-3, 3), min_size=2, max_size=2)})
STATE_JSON = st.one_of(
    JSON, st.fixed_dictionaries({"vector": JSON | st.lists(SCALAR_JSON, max_size=5)}),
    st.fixed_dictionaries({"density": JSON | st.lists(st.lists(SCALAR_JSON, max_size=5),
                                                      max_size=5)}))
TEXT = st.text(max_size=30) | st.text(alphabet="01wW,[]D \n*@{}\"", max_size=30)
STATE_TEXT = TEXT | STATE_JSON.map(json.dumps) | st.sampled_from(["up*up", "left*right"])


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.tuples(st.just("state"), STATE_TEXT),
    st.tuples(st.just("file"), STATE_TEXT),
    st.tuples(st.just("frame"), TEXT | st.sampled_from(["0,1,w,W,0", "1,1,1,1,1"])),
    st.tuples(st.just("op"), TEXT | st.sampled_from(["D[1,w]", "[[W,0],[0,w]]", "[[1,1],[1,1]]"]))))
def test_untrusted_text_ends_in_an_exit_code_and_one_line(tmp_path, case):
    # Whatever parse_state, parse_frame and parse_op are given, the CLI exits
    # 0, 2 (parse), 3 (domain) or 4 (state) with at most one stderr line.
    kind, text = case
    if kind == "file":
        (tmp_path / "state.json").write_text(text, encoding="utf-8")
        kind, text = "state", "@" + str(tmp_path / "state.json")
    argv = {"state": ["wigner", "--state=" + text],
            "frame": ["wigner", "--state=up*right", "--frame=" + text],
            "op": ["apply", "--state=up*right", "--", text]}[kind]
    code, err = _run_cli(argv)
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err and err.count("\n") == (code != 0)
