"""Property tests on random exact inputs, run deterministically: hypothesis
derives its examples from the test itself and keeps no example database."""

from hypothesis import given, settings
from hypothesis import strategies as st

from qphase4 import gf4, phasespace, symplectic, wigner
from qphase4.exact import Scalar

GAUSSIAN = st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3))
STATES = (st.lists(GAUSSIAN, min_size=4, max_size=4)
          .filter(lambda v: any(not x.is_zero() for x in v))
          .map(wigner.density_from_vector))
GROUP = st.sampled_from(symplectic.enumerate_group())
FRAMES = st.sampled_from(phasespace.canonical_shift_vectors())


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(STATES, FRAMES, GROUP, GROUP)
def test_transport_holds_and_keys_compare_as_values(rho, f, L, other):
    # transport raises unless the moved table is the new frame's table.  Its
    # key comparison must agree with a value-by-value comparison, for the
    # right move and for that of another L (equal or not).
    _, _, table = wigner.transport(rho, f, L)
    old = wigner.wigner_table(rho, f)
    points = gf4.all_points()
    den, nums = table.key
    verdicts = []
    for move in (wigner.linear_perm(L), wigner.linear_perm(other)):
        by_key = (den, tuple(nums[j] for j in move)) == old.key
        by_value = all(table.values[points[j]] == old.values[alpha]
                       for alpha, j in zip(points, move))
        assert by_key == by_value
        verdicts.append(by_key)
    assert verdicts[0]
