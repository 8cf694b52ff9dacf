"""Tests for the log-barrier SDP solver and the equality elimination."""

import numpy as np
import pytest

from bellres.barrier import ConeConstraint, eliminate_equalities, solve_sdp
from bellres.errors import SolverFailure

# [[x, 1], [1, x]] >= 0 in one real parameter x; its eigenvalues are x - 1 and x + 1
_PAIR_CONE = ConeConstraint(
    a0=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), basis=np.eye(2, dtype=complex)[None]
)


@pytest.mark.parametrize("x0", [0.5, 1.0], ids=["outside", "boundary"])
def test_start_must_be_strictly_feasible(x0):
    with pytest.raises(SolverFailure, match="strictly feasible"):
        solve_sdp(np.ones(1), [_PAIR_CONE], np.array([x0]))


def test_pair_cone_minimum():
    x, value = solve_sdp(np.ones(1), [_PAIR_CONE], np.array([3.0]))
    assert value == pytest.approx(1.0, abs=1e-8)
    assert x[0] == pytest.approx(1.0, abs=1e-8)


def test_eliminated_equalities_hold_on_the_null_space():
    rng = np.random.default_rng(0xBA)
    rows = rng.normal(size=(2, 5))
    a_eq = np.vstack([rows, rows.sum(axis=0)])  # rank 2: the third row is redundant
    x0 = rng.normal(size=5)
    sym = rng.normal(size=(5, 3, 3))
    cone = ConeConstraint(a0=np.eye(3, dtype=complex), basis=(sym + sym.transpose(0, 2, 1)) + 0j)
    c = rng.normal(size=5)
    c_z, (cone_z,), null = eliminate_equalities(c, [cone], a_eq, x0)
    assert null.shape == (5, 3)
    z = rng.normal(size=3)
    x = x0 + null @ z
    np.testing.assert_allclose(a_eq @ x, a_eq @ x0, atol=1e-12)
    np.testing.assert_allclose(cone_z.evaluate(z), cone.evaluate(x), atol=1e-12)
    assert c_z @ z == pytest.approx(c @ x - c @ x0, abs=1e-12)
