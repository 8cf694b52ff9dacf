"""Tests for the log-barrier SDP solver and the equality elimination."""

import numpy as np
import pytest

from bellres import barrier, twoqubit
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



def test_cones_of_different_sizes():
    # diag(x - 2, x, x) >= 0 binds at x = 2, inside the pair cone's x >= 1
    diag = ConeConstraint(
        a0=np.diag([-2.0, 0.0, 0.0]).astype(complex), basis=np.eye(3, dtype=complex)[None]
    )
    x, value = solve_sdp(np.ones(1), [_PAIR_CONE, diag], np.array([3.0]))
    assert value == pytest.approx(2.0, abs=1e-8)
    assert x[0] == pytest.approx(2.0, abs=1e-8)


def test_evaluate_is_the_affine_sum():
    rng = np.random.default_rng(0xBB)
    g = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
    herm = g + g.conj().transpose(0, 2, 1)
    cone = ConeConstraint(a0=herm[0], basis=herm[1:])
    x = rng.normal(size=5)
    want = herm[0] + sum(xi * b for xi, b in zip(x, herm[1:]))
    np.testing.assert_allclose(cone.evaluate(x), want, atol=1e-12)


def test_heavy_ppt_state_evaluation_count(monkeypatch):
    # one of the slow entangled states of the PPT program: thousands of cone
    # evaluations when Newton steps that leave x unchanged kept repeating
    calls = []
    evaluate = barrier.ConeConstraint.evaluate

    def counted(cone, x):
        calls.append(1)
        return evaluate(cone, x)

    monkeypatch.setattr(barrier.ConeConstraint, "evaluate", counted)
    rho = twoqubit.BdsState(np.array([0.63, 0.23, 0.09, 0.05]), (2, 0, 3, 1)).matrix()
    assert twoqubit.er_ppt_solver(rho) == pytest.approx(0.26, abs=1e-7)
    assert len(calls) <= 2000


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
