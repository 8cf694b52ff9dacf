"""Shared fixtures and the end-of-run resource-hierarchy audit."""

import sys

import numpy as np
import pytest
from hypothesis import settings

from bellres import bell, twoqubit

HIERARCHY_SLACK = 1e-9

# no per-example deadline (timing varies with load); a failing property prints
# the blob that replays it with @reproduce_failure
settings.register_profile("tier1", deadline=None, print_blob=True)
settings.load_profile("tier1")

# every ResourceReport built during the run, for criterion 9 and the final audit
_REPORTS: list = []
_check_hierarchy = twoqubit.ResourceReport.__post_init__


def _collect_report(report) -> None:
    _check_hierarchy(report)
    _REPORTS.append(report)


twoqubit.ResourceReport.__post_init__ = _collect_report


@pytest.fixture
def emitted_reports():
    """The live list of reports: it also shows those the test builds after set-up."""
    return _REPORTS


@pytest.fixture(scope="session")
def chsh_op():
    return bell.build_bell_operator(bell.chsh_scenario())


@pytest.fixture(scope="session")
def i3322_scenario():
    return bell.i3322_fixture()


@pytest.fixture(scope="session")
def bds_matrix():
    """Bell-diagonal state: weights lambdas on the Bell basis (Phi+, Phi-, Psi+, Psi-)[perm]."""

    def matrix(lambdas, perm=(0, 1, 2, 3)):
        cols = twoqubit._B[:, list(perm)]
        m = (cols * np.asarray(lambdas, dtype=float)) @ cols.conj().T
        return (m + m.conj().T) / 2

    return matrix


@pytest.fixture(scope="session")
def euler_basis():
    """The product basis of six Euler angles, (alpha, beta, gamma) per qubit:
    each qubit's rotation Rz(alpha) Ry(beta) Rz(gamma) of the computational
    basis.  That is the search's four-angle basis times the phases of
    kron(Rz(gamma_A), Rz(gamma_B)) on its columns."""

    def basis(angles):
        angles = np.asarray(angles, dtype=float)
        phases = np.kron(*np.exp(np.outer(angles[[2, 5]], [-0.5j, 0.5j])))
        return twoqubit._product_basis(angles[[0, 1, 3, 4]])[0] * phases

    return basis


def pytest_sessionfinish(session, exitstatus):
    """Audit every ResourceReport emitted anywhere in the run (criterion 9)."""
    reports = _REPORTS
    bad = [
        r
        for r in reports
        if not (
            r.p_r >= r.c_r - HIERARCHY_SLACK
            and r.c_r >= r.d_r - HIERARCHY_SLACK
            and r.d_r >= r.e_r - HIERARCHY_SLACK
        )
    ]
    ok = not bad
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion 9 (final audit): "
        f"P_R >= C_R >= D_R >= E_R - 1e-9 on all {len(reports)} emitted reports"
    )
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    if not ok:
        session.exitstatus = 1
