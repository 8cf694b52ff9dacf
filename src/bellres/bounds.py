"""Closed-form minimal-purity / maximal-Bell-value solvers.

Three purity measures are covered: the generalized robustness (driven by the
largest state eigenvalue alone), the Renyi 2-purity (rank-ansatz Lagrange
solution), and the relative entropy of purity (Gibbs-state bisection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, OutOfRange
from .linalg import DensityState, Spectrum, density_state

_NEG_TOL = 1e-12


@dataclass(frozen=True)
class RankSolution:
    """Optimal rank-r spectrum together with the Bell value it attains."""

    rank: int
    lambdas: np.ndarray
    value: float
    resource_kind: str  # "probustness" | "renyi2" | "relent"
    resource: float


def _prep_mu(mu, d: int) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if len(mu) != d:
        raise OutOfRange(f"expected {d} eigenvalues, got {len(mu)}")
    return mu


def _below_mean(solve, mu, target: float, d: int) -> RankSolution:
    """The branch below Tr(I)/d: the same program on the negated spectrum.

    Tr(rho I) = target is Tr(rho (-I)) = -target, and -I has the descending
    spectrum -mu[::-1]; the returned weights pair with mu in ascending order.
    """
    sol = solve(-np.asarray(mu, dtype=float)[::-1], -target, d)
    return RankSolution(sol.rank, sol.lambdas, target, sol.resource_kind, sol.resource)


def max_value_given_probustness(mu, p_r: float, d: int) -> RankSolution:
    """Largest Bell value reachable at fixed purity robustness P_R = d*lam1 - 1.

    All but the last nonzero state eigenvalue equal lam1 = (1 + P_R)/d; the
    rank r is the unique integer with 1/(r-1) > lam1 >= 1/r.
    """
    mu = _prep_mu(mu, d)
    if not -1e-12 <= p_r <= d - 1 + 1e-12:
        raise OutOfRange(f"P_R must lie in [0, {d - 1}], got {p_r}")
    lam1 = (1.0 + p_r) / d
    lam1 = min(max(lam1, 1.0 / d), 1.0)
    r = int(np.ceil(1.0 / lam1 - 1e-12))
    lam = np.full(r, lam1)
    lam[-1] = 1.0 - (r - 1) * lam1
    value = float(mu[:r] @ lam)
    return RankSolution(rank=r, lambdas=lam, value=value, resource_kind="probustness", resource=p_r)


def min_lambda1_for_value(mu, target: float, d: int, *, ascending: bool = False) -> RankSolution:
    """Smallest lam1 (hence P_R = d*lam1 - 1) consistent with Tr(rho I) = target.

    Scans ranks r = 1..d and solves the linear equation
    target = lam1 * sum_{j<r} mu_j + (1 - (r-1) lam1) * mu_r, accepting the
    rank whose solution satisfies 1/(r-1) > lam1 >= 1/r.  Set ascending=True
    for targets below Tr(I)/d: that branch is the same program on the negated
    spectrum, with the returned weights pairing to the reversed eigenvalues.
    """
    if ascending:
        return _below_mean(min_lambda1_for_value, mu, target, d)
    mu = _prep_mu(mu, d)
    mean = float(mu.mean())
    lo, hi = (mean, float(mu[0]))
    if target > hi + 1e-12:
        raise Infeasible(f"target {target} exceeds the top eigenvalue {hi}")
    if target < lo - 1e-12:
        raise Infeasible(
            f"target {target} below Tr(I)/d = {lo}; use ascending=True for the other branch"
        )
    target = min(max(target, lo), hi)
    if abs(target - mu[0]) <= 1e-12:
        # uniform weight on the (possibly degenerate) top eigenspace
        n_deg = int(np.sum(mu[0] - mu <= 1e-12 * (1.0 + abs(mu[0]))))
        lam = np.full(n_deg, 1.0 / n_deg)
        return RankSolution(n_deg, lam, float(mu[0]), "probustness", d / n_deg - 1.0)
    for r in range(2, d + 1):
        denom = float(mu[:r - 1].sum() - (r - 1) * mu[r - 1])
        if denom <= 1e-15:
            # top r eigenvalues degenerate: uniform weights reach mu[0] only
            continue
        lam1 = (target - mu[r - 1]) / denom
        upper = 1.0 / (r - 1)
        if 1.0 / r - 1e-12 <= lam1 < upper + 1e-12:
            lam1 = min(max(lam1, 1.0 / r), 1.0)
            lam = np.full(r, lam1)
            lam[-1] = 1.0 - (r - 1) * lam1
            return RankSolution(r, lam, target, "probustness", d * lam1 - 1.0)
    # numerically at the maximally mixed end
    lam = np.full(d, 1.0 / d)
    return RankSolution(d, lam, target, "probustness", 0.0)


def _rank_gh(mu: np.ndarray, r: int) -> tuple[float, float]:
    g = float(mu[:r].sum())
    h = float((mu[:r] ** 2).sum())
    return g, h


def max_value_given_renyi2(mu, p2: float, d: int) -> RankSolution:
    """Largest Bell value at fixed Renyi 2-purity (equivalently linear purity)."""
    mu = _prep_mu(mu, d)
    if not -1e-12 <= p2 <= np.log2(d) + 1e-12:
        raise OutOfRange(f"P2 must lie in [0, log2 {d}], got {p2}")
    purity = min(max(2.0**p2 / d, 1.0 / d), 1.0)
    n_deg = int(np.sum(mu[0] - mu <= 1e-12 * (1.0 + abs(mu[0]))))
    if purity >= 1.0 / n_deg - 1e-12:
        # enough purity to sit entirely on the top (possibly degenerate) space
        r = max(1, int(np.floor(1.0 / purity + 1e-9)))
        r = min(r, n_deg)
        lam = _two_level(purity, r)
        return RankSolution(len(lam), lam, float(mu[0]), "renyi2", p2)
    for r in range(d, 0, -1):
        if purity < 1.0 / r - 1e-12:
            continue
        g, h = _rank_gh(mu, r)
        disc = h * r - g * g
        if disc <= 1e-12 * (1.0 + h * r):
            continue
        value = (g + np.sqrt(max(0.0, (r * purity - 1.0) * disc))) / r
        lam = ((r * value - g) * mu[:r] + h - g * value) / disc
        if lam.min() >= -_NEG_TOL:
            lam = np.clip(lam, 0.0, None)
            lam /= lam.sum()
            return RankSolution(r, lam, float(value), "renyi2", p2)
    raise Infeasible(f"no feasible rank for purity {purity}")  # pragma: no cover


def _two_level(purity: float, r: int) -> np.ndarray:
    """Spectrum of r (or r+1) levels on a degenerate subspace with given purity."""
    if abs(purity - 1.0 / r) <= 1e-12:
        return np.full(r, 1.0 / r)
    # r equal weights plus one smaller weight reproduce any purity in (1/(r+1), 1/r]
    # solve r*a^2 + (1 - r*a)^2 = purity with a >= 1/(r+1)
    rr = r + 1 if purity < 1.0 / r else r
    if rr == 1:
        return np.array([1.0])
    # weights: (rr-1) copies of a, remainder 1-(rr-1)a
    k = rr - 1
    # k*a^2 + (1-k*a)^2 = purity
    qa = k * (k + 1)
    qb = -2.0 * k
    qc = 1.0 - purity
    a = (-qb + np.sqrt(max(0.0, qb * qb - 4 * qa * qc))) / (2 * qa)
    lam = np.full(rr, a)
    lam[-1] = 1.0 - k * a
    lam = np.sort(lam)[::-1]
    return lam


def min_renyi2_for_value(mu, target: float, d: int, *, ascending: bool = False) -> RankSolution:
    """Smallest Renyi 2-purity consistent with Tr(rho I) = target.

    Rank ansatz from full rank downward; the returned eigenvalues satisfy the
    stationarity lambda_k = (beta mu_k + alpha)/2 of the Lagrange conditions.
    Set ascending=True for targets below Tr(I)/d, as in min_lambda1_for_value.
    """
    if ascending:
        return _below_mean(min_renyi2_for_value, mu, target, d)
    mu = _prep_mu(mu, d)
    mean = float(mu.mean())
    if target > mu[0] + 1e-12:
        raise Infeasible(f"target {target} exceeds the top eigenvalue {mu[0]}")
    if target < mean - 1e-12:
        raise Infeasible(f"target {target} below Tr(I)/d = {mean}")
    target = min(max(target, mean), float(mu[0]))
    n_deg = int(np.sum(mu[0] - mu <= 1e-12 * (1.0 + abs(mu[0]))))
    if abs(target - mu[0]) <= 1e-12:
        lam = np.full(n_deg, 1.0 / n_deg)
        purity = 1.0 / n_deg
        return RankSolution(n_deg, lam, float(mu[0]), "renyi2", float(np.log2(d * purity)))
    for r in range(d, 0, -1):
        g, h = _rank_gh(mu, r)
        disc = h * r - g * g
        if disc <= 1e-12 * (1.0 + h * r):
            continue
        beta = 2.0 * (target * r - g) / disc
        alpha = (2.0 - beta * g) / r
        lam = (beta * mu[:r] + alpha) / 2.0
        if lam.min() >= -_NEG_TOL:
            lam = np.clip(lam, 0.0, None)
            lam /= lam.sum()
            purity = float((lam**2).sum())
            return RankSolution(r, lam, target, "renyi2", float(np.log2(d * purity)))
    raise Infeasible(f"no feasible rank for target {target}")  # pragma: no cover


def min_relent_purity_for_value(
    op, target: float, *, tol: float = 1e-10, max_iter: int = 200
) -> tuple[float, float, DensityState]:
    """Minimal relative entropy of purity log d - S(rho) at Tr(rho I) = target.

    The entropy maximizer under a linear constraint is the Gibbs state
    rho(beta) = e^{beta I} / Tr e^{beta I}; beta >= 0 is found by bisection on
    the monotone constraint residual.
    """
    from .linalg import eig_hermitian, state_functionals

    spec = eig_hermitian(op)
    mu = spec.values
    d = len(mu)
    mean = float(mu.mean())
    if target >= mu[0] - 1e-12:
        raise Infeasible(f"target {target} is attained only as beta -> infinity")
    if target < mean - 1e-12:
        raise Infeasible(f"target {target} below Tr(I)/d = {mean}")

    def expectation(beta: float) -> float:
        w = np.exp(beta * (mu - mu[0]))  # shift for stability
        return float((mu * w).sum() / w.sum())

    hi = 1.0
    while expectation(hi) < target and hi < 1e8:
        hi *= 2.0
    lo = 0.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if expectation(mid) < target:
            lo = mid
        else:
            hi = mid
        if abs(expectation(0.5 * (lo + hi)) - target) <= tol:
            break
    beta = 0.5 * (lo + hi)
    w = np.exp(beta * (mu - mu[0]))
    w /= w.sum()
    v = spec.vectors
    rho = (v * w) @ v.conj().T
    rho = (rho + rho.conj().T) / 2
    state = density_state(rho, (d,))
    s_p = float(np.log(d) - state_functionals(state).entropy)
    return s_p, float(beta), state


def construct_optimal_state(sol: RankSolution, basis: Spectrum, dims=None) -> DensityState:
    """Assemble the optimal state from a rank solution and the operator basis."""
    from .errors import DimMismatch

    d = basis.dim
    if sol.rank > d:
        raise DimMismatch(f"rank {sol.rank} exceeds dimension {d}")
    v = basis.vectors[:, : sol.rank]
    rho = (v * sol.lambdas) @ v.conj().T
    rho = (rho + rho.conj().T) / 2
    return density_state(rho, dims if dims is not None else (d,))
