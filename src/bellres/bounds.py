"""Closed-form minimal-purity / maximal-Bell-value solvers.

Three purity measures are covered: the generalized robustness (driven by the
largest state eigenvalue alone), the Renyi 2-purity (rank-ansatz Lagrange
solution), and the relative entropy of purity (Gibbs-state bisection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, Infeasible, OutOfRange
from .linalg import DensityState, Spectrum, _tol, density_state, eig_hermitian, state_functionals

_NEG_TOL = 1e-12


@dataclass(frozen=True)
class RankSolution:
    """Optimal rank-r spectrum together with the Bell value it attains."""

    lambdas: np.ndarray
    value: float
    resource: float

    @property
    def rank(self) -> int:
        return len(self.lambdas)


def _prep_mu(mu, d: int) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if len(mu) != d:
        raise OutOfRange(f"expected {d} eigenvalues, got {len(mu)}")
    return mu


def _clamp_target(mu: np.ndarray, target: float) -> float:
    """target clamped into [Tr(I)/d, mu1], to mu1 within _tol(mu); Infeasible beyond _tol(mu)."""
    mean = float(mu.mean())
    tol = _tol(mu)
    if target > mu[0] + tol:
        raise Infeasible(f"target {target} exceeds the top eigenvalue {mu[0]}")
    if target < mean - tol:
        raise Infeasible(
            f"target {target} below Tr(I)/d = {mean}; use ascending=True for the other branch"
        )
    return float(mu[0]) if target >= mu[0] - tol else max(target, mean)


def _check_interior(mu: np.ndarray, target: float) -> None:
    """Infeasible unless Tr(I)/d <= target < mu1, both up to _tol(mu)."""
    if not mu.mean() - _tol(mu) <= target < mu[0] - _tol(mu):
        raise Infeasible(f"target {target} outside [Tr(I)/d, mu1) = [{mu.mean()}, {mu[0]})")


def _top_space(mu: np.ndarray) -> np.ndarray:
    """Uniform weights on the levels within _tol(mu) of mu1: the least pure state at mu1."""
    n_deg = int(np.sum(mu[0] - mu <= _tol(mu)))
    return np.full(n_deg, 1.0 / n_deg)


def _greedy(lam1: float, r: int) -> np.ndarray:
    """r - 1 weights lam1 followed by the remainder 1 - (r - 1) lam1."""
    lam = np.full(r, lam1)
    lam[-1] = 1.0 - (r - 1) * lam1
    return lam


def _lagrange(mu: np.ndarray, value_at) -> tuple[float, np.ndarray]:
    """Lagrange rank ansatz: the first rank r = d, d-1, ... with nonnegative weights.

    Only ranks above the top eigenspace are scanned.  On the top r levels,
    with a their mean and s = sum (mu_k - a)^2 > 0, the stationary weights at
    Bell value t are lambda_k = 1/r + (t - a)(mu_k - a)/s, whose purity is
    1/r + (t - a)^2/s.  value_at(r, a, s) gives t, or None to skip the rank.
    Returns (t, weights).
    """
    for r in range(len(mu), len(_top_space(mu)), -1):
        a = float(mu[:r].mean())
        centred = mu[:r] - a
        s = float((centred**2).sum())
        value = value_at(r, a, s)
        if value is None:
            continue
        lam = 1.0 / r + (value - a) * centred / s
        if lam.min() >= -_NEG_TOL:
            lam = np.clip(lam, 0.0, None)
            return value, lam / lam.sum()
    raise Infeasible("no rank admits nonnegative Lagrange weights")


def _assemble(vectors: np.ndarray, weights: np.ndarray, dims) -> DensityState:
    """The state sum_k weights_k v_k v_k^dag over the columns v_k of vectors."""
    rho = (vectors * weights) @ vectors.conj().T
    return density_state((rho + rho.conj().T) / 2, dims)


def _below_mean(solve, mu, target: float, d: int) -> RankSolution:
    """The branch below Tr(I)/d: the same program on the negated spectrum.

    Tr(rho I) = target is Tr(rho (-I)) = -target, and -I has the descending
    spectrum -mu[::-1]; the returned weights pair with mu in ascending order.
    """
    sol = solve(-np.asarray(mu, dtype=float)[::-1], -target, d)
    return RankSolution(sol.lambdas, target, sol.resource)


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
    lam = _greedy(lam1, int(np.ceil(1.0 / lam1 - 1e-12)))
    return RankSolution(lam, float(mu[: len(lam)] @ lam), p_r)


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
    target = _clamp_target(mu, target)
    top = _top_space(mu)
    if target == mu[0]:
        return RankSolution(top, target, d / len(top) - 1.0)
    for r in range(len(top) + 1, d + 1):
        lam1 = (target - mu[r - 1]) / float(mu[:r - 1].sum() - (r - 1) * mu[r - 1])
        upper = 1.0 / (r - 1)
        if 1.0 / r - 1e-12 <= lam1 < upper + 1e-12:
            lam1 = min(max(lam1, 1.0 / r), 1.0)
            return RankSolution(_greedy(lam1, r), target, d * lam1 - 1.0)
    # numerically at the maximally mixed end
    return RankSolution(np.full(d, 1.0 / d), target, 0.0)


def max_value_given_renyi2(mu, p2: float, d: int) -> RankSolution:
    """Largest Bell value at fixed Renyi 2-purity (equivalently linear purity)."""
    mu = _prep_mu(mu, d)
    if not -1e-12 <= p2 <= np.log2(d) + 1e-12:
        raise OutOfRange(f"P2 must lie in [0, log2 {d}], got {p2}")
    purity = min(max(2.0**p2 / d, 1.0 / d), 1.0)
    n_deg = len(_top_space(mu))
    if purity >= 1.0 / n_deg - 1e-12:
        # enough purity to sit entirely on the top (possibly degenerate) space
        r = max(1, int(np.floor(1.0 / purity + 1e-9)))
        return RankSolution(_two_level(purity, min(r, n_deg)), float(mu[0]), p2)

    def value_at(r: int, a: float, s: float) -> float | None:
        if purity < 1.0 / r - 1e-12:
            return None
        return a + np.sqrt(max(0.0, (purity - 1.0 / r) * s))

    value, lam = _lagrange(mu, value_at)
    return RankSolution(lam, float(value), p2)


def _two_level(purity: float, r: int) -> np.ndarray:
    """Spectrum of r (or r+1) levels on a degenerate subspace with given purity."""
    if abs(purity - 1.0 / r) <= 1e-12:
        return np.full(r, 1.0 / r)
    # r equal weights plus one smaller weight reproduce any purity in (1/(r+1), 1/r]
    rr = r + 1 if purity < 1.0 / r else r
    # (rr-1) copies of a and the remainder: k*a^2 + (1-k*a)^2 = purity, a >= 1/rr
    k = rr - 1
    qa = k * (k + 1)
    qb = -2.0 * k
    qc = 1.0 - purity
    a = (-qb + np.sqrt(max(0.0, qb * qb - 4 * qa * qc))) / (2 * qa)
    return np.sort(_greedy(a, rr))[::-1]


def min_renyi2_for_value(mu, target: float, d: int, *, ascending: bool = False) -> RankSolution:
    """Smallest Renyi 2-purity consistent with Tr(rho I) = target.

    Rank ansatz from full rank downward; the returned eigenvalues satisfy the
    stationarity lambda_k = (beta mu_k + alpha)/2 of the Lagrange conditions.
    Set ascending=True for targets below Tr(I)/d, as in min_lambda1_for_value.
    """
    if ascending:
        return _below_mean(min_renyi2_for_value, mu, target, d)
    mu = _prep_mu(mu, d)
    target = _clamp_target(mu, target)
    if target == mu[0]:
        lam = _top_space(mu)
        return RankSolution(lam, target, float(np.log2(d * lam[0])))
    _, lam = _lagrange(mu, lambda r, a, s: target)
    return RankSolution(lam, target, float(np.log2(d * (lam**2).sum())))


def min_relent_purity_for_value(op, target: float) -> tuple[float, float, DensityState]:
    """Minimal relative entropy of purity log d - S(rho) at Tr(rho I) = target.

    The entropy maximizer under a linear constraint is the Gibbs state
    rho(beta) = e^{beta I} / Tr e^{beta I}, beta >= 0.  The search runs on
    the normalised levels z = (mu - mu1)/(mu1 - mu_d) in [-1, 0] and target
    tau alike, so it does not see the operator's scale or offset: b = beta
    (mu1 - mu_d) is doubled until <z>_b >= tau, then bisected until the
    bracket stops shrinking in floating point; beta = hi/(mu1 - mu_d).
    """
    spec = eig_hermitian(op)
    mu = spec.values
    d = len(mu)
    _check_interior(mu, target)
    spread = mu[0] - mu[-1]
    z = (mu - mu[0]) / spread
    tau = (target - mu[0]) / spread

    def expectation(b: float) -> float:
        w = np.exp(b * z)  # z <= 0 with z1 = 0: no overflow
        return float((z * w).sum() / w.sum())

    # the doubling ends: _check_interior gives tau < -1e-12, and <z>_b rises to 0 as b grows
    hi = 1.0
    while expectation(hi) < tau:
        hi *= 2.0
    lo = 0.0
    mid = 0.5 * hi
    while lo < mid < hi:
        if expectation(mid) < tau:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    w = np.exp(hi * z)
    state = _assemble(spec.vectors, w / w.sum(), (d,))
    s_p = float(np.log(d) - state_functionals(state).entropy)
    return s_p, float(hi / spread), state


def construct_optimal_state(sol: RankSolution, basis: Spectrum, dims=None) -> DensityState:
    """Assemble the optimal state from a rank solution and the operator basis."""
    d = basis.dim
    if sol.rank > d:
        raise DimMismatch(f"rank {sol.rank} exceeds dimension {d}")
    return _assemble(basis.vectors[:, : sol.rank], sol.lambdas, dims if dims is not None else (d,))
