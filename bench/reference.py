"""Independent references the benchmark checks bellres's outputs against.

Nothing here calls bellres.  Each optimum is found by a different route from
the library's: bisection on a greedy fill instead of a rank scan, a
water-filling bisection instead of a rank ansatz, and an eigvalsh-based Gibbs
bisection for the relative entropy of purity.
"""

from __future__ import annotations

import numpy as np

SQRT2 = float(np.sqrt(2.0))
CR_I3322_BEST = 0.84193  # best C_R known for the three-setting fixture at 4.001


def _bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Smallest x in [lo, hi] with f(x) true, for f monotone false -> true."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * max(1.0, abs(hi)):
            break
    return hi


def greedy_value(mu_desc: np.ndarray, lam1: float) -> float:
    """Largest <I> over spectra with top eigenvalue lam1: fill the top levels first."""
    k = np.arange(len(mu_desc))
    w = np.clip(1.0 - k * lam1, 0.0, lam1)
    return float(w @ mu_desc)


def min_lambda1(mu, target: float) -> float:
    """Smallest top eigenvalue of a state with Tr(rho I) = target."""
    mu = np.sort(np.asarray(mu, dtype=float))[::-1]
    d = len(mu)
    scale = 1.0 + float(np.abs(mu).max())
    return _bisect(lambda lam: greedy_value(mu, lam) >= target - 1e-15 * scale, 1.0 / d, 1.0)


def _waterfill(mu: np.ndarray, b: float) -> np.ndarray:
    """lam_i = max(0, a + b mu_i) with a chosen so that sum lam = 1."""
    s = np.sort(mu)[::-1]
    for k in range(len(s), 0, -1):
        a = (1.0 - b * s[:k].sum()) / k
        if a + b * s[k - 1] >= 0.0:
            return np.maximum(0.0, a + b * mu)
    raise AssertionError("unreachable: k = 1 always satisfies the condition")


def min_linear_purity(mu, target: float) -> float:
    """min sum lam^2 over probability vectors with lam . mu = target >= mean(mu)."""
    mu = np.asarray(mu, dtype=float)
    span = float(mu.max() - mu.min())
    if span == 0.0:
        return 1.0 / len(mu)
    hi = 1.0 / span
    while _waterfill(mu, hi) @ mu < target and hi < 1e12:
        hi *= 2.0
    b = _bisect(lambda b: _waterfill(mu, b) @ mu >= target, 0.0, hi)
    lam = _waterfill(mu, b)
    return float(lam @ lam)


def renyi2(mu, target: float) -> float:
    """Minimal Renyi-2 purity log2(d Tr rho^2) at Tr(rho I) = target."""
    return float(np.log2(len(mu) * min_linear_purity(mu, target)))


def relent_purity(op, target: float) -> tuple[float, float]:
    """(log d - S(rho_beta), beta) for the Gibbs state rho_beta ~ exp(beta I) at <I> = target."""
    mu = np.linalg.eigvalsh(np.asarray(op, dtype=complex))[::-1]

    def weights(beta):
        w = np.exp(beta * (mu - mu[0]))
        return w / w.sum()

    hi = 1.0
    while weights(hi) @ mu < target and hi < 1e8:
        hi *= 2.0
    beta = _bisect(lambda b: weights(b) @ mu >= target, 0.0, hi)
    p = weights(beta)
    p = p[p > 0]
    return float(np.log(len(mu)) + (p * np.log(p)).sum()), float(beta)


def chsh_spectrum(c: float) -> np.ndarray:
    hi, lo = np.sqrt(4.0 + c), np.sqrt(4.0 - c)
    return np.array([hi, lo, -lo, -hi])


def rank2_rows(target: float, mu1: np.ndarray, mu2: np.ndarray, strict: bool = False):
    """(lambda1, E_R, P_R, feasible) of the rank-2 optimum along a curve, NaN where infeasible."""
    feasible = target < mu1 - 1e-12 if strict else target <= mu1 + 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        lam1 = np.minimum(1.0, (target - mu2) / (mu1 - mu2))
    lam1 = np.where(feasible, lam1, np.nan)
    return lam1, 2.0 * lam1 - 1.0, 4.0 * lam1 - 1.0, feasible


def bds_er(lambdas) -> float:
    """Entanglement robustness of a Bell-diagonal state: max(0, 2 lam1 - 1)."""
    return max(0.0, 2.0 * float(np.max(lambdas)) - 1.0)
