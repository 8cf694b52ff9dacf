"""Independent brute-force verifiers: constrained state samplers, a
derivative-free maximizer, and the Lagrange stationarity checker.

Randomness comes from a counter-based Philox generator so every sample
stream is reproducible from (seed, config) alone; the default seed can be
overridden through the BRB_SEED environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .bounds import RankSolution
from .errors import InfeasibleConstraint

DEFAULT_SEED = 0xB311
_REJECTION_CAP = 10**7


def resolve_seed(seed: int | None = None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("BRB_SEED")
    return int(env, 0) if env else DEFAULT_SEED


def default_rng(seed: int | None = None) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(resolve_seed(seed)))


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = DEFAULT_SEED
    count: int = 1000
    constraint: str = "none"  # "none" | "fixed-lambda1"
    value: float = 0.0


def _random_unitaries(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[:, None, :]


def _spectra_fixed_lambda1(rng: np.random.Generator, n: int, d: int, lam1: float) -> np.ndarray:
    """Spectra with largest eigenvalue exactly lam1, rest uniform on the slice."""
    if not 1.0 / d - 1e-12 <= lam1 <= 1.0 + 1e-12:
        raise InfeasibleConstraint(f"lambda1 must lie in [1/{d}, 1], got {lam1}")
    lam1 = min(max(lam1, 1.0 / d), 1.0)
    rest_total = 1.0 - lam1
    out = np.empty((n, d))
    out[:, 0] = lam1
    if d == 1 or rest_total <= 1e-15:
        out[:, 1:] = 0.0
        return out
    filled = 0
    attempts = 0
    while filled < n:
        batch = max(n - filled, 1024)
        attempts += batch
        if attempts > min(_REJECTION_CAP, 60 * n):
            # acceptance too low near lam1 = 1/d: shrink rejected draws toward
            # the uniform tail instead (only constraint correctness matters
            # for the domination tests, not the sampling measure)
            m = n - filled
            y = rng.dirichlet(np.ones(d - 1), size=m)
            uniform = 1.0 / (d - 1)
            span = y.max(axis=1) - uniform
            t_max = np.where(
                span > 1e-15, (lam1 / rest_total - uniform) / np.maximum(span, 1e-15), 1.0
            )
            t = np.minimum(1.0, t_max) * rng.uniform(0.0, 1.0, size=m)
            rest = rest_total * (uniform + t[:, None] * (y - uniform))
            out[filled:, 1:] = rest
            filled = n
            break
        rest = rng.dirichlet(np.ones(d - 1), size=batch) * rest_total
        ok = rest.max(axis=1) <= lam1 + 1e-12
        good = rest[ok][: n - filled]
        out[filled : filled + len(good), 1:] = good
        filled += len(good)
    return out


def sample_spectra(cfg: SamplerConfig, d: int, rng: np.random.Generator | None = None) -> np.ndarray:
    rng = rng or default_rng(cfg.seed)
    if cfg.constraint == "none":
        return rng.dirichlet(np.ones(d), size=cfg.count)
    if cfg.constraint == "fixed-lambda1":
        return _spectra_fixed_lambda1(rng, cfg.count, d, cfg.value)
    raise InfeasibleConstraint(f"unknown constraint {cfg.constraint!r}")


def sample_max_expectation(op, cfg: SamplerConfig) -> float:
    """Max of Tr(rho I) over the sampled constrained states (vectorized)."""
    op = np.asarray(op, dtype=complex)
    d = op.shape[0]
    rng = default_rng(cfg.seed)
    best = -np.inf
    remaining = cfg.count
    while remaining > 0:
        n = min(20000, remaining)  # chunks bound the memory of the batched unitaries
        sub = SamplerConfig(cfg.seed, n, cfg.constraint, cfg.value)
        spectra = sample_spectra(sub, d, rng)
        units = _random_unitaries(rng, n, d)
        diag = np.einsum("naj,ab,nbj->nj", units.conj(), op, units).real
        vals = np.einsum("nj,nj->n", spectra, diag)
        best = max(best, float(vals.max()))
        remaining -= n
    return best


def nelder_mead_max(f, x0s, *, xatol: float = 1e-9, fatol: float = 1e-12, maxfev: int = 20000):
    """Best-of-restarts Nelder-Mead maximization; deterministic given x0s."""
    from scipy.optimize import minimize  # lazily: the CLI imports this module

    best_x, best_v = None, -np.inf
    for x0 in np.atleast_2d(np.asarray(x0s, dtype=float)):
        res = minimize(
            lambda x: -f(x),
            x0,
            method="Nelder-Mead",
            options={"xatol": xatol, "fatol": fatol, "maxfev": maxfev},
        )
        if -res.fun > best_v:
            best_v = float(-res.fun)
            best_x = res.x
    return best_x, best_v


def _exact_purity_on_support(mu: np.ndarray, target: float, idx) -> float | None:
    """Exact quadratic minimum on a candidate support (zero elsewhere).

    Solves the two-multiplier linear system for min sum lam^2 subject to
    sum lam = 1 and lam . mu = target with lam supported on idx; returns None
    when the system is singular, the constraints are not met, or any weight
    turns negative.
    """
    m = mu[idx]
    s0, s1, s2 = float(len(m)), float(m.sum()), float((m * m).sum())
    try:
        ab = np.linalg.solve([[s0, s1], [s1, s2]], [2.0, 2.0 * target])
    except np.linalg.LinAlgError:
        return None
    lam = (ab[0] + ab[1] * m) / 2.0
    scale = 1.0 + abs(target)
    if (
        lam.min() < -1e-12
        or abs(lam.sum() - 1.0) > 1e-9
        or abs(lam @ m - target) > 1e-9 * scale
    ):
        return None
    return float((lam**2).sum())


def min_purity_nelder_mead(
    mu, target: float, *, restarts: int = 12, seed: int | None = None
) -> float:
    """Brute-force minimal linear purity at Tr(rho I) = target.

    Independent of the closed-form solver: parametrizes the affine slice
    {sum lam = 1, lam . mu = target} by its nullspace and runs penalized
    Nelder-Mead from random starts; the support found by the search is then
    refined by exact quadratic solves on its nested top-r subsets (the
    quadratic penalty alone plateaus around 1e-6).
    """
    from scipy.optimize import minimize  # lazily: the CLI imports this module

    mu = np.asarray(mu, dtype=float)
    d = len(mu)
    a_eq = np.stack([np.ones(d), mu])
    b_eq = np.array([1.0, target])
    x_part, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
    _, sv, vt = np.linalg.svd(a_eq)
    null = vt[int(np.sum(sv > 1e-12)):].T
    penalty = 1e7

    def objective(z):
        lam = x_part + null @ z
        neg = np.minimum(lam, 0.0)
        return float(lam @ lam + penalty * neg @ neg)

    rng = default_rng(seed)
    best_v = np.inf
    best_lam = x_part
    for k in range(restarts):
        z0 = np.zeros(null.shape[1]) if k == 0 else rng.normal(scale=0.3, size=null.shape[1])
        for _ in range(2):  # restart the simplex at the found point once
            res = minimize(
                objective,
                z0,
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxfev": 20000},
            )
            z0 = res.x
        if res.fun < best_v:
            best_v = float(res.fun)
            best_lam = x_part + null @ res.x
    order = np.argsort(best_lam)[::-1]
    candidates = [best_v]
    for r in range(1, d + 1):
        v = _exact_purity_on_support(mu, target, order[:r])
        if v is not None:
            candidates.append(v)
    return min(candidates)


def stationarity_check(sol: RankSolution, mu) -> float:
    """Max residual of 2 lam_k - alpha - beta mu_k = 0 over the active support.

    alpha, beta are recovered by least squares; valid for the fixed-purity
    (Lagrange) solutions, and expected to fail for the robustness program.
    """
    mu = np.asarray(mu, dtype=float)[: sol.rank]
    lam = np.asarray(sol.lambdas, dtype=float)
    design = np.stack([np.ones(sol.rank), mu], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, 2.0 * lam, rcond=None)
    alpha, beta = coeffs
    return float(np.abs(2.0 * lam - alpha - beta * mu).max())
