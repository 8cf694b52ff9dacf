"""Independent brute-force verifiers: constrained state samplers, a
Nelder-Mead minimal-purity search, and the Lagrange stationarity checker.

Randomness comes from a counter-based Philox generator so every sample
stream is reproducible from (seed, config) alone; the default seed can be
overridden through the BRB_SEED environment variable.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

from .bounds import RankSolution
from .errors import InfeasibleConstraint, OutOfRange
from .linalg import check_hermitian

DEFAULT_SEED = 0xB311


def resolve_seed(seed: int | None = None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("BRB_SEED")
    return int(env, 0) if env else DEFAULT_SEED


def default_rng(seed: int | None = None) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(resolve_seed(seed)))


@dataclass(frozen=True)
class SamplerConfig:
    seed: int | None = None  # None: BRB_SEED, else DEFAULT_SEED
    count: int = 1000
    constraint: str = "none"  # "none" | "fixed-lambda1"
    value: float = 0.0


def _spectra_fixed_lambda1(rng: np.random.Generator, n: int, d: int, lam1: float) -> np.ndarray:
    """Spectra with largest eigenvalue exactly lam1, from one Dirichlet draw each.

    The other d - 1 weights are drawn uniformly on the simplex of total
    1 - lam1.  A draw whose top weight exceeds lam1 is pulled along the line
    to the uniform tail u = (1 - lam1)/(d - 1) until that weight equals lam1;
    draws already under the cap are kept as drawn.  Only the constraint
    matters to the domination tests, not the sampling measure.
    """
    if not 1.0 / d - 1e-12 <= lam1 <= 1.0 + 1e-12:
        raise InfeasibleConstraint(f"lambda1 must lie in [1/{d}, 1], got {lam1}")
    lam1 = min(max(lam1, 1.0 / d), 1.0)
    out = np.empty((n, d))
    out[:, 0] = lam1
    if d == 1:
        return out
    rest = out[:, 1:]
    rest[:] = rng.dirichlet(np.ones(d - 1), size=n) * (1.0 - lam1)
    u = (1.0 - lam1) / (d - 1)
    top = rest.max(axis=1)
    over = top > lam1  # top > lam1 >= u (to rounding), so top - u > 0 on every pulled row
    rest[over] = u + ((lam1 - u) / (top[over] - u))[:, None] * (rest[over] - u)
    return out


def _check_count(count) -> None:
    """InfeasibleConstraint unless count is an integer (Python or numpy, not
    bool) of at least 1."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise InfeasibleConstraint(f"count must be an integer of at least 1, got {count!r}")


def sample_spectra(cfg: SamplerConfig, d: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """cfg.count spectra of dimension d, one per row, under cfg's constraint.

    Raises InfeasibleConstraint for a count that is not an integer (Python
    or numpy, not bool) of at least 1, an unknown constraint, or a lambda1
    outside [1/d, 1].
    """
    _check_count(cfg.count)
    rng = rng or default_rng(cfg.seed)
    if cfg.constraint == "none":
        return rng.dirichlet(np.ones(d), size=cfg.count)
    if cfg.constraint == "fixed-lambda1":
        return _spectra_fixed_lambda1(rng, cfg.count, d, cfg.value)
    raise InfeasibleConstraint(f"unknown constraint {cfg.constraint!r}")


_CHUNK = 20000  # samples per draw of spectra and real parts: fixes the random stream
_QR_BLOCK = 2048  # samples per QR: bounds the working set, leaves the stream alone


def _eigenbasis_weights(rng: np.random.Generator, real: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """|W_aj|^2 for j < d, with W = V^dag Q and Q from the QR of one block of complex Gaussians.

    real holds the block's real parts, the first d - 1 columns of m d x d
    Gaussians; the block's imaginary parts are drawn here as m d x d
    Gaussians, of which likewise only the first d - 1 columns are used.  Its
    own function, so that a block's arrays are freed before the next block
    draws.
    """
    gauss = np.empty(real.shape, dtype=complex)
    gauss.real = real
    gauss.imag = rng.standard_normal((len(real), vh.shape[0], vh.shape[0]))[..., :-1]
    w = vh @ np.linalg.qr(gauss)[0]
    return w.real**2 + w.imag**2


def sample_max_expectation(op, cfg: SamplerConfig) -> float:
    """Max of Tr(rho I) over the sampled constrained states (vectorized).

    Each sample is rho = sum_j lam_j u_j u_j^dag, with lam from
    `sample_spectra` and u_j the columns of Q in the QR of a d x d complex
    Gaussian G.  Q of a complex Gaussian is Haar up to column phases
    (Mezzadri, Notices AMS 54, 2007), and a phase on u_j leaves u_j^dag I u_j
    unchanged.  Two identities then give Tr(rho I) = sum_j lam_j u_j^dag I u_j
    without a product with I and without the last column:

    - with I = V diag(mu) V^dag and W = V^dag Q, u_j^dag I u_j =
      sum_a mu_a |W_aj|^2;
    - the u_j are orthonormal, so sum_j u_j^dag I u_j = Tr I and
      Tr(rho I) = sum_{j<d} (lam_j - lam_d) u_j^dag I u_j + lam_d Tr I.

    Column j of the Householder Q depends only on the first j + 1 columns
    of G, so the QR of G's first d - 1 columns gives those columns of Q.

    The samples come in chunks of _CHUNK: a chunk draws its spectra, then
    the real parts of all its G, then their imaginary parts one block of
    _QR_BLOCK samples at a time, each block right before its QR.  Philox's
    standard_normal gives the same numbers in one call as in consecutive
    shorter ones, and the QR and products work matrix by matrix, so the
    block size bounds the working set without changing any sample.

    Raises NotHermitian for a non-Hermitian op or one with a non-finite
    entry, and InfeasibleConstraint for a count that is not an integer
    (Python or numpy, not bool) of at least 1.
    """
    _check_count(cfg.count)
    mu, vecs = np.linalg.eigh(check_hermitian(op))
    d = len(mu)
    vh = vecs.conj().T
    trace = float(mu.sum())
    rng = default_rng(cfg.seed)
    best = -np.inf
    remaining = cfg.count
    while remaining > 0:
        n = min(_CHUNK, remaining)
        sub = SamplerConfig(cfg.seed, n, cfg.constraint, cfg.value)
        spectra = sample_spectra(sub, d, rng)
        gaps = spectra[:, :-1] - spectra[:, -1:]  # lam_j - lam_d for j < d
        real = rng.standard_normal((n, d, d))[..., :-1]
        for lo in range(0, n, _QR_BLOCK):
            block = slice(lo, lo + _QR_BLOCK)
            diag = mu @ _eigenbasis_weights(rng, real[block], vh)  # u_j^dag I u_j for j < d
            vals = np.einsum("nj,nj->n", gaps[block], diag) + spectra[block, -1] * trace
            best = max(best, float(vals.max()))
        remaining -= n
    return best


def _exact_purity_on_support(mu: np.ndarray, target: float, idx) -> float | None:
    """Exact quadratic minimum on a candidate support (zero elsewhere).

    Solves the two-multiplier linear system for min sum lam^2 subject to
    sum lam = 1 and lam . mu = target with lam supported on idx; returns None
    when the system is singular, the constraints are not met, or any weight
    turns negative.  The system is solved on the levels z = mu - max(mu) and
    the target t - max(mu), since an offset common to the levels costs its
    normal equations digits, and the target is met within 1e-9 of the
    levels' spread.
    """
    top = float(mu.max())
    z, tau = mu[idx] - top, target - top
    s0, s1, s2 = float(len(z)), float(z.sum()), float((z * z).sum())
    try:
        ab = np.linalg.solve([[s0, s1], [s1, s2]], [2.0, 2.0 * tau])
    except np.linalg.LinAlgError:
        return None
    lam = (ab[0] + ab[1] * z) / 2.0
    if (
        lam.min() < -1e-12
        or abs(lam.sum() - 1.0) > 1e-9
        or abs(lam @ z - tau) > 1e-9 * (top - float(mu.min()))
    ):
        return None
    return float((lam**2).sum())


def min_purity_nelder_mead(mu, target: float, *, seed: int | None = None) -> float:
    """Brute-force minimal linear purity at Tr(rho I) = target.

    Independent of the closed-form solver: parametrizes the affine slice
    {sum lam = 1, lam . mu = target} by its nullspace and runs penalized
    Nelder-Mead from random starts; the support found by the search is then
    refined by exact quadratic solves on its nested top-r subsets (the
    quadratic penalty alone plateaus around 1e-6).  OutOfRange for a non-finite
    level or target.
    """
    from scipy.optimize import minimize  # lazily: the CLI imports this module

    mu = np.asarray(mu, dtype=float)
    if not (np.isfinite(mu).all() and np.isfinite(target)):
        raise OutOfRange(f"levels and target must be finite, got {mu} and {target}")
    d = len(mu)
    a_eq = np.stack([np.ones(d), mu])
    # each row at unit norm, so that the rank cut does not depend on the levels' scale
    norms = np.linalg.norm(a_eq, axis=1)
    norms[norms == 0.0] = 1.0
    a_eq, b_eq = a_eq / norms[:, None], np.array([1.0, target]) / norms
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
    for k in range(12):  # 12 starts, the first at the least-norm point x_part
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
    OutOfRange for a non-finite level or weight.
    """
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(sol.lambdas, dtype=float)
    if not (np.isfinite(mu).all() and np.isfinite(lam).all()):
        raise OutOfRange(f"levels and weights must be finite, got {mu} and {lam}")
    mu = mu[: sol.rank]
    design = np.stack([np.ones(sol.rank), mu], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, 2.0 * lam, rcond=None)
    alpha, beta = coeffs
    return float(np.abs(2.0 * lam - alpha - beta * mu).max())
