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
from .errors import DimMismatch, Infeasible, InfeasibleConstraint, OutOfRange
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


def _check_at_least_one(value, name: str, error: type[Exception]) -> None:
    """error unless value is an integer (Python or numpy, not bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise error(f"{name} must be an integer of at least 1, got {value!r}")


def sample_spectra(cfg: SamplerConfig, d: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """cfg.count spectra of dimension d, one per row, under cfg's constraint.

    Raises InfeasibleConstraint for a count that is not an integer (Python
    or numpy, not bool) of at least 1, an unknown constraint, or a lambda1
    outside [1/d, 1], and DimMismatch for a d that is not such an integer.
    """
    _check_at_least_one(cfg.count, "count", InfeasibleConstraint)
    _check_at_least_one(d, "d", DimMismatch)
    rng = rng or default_rng(cfg.seed)
    if cfg.constraint == "none":
        return rng.dirichlet(np.ones(d), size=cfg.count)
    if cfg.constraint == "fixed-lambda1":
        return _spectra_fixed_lambda1(rng, cfg.count, d, cfg.value)
    raise InfeasibleConstraint(f"unknown constraint {cfg.constraint!r}")


_CHUNK = 20000  # samples per draw of spectra and real parts: fixes the random stream
_BLOCK = 2048  # samples per orthonormalisation: bounds the working set, leaves the stream alone


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1] + ... in that order, so that each sample's sum is the same in any block.

    numpy's sum over axis 0 adds pairwise (from eight terms on) once the
    other axes hold a single element, so one sample alone could round apart
    from the same sample inside a block.
    """
    total = x[0].copy()
    for row in x[1:]:
        total += row
    return total


def _gram_schmidt(q: np.ndarray) -> np.ndarray:
    """Orthonormalise each q[:, :, sample] in place; q is a contiguous complex array [a, j, sample].

    Modified Gram-Schmidt runs on the whole stack at once, with the sample
    axis last: each step normalises column k and takes its projection off
    every later column.  The coefficients are summed over rows by _sum_rows
    and every other operation is elementwise, so no sample depends on the
    others in q.

    One pass is enough for the sampler's Gaussians.  Its loss of
    orthogonality is about machine epsilon times the condition number of
    q[:, :, sample], and for a d x (d - 1) complex Gaussian P(sigma_min < s) =
    O(s^4) (Edelman, SIAM J. Matrix Anal. Appl. 9, 1988), so ill-conditioned
    samples are rare: the largest condition number in 2e5 samples at each
    d = 3, 4, 6, 8 was 227, a loss of about 5e-14.
    """
    for k in range(q.shape[1]):
        col = q[:, k]
        norm = np.sqrt(_sum_rows(col.real * col.real + col.imag * col.imag))
        col.real /= norm  # part by part: col /= norm would run complex division
        col.imag /= norm
        col = col[:, None]
        rest = q[:, k + 1 :]
        rest -= _sum_rows(col.conj() * rest) * col  # q^dag x, one per later column
    return q


def _eigenbasis_weights(rng: np.random.Generator, real: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """|W_aj|^2 as an array [a, j, sample] for j < d - 1, with W the Gram-Schmidt of V^dag G.

    real holds one block's real parts, the first d - 1 columns of m d x d
    Gaussians G; the block's imaginary parts are drawn here as m d x d
    Gaussians, of which likewise only the first d - 1 columns are used.  Its
    own function, so that a block's arrays are freed before the next block
    draws.  V is unitary, so the Gram-Schmidt of V^dag G is V^dag Q with Q
    the Gram-Schmidt of G.  The product with V^dag runs matrix by matrix: one
    product over the whole block rounds differently at different block
    widths.  It is then copied once into a contiguous complex array with the
    sample axis last, which Gram-Schmidt orthonormalises in place.
    """
    gauss = np.empty(real.shape, dtype=complex)
    gauss.real = real
    gauss.imag = rng.standard_normal((len(real), vh.shape[0], vh.shape[0]))[..., :-1]
    w = _gram_schmidt(np.ascontiguousarray((vh @ gauss).transpose(1, 2, 0)))
    return w.real * w.real + w.imag * w.imag


def sample_max_expectation(op, cfg: SamplerConfig) -> float:
    """Max of Tr(rho I) over the sampled constrained states (vectorized).

    Each sample is rho = sum_j lam_j u_j u_j^dag, with lam from
    `sample_spectra` and u_j the Gram-Schmidt columns of a d x d complex
    Gaussian G.  Gram-Schmidt leaves R with a positive diagonal, so this Q
    is exactly Haar (Mezzadri, Notices AMS 54, 2007); it equals the
    Householder QR's Q up to column phases.  Column j depends only on the
    first j + 1 columns of G, so the last column is never formed.  Two
    identities give Tr(rho I) = sum_j lam_j u_j^dag I u_j without a product
    with I and without the last column:

    - with I = V diag(mu) V^dag and W = V^dag Q, u_j^dag I u_j =
      sum_a mu_a |W_aj|^2;
    - the u_j are orthonormal, so sum_j u_j^dag I u_j = Tr I and
      Tr(rho I) = sum_{j<d} (lam_j - lam_d) u_j^dag I u_j + lam_d Tr I.

    The samples come in chunks of _CHUNK: a chunk draws its spectra, then
    the real parts of all its G, then their imaginary parts one block of
    _BLOCK samples at a time, each block right before its orthonormalisation.
    Every chunk draws its real parts into the same array, so the largest
    array is allocated once per call rather than once per chunk.
    Philox's standard_normal gives the same numbers in one call as in
    consecutive shorter ones, the product with V^dag works matrix by matrix,
    and Gram-Schmidt runs on one complex array with the sample axis last,
    elementwise but for sums over rows that run in the same order for each
    sample, so the block size bounds the working set without changing any
    sample, to the last bit.

    Raises NotHermitian for a non-Hermitian op or one with a non-finite
    entry, DimMismatch for a non-square or empty one, and
    InfeasibleConstraint for a count that is not an integer (Python or
    numpy, not bool) of at least 1.
    """
    _check_at_least_one(cfg.count, "count", InfeasibleConstraint)
    mu, vecs = np.linalg.eigh(check_hermitian(op))
    d = len(mu)
    vh = vecs.conj().T
    trace = float(mu.sum())
    rng = default_rng(cfg.seed)
    best = -np.inf
    remaining = cfg.count
    draws = np.empty((min(_CHUNK, remaining), d, d))  # each chunk's real parts in turn
    while remaining > 0:
        n = min(_CHUNK, remaining)
        sub = SamplerConfig(cfg.seed, n, cfg.constraint, cfg.value)
        spectra = sample_spectra(sub, d, rng)
        gaps = (spectra[:, :-1] - spectra[:, -1:]).T  # lam_j - lam_d for j < d, [j, sample]
        real = rng.standard_normal(out=draws[:n])[..., :-1]
        for lo in range(0, n, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            weights = _eigenbasis_weights(rng, real[block], vh)
            diag = _sum_rows(mu[:, None, None] * weights)  # u_j^dag I u_j for j < d
            vals = spectra[block, -1] * trace
            for gap, u in zip(gaps[:, block], diag):
                vals += gap * u
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
    quadratic penalty alone plateaus around 1e-6).  OutOfRange for levels
    that are not a non-empty 1-D array or hold a non-finite value, or a
    non-finite target, and Infeasible for a target outside [min mu, max mu]
    by more than 1e-12 of the levels' spread.  When the slice is a single point
    (d = 1, or d = 2 with distinct levels) its purity is returned directly.
    """
    from scipy.optimize import minimize  # lazily: the CLI imports this module

    mu = np.asarray(mu, dtype=float)
    if not (mu.ndim == 1 and mu.size and np.isfinite(mu).all() and np.isfinite(target)):
        raise OutOfRange(
            f"levels must be a non-empty finite 1-D array, got {mu} and target {target}"
        )
    lo, hi = float(mu.min()), float(mu.max())
    slack = 1e-12 * (hi - lo)
    if not lo - slack <= target <= hi + slack:
        raise Infeasible(f"target {target} lies outside the levels' range [{lo}, {hi}]")
    d = len(mu)
    a_eq = np.stack([np.ones(d), mu])
    # each row at unit norm, so that the rank cut does not depend on the levels' scale
    norms = np.linalg.norm(a_eq, axis=1)
    norms[norms == 0.0] = 1.0
    a_eq, b_eq = a_eq / norms[:, None], np.array([1.0, target]) / norms
    x_part, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
    _, sv, vt = np.linalg.svd(a_eq)
    null = vt[int(np.sum(sv > 1e-12)):].T
    if not null.shape[1]:
        return float(x_part @ x_part)
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
