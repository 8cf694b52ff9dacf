"""Independent brute-force verifiers: constrained state samplers, a
Nelder-Mead minimal-purity search, and the Lagrange stationarity checker.

The minimal-purity search maps the levels affinely onto [-1, 0], which
leaves the minimal purity unchanged and the search blind to their scale.
It runs SciPy's non-adaptive Nelder-Mead (rho = 1, chi = 2, psi = sigma =
1/2, ported step for step, so that this module does not import
scipy.optimize) from 12 starts in lockstep: one simplex array for all of
them and one batched objective call per step and trial point.  Exact
quadratic solves on the supports the search finds give the answer, and the
penalised search value only when none of them is feasible.

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
    """seed if given, else the BRB_SEED environment variable read by int(text, 0),
    else DEFAULT_SEED.

    OutOfRange unless the seed is an integer (Python or numpy, not bool) of
    at least 0, as numpy's seeding needs.
    """
    if seed is None:
        env = os.environ.get("BRB_SEED")
        if not env:
            return DEFAULT_SEED
        try:
            seed = int(env, 0)
        except ValueError:
            raise OutOfRange(f"BRB_SEED must be an integer, got {env!r}") from None
    _check_integer(seed, 0, "seed", OutOfRange)
    return seed


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


def _check_integer(value, least: int, name: str, error: type[Exception]) -> None:
    """error unless value is an integer (Python or numpy, not bool) of at least least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")


def sample_spectra(cfg: SamplerConfig, d: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """cfg.count spectra of dimension d, one per row, under cfg's constraint.

    Raises InfeasibleConstraint for a count that is not an integer (Python
    or numpy, not bool) of at least 1, an unknown constraint, or a lambda1
    outside [1/d, 1], and DimMismatch for a d that is not such an integer.
    """
    _check_integer(cfg.count, 1, "count", InfeasibleConstraint)
    _check_integer(d, 1, "d", DimMismatch)
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
    _check_integer(cfg.count, 1, "count", InfeasibleConstraint)
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


_PENALTY = 1e7  # cost per unit squared negative weight in the Nelder-Mead objective


def _slice_basis(z: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Least-norm point x and orthonormal null-space basis N of {sum lam = 1, lam . z = tau}.

    The levels z lie in [-1, 0] and hold both 0 and -1, so the rows ones and
    z are independent, with singular values of at least (sqrt(5) - 1)/2 (the
    least of the 2 x 2 minor on those two columns): the slice is lam = x + N v
    with v in d - 2 dimensions.
    """
    a_eq = np.stack([np.ones(len(z)), z])
    x_part = np.linalg.lstsq(a_eq, [1.0, tau], rcond=None)[0]
    return x_part, np.linalg.svd(a_eq)[2][2:].T


def _slice_weights(x_part: np.ndarray, null: np.ndarray, v: np.ndarray) -> np.ndarray:
    """lam = x_part + null v for each row v[..., :] of v.

    Elementwise products and sums over the last axis, so that every row rounds
    the same in any batch: a matrix product rounds differently at different
    batch widths.
    """
    return x_part + (null * v[..., None, :]).sum(-1)


def _penalised_purity(lam: np.ndarray) -> np.ndarray:
    """sum lam^2 + _PENALTY sum min(lam, 0)^2 over the last axis."""
    neg = np.minimum(lam, 0.0)
    return (lam * lam).sum(-1) + _PENALTY * (neg * neg).sum(-1)


# SciPy's non-adaptive coefficients: reflection, expansion, contraction, shrink
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
# each trial point is a xbar - b x_worst, in SciPy's own products: the
# reflection, and the second point by its kind (the inside contraction's
# + psi x_worst as - (-psi) x_worst, which IEEE arithmetic rounds alike)
_REFLECT = (1 + _RHO, _RHO)
_EXPAND, _CONTRACT_OUT, _CONTRACT_IN = 0, 1, 2
_SECOND = np.array(
    [(1 + _RHO * _CHI, _RHO * _CHI), (1 + _PSI * _RHO, _PSI * _RHO), (1 - _PSI, -_PSI)]
)


def _nelder_mead(f, x0: np.ndarray, *, xatol: float, fatol: float, maxfev: int):
    """SciPy's non-adaptive Nelder-Mead from each start x0[s], all starts in lockstep.

    f maps points v[..., :] to values [...] and must give each point the same
    bits in any batch.  Every start follows scipy.optimize.minimize(f,
    x0[s], method="Nelder-Mead") (SciPy 1.17's _minimize_neldermead) step for
    step: the initial simplex scales each coordinate by 1.05, or sets a zero
    one to 0.00025; the coefficients are rho = 1, chi = 2, psi = 1/2, sigma =
    1/2; the simplex is argsorted after every step; a start stops, frozen,
    once its vertices lie within xatol and its values within fatol of its
    best vertex, or once it has made maxfev evaluations, where an evaluation
    the cap refuses leaves what SciPy leaves.  Each step makes one batched
    call for the reflections, one for the expansion or contraction point each
    start needs, and one more for the starts that shrink.  Returns the best
    vertex and the least value of each start.
    """
    m, n = x0.shape
    sim = np.repeat(x0[:, None], n + 1, axis=1)  # [start, vertex, coordinate]
    diag = np.arange(n)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = f(sim)
    fsim[:, maxfev:] = np.inf  # vertices past the cap stay unevaluated
    fcalls = np.full(m, min(n + 1, maxfev))
    rows, unsorted = np.arange(m)[:, None], np.arange(n + 1)
    for _ in range(2):  # SciPy sorts the initial simplex twice
        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, order], fsim[rows, order]
    while True:
        converged = (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol) & (
            np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol
        )
        run = (fcalls < maxfev) & ~converged
        if not run.any():
            break
        xbar = _sum_rows(sim[:, :-1].swapaxes(0, 1)) / n
        worst, fworst = sim[:, -1], fsim[:, -1]
        xr = _REFLECT[0] * xbar - _REFLECT[1] * worst
        fxr = f(xr)
        fcalls += run
        expand = fxr < fsim[:, 0]
        kind = np.where(expand, _EXPAND, np.where(fxr < fworst, _CONTRACT_OUT, _CONTRACT_IN))
        coef = _SECOND[kind]
        second = coef[:, :1] * xbar - coef[:, 1:] * worst
        fsecond = f(second)
        accept_r = ~expand & (fxr < fsim[:, -2])
        # the second point is evaluated only within the cap; a refused one changes nothing
        need = run & ~accept_r & (fcalls < maxfev)
        fcalls += need
        better = np.where(
            expand, fsecond < fxr, np.where(kind == _CONTRACT_OUT, fsecond <= fxr, fsecond < fworst)
        )
        take_second = need & better
        take_r = run & (accept_r | (need & expand & ~better))
        shrink = need & ~expand & ~better
        sim[:, -1] = np.where(take_second[:, None], second, np.where(take_r[:, None], xr, worst))
        fsim[:, -1] = np.where(take_second, fsecond, np.where(take_r, fxr, fworst))
        if shrink.any():
            # vertex j moves, then is evaluated; the cap can refuse an evaluation after its move
            budget = (maxfev - fcalls)[:, None]
            moved = shrink[:, None] & (unsorted[1:] <= budget + 1)
            evaluated = moved & (unsorted[1:] <= budget)
            shrunk = sim[:, :1] + _SIGMA * (sim[:, 1:] - sim[:, :1])
            sim[:, 1:] = np.where(moved[..., None], shrunk, sim[:, 1:])
            fsim[:, 1:] = np.where(evaluated, f(shrunk), fsim[:, 1:])
            fcalls += evaluated.sum(axis=1)
        order = np.where(run[:, None], np.argsort(fsim, axis=1), unsorted)
        sim, fsim = sim[rows, order], fsim[rows, order]
    return sim[:, 0], fsim.min(axis=1)


def min_purity_nelder_mead(mu, target: float, *, seed: int | None = None) -> float:
    """Brute-force minimal linear purity at Tr(rho I) = target.

    Independent of the closed-form solver.  The levels and target are first
    mapped to z = (mu - mu1)/(mu1 - mu_d) and tau = (target - mu1)/(mu1 -
    mu_d), with mu1 and mu_d the largest and least level: the map leaves the
    slice {sum lam = 1, lam . mu = target}, and so the minimal purity,
    unchanged, and makes the search blind to the levels' scale and offset.
    Equal levels give 1/d.  The slice is parametrised by its null space, and
    sum lam^2 + 1e7 sum min(lam, 0)^2 is minimised by Nelder-Mead from 12
    starts in lockstep (`_nelder_mead`, SciPy's coefficients and stopping
    rule with xatol 1e-12, fatol 1e-14 and 20000 evaluations per start): the
    first start at the slice's least-norm point, the others normal with
    scale 0.3 about it, each restarted once from the vertex it found.  The
    exact quadratic solves on the nested top-r subsets of the best start's
    weights then give the answer: the least of those that are feasible, and
    the penalised value only when none is, since a slightly negative weight
    costs only 1e7 lam^2 and lets that value sit below the true minimum.

    OutOfRange for levels that are not a non-empty 1-D array or hold a
    non-finite value, or a non-finite target, and Infeasible for a target
    outside [min mu, max mu] by more than 1e-12 of the levels' spread.  When
    the slice is a single point (d = 2 with distinct levels) its purity is
    returned directly.
    """
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
    if hi == lo:
        return 1.0 / d
    z, tau = (mu - hi) / (hi - lo), (target - hi) / (hi - lo)
    x_part, null = _slice_basis(z, tau)
    if not null.shape[1]:
        return float(x_part @ x_part)

    def objective(v):
        return _penalised_purity(_slice_weights(x_part, null, v))

    rng = default_rng(seed)
    starts = np.zeros((12, null.shape[1]))
    starts[1:] = rng.normal(scale=0.3, size=(11, null.shape[1]))
    for _ in range(2):  # restart each simplex at the vertex it found once
        starts, values = _nelder_mead(objective, starts, xatol=1e-12, fatol=1e-14, maxfev=20000)
    best = int(np.argmin(values))
    order = np.argsort(_slice_weights(x_part, null, starts[best]))[::-1]
    exact = [_exact_purity_on_support(z, tau, order[:r]) for r in range(1, d + 1)]
    exact = [v for v in exact if v is not None]
    return min(exact) if exact else float(values[best])


def stationarity_check(sol: RankSolution, mu) -> float:
    """Max residual of 2 lam_k - alpha - beta mu_k = 0 over the active support.

    alpha, beta are recovered by least squares; valid for the fixed-purity
    (Lagrange) solutions, and expected to fail for the robustness program.
    OutOfRange for levels that are not a 1-D array of at least sol.rank
    entries, or a non-finite level or weight.
    """
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(sol.lambdas, dtype=float)
    if not (mu.ndim == 1 and len(mu) >= sol.rank):
        raise OutOfRange(f"levels must be a 1-D array of at least {sol.rank} entries, got {mu}")
    if not (np.isfinite(mu).all() and np.isfinite(lam).all()):
        raise OutOfRange(f"levels and weights must be finite, got {mu} and {lam}")
    mu = mu[: sol.rank]
    design = np.stack([np.ones(sol.rank), mu], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, 2.0 * lam, rcond=None)
    alpha, beta = coeffs
    return float(np.abs(2.0 * lam - alpha - beta * mu).max())
