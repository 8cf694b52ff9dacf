"""Closed-form minimal-purity / maximal-Bell-value solvers.

Three purity measures are covered: the generalized robustness (driven by the
largest state eigenvalue alone), the Renyi 2-purity (rank-ansatz Lagrange
solution), and the relative entropy of purity (Gibbs-state bisection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, Infeasible, OutOfRange
from .linalg import DensityState, Spectrum, _tol, density_state, eig_hermitian

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


def _frame(mu, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d levels mu and z = mu - mu1, exact where the offset dominates (Sterbenz's lemma).

    Every closed form works on z and tau = t - mu1, so an offset costs no digits.
    mu may hold rows of levels along its last axis.  OutOfRange unless d >= 1
    and mu is finite and descending (ties allowed).
    """
    if d < 1:
        raise OutOfRange(f"the dimension must be at least 1, got {d}")
    mu = np.asarray(mu, dtype=float)
    if mu.shape[-1:] != (d,):
        got = mu.shape[-1] if mu.ndim else "a scalar"
        raise OutOfRange(f"expected {d} eigenvalues, got {got}")
    if not (np.isfinite(mu).all() and (mu[..., :-1] >= mu[..., 1:]).all()):
        raise OutOfRange(f"eigenvalues must be finite and descending, got {mu}")
    return mu, mu - mu[..., :1]


def _clamp_target(mu: np.ndarray, target: float) -> float:
    """tau = target - mu1: 0 within _tol(mu) of mu1, else as _check_interior admits it.

    A tau just below Tr(I)/d - mu1 = mean(z) is raised to it.
    """
    if abs(target - mu[0]) <= _tol(mu):
        return 0.0
    return max(_check_interior(mu, target), float(np.mean(mu - mu[0])))


def _check_interior(mu: np.ndarray, target: float) -> float:
    """tau = target - mu1: OutOfRange for a non-finite target, Infeasible unless _interior."""
    if not np.isfinite(target):
        raise OutOfRange(f"target must be finite, got {target}")
    tau = target - mu[0]
    if not _interior(mu, tau):
        raise Infeasible(f"target {target} outside [Tr(I)/d, mu1) = [{mu.mean()}, {mu[0]})")
    return float(tau)


def _interior(mu: np.ndarray, tau):
    """Whether Tr(I)/d <= t < mu1, both ends up to _tol(mu), at tau = t - mu1; row by
    row for rows of levels mu.

    Tr(I)/d - mu1 is the lower of mean(z) and mean(mu) - mu1: under a large
    offset mean(mu) rounds either way by more than _tol(mu).
    """
    tol = _tol(mu)
    floor = np.minimum(mu.mean(axis=-1) - mu[..., 0], (mu - mu[..., :1]).mean(axis=-1))
    return (floor - tol <= tau) & (tau < -tol)


def _top_count(z: np.ndarray):
    """The number of levels within _tol(z) of mu1, row by row: the top eigenspace's dimension."""
    return (z >= -_tol(z)[..., None]).sum(axis=-1)


def _top_space(z: np.ndarray) -> np.ndarray:
    """Uniform weights on the levels within _tol(z) of mu1: the least pure state at mu1."""
    n_deg = int(_top_count(z))
    return np.full(n_deg, 1.0 / n_deg)


def _greedy(lam1: float, r: int) -> np.ndarray:
    """r - 1 weights lam1 followed by the remainder 1 - (r - 1) lam1."""
    lam = np.full(r, lam1)
    lam[-1] = 1.0 - (r - 1) * lam1
    return lam


def _lagrange(z: np.ndarray, x: np.ndarray, value_at):
    """Lagrange rank ansatz, row by row: each row of z takes the first rank
    r = d, d-1, ... with nonnegative weights.

    Only ranks above a row's top eigenspace, as _top_space decides it, are
    scanned.  On the top r levels z = mu - mu1, with a their mean and
    s = sum (z_k - a)^2 > 0, the stationary weights at tau = t - mu1 are
    lambda_k = 1/r + (tau - a)(z_k - a)/s, whose purity is 1/r + (tau - a)^2/s.
    x is a column of one parameter per row, and value_at(r, a, s, x) gives
    tau for the rows still open, on their columns a, s and x.  The loop runs
    over r, and a row leaves it at its rank, so each row gets the bits it
    gets alone.  Returns each row's tau, rank, weights (zero past the rank)
    and purity sum lambda_k^2, summed over the rank's weights alone so that
    the padding costs no bits; Infeasible if a row has no rank.
    """
    n, d = z.shape
    tau, purity = np.empty((2, n))
    rank = np.empty(n, dtype=int)
    weights = np.zeros((n, d))

    def close(at, r, t, lam):
        lam = np.clip(lam, 0.0, None)
        lam /= lam.sum(axis=1, keepdims=True)
        tau[at], rank[at], weights[at, :r], purity[at] = t[:, 0], r, lam, (lam**2).sum(axis=1)

    n_top = _top_count(z)
    # rows: where the open rows' answers go, a slice until the first rows close
    top, rows = n_top.max(initial=0), slice(None)
    for r in range(d, 0, -1):
        if r <= top:
            raise Infeasible("no rank admits nonnegative Lagrange weights")
        a = z[:, :r].sum(axis=1, keepdims=True) / r  # the mean, bit for bit
        centred = z[:, :r] - a
        s = (centred**2).sum(axis=1, keepdims=True)
        t = value_at(r, a, s, x)
        lam = 1.0 / r + (t - a) * centred / s
        done = lam.min(axis=1) >= -_NEG_TOL
        n_done = np.count_nonzero(done)
        if n_done == len(done):
            close(rows, r, t, lam)
            break
        if n_done:
            rows = np.arange(n)[rows]  # the open rows' indices
            close(rows[done], r, t[done], lam[done])
            z, x, n_top, rows = z[~done], x[~done], n_top[~done], rows[~done]
            top = n_top.max()
    return tau, rank, weights, purity


def _assemble(vectors: np.ndarray, weights: np.ndarray, dims) -> DensityState:
    """The state sum_k weights_k v_k v_k^dag over the columns v_k of vectors."""
    rho = (vectors * weights) @ vectors.conj().T
    return density_state((rho + rho.conj().T) / 2, dims)


def max_value_given_probustness(mu, p_r: float, d: int) -> RankSolution:
    """Largest Bell value reachable at fixed purity robustness P_R = d*lam1 - 1.

    All but the last nonzero state eigenvalue equal lam1 = (1 + P_R)/d; the
    rank r is the unique integer with 1/(r-1) > lam1 >= 1/r.
    """
    mu, z = _frame(mu, d)
    if not -1e-12 <= p_r <= d - 1 + 1e-12:
        raise OutOfRange(f"P_R must lie in [0, {d - 1}], got {p_r}")
    lam1 = min(max((1.0 + p_r) / d, 1.0 / d), 1.0)
    lam = _greedy(lam1, int(np.ceil(1.0 / lam1 - 1e-12)))
    return RankSolution(lam, float(mu[0] + z[: len(lam)] @ lam), p_r)


def min_lambda1_for_value(mu, target: float, d: int) -> RankSolution:
    """Smallest lam1 (hence P_R = d*lam1 - 1) consistent with Tr(rho I) = target.

    With z = mu - mu1 and tau = target - mu1, the rank r is the first whose
    uniform top-r state has value mean(z[:r]) <= tau; lam1 in [1/r, 1/(r-1))
    solves tau = lam1 sum_{j<r} z_j + (1 - (r-1) lam1) z_r.  A target below
    Tr(I)/d is the program on -I, whose descending spectrum is -mu[::-1].
    """
    mu, z = _frame(mu, d)
    tau = _clamp_target(mu, target)
    if tau == 0.0:
        top = _top_space(z)
        return RankSolution(top, float(mu[0]), d / len(top) - 1.0)
    prefix = np.cumsum(z)
    # prefix means fall with r from 0 to mean(z) <= tau; min() absorbs their rounding there
    r = min(int(np.sum(prefix / np.arange(1, d + 1) > tau)) + 1, d)
    lam1 = max((tau - z[r - 1]) / (prefix[r - 2] - (r - 1) * z[r - 1]), 1.0 / r)
    return RankSolution(_greedy(lam1, r), target, d * lam1 - 1.0)


def max_value_given_renyi2(mu, p2: float, d: int) -> RankSolution:
    """Largest Bell value at fixed Renyi 2-purity (equivalently linear purity P).

    For P >= 1/n, n the multiplicity of mu1, the state sits on the top space:
    one weight 1/n + sqrt((P - 1/n)(n - 1)/n) and n - 1 equal ones.  Otherwise
    the Lagrange weights of _lagrange reach tau = a + sqrt((P - 1/r) s).
    """
    mu, z = _frame(mu, d)
    if not -1e-12 <= p2 <= np.log2(d) + 1e-12:
        raise OutOfRange(f"P2 must lie in [0, log2 {d}], got {p2}")
    purity = min(max(2.0**p2 / d, 1.0 / d), 1.0)
    n = int(_top_count(z))
    if purity >= 1.0 / n - 1e-12:
        top = min(1.0 / n + np.sqrt(max(0.0, (purity - 1.0 / n) * (n - 1) / n)), 1.0)
        lam = np.append(top, np.full(n - 1, (1.0 - top) / max(n - 1, 1)))
        return RankSolution(lam, float(mu[0]), p2)
    tau, rank, weights, _ = _lagrange(z[None], np.array([[purity]]), _tau_at_purity)
    return RankSolution(weights[0, : rank[0]], float(mu[0] + tau[0]), p2)


def _tau_at_purity(r: int, a: np.ndarray, s: np.ndarray, purity: np.ndarray) -> np.ndarray:
    """The larger tau whose rank-r Lagrange weights have the given purity."""
    return a + np.sqrt(np.maximum(0.0, (purity - 1.0 / r) * s))


def _tau_given(r: int, a: np.ndarray, s: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """tau itself, whatever the rank: the target of min_renyi2_for_value."""
    return tau


def min_renyi2_for_value(mu, target: float, d: int) -> RankSolution:
    """Smallest Renyi 2-purity consistent with Tr(rho I) = target.

    Rank ansatz from full rank downward; the returned eigenvalues satisfy the
    stationarity lambda_k = (beta mu_k + alpha)/2 of the Lagrange conditions.
    """
    mu, z = _frame(mu, d)
    tau = _clamp_target(mu, target)
    if tau == 0.0:
        lam = _top_space(z)
        return RankSolution(lam, float(mu[0]), float(np.log2(d * lam[0])))
    _, rank, weights, purity = _lagrange(z[None], np.array([[tau]]), _tau_given)
    return RankSolution(weights[0, : rank[0]], target, float(np.log2(d * purity[0])))


def _rows_at(mu, target: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_frame's mu and z for rows of levels, and whether _interior admits the
    target on each row.  OutOfRange unless mu holds rows of finite descending
    levels and the target is finite."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2:
        raise OutOfRange(f"expected rows of levels, got shape {mu.shape}")
    mu, z = _frame(mu, mu.shape[1])
    if not np.isfinite(target):
        raise OutOfRange(f"target must be finite, got {target}")
    return mu, z, _interior(mu, target - mu[:, 0])


def _renyi2_rows(mu, target: float) -> np.ndarray:
    """The Renyi-2 purity P2 of min_renyi2_for_value, bit for bit, for each row
    of mu, rows of d descending levels; NaN where _interior refuses the target.

    tau is raised to mean(z) as _clamp_target raises it.  It is then 0 only
    on a flat row at a target that rounds below its levels, whose least pure
    state is the top space of all d levels; the other rows share one _lagrange
    scan.  OutOfRange as _relent_purity_rows.
    """
    mu, z, reach = _rows_at(mu, target)
    d = mu.shape[1]
    z = z[reach]
    tau = np.maximum(target - mu[reach, 0], z.mean(axis=1))
    flat = tau == 0.0
    purity = np.full(len(z), 1.0 / d)
    purity[~flat] = _lagrange(z[~flat], tau[~flat, None], _tau_given)[3]
    p2 = np.full(len(reach), np.nan)
    p2[reach] = np.log2(d * purity)
    return p2


# halvings between two tests of whether every row's bracket has stopped shrinking
_HALVINGS_PER_TEST = 8


def _gibbs_b(z: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """b with <z>_b = sum z_k e^{b z_k} / sum e^{b z_k} = tau, for each row of z.

    z holds rows of normalised levels (mu - mu1)/(mu1 - mu_d), so z1 = 0 >= z_k
    >= -1, and tau their targets, below -1e-12 wherever above mean(z).  b is
    0 where tau <= mean(z); else it is doubled from 1 until <z>_b >= tau and
    bisected until the bracket stops shrinking in floating point, and the
    upper end is returned.  The rows are bisected in lockstep: once a row's
    bracket has stopped shrinking, a further halving leaves it as it is, so
    each row ends on the bits it reaches alone, and the test for the end can
    wait for several halvings.
    """
    tau = tau[:, None]

    def below(b: np.ndarray) -> np.ndarray:
        w = np.exp(b * z)  # z <= 0 with z1 = 0: no overflow
        num, den = np.add.reduce(z * w, axis=1), np.add.reduce(w, axis=1)
        return (num / den)[:, None] < tau

    # b, lo, hi and mid are columns, one entry per row of z
    lo = np.zeros_like(tau)
    hi = (z.mean(axis=1, keepdims=True) < tau).astype(float)
    # the doubling ends: tau < -1e-12, and <z>_b rises to 0
    grow = below(hi)
    while grow.any():
        hi[grow] *= 2.0
        grow = below(hi)
    mid = 0.5 * hi
    while ((lo < mid) & (mid < hi)).any():
        for _ in range(_HALVINGS_PER_TEST):
            low = below(mid)
            np.copyto(lo, mid, where=low)
            np.copyto(hi, mid, where=~low)
            np.add(lo, hi, out=mid)
            mid *= 0.5
    return hi[:, 0]


def min_relent_purity_for_value(op, target: float) -> tuple[float, float, DensityState]:
    """Minimal relative entropy of purity ln d - S(rho), in nats, at Tr(rho I) = target.

    The entropy maximizer under a linear constraint is the Gibbs state
    rho(beta) = e^{beta I} / Tr e^{beta I}, beta >= 0.  Its S_P, beta and
    weights are _relent_purity_rows' on the operator's spectrum as one row,
    and the state is assembled from the weights on the eigenvectors.
    OutOfRange for a non-finite target, Infeasible outside [Tr(I)/d, mu1).
    """
    spec = eig_hermitian(op)
    _check_interior(spec.values, target)
    s_p, beta, weights = _relent_purity_rows(spec.values[None], target)
    return float(s_p[0]), float(beta[0]), _assemble(spec.vectors, weights[0], (spec.dim,))


def _relent_purity_rows(mu, target: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_P, beta and the normalised Gibbs weights of the least pure state at
    the target, for each row of mu, rows of d descending levels; NaN where the
    row cannot reach the target.

    All rows share one _gibbs_b bisection on z = (mu - mu1)/(mu1 - mu_d) in
    [-1, 0] and tau alike, blind to scale and offset, for b = beta (mu1 - mu_d).
    A row of equal levels keeps its scale: _interior admits it only at a
    target that rounds below mu1, which b = 0 reaches.  S_P is read off the
    weights, the state's spectrum.  OutOfRange for a non-finite target or
    levels that are not finite and descending.
    """
    mu, z, reach = _rows_at(mu, target)
    d = mu.shape[1]
    mu, z = mu[reach], z[reach]
    spread = np.where(mu[:, 0] > mu[:, -1], mu[:, 0] - mu[:, -1], 1.0)
    z = z / spread[:, None]
    b = _gibbs_b(z, (target - mu[:, 0]) / spread)
    w = np.exp(b[:, None] * z)
    lam = w / w.sum(axis=1, keepdims=True)
    entropy = -(lam * np.log(np.where(lam > 0, lam, 1.0))).sum(axis=1)
    s_p, beta = np.full((2, len(reach)), np.nan)
    s_p[reach] = np.log(d) - np.maximum(entropy, 0.0)
    beta[reach] = b / spread
    weights = np.full((len(reach), d), np.nan)
    weights[reach] = lam
    return s_p, beta, weights


def construct_optimal_state(sol: RankSolution, basis: Spectrum, dims=None) -> DensityState:
    """Assemble the optimal state from a rank solution and the operator basis."""
    d = basis.dim
    if sol.rank > d:
        raise DimMismatch(f"rank {sol.rank} exceeds dimension {d}")
    return _assemble(basis.vectors[:, : sol.rank], sol.lambdas, dims if dims is not None else (d,))
