"""SciPy's BFGS for an objective that returns its value and gradient, ported step for step.

`minimize(fun, x0)` follows scipy.optimize.minimize(fun, x0, method="BFGS",
jac=True, options={"gtol": 1e-6, "maxiter": 100}) of SciPy 1.17 to the bit:
the same iterates, value, status, iteration count and evaluation count.  It
ports `_minimize_bfgs` with its `_line_search_wolfe12`: first
`line_search_wolfe1`, the Moré–Thuente search (ACM TOMS 20(3), 1994; MINPACK-2's
DCSRCH and DCSTEP), and when that fails, `line_search_wolfe2` with its `_zoom`
(Nocedal and Wright, Numerical Optimization, algorithms 3.5 and 3.6).  Only
what that call reaches is kept: no callback, bounds, initial inverse Hessian
or relative step tolerance (xrtol 0), c1 = 1e-4 and c2 = 0.9, and none of
the checks on those constants.  Each scalar keeps the type SciPy gives it
(a numpy float where SciPy has one), so overflow and division by zero behave
as there too.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_GTOL, _MAXITER = 1e-6, 100  # stop at this inf-norm of the gradient, or after this many iterations
_C1, _C2 = 1e-4, 0.9  # sufficient decrease and curvature constants of both line searches


class BfgsRun(NamedTuple):
    """x, its value, SciPy's status (0 converged, 1 iteration cap, 2 line search failed
    or value not finite, 3 NaN), the iterations and the value evaluations."""

    x: np.ndarray
    fun: float
    status: int
    nit: int
    nfev: int


class _LastPoint:
    """fun's (value, gradient) at the last point asked for, as SciPy's ScalarFunction
    over MemoizeJac keeps it: fun runs once per change of point, and nfev counts
    each point whose value is asked for."""

    def __init__(self, fun):
        self.fun, self.x, self.nfev = fun, None, 0

    def _move(self, x):
        if self.x is None or not np.array_equal(x, self.x):
            self.x = x
            self.f, self.g = self.fun(x)
            self.counted = False

    def value(self, x):
        self._move(x)
        if not self.counted:
            self.nfev += 1
            self.counted = True
        return self.f

    def grad(self, x):
        self._move(x)
        return self.g


def minimize(fun, x0: np.ndarray) -> BfgsRun:
    """BFGS on fun(x) -> (value, gradient) from the float array x0."""
    point = _LastPoint(fun)
    f, fprime = point.value, point.grad
    xk = np.asarray(x0).flatten()
    old_fval = f(xk)
    gfk = fprime(xk)
    k = 0
    eye = np.eye(len(xk), dtype=int)
    hk = eye
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2  # sets the first step to about 1
    warnflag = 0
    gnorm = np.amax(np.abs(gfk))
    while (gnorm > _GTOL) and (k < _MAXITER):
        pk = -np.dot(hk, gfk)
        step = _line_search_wolfe12(f, fprime, xk, pk, gfk, old_fval, old_old_fval)
        if step is None:
            warnflag = 2
            break
        alpha_k, old_fval, old_old_fval, gfkp1 = step
        sk = alpha_k * pk
        xk = xk + sk
        if gfkp1 is None:
            gfkp1 = fprime(xk)
        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = np.amax(np.abs(gfk))
        if gnorm <= _GTOL:
            break
        if alpha_k * _vecnorm(pk) <= 0 * (0 + _vecnorm(xk)):  # xrtol = 0: a zero step stops
            break
        if not np.isfinite(old_fval):
            warnflag = 2
            break
        rhok_inv = np.dot(yk, sk)
        rhok = 1000.0 if rhok_inv == 0.0 else 1.0 / rhok_inv
        a1 = eye - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
        a2 = eye - yk[:, np.newaxis] * sk[np.newaxis, :] * rhok
        hk = np.dot(a1, np.dot(hk, a2)) + (rhok * sk[:, np.newaxis] * sk[np.newaxis, :])
    if warnflag != 2:
        if k >= _MAXITER:
            warnflag = 1
        elif np.isnan(gnorm) or np.isnan(old_fval) or np.isnan(xk).any():
            warnflag = 3
    return BfgsRun(xk, old_fval, warnflag, k, point.nfev)


def _vecnorm(x):
    """SciPy's vecnorm: the 2-norm as a sum of squares."""
    return np.sum(np.abs(x) ** 2, axis=0) ** (1.0 / 2)


def _line_search_wolfe12(f, fprime, xk, pk, gfk, old_fval, old_old_fval):
    """(step, new value, old value, new gradient or None) of wolfe1, else of wolfe2, else None."""
    line = _Line(f, fprime, xk, pk)
    derphi0 = np.dot(gfk, pk)
    return _wolfe1(line, old_fval, old_old_fval, derphi0) or _wolfe2(
        line, old_fval, old_old_fval, derphi0
    )


class _Line:
    """phi(s) = f(xk + s pk) and its slope derphi(s), which keeps the gradient it took in g."""

    def __init__(self, f, fprime, xk, pk):
        self.f, self.fprime, self.xk, self.pk = f, fprime, xk, pk

    def phi(self, s):
        return self.f(self.xk + s * self.pk)

    def derphi(self, s):
        self.g = self.fprime(self.xk + s * self.pk)
        return np.dot(self.g, self.pk)


def _wolfe1(line, old_fval, old_old_fval, derphi0):
    """SciPy's line_search_wolfe1: DCSRCH from min(1, 2.02 (f - f_old) / f'), or None."""
    if derphi0 != 0:
        alpha1 = min(1.0, 1.01 * 2 * (old_fval - old_old_fval) / derphi0)
        if alpha1 < 0:
            alpha1 = 1.0
    else:
        alpha1 = 1.0
    found = _dcsrch(line.phi, line.derphi, alpha1, old_fval, derphi0)
    if found is None:
        return None
    stp, phi1 = found
    return stp, phi1, old_fval, line.g


def _dcsrch(phi, derphi, stp, finit, ginit, xtol=1e-14, stpmin=1e-100, stpmax=1e100):
    """(step, value) meeting the strong Wolfe conditions, or None: SciPy's DCSRCH.

    DCSRCH makes at most 100 evaluations; it tests 99 of them, and gives up
    after making the 100th untested.
    """
    if stp < stpmin or ginit >= 0:
        return None
    brackt = False
    stage = 1
    gtest = _C1 * ginit
    width = stpmax - stpmin
    width1 = width / 0.5
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin = 0
    stmax = stp + 4.0 * stp
    f, g = phi(stp), derphi(stp)
    for _ in range(99):
        ftest = finit + stp * gtest
        if stage == 1 and f <= ftest and g >= 0:
            stage = 2
        if f <= ftest and abs(g) <= _C2 * -ginit:
            return stp, f
        if (
            (brackt and (stp <= stmin or stp >= stmax))
            or (brackt and stmax - stmin <= xtol * stmax)
            or (stp == stpmax and f <= ftest and g <= gtest)
            or (stp == stpmin and (f > ftest or g >= gtest))
        ):
            return None
        if stage == 1 and f <= fx and f > ftest:
            # the modified function f - stp * gtest, until the step is bracketed
            fm = f - stp * gtest
            fxm = fx - stx * gtest
            fym = fy - sty * gtest
            gm = g - gtest
            gxm = gx - gtest
            gym = gy - gtest
            with np.errstate(invalid="ignore", over="ignore"):
                stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                    stx, fxm, gxm, sty, fym, gym, stp, fm, gm, brackt, stmin, stmax
                )
            fx = fxm + stx * gtest
            fy = fym + sty * gtest
            gx = gxm + gtest
            gy = gym + gtest
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                    stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax
                )
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:  # bisect when the interval shrinks too slowly
                stp = stx + 0.5 * (sty - stx)
            width1 = width
            width = abs(sty - stx)
            stmin = min(stx, sty)
            stmax = max(stx, sty)
        else:
            stmin = stp + 1.1 * (stp - stx)
            stmax = stp + 4.0 * (stp - stx)
        stp = np.clip(stp, stpmin, stpmax)
        if brackt and (stp <= stmin or stp >= stmax) or (brackt and stmax - stmin <= xtol * stmax):
            stp = stx
        if not np.isfinite(stp):
            return None
        f, g = phi(stp), derphi(stp)
    return None


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's DCSTEP as SciPy has it: the safeguarded cubic or quadratic step."""
    sgnd = np.sign(dp) * np.sign(dx)
    if fp > fx:
        # higher value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - dx / s * (dp / s))
        if stp < stx:
            gamma *= -1
        p = gamma - dx + theta
        q = gamma - dx + gamma + dp
        r = p / q
        stpc = stx + r * (stp - stx)
        stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:
        # derivatives of opposite sign: bracketed
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - dx / s * (dp / s))
        if stp > stx:
            gamma *= -1
        p = gamma - dp + theta
        q = gamma - dp + gamma + dx
        r = p / q
        stpc = stp + r * (stx - stp)
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if abs(stpc - stp) > abs(stpq - stp):
            stpf = stpc
        else:
            stpf = stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # same sign, the derivative's magnitude falls
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0, (theta / s) ** 2 - dx / s * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = gamma - dp + theta
        q = gamma + (dx - dp) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if brackt:
            if abs(stpc - stp) < abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            if abs(stpc - stp) > abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            stpf = np.clip(stpf, stpmin, stpmax)
    elif brackt:
        # same sign, the magnitude does not fall, bracketed
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - dy / s * (dp / s))
        if stp > sty:
            gamma = -gamma
        p = gamma - dp + theta
        q = gamma - dp + gamma + dy
        r = p / q
        stpc = stp + r * (sty - stp)
        stpf = stpc
    elif stp > stx:
        stpf = stpmax
    else:
        stpf = stpmin
    if fp > fx:
        sty = stp
        fy = fp
        dy = dp
    else:
        if sgnd < 0:
            sty = stx
            fy = fx
            dy = dx
        stx = stp
        fx = fp
        dx = dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _wolfe2(line, old_fval, old_old_fval, derphi0):
    """SciPy's line_search_wolfe2 (amax 1e100, which a step of at most 2**10 never
    reaches): bracket by doubling, then _zoom; None when it fails."""
    phi, derphi = line.phi, line.derphi
    phi0 = old_fval
    alpha0 = 0
    if derphi0 != 0:
        alpha1 = min(1.0, 1.01 * 2 * (phi0 - old_old_fval) / derphi0)
    else:
        alpha1 = 1.0
    if alpha1 < 0:
        alpha1 = 1.0
    phi_a1 = phi(alpha1)
    phi_a0 = phi0
    derphi_a0 = derphi0
    for i in range(10):
        if alpha1 == 0:  # rounding errors prevent progress
            return None
        if phi_a1 > phi0 + _C1 * alpha1 * derphi0 or (phi_a1 >= phi_a0 and i > 0):
            alpha_star, phi_star = _zoom(
                alpha0, alpha1, phi_a0, phi_a1, derphi_a0, phi, derphi, phi0, derphi0
            )
            break
        derphi_a1 = derphi(alpha1)
        if abs(derphi_a1) <= -_C2 * derphi0:
            alpha_star, phi_star = alpha1, phi_a1
            break
        if derphi_a1 >= 0:
            alpha_star, phi_star = _zoom(
                alpha1, alpha0, phi_a1, phi_a0, derphi_a1, phi, derphi, phi0, derphi0
            )
            break
        alpha0 = alpha1
        alpha1 = 2 * alpha1
        phi_a0 = phi_a1
        phi_a1 = phi(alpha1)
        derphi_a0 = derphi_a1
    else:
        # not converged in 10 doublings: SciPy takes the last step, and BFGS
        # then asks for its gradient
        return alpha1, phi_a1, phi0, None
    if alpha_star is None:
        return None
    return alpha_star, phi_star, phi0, line.g


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic through (a, fa), (b, fb), (c, fc) with slope fpa at a, or None."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            C = fpa
            db = b - a
            dc = c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.array([[dc**2, -(db**2)], [-(dc**3), db**3]])
            [A, B] = np.dot(d1, np.asarray([fb - fa - C * db, fc - fa - C * dc]).flatten())
            A /= denom
            B /= denom
            radical = B * B - 3 * A * C
            xmin = a + (-B + np.sqrt(radical)) / (3 * A)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin


def _quadmin(a, fa, fpa, b, fb):
    """Minimizer of the parabola through (a, fa), (b, fb) with slope fpa at a, or None."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            D = fa
            C = fpa
            db = b - a * 1.0
            B = (fb - D - C * db) / (db * db)
            xmin = a - C / (2.0 * B)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin


def _zoom(a_lo, a_hi, phi_lo, phi_hi, derphi_lo, phi, derphi, phi0, derphi0):
    """(step, value) meeting the strong Wolfe conditions inside [a_lo, a_hi], or (None, None)."""
    phi_rec = phi0
    a_rec = 0
    for i in range(11):
        dalpha = a_hi - a_lo
        if dalpha < 0:
            a, b = a_hi, a_lo
        else:
            a, b = a_lo, a_hi
        # cubic through the last three points, else quadratic, else bisection,
        # whichever first lands far enough inside the interval
        if i > 0:
            cchk = 0.2 * dalpha
            a_j = _cubicmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi, a_rec, phi_rec)
        if i == 0 or a_j is None or a_j > b - cchk or a_j < a + cchk:
            qchk = 0.1 * dalpha
            a_j = _quadmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if a_j is None or a_j > b - qchk or a_j < a + qchk:
                a_j = a_lo + 0.5 * dalpha
        phi_aj = phi(a_j)
        if phi_aj > phi0 + _C1 * a_j * derphi0 or phi_aj >= phi_lo:
            phi_rec = phi_hi
            a_rec = a_hi
            a_hi = a_j
            phi_hi = phi_aj
        else:
            derphi_aj = derphi(a_j)
            if abs(derphi_aj) <= -_C2 * derphi0:
                return a_j, phi_aj
            if derphi_aj * (a_hi - a_lo) >= 0:
                phi_rec = phi_hi
                a_rec = a_hi
                a_hi = a_lo
                phi_hi = phi_lo
            else:
                phi_rec = phi_lo
                a_rec = a_lo
            a_lo = a_j
            phi_lo = phi_aj
            derphi_lo = derphi_aj
    return None, None
