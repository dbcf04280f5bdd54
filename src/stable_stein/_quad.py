"""Quadrature and root finding.

All heavy integrals in this package (Fourier inversion, oscillatory test
oracles, tail moments) are computed by mapping a fixed Gauss-Legendre rule
onto a list of panel edges chosen by the caller.  Keeping the edge logic with
the caller lets each integral align panels to its own structure: half-periods
of the oscillating factor, dyadic refinement toward an endpoint singularity,
geometric growth into a power-law tail.

The integrals that have no panel layout of their own (tail moments, the
discrepancy pieces, the mean of a general tail) use ``quad``, a port of
QUADPACK's adaptive Gauss-Kronrod integrator dqagse (Piessens et al.,
*QUADPACK*, Springer 1983), on finite intervals only: an integral out to
infinity goes through ``kernels._tail_integral``, which integrates a
log-substituted finite range with ``quad`` and adds an exact power-law
remainder.  Roots are found by ``brentq``, a port of scipy's Brent root
finder.  No code path of the package imports scipy.  Four routines are
ports of scipy's and return its results bit for bit, each pinned by a parity
test against scipy:

- ``quad`` and ``brentq`` here (``tests/test_quad.py``);
- the PCHIP interpolant behind the quantile table (``density._Pchip``,
  ``TestPchipParity`` in ``tests/test_density.py``);
- the bounded Brent minimizer of ``optimize_gamma``
  (``bounds._minimize_bounded``, ``TestBoundedMinimizerParity`` in
  ``tests/test_bounds.py``).

``quad`` and ``brentq`` run on Python floats.  Only the panel rules build
arrays, so ``gl_rule`` and ``panel_nodes`` import numpy on their first
call, and a command that needs no array starts without loading numpy.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .errors import ConvergenceError, DomainError


@lru_cache(maxsize=None)
def gl_rule(order: int):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1]."""
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges, order: int = 16):
    """Map the GL rule onto every consecutive pair of ``edges``.

    Returns flat arrays (nodes, weights); ``dot(f(nodes), weights)`` is the
    composite integral over [edges[0], edges[-1]].
    """
    import numpy as np

    edges = np.asarray(edges, dtype=float)
    x, w = gl_rule(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


# ---------------------------------------------------------------------------
# QUADPACK: dqagse on a finite interval
#
# The Gauss-Kronrod rule is written out on Python floats in the Fortran's
# operation order, with QUADPACK's decimal constants, so every sum rounds as
# it does in scipy's QUADPACK and ``quad`` returns scipy's bits.
# ---------------------------------------------------------------------------

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
_EPS = 1.49e-8                  # scipy's default epsabs and epsrel
_UFLOW_CUT = _UFLOW / (50.0 * _EPMACH)
_EPMACH50 = _EPMACH * 50.0

# 21-point Kronrod rule: abscissae XK1..XK10 (the even ones are the 10-point
# Gauss nodes), Kronrod weights WK1..WK11 (WK11 at the centre), Gauss
# weights WG1..WG5 of the nodes XK2, XK4, ..., XK10.
_XK21 = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
         0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
         0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
         0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
         0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WK21 = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
         0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
         0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
         0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
         0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
         0.149445554002916905664936468389821)
_WG10 = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
         0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
         0.295524224714752870173892994651338)

def _qk21(f, a, b):
    """QUADPACK dqk21 on [a, b]: (result, abserr, resabs, resasc)."""
    xk1, xk2, xk3, xk4, xk5, xk6, xk7, xk8, xk9, xk10 = _XK21
    wk1, wk2, wk3, wk4, wk5, wk6, wk7, wk8, wk9, wk10, wk11 = _WK21
    wg1, wg2, wg3, wg4, wg5 = _WG10
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    # the five Gauss pairs, then the five Kronrod-only pairs
    absc = hlgth * xk2
    u2, v2 = f(centr - absc), f(centr + absc)
    absc = hlgth * xk4
    u4, v4 = f(centr - absc), f(centr + absc)
    absc = hlgth * xk6
    u6, v6 = f(centr - absc), f(centr + absc)
    absc = hlgth * xk8
    u8, v8 = f(centr - absc), f(centr + absc)
    absc = hlgth * xk10
    u10, v10 = f(centr - absc), f(centr + absc)
    absc = hlgth * xk1
    u1, v1 = f(centr - absc), f(centr + absc)
    absc = hlgth * xk3
    u3, v3 = f(centr - absc), f(centr + absc)
    absc = hlgth * xk5
    u5, v5 = f(centr - absc), f(centr + absc)
    absc = hlgth * xk7
    u7, v7 = f(centr - absc), f(centr + absc)
    absc = hlgth * xk9
    u9, v9 = f(centr - absc), f(centr + absc)
    s1, s2, s3, s4, s5 = u1 + v1, u2 + v2, u3 + v3, u4 + v4, u5 + v5
    s6, s7, s8, s9, s10 = u6 + v6, u7 + v7, u8 + v8, u9 + v9, u10 + v10
    resg = wg1 * s2 + wg2 * s4 + wg3 * s6 + wg4 * s8 + wg5 * s10
    resk0 = wk11 * fc
    resk = (resk0 + wk2 * s2 + wk4 * s4 + wk6 * s6 + wk8 * s8 + wk10 * s10
            + wk1 * s1 + wk3 * s3 + wk5 * s5 + wk7 * s7 + wk9 * s9)
    resabs = (abs(resk0)
              + wk2 * (abs(u2) + abs(v2)) + wk4 * (abs(u4) + abs(v4))
              + wk6 * (abs(u6) + abs(v6)) + wk8 * (abs(u8) + abs(v8))
              + wk10 * (abs(u10) + abs(v10))
              + wk1 * (abs(u1) + abs(v1)) + wk3 * (abs(u3) + abs(v3))
              + wk5 * (abs(u5) + abs(v5)) + wk7 * (abs(u7) + abs(v7))
              + wk9 * (abs(u9) + abs(v9)))
    reskh = resk * 0.5
    resasc = (wk11 * abs(fc - reskh)
              + wk1 * (abs(u1 - reskh) + abs(v1 - reskh))
              + wk2 * (abs(u2 - reskh) + abs(v2 - reskh))
              + wk3 * (abs(u3 - reskh) + abs(v3 - reskh))
              + wk4 * (abs(u4 - reskh) + abs(v4 - reskh))
              + wk5 * (abs(u5 - reskh) + abs(v5 - reskh))
              + wk6 * (abs(u6 - reskh) + abs(v6 - reskh))
              + wk7 * (abs(u7 - reskh) + abs(v7 - reskh))
              + wk8 * (abs(u8 - reskh) + abs(v8 - reskh))
              + wk9 * (abs(u9 - reskh) + abs(v9 - reskh))
              + wk10 * (abs(u10 - reskh) + abs(v10 - reskh)))
    dhlgth = abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5), bit for bit, without pow overflowing for huge r
        r = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if r >= 1.0 else r ** 1.5)
    if resabs > _UFLOW_CUT:
        abserr = max(_EPMACH50 * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """QUADPACK dqpsrt: keep ``iord`` sorted by descending error and return
    (maxerr, errmax, nrmax) of the panel to bisect next (1-based lists)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # a bisection that raised the error: move it up past smaller ones
        while nrmax > 1 and not errmax <= elist[iord[nrmax - 1]]:
            iord[nrmax] = iord[nrmax - 1]
            nrmax -= 1
        # only as many entries as bisections remain are kept sorted
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        jbnd = jupbn - 1
        i = nrmax + 1                               # insert errmax top-down
        while i <= jbnd and not errmax >= elist[iord[i]]:
            iord[i - 1] = iord[i]
            i += 1
        if i > jbnd:
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:
            iord[i - 1] = maxerr
            errmin = elist[last]
            k = jbnd                                # insert errmin bottom-up
            while k >= i and not errmin < elist[iord[k]]:
                iord[k + 1] = iord[k]
                k -= 1
            iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """QUADPACK dqelg: one step of Wynn's epsilon algorithm on the table
    ``epstab[1..n]`` (1-based, updated in place, with the last three
    results in ``res3la[1..3]``).  Returns (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        converged = False
        for i in range(1, newelm + 1):
            res = epstab[k1 + 2]
            e0 = epstab[k1 - 2]
            e1 = epstab[k1 - 1]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 agree to machine accuracy
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1                       # two elements nearly equal
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1                       # irregular table
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr = error
                result = res
        if not converged:
            if n == 50:
                n = 49
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):             # shift the table
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:
                abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                          + abs(result - res3la[1]))
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    abserr = max(abserr, 5.0 * _EPMACH * abs(result))
    return n, result, abserr, nres


def _qagse(f, a, b, limit):
    """QUADPACK's dqagse routine for f over [a, b] with the 21-point rule:
    bisection of the panel with the largest error, and epsilon
    extrapolation once the largest error sits on the smallest panel.  The
    error flag ``ier`` is only followed where it changes the returned bits.
    """
    result, abserr, defabs, resasc = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(_EPS, _EPS * dres)
    stop = limit == 1 or (abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd)
    if stop or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return result, abserr

    size = limit + 1                              # 1-based lists
    alist, blist = [0.0] * size, [0.0] * size
    rlist, elist = [0.0] * size, [0.0] * size
    iord = [0] * size
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1
    rlist2 = [0.0] * 53                           # the epsilon table
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = errsum = abserr
    area = result
    abserr = _OFLOW
    maxerr = nrmax = 1
    nres = ktmin = 0
    numrl2 = 2
    extrap = noext = False
    roundoff_ext = False                          # QUADPACK's ierro = 3
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    use_sum = False

    for last in range(2, limit + 1):
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) \
                    and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(_EPS, _EPS * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            stop = True                           # roundoff (ier = 2)
        if iroff2 >= 5:
            roundoff_ext = True
        if last == limit:
            stop = True                           # out of panels (ier = 1)
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            stop = True                           # bad integrand (ier = 4)
        # the half with the larger error takes the bisected panel's place
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            use_sum = True
            break
        if stop:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # go on bisecting until the largest error sits on a smallest panel
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not roundoff_ext and erlarg > ertest:
            # bisect the larger panels first while any is left in the
            # sorted part of the list
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            stop = True                           # divergent (ier = 5)
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(_EPS, _EPS * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if stop:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not use_sum:
        # keep the extrapolated result unless it is worse than the sum
        if abserr == _OFLOW:
            use_sum = True
        elif stop or roundoff_ext:
            if roundoff_ext:
                abserr = abserr + correc
            if result != 0.0 and area != 0.0:
                use_sum = abserr / abs(result) > errsum / abs(area)
            else:
                use_sum = abserr > errsum
    if use_sum:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return result, abserr


def quad(func, a, b, limit: int = 50):
    """Integral of ``func`` over the finite interval [a, b]: (value,
    abserr).  ``func`` maps a float to a float (numpy floats are floats).

    QUADPACK's dqagse with scipy's default tolerances epsabs = epsrel =
    1.49e-8; the bits are those of ``scipy.integrate.quad(func, a, b,
    limit=limit)``.  A difficult integrand is not an error: as in scipy,
    the estimate comes back with its error.  An infinite bound is a
    ``DomainError``: integrals to infinity go through
    ``kernels._tail_integral``.
    """
    a = float(a)
    b = float(b)
    if not (a < b and math.isfinite(a) and math.isfinite(b)) or limit < 1:
        raise DomainError(
            f"quad needs a finite a < b and limit >= 1, got a={a}, b={b}, limit={limit}"
        )
    return _qagse(func, a, b, limit)


# ---------------------------------------------------------------------------
# Brent's root finder
# ---------------------------------------------------------------------------

_RTOL = 4.0 * sys.float_info.epsilon      # scipy's default rtol


def brentq(f, a, b, xtol: float, rtol: float = _RTOL) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Step for step scipy's ``brentq`` with ``maxiter=100``, so the root is
    scipy's bit for bit.  Endpoints of one sign, or a NaN value of ``f``,
    raise ``DomainError`` (a ``ValueError``); 100 steps without
    convergence raise ``ConvergenceError`` (a ``RuntimeError``).
    """
    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise DomainError(f"brentq: f({x}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError("brentq: f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 \
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                                   # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                                              # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # a zero denominator gives scipy an infinite or NaN step,
                # which it rejects for a bisection
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre = scur
                scur = stry
                bisect = False
        if bisect:
            spre = scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(f"brentq did not converge in 100 steps, value is {xcur}",
                           partial=xcur)
