"""Every root of a scalar f between samples of it: ``crossings``.

At each interior sample where f has a local maximum below 0 (or minimum
above 0), Brent's minimiser (Brent 1973, ch. 5) searches the two adjacent
intervals for the extremum; where it finds f across zero, that point
splits a close root pair between two samples, as next to a fold, into
two sign changes.  An extremum that stays on its side of zero, however
close, gives no root.  Chandrupatla's method (Adv. Eng. Softw. 28, 1997)
then refines each sign change: each step takes the inverse-quadratic
point through the bracket ends and the last discarded point when the
three values are monotone enough for it to be safe, and bisects
otherwise.  It keeps a sign-change bracket, so it never leaves the
interval, and converges superlinearly on smooth f.
"""

from __future__ import annotations

import math
import sys

from .errors import ToleranceError

_EPS = sys.float_info.epsilon
_MAX_STEPS = 200
#: Brent's minimiser: relative position tolerance sqrt(eps), golden section
_EXTREMUM_RTOL = math.sqrt(_EPS)
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_MAX_EXTREMUM_STEPS = 100


def crossings(f, samples, tol: float, what: str):
    """Every root of f between ``samples``, as sorted (x, f(x)) pairs.

    ``samples`` are (x, f(x)) pairs sorted by x.  A sample where f is 0
    is a root as it stands; every other sign change, those of the
    extremum splits included, is refined to |f| <= tol.
    """
    points = list(samples)
    for (a, fa), (x, fx), (b, fb) in zip(samples, samples[1:], samples[2:]):
        side = -1.0 if fx < 0.0 else 1.0
        h = [side * fa, side * fx, side * fb]
        # the right neighbour may be level, so that a pair between two
        # equal samples is split as well (once)
        if 0.0 < h[1] < h[0] and h[1] <= h[2]:
            crossing = extremum_crossing(lambda t: side * f(t), (a, x, b), h)
            if crossing is not None:
                points.append((crossing[0], side * crossing[1]))
    points.sort()
    roots = [(x, fx) for x, fx in points if fx == 0.0]
    for (lo, f_lo), (hi, f_hi) in zip(points, points[1:]):
        if min(f_lo, f_hi) < 0.0 < max(f_lo, f_hi):
            roots.append(bracketed_root(f, lo, hi, f_lo, f_hi, tol, what))
    return sorted(roots)


def extremum_crossing(h, points, values):
    """First point where h <= 0 on Brent's descent from a bracketed minimum.

    ``points`` a < x < b bracket a minimum of h (h(x) below h(a), not
    above h(b), all three positive).  Parabolic steps through the three
    best points, golden-section steps where a parabola is unsafe.  Returns
    (point, h(point)) as soon as h <= 0, or None once the minimum is
    located to sqrt(eps) relative without h reaching 0; raises
    ``ToleranceError`` if it is not located within the step limit.
    """
    (a, x, b), (fa, fx, fb) = points, values
    # seed the parabola with the bracket ends, the lower one as runner-up
    (w, fw), (v, fv) = sorted([(a, fa), (b, fb)], key=lambda pair: pair[1])
    d = e = b - a
    for _ in range(_MAX_EXTREMUM_STEPS):
        middle = 0.5 * (a + b)
        tol1 = _EXTREMUM_RTOL * abs(x)
        if abs(x - middle) <= 2.0 * tol1 - 0.5 * (b - a):
            return None
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if x + d - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                    d = math.copysign(tol1, middle - x)
        if golden:
            e = (a - x) if x >= middle else (b - x)
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = h(u)
        if fu <= 0.0:
            return u, fu
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    raise ToleranceError("extremum search of the excess did not converge", best=x)


def bracketed_root(f, a: float, b: float, fa: float, fb: float, tol: float, what: str):
    """A point x in the bracket [a, b] with |f(x)| <= tol, and f(x).

    ``fa`` and ``fb`` are f(a) and f(b), of strictly opposite signs.
    Raises ``ToleranceError`` (``best`` the point of smallest |f|) when
    the bracket shrinks to rounding level before |f| reaches tol.
    """
    c, fc = a, fa
    t = 0.5
    for _ in range(_MAX_STEPS):
        x = a + t * (b - a)
        fx = f(x)
        if abs(fx) <= tol:
            return x, fx
        # keep [a, b] a bracket with a the newest point; c is the point dropped
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            c, fc = a, fa
        else:
            c, fc = b, fb
            b, fb = a, fa
        a, fa = x, fx
        best = a if abs(fa) < abs(fb) else b
        t_min = 2.0 * _EPS * abs(best) / abs(b - c)
        if t_min > 0.5:
            break
        xi = (a - b) / (c - b)
        phi = (fa - fb) / (fc - fb)
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        else:
            t = 0.5
        t = min(1.0 - t_min, max(t_min, t))
    raise ToleranceError(
        f"{what} root search stalled above tol={tol:g}",
        best=a if abs(fa) < abs(fb) else b,
    )
