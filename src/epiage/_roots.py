"""Bracketed root finding for scalar equations f(x) = 0.

Chandrupatla's method (Adv. Eng. Softw. 28, 1997): each step takes the
inverse-quadratic point through the bracket ends and the last discarded
point when the three values are monotone enough for it to be safe, and
bisects otherwise.  It keeps a sign-change bracket, so it never leaves
the interval, and converges superlinearly on smooth f.
"""

from __future__ import annotations

import math
import sys

from .errors import ToleranceError

_EPS = sys.float_info.epsilon
_MAX_STEPS = 200


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
