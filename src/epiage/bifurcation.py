"""Parameter sweeps producing backward-bifurcation diagram data.

Each swept value yields a diagram row: the reproduction number plus every
endemic branch (fixed-point pressure and its infected age profile), with
an optional stability tag.  Rows whose rates are all constant take R0 and
the branches from the closed forms and check them against the general
fixed-point solver; other rows use the general solver alone.  Stability
is that of the upwind transport scheme itself: the probe finds the
scheme's own equilibrium next to the branch and asks whether its one-step
map, linearised there, has an eigenvalue outside the unit disk.  These
are the zeros outside the disk of a characteristic function f, which is
real on [1, infinity) and tends to 1 there: f(1) < 0 puts a real one
above 1, and only where f(1) > 0 is the winding of f around the unit
circle counted.  At the scheme's equilibrium X(B) = step(X(B), B) under
frozen pressure B, X'(B) = (I - A)^{-1} v, so f(1) = -E(B) - B E'(B)
with E the scheme's excess: the walk that solves E(B) = 0 sees the sign
of f(1) in the direction the excess crosses 0, and a branch where it
rises is unstable with no sample of f.  At the infection-free state
f(1) = -E(0), so the sign of the excess at 0 decides there.  f is never
sampled at 1; the winding count takes 1 for it.  The equilibrium itself
is a linear recurrence along age, solved by blocked prefix products, as
are the two that give f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import crossings
from .closed_forms import closed_form_profiles, fixed_points_exact, r0_rc_exact
from .demography import analysis_kernel, stationary_mixing
from .errors import ModelError, NumericsError, ParameterError
from .grids import GridSpec, QuadratureGrid
from .parameters import as_parameter_set
from .steady import SteadyState, find_fixed_points
from .thresholds import r0 as _r0
from .transport import auto_time_steps

#: |B_general - B_quadratic| beyond this fails a constant-rate cross-check
_CROSS_CHECK_TOL = 1e-8

#: the probe linearises the scheme on 0-200 years of age, 4000 cells of
#: 0.05 years, at the time step ``time_steps = auto`` takes over one year
_PROBE_AGE_MAX = 200.0
_PROBE_AGE_STEPS = 4000
#: the scheme's equilibrium is solved to |excess| <= this
_PROBE_TOL = 1e-10
#: the walk from b* to the scheme's equilibrium: first and last log step
_WALK_STEP = 0.01
_WALK_REACH = 20.0
#: where f(1) > 0, the upper half circle starts from this many points,
#: theta = 0 among them with 1 standing for f(1), and f is sampled at the
#: others, then between every two whose arg differs by more than pi/2
_CIRCLE_POINTS = 9
#: circle points evaluated together, which bounds the probe's memory
_CIRCLE_BATCH = 2
#: more circle points than this means f has a zero on or next to the circle
_CIRCLE_MAX = 1025
#: ``_linear_recurrence`` keeps every running product of its factors at
#: or above this floor, in blocks of at most this many factors
_PRODUCT_FLOOR = 2.0**-600
_BLOCK_MAX = 256


@dataclass(frozen=True)
class Branch:
    b_star: float
    ages: np.ndarray
    infected: np.ndarray
    stability: str  # "stable" | "unstable" | "untested"


@dataclass(frozen=True)
class DiagramRow:
    swept_value: float
    r0: float
    branches: tuple
    error: str | None = None


def _block_length(a) -> int:
    """L of ``_linear_recurrence`` for the factors ``a``: the most factors
    whose product stays at or above ``_PRODUCT_FLOOR`` given min |a|, and
    at most ``_BLOCK_MAX``; 1 where a factor is 0 or nan."""
    smallest = float(np.abs(a).min(initial=1.0))
    if smallest == 1.0:
        return _BLOCK_MAX
    if smallest > 0.0:
        return min(_BLOCK_MAX, int(math.log(_PRODUCT_FLOOR) / math.log(smallest)))
    return 1


def _linear_recurrence(a, b):
    """y_k = a_k y_{k-1} + b_k from y_{-1} = 0 along the last axis, for
    factors with every |a_k| <= 1.

    Blocked prefix products: in blocks of L factors, P = cumprod(a) and
    y = P cumsum(b / P), the last block padded with a = 1 and b = 0.  A
    doubling scan over the block ends chains each block's carry, and P
    times it is added to every later block.  At or above the product
    floor 2^-600, b / P stays finite for |b| < 2^400 and P never reaches
    the subnormal range.  The cap of 256 factors bounds the rounding of
    the prefix sum where |a_k| is 1 or next to it.  The probe's factors
    are bounded below: keep_k = 1 / (1 + da (e_k + rho_k B)) of
    ``_log_s_and_u`` is about 0.21 or more at beta 45, and lam / (z - d_k)
    of ``characteristic`` is at least lam / 2, about 0.053, in modulus on
    the unit circle, which gives L >= 141 there.
    """
    n = b.shape[-1]
    length = min(n, _block_length(a))
    if length < 2:
        return _doubling_scan(a, b)
    blocks = -(-n // length)
    lead = b.shape[:-1]
    p = np.empty(lead + (blocks, length), dtype=a.dtype)
    y = np.empty(p.shape, dtype=np.result_type(a, b))
    flat_p, flat_y = p.reshape(lead + (-1,)), y.reshape(lead + (-1,))
    flat_p[..., :n] = a
    flat_p[..., n:] = 1.0
    np.cumprod(p, axis=-1, out=p)
    np.divide(b, flat_p[..., :n], out=flat_y[..., :n])
    flat_y[..., n:] = 0.0
    np.cumsum(y, axis=-1, out=y)
    y *= p
    carry = _doubling_scan(p[..., -1], y[..., -1])
    later = p[..., 1:, :]
    later *= carry[..., :-1, None]
    y[..., 1:, :] += later
    return flat_y[..., :n]


def _doubling_scan(a, b):
    """``_linear_recurrence`` in log2(n) passes, each folding in the
    partial solution from twice as far back."""
    a, y = a.copy(), b.copy()
    d = 1
    while d < y.shape[-1]:
        y[..., d:] += a[..., d:] * y[..., :-d]
        a[..., d:] *= a[..., :-d]
        d *= 2
    return y


class _UpwindScheme:
    """The upwind scheme on the probe grid, for a frozen and a linearised pressure.

    Arrays hold the interior nodes 1..n; node 0 is the fixed inflow
    boundary s = 1, i = r = 0.
    """

    def __init__(self, params):
        quad = QuadratureGrid.uniform(_PROBE_AGE_MAX, _PROBE_AGE_STEPS)
        steps = auto_time_steps(params, _PROBE_AGE_MAX, 1.0, _PROBE_AGE_STEPS)
        grid = GridSpec(_PROBE_AGE_MAX, 1.0, _PROBE_AGE_STEPS, steps)
        ages = quad.nodes[1:]
        self.da, self.dt = grid.da, grid.dt
        # B = sum_k c_k i_k, the pressure quadrature of ``simulate``
        self.c = (quad.weights * stationary_mixing(params, quad).density)[1:]
        self.beta = params.beta(ages)
        self.exit = params.exit_pressure()(ages)
        self.rho = params.rho(ages)

    def _log_s_and_u(self, B: float):
        """log s and u = i/B of the scheme's steady state under frozen pressure B.

        It does not depend on dt: s_k = s_{k-1} / (1 + da beta_k B) and
        u_k = keep_k (u_{k-1} + da (rho_k + (beta_k - rho_k) s_k)) with
        keep_k = 1 / (1 + da (e_k + rho_k B)) in (0, 1] and e = phi +
        gamma, since s + i + r = 1 holds exactly.  u is that linear
        recurrence; keep_k is about 0.21 or more at beta 45, so its blocks
        take the cap of 256 cells.
        """
        da = self.da
        log_s = -np.cumsum(np.log1p(da * B * self.beta))
        keep = 1.0 / (1.0 + da * (self.exit + B * self.rho))
        q = da * (self.rho + (self.beta - self.rho) * np.exp(log_s)) * keep
        return log_s, _linear_recurrence(keep, q)

    def equilibrium(self, B: float):
        """(s, i, r) = (s, B u, (1 - s) - B u) of the scheme's steady state."""
        log_s, u = self._log_s_and_u(B)
        return np.exp(log_s), B * u, -np.expm1(log_s) - B * u

    def excess(self, B: float) -> float:
        value = float(self.c @ self._log_s_and_u(B)[1]) - 1.0
        if not math.isfinite(value):
            raise NumericsError(f"scheme excess is not finite at B = {B!r}")
        return value

    def characteristic(self, theta, B: float, s, r):
        """f(z) = 1 - c^T (zI - A)^{-1} v at z = exp(i theta).

        J = A + v c^T is the one-step map linearised about (s, r) under B:
        A at frozen pressure, v = dt d(step)/dB.  The node sums of
        (zI - A)^{-1} v vanish, as s + i + r is conserved, so its s and r
        parts are two recurrences and its i part their negated sum.
        """
        dt, lam = self.dt, self.dt / self.da
        z = np.exp(1j * np.asarray(theta))[:, None]
        den = z - (1.0 - lam - dt * B * self.beta)
        y_s = _linear_recurrence(lam / den, -dt * self.beta * s / den)
        den = z - (1.0 - lam - dt * (self.exit + B * self.rho))
        y_r = _linear_recurrence(lam / den, -dt * (self.exit * y_s + self.rho * r) / den)
        return 1.0 + (y_s + y_r) @ self.c

    def unstable(self, B: float, s, r) -> bool:
        """Whether J has an eigenvalue outside the unit disk, given f(1) > 0.

        A's spectrum lies in [0, 1 - dt/da] under the positivity gate, and
        det(zI - J) = det(zI - A) f(z), so J has an eigenvalue z outside
        the disk exactly where f(z) = 0.  The caller knows f(1) > 0 from
        the excess (f(1) < 0 puts an eigenvalue on [1, infinity) and needs
        no count).  The count is the winding number of f: as f(conj z) =
        conj f(z), the arg change of f over the upper half circle, from
        z = 1 to z = -1, is half the total.  Only the arg of f(1), 0,
        enters, so 1 stands for it and f is sampled from the next point on.
        """

        def f(theta):
            return np.concatenate([
                self.characteristic(theta[k : k + _CIRCLE_BATCH], B, s, r)
                for k in range(0, theta.size, _CIRCLE_BATCH)
            ])

        theta = np.linspace(0.0, math.pi, _CIRCLE_POINTS)
        values = np.concatenate([[1.0], f(theta[1:])])
        while True:
            if theta.size > _CIRCLE_MAX or not np.all(np.isfinite(values) & (values != 0.0)):
                raise NumericsError("the characteristic function vanishes on the unit circle")
            steps = np.angle(values[1:] / values[:-1])
            wide = np.abs(steps) > 0.5 * math.pi
            if not np.any(wide):
                return -round(float(np.sum(steps)) / math.pi) > 0
            middle = 0.5 * (theta[:-1] + theta[1:])[wide]
            theta = np.concatenate([theta, middle])
            values = np.concatenate([values, f(middle)])
            order = np.argsort(theta)
            theta, values = theta[order], values[order]


def _scheme_root(excess, b_star: float):
    """(B, rising): the scheme's equilibrium B next to b_star and whether
    the excess rises through it, or None.

    The excess slope at b_star gives the branch's crossing direction.  The
    walk follows the excess from b_star towards zero in log steps that
    double, up to a factor e^_WALK_REACH, and stops where the excess
    changes sign or |excess| stops falling.  ``_roots.crossings`` takes
    the walk's samples: its extremum split finds a close root pair the
    doubled step went over, and the root nearest b_star is the result.
    When there is none, the scheme has no root of that direction there
    (the grid misses the fold) and the walk returns None.  The walk starts
    on the side of the excess at b_star and moves ``toward`` its zero, so
    the excess rises through B exactly where side * toward < 0, with the
    side of an excess of 0 (or -0.0) at b_star counted as positive: b_star
    is then a root of the walk's samples.
    """
    e0 = excess(b_star)
    step = _WALK_STEP
    b1 = b_star * math.exp(step)
    e1 = excess(b1)
    if e1 == e0:
        return None
    toward = 1.0 if (e1 > e0) == (e0 < 0.0) else -1.0
    if toward < 0.0:
        b1 = b_star * math.exp(-step)
        e1 = excess(b1)
    side = 1.0 if e0 >= 0.0 else -1.0
    samples = [(b_star, e0), (b1, e1)]
    while 0.0 < side * e1 < side * e0 and b1 != 1.0 and step < _WALK_REACH:
        step *= 2.0
        e0 = e1
        b1 = min(1.0, b_star * math.exp(toward * step))
        e1 = excess(b1)
        samples.append((b1, e1))
    roots = crossings(excess, sorted(samples), _PROBE_TOL, "scheme equilibrium")
    if not roots:
        return None
    return min((b for b, _ in roots), key=lambda b: abs(b - b_star)), side * toward < 0.0


def stability_probe(params, steady: SteadyState, *, scheme=None) -> str:
    """Stability of a steady state under the upwind transport scheme.

    On the probe grid (ages 0-200 in 4000 cells, the automatic time step
    for one year) the scheme's equilibrium next to ``steady.b_star``
    is solved without time stepping, and the one-step map linearised
    there is "unstable" where it has an eigenvalue outside the unit disk,
    "stable" otherwise.  Its characteristic function f is real on
    [1, infinity) and tends to 1, and at the scheme's equilibrium X(B) =
    step(X(B), B), X'(B) = (I - A)^{-1} v gives f(1) = -E(B) - B E'(B)
    for the scheme's excess E.  So where the walk to B finds the excess
    rising through it, f(1) < 0 and the state is "unstable" without any
    sample of f; where it falls, f(1) > 0 and the zeros outside the disk
    are counted by the winding of f.  The infection-free state (b_star ==
    0) is probed at B = 0, s = 1, r = 0, where f(1) = -E(0): "unstable"
    where E(0) > 0, counted where E(0) < 0, and "untested" where E(0) is
    exactly 0, an eigenvalue at z = 1.
    "untested" when the grid has no equilibrium of the branch's crossing
    direction next to b_star, or a model error stops the probe.
    ``scheme`` is the ``_UpwindScheme`` of ``params``, built here when
    None; a probed sweep builds one per row and probes every branch on it.
    """
    params = as_parameter_set(params)
    try:
        if scheme is None:
            scheme = _UpwindScheme(params)
        if steady.b_star == 0.0:
            e0 = scheme.excess(0.0)
            if e0 == 0.0:
                raise NumericsError("the infection-free state has an eigenvalue at z = 1")
            B, rising = 0.0, e0 > 0.0
        else:
            root = _scheme_root(scheme.excess, steady.b_star)
            if root is None:
                return "untested"
            B, rising = root
        if rising:
            return "unstable"
        s, _, r = scheme.equilibrium(B)
        return "unstable" if scheme.unstable(B, s, r) else "stable"
    except ModelError:
        return "untested"


def sweep(base, param: str, values, tol: float = 1e-10, probe: bool = False):
    """Diagram rows for every swept value of one rate.

    Each row builds its own analysis kernel.  When every rate of the row
    is constant (``ParameterSet.constant_rates``), R0 and the roots come
    from the closed forms, and the general fixed-point solver must agree
    with the quadratic to 1e-8; otherwise the general solver gives them.
    A row that misses the cross-check keeps its closed-form branches and
    the error, and ``probe`` tags them like any other row's.  Failures are
    recorded on their row; the sweep always returns one row per value.
    """
    values = [float(v) for v in values]
    if any(v <= 0 for v in values):
        raise ParameterError("swept values must be positive")
    if sorted(values) != values:
        raise ParameterError("swept values must be sorted ascending")
    rows = []
    for value in values:
        try:
            rows.append(_sweep_row(base, param, value, tol, probe))
        except ModelError as exc:
            rows.append(DiagramRow(value, float("nan"), (), error=str(exc)))
    return rows


def _sweep_row(base, param, value, tol, probe):
    params = as_parameter_set(base).with_rate(param, value)
    kernel = analysis_kernel(params)
    rates = params.constant_rates()
    error = None
    if rates is None:
        r0_value = _r0(params, kernel)
        states = find_fixed_points(params, kernel, tol)
    else:
        r0_value = r0_rc_exact(rates)[0]
        roots = fixed_points_exact(rates)
        states = []
        for b in roots:
            s, i, r = closed_form_profiles(b, rates, kernel.ages)
            states.append(SteadyState(b, kernel.ages, s, i, r, residual=0.0))
        general = find_fixed_points(params, kernel, tol)
        if len(general) != len(roots) or any(
            abs(g.b_star - b) > _CROSS_CHECK_TOL for g, b in zip(general, roots)
        ):
            error = (
                "general fixed-point solver disagrees with the quadratic: "
                f"{[g.b_star for g in general]} vs {roots}"
            )

    tags = ["untested"] * len(states)
    if probe and states:
        try:
            scheme = _UpwindScheme(params)
        except ModelError:
            pass
        else:
            tags = [stability_probe(params, state, scheme=scheme) for state in states]
    branches = tuple(
        Branch(state.b_star, state.ages, state.i, tag) for state, tag in zip(states, tags)
    )
    return DiagramRow(value, float(r0_value), branches, error)
