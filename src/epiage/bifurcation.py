"""Parameter sweeps producing backward-bifurcation diagram data.

Each swept value yields a diagram row: the reproduction number plus every
endemic branch (fixed-point pressure and its infected age profile), with
an optional stability tag.  Rows whose rates are all constant take R0 and
the branches from the closed forms and check them against the general
fixed-point solver; other rows use the general solver alone.  Stability
is that of the age-structured model, linearised about the branch: a
perturbation e^(lam t) x(a) exists where the characteristic function

    Delta(lam) = 1 + integral of p (s~ + r~)

vanishes, with s~ = -s* C, C(a) = integral over x < a of beta(x)
e^(-lam (a - x)), and r~' = -(lam + phi + gamma + rho B) r~ - (phi +
gamma) s~ - rho r*, r~(0) = 0 (Iannelli 1995, Inaba 2017).  The branch is
unstable where Delta has a zero with Re lam > 0.  Delta(0) = -B E'(B)
for the excess E, so a branch where the excess rises is unstable with no
other sample; elsewhere the zeros are counted by the winding of
Delta(i omega) as omega runs from 0 to infinity, on omega = tan(theta / 2)
for theta in [0, pi].  Every sample takes one cumulative sum for C and
one backward sweep for the adjoint of i~ = -s~ - r~, on the row's kernel
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _sweep
from .closed_forms import closed_form_profiles, fixed_points_exact, r0_rc_exact
from .demography import DemographicKernel, analysis_kernel, survival
from .errors import ModelError, NumericsError, ParameterError
from .grids import cell_stages
from .parameters import as_parameter_set
from .steady import SteadyState, _SteadyData, find_fixed_points
from .thresholds import r0 as _r0

#: |B_general - B_quadratic| beyond this fails a constant-rate cross-check
_CROSS_CHECK_TOL = 1e-8

#: Delta is sampled on the upper imaginary axis at omega = tan(theta / 2)
#: for this many theta in [0, pi], whose ends stand for Delta(0) > 0 and
#: Delta(i inf) = 1, then between every two whose arg differs by more
#: than pi/2
_THETA_POINTS = 9
#: theta points evaluated together, which bounds the probe's memory
_THETA_BATCH = 8
#: more theta points than this means Delta vanishes on or next to the axis
_THETA_MAX = 1025


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


class _Characteristic(_SteadyData):
    """The characteristic function Delta of the steady states of one rate
    set, on a kernel's grid; a probed sweep builds one per row."""

    def __init__(self, params, kernel: DemographicKernel):
        super().__init__(params, kernel.ages)
        self.kernel = kernel
        ages = kernel.ages
        self.beta = params.beta(ages)
        self.beta_rise = np.diff(self.beta)
        self.midpoints = 0.5 * (ages[:-1] + ages[1:])
        self.half_widths = 0.5 * np.diff(ages)
        # the kernel's density at the stages: contact * survival, over the
        # kernel's norm and then over the quadrature of that, as on the nodes
        stages = cell_stages(ages)
        weighted = params.contact(stages) * survival(params, stages)
        at_nodes = params.contact(ages) * survival(params, ages) / kernel.norm
        self.stage_density = weighted / kernel.norm / kernel.integrate(at_nodes)

    def transmitted(self, lam):
        """C(a) = integral over x < a of beta(x) e^(-lam (a - x)) at the
        nodes, for every lam of the 1-d array ``lam``: all 0, or all on
        the imaginary axis.

        C is e^(-lam a) times the cumulative sum of the exact cell
        integrals of beta e^(lam x), beta linear in each cell:
        (beta_R e^(lam a_R) - beta_L e^(lam a_L)) / lam - (beta_R - beta_L)
        sinc(omega h / 2) e^(lam m) / lam for a cell of width h and
        midpoint m.  The first terms telescope, and every exponential has
        modulus 1 on the axis.  At lam = 0, C is the cumulative of beta.
        """
        if not lam.any():
            return np.broadcast_to(self.cum_beta, lam.shape + self.ages.shape)
        lam = lam[:, None]
        phase = np.exp(-lam * self.ages)
        out = self.beta - self.beta[0] * phase
        if self.beta_rise.any():
            shape = np.sinc(lam.imag * self.half_widths / math.pi)
            cells = self.beta_rise * shape * np.exp(lam * self.midpoints)
            out[:, 1:] -= phase[:, 1:] * np.cumsum(cells, axis=-1)
        return out / lam

    def delta(self, lam, B: float, s, r):
        """Delta at every lam of the 1-d array ``lam``, all 0 or all on
        the imaginary axis, for the state (s, r) under pressure B.

        i~ = -s~ - r~ solves i~' = -(lam + phi + gamma + rho B) i~ + g with
        g = beta s* + rho r* - (beta - rho) B s* C, from i~(0) = 0, so the
        integral of p i~ is that of Z g, with Z the backward sweep of p at
        that decay: no term grows with C but through B s* C <= 1/e.
        """
        ages, transmitted = self.ages, self.transmitted(lam)
        exponent, decay, source = self.cum_exit, self.exit_nodes, self.beta * s
        if B:
            rho_nodes, cum_rho = self._relapse[3:]
            exponent, decay = exponent + B * cum_rho, decay + B * rho_nodes
            source = source + rho_nodes * r - (B * (self.beta - rho_nodes) * s) * transmitted
        adjoint = _sweep.exp_sweep(
            ages, exponent + lam[:, None] * ages, self.stage_density, decay, backward=True
        )
        return 1.0 - self.kernel.integrate(adjoint * source)

    def tag(self, state: SteadyState) -> str:
        """"unstable" where Delta of ``state`` has a zero with Re lam > 0,
        else "stable"; "untested" where a model error stops the count, or
        Delta vanishes on the imaginary axis.  A state sampled on other
        ages than the kernel's takes its profiles from the steady sweep at
        its pressure."""
        b_star = state.b_star
        try:
            s, r = state.s, state.r
            if not np.array_equal(state.ages, self.ages):
                s, _, r = self.profiles(b_star, self.sweep(b_star))
            at_zero = float(self.delta(np.zeros(1), b_star, s, r)[0].real)
            if not (math.isfinite(at_zero) and at_zero != 0.0):
                raise NumericsError(f"the characteristic function reads {at_zero!r} at 0")
            if at_zero < 0.0:
                return "unstable"
            return "unstable" if _winds(lambda lam: self.delta(lam, b_star, s, r)) else "stable"
        except ModelError:
            return "untested"


def _winds(delta) -> bool:
    """Whether Delta, positive at 0 and 1 at i infinity, has a zero with
    Re lam > 0.

    Delta(conj lam) = conj Delta(lam), and Delta tends to 1 as |lam| grows
    with Re lam >= 0, so the zeros with Re lam > 0 number -1/pi times the
    change of arg Delta(i omega) as omega runs from 0 to infinity: the
    Nyquist count.  omega = tan(theta / 2) maps theta in [0, pi] onto it;
    1 stands for both ends, as only their arg, 0, enters.
    """

    def sampled(theta):
        lam = 1j * np.tan(0.5 * theta)
        return np.concatenate([
            delta(lam[k : k + _THETA_BATCH]) for k in range(0, lam.size, _THETA_BATCH)
        ])

    theta = np.linspace(0.0, math.pi, _THETA_POINTS)
    values = np.concatenate([[1.0], sampled(theta[1:-1]), [1.0]])
    while True:
        if theta.size > _THETA_MAX or not np.all(np.isfinite(values) & (values != 0.0)):
            raise NumericsError("the characteristic function vanishes on the imaginary axis")
        steps = np.angle(values[1:] / values[:-1])
        wide = np.abs(steps) > 0.5 * math.pi
        if not np.any(wide):
            return -round(float(np.sum(steps)) / math.pi) > 0
        middle = 0.5 * (theta[:-1] + theta[1:])[wide]
        theta = np.concatenate([theta, middle])
        values = np.concatenate([values, sampled(middle)])
        order = np.argsort(theta)
        theta, values = theta[order], values[order]


def stability_probe(params, steady: SteadyState) -> str:
    """Stability of an endemic or the infection-free steady state of the
    age-structured model, linearised about it.

    With perturbations e^(lam t) (s~, i~, r~) scaled so that the perturbed
    pressure is 1, s~ = -s* C, r~ solves r~' = -(lam + e + rho B) r~ -
    e s~ - rho r* from r~(0) = 0, e = phi + gamma, and i~ = -s~ - r~; the
    state is "unstable" where Delta(lam) = 1 + integral of p (s~ + r~) has
    a zero with Re lam > 0, "stable" otherwise.  Delta is taken as 1 -
    integral of Z g (see ``_Characteristic.delta``).  Delta(0) = 1 - d(B amplification(B))/dB, which is -B E'(B) at a root
    of the excess E and 1 - R0 at B = 0: where the excess rises through
    ``steady.b_star`` the state is "unstable" with no sample of Delta on
    the axis; elsewhere the Nyquist count decides, on the analysis
    kernel's grid.
    "untested" when a model error stops the count, or Delta vanishes on
    the imaginary axis (a fold or a Hopf point).
    """
    params = as_parameter_set(params)
    try:
        characteristic = _Characteristic(params, analysis_kernel(params))
    except ModelError:
        return "untested"
    return characteristic.tag(steady)


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
            characteristic = _Characteristic(params, kernel)
        except ModelError:
            pass
        else:
            tags = [characteristic.tag(state) for state in states]
    branches = tuple(
        Branch(state.b_star, state.ages, state.i, tag) for state, tag in zip(states, tags)
    )
    return DiagramRow(value, float(r0_value), branches, error)
