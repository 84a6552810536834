"""Exponential sweep for stiff scalar linear ODEs.

Solves r'(a) = g(a) - K(a) r(a), r(0) = 0 on a fixed node array via the
variation-of-constants formula applied cell by cell:

    r(a_{k+1}) = e^{-z_k} r(a_k) + \\int_0^{h} g(a_k+u) e^{-kappa(h-u)} du,

with z_k the exact integral of K over the cell and kappa = z_k / h its
cell average.  The source g is interpolated by the cubic through the four
stage points {0, h/3, 2h/3, h}, and the stage integrals reduce to the
entire functions psi_m(x) = int_0^1 s^m e^{-x(1-s)} ds, m = 0..3.  One
Taylor series gives psi_3 near x = 0 and the exact recurrence
psi_{m-1}(x) = (1 - x psi_m(x)) / m the other three; away from 0 the
recurrence runs upward from psi_0 = -expm1(-x) / x.  All four are within
4 ulp relative on either side of the switch.

A real recurrence is accumulated in log space (running logsumexp), so
decay exponents of any magnitude are handled without over/underflow, and
the scheme is exact when K is constant per cell and g is a cubic there.
A complex decay, K + i omega with K >= 0, has every cell factor e^{-z_k}
of modulus at most 1, and its recurrence is taken by pairwise reduction
(``_linear_recurrence``); its psi_m switch by |x|.  A backward sweep
solves -r'(a) = g(a) - K(a) r(a) with r = 0 at the last node, as the
forward sweep of the mirrored problem.
"""

from __future__ import annotations

import math

import numpy as np

# series coefficients of psi_3(x) = sum_j (-x)^j 3!/(j+4)!, j = 0..23; the
# first omitted term is below 2e-17 relative on the series range
_SERIES_TERMS = 24
_PSI3_COEFF = [math.factorial(3) / math.factorial(j + 4) for j in range(_SERIES_TERMS)]
#: x in this range takes the psi_3 series and the downward recurrence, any
#: other x the expm1 start and the upward recurrence; the ends balance the
#: rounding of the two, which stays within 4 ulp relative on both sides
_SERIES_RANGE = (-3.0, 2.25)

# cubic coefficients (monomials in s = u/h) from stage values at s = 0, 1/3, 2/3, 1
_STAGE_TO_MONO = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [-5.5, 9.0, -4.5, 1.0],
        [9.0, -22.5, 18.0, -4.5],
        [-4.5, 13.5, -13.5, 4.5],
    ]
)


def _psi(x):
    """psi_m(x) for m = 0..3, stacked on a new leading axis.

    On ``_SERIES_RANGE`` the Taylor series gives psi_3, and the exact
    identity psi_{m-1}(x) = (1 - x psi_m(x)) / m (integration by parts)
    run downward gives psi_2, psi_1 and psi_0.  Elsewhere psi_0 =
    -expm1(-x) / x and the same identity runs upward.  A complex x takes
    the series where |x| <= 2.25, the series range's upper end: there the
    first omitted term is below 6e-21, and past it each upward step
    scales an error by m / |x| < 4/3.
    """
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    out = np.empty((4,) + x.shape, dtype=x.dtype)
    if x.dtype == complex:
        small = np.abs(x) <= _SERIES_RANGE[1]
    else:
        small = (x >= _SERIES_RANGE[0]) & (x <= _SERIES_RANGE[1])
    if np.any(small):
        xs = x[small]
        acc = np.full_like(xs, _PSI3_COEFF[-1])
        for coeff in _PSI3_COEFF[-2::-1]:
            acc *= xs
            np.subtract(coeff, acc, out=acc)
        out[3][small] = acc
        for m in (3, 2, 1):
            acc = (1.0 - xs * acc) / m
            out[m - 1][small] = acc
    big = ~small
    if np.any(big):
        xb = x[big]
        with np.errstate(over="ignore"):
            p0 = -np.expm1(-xb) / xb
            p1 = (1.0 - p0) / xb
            p2 = (1.0 - 2.0 * p1) / xb
            p3 = (1.0 - 3.0 * p2) / xb
        out[0][big] = p0
        out[1][big] = p1
        out[2][big] = p2
        out[3][big] = p3
    return out


def cell_sources(nodes, psi, stage_g, decay_nodes):
    """Per-cell inhomogeneous increments q_k of the exponential scheme.

    nodes:   (n,) strictly increasing ages.
    psi:     (..., n) cumulative decay exponent at the nodes.
    stage_g: (..., n-1, 4) source samples at the cell stage points.
    decay_nodes: (..., n) samples of K itself.  When K varies linearly
        inside a cell, the exact kernel picks up the factor
        exp(-K' u (h-u) / 2) relative to the cell-averaged exponent; at
        the two interior stage points u(h-u) = 2 h^2 / 9, so folding
        exp(-(K_R - K_L) h / 9) into those stages makes the scheme exact
        for linear K as well.
    """
    h = np.diff(nodes)
    x = np.diff(psi, axis=-1)  # kappa * h with kappa the cell-averaged decay rate
    correction = np.exp(-np.diff(decay_nodes, axis=-1) * h / 9.0)
    stage_g = stage_g.copy()
    stage_g[..., 1] *= correction
    stage_g[..., 2] *= correction
    mono = stage_g @ _STAGE_TO_MONO.T  # (..., n-1, 4) monomial coefficients
    p = _psi(x)
    with np.errstate(invalid="ignore", over="ignore"):
        return h * (
            ((mono[..., 0] * p[0] + mono[..., 1] * p[1]) + mono[..., 2] * p[2])
            + mono[..., 3] * p[3]
        )


def _linear_recurrence(a, b):
    """y_k = a_k y_{k-1} + b_k from y_{-1} = 0 along the last axis, for
    factors with every |a_k| <= 1.

    Pairwise reduction: each pair of steps (2k, 2k+1) is one step with
    factor a_{2k+1} a_{2k} and increment a_{2k+1} b_{2k} + b_{2k+1}, which
    gives y at the odd positions by recursion on half the length, and one
    step from those gives y at the even ones.  An odd length is padded
    with a = 1 and b = 0.  Products of factors only shrink in modulus, so
    none overflows, and one that underflows to 0 cuts the chain, which is
    its limit; so no factor is too small, and the work is linear in the
    length.
    """
    n = b.shape[-1]
    if n == 1:
        return b.copy()
    if n % 2:
        a = np.concatenate([a, np.ones(a.shape[:-1] + (1,))], axis=-1)
        b = np.concatenate([b, np.zeros(b.shape[:-1] + (1,))], axis=-1)
    a_even, a_odd, b_even, b_odd = a[..., 0::2], a[..., 1::2], b[..., 0::2], b[..., 1::2]
    odd = _linear_recurrence(a_odd * a_even, a_odd * b_even + b_odd)
    y = np.empty(b.shape, dtype=np.result_type(a, b))
    y[..., 1::2] = odd
    y[..., 0] = b_even[..., 0]
    y[..., 2::2] = a_even[..., 1:] * odd[..., :-1] + b_even[..., 1:]
    return y[..., :n]


def propagate(q, psi):
    """Accumulate r_{k+1} = e^{-(psi_{k+1}-psi_k)} r_k + q_k with r_0 = 0.

    q:   (..., n-1) cell increments.
    psi: (..., n) cumulative decay exponent.
    Returns r at the nodes, shape (..., n).  May contain inf when the decay
    exponent grows without bound (negative K), and nan from a nan increment
    on, as ``cell_sources`` gives where such growth overflows to inf * 0;
    callers decide how to treat non-finite output.  A complex psi, whose
    real part must not fall, takes ``_linear_recurrence``.
    """
    if np.iscomplexobj(psi):
        r_tail = _linear_recurrence(np.exp(-np.diff(psi, axis=-1)), q)
        return np.concatenate([np.zeros(r_tail.shape[:-1] + (1,)), r_tail], axis=-1)
    q = np.asarray(q, dtype=float)
    psi_right = psi[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        any_neg = np.any(q < 0)
        # a nan increment keeps its log, nan, rather than count as 0
        log_pos = np.where(q <= 0, -np.inf, np.log(q))
        s_pos = np.logaddexp.accumulate(log_pos + psi_right, axis=-1)
        r_tail = np.exp(s_pos - psi[..., 1:])
        if any_neg:
            log_neg = np.where(q >= 0, -np.inf, np.log(-q))
            s_neg = np.logaddexp.accumulate(log_neg + psi_right, axis=-1)
            r_tail = r_tail - np.exp(s_neg - psi[..., 1:])
    zeros = np.zeros(q.shape[:-1] + (1,))
    return np.concatenate([zeros, r_tail], axis=-1)


def exp_sweep(nodes, psi, stage_g, decay_nodes, backward=False):
    """Solution values of r' = g - K r, r(0) = 0, at the nodes; with
    ``backward``, of -r' = g - K r with r = 0 at the last node.

    The backward sweep runs forward over the mirrored nodes -nodes[::-1]:
    every cell keeps its width and its decay exponent, and its stages and
    node samples are taken in reverse.
    """
    if backward:
        nodes, psi = -nodes[::-1], -psi[..., ::-1]
        stage_g, decay_nodes = stage_g[..., ::-1, ::-1], decay_nodes[..., ::-1]
    r = propagate(cell_sources(nodes, psi, stage_g, decay_nodes), psi)
    return r[..., ::-1] if backward else r
