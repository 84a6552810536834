"""Exponential sweep for stiff scalar linear ODEs.

Solves r'(a) = g(a) - K(a) r(a), r(0) = 0 on a fixed node array via the
variation-of-constants formula applied cell by cell:

    r(a_{k+1}) = e^{-z_k} r(a_k) + \\int_0^{h} g(a_k+u) e^{-kappa(h-u)} du,

with z_k the exact integral of K over the cell and kappa = z_k / h its
cell average.  The source g is interpolated by the cubic through the four
stage points {0, h/3, 2h/3, h}, and the stage integrals reduce to the
entire functions psi_m(x) = int_0^1 s^m e^{-x(1-s)} ds.

The recurrence is accumulated in log space (running logsumexp), so decay
exponents of any magnitude are handled without over/underflow, and the
scheme is exact when K is constant per cell and g is a cubic there.
"""

from __future__ import annotations

import math

import numpy as np

# series coefficients of psi_m(x) = sum_j (-x)^j m!/(m+j+1)!, j = 0..14
_SERIES_TERMS = 15
_PSI_COEFF = np.array(
    [
        [math.factorial(m) / math.factorial(m + j + 1) for j in range(_SERIES_TERMS)]
        for m in range(4)
    ]
)
_SERIES_CUT = 0.5

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
    """psi_m(x) for m = 0..3, stacked on a new leading axis."""
    x = np.asarray(x, dtype=float)
    out = np.empty((4,) + x.shape)
    small = np.abs(x) <= _SERIES_CUT
    if np.any(small):
        xs = x[small]
        for m in range(4):
            acc = np.full_like(xs, _PSI_COEFF[m, -1])
            for j in range(_SERIES_TERMS - 2, -1, -1):
                acc = _PSI_COEFF[m, j] - xs * acc
            out[m][small] = acc
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
    psis = np.moveaxis(_psi(x), 0, -1)  # (..., n-1, 4)
    with np.errstate(invalid="ignore", over="ignore"):
        return h * np.sum(mono * psis, axis=-1)


def propagate(q, psi):
    """Accumulate r_{k+1} = e^{-(psi_{k+1}-psi_k)} r_k + q_k with r_0 = 0.

    q:   (..., n-1) cell increments.
    psi: (..., n) cumulative decay exponent.
    Returns r at the nodes, shape (..., n).  May contain inf when the decay
    exponent grows without bound (negative K); callers decide how to treat
    non-finite output.
    """
    q = np.asarray(q, dtype=float)
    psi_right = psi[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        any_neg = np.any(q < 0)
        log_pos = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), -np.inf)
        s_pos = np.logaddexp.accumulate(log_pos + psi_right, axis=-1)
        r_tail = np.exp(s_pos - psi[..., 1:])
        if any_neg:
            log_neg = np.where(q < 0, np.log(np.where(q < 0, -q, 1.0)), -np.inf)
            s_neg = np.logaddexp.accumulate(log_neg + psi_right, axis=-1)
            r_tail = r_tail - np.exp(s_neg - psi[..., 1:])
    zeros = np.zeros(q.shape[:-1] + (1,))
    return np.concatenate([zeros, r_tail], axis=-1)


def exp_sweep(nodes, psi, stage_g, decay_nodes):
    """Solution values of r' = g - K r, r(0) = 0, at the nodes."""
    return propagate(cell_sources(nodes, psi, stage_g, decay_nodes), psi)
