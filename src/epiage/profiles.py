"""Age-dependent rate profiles.

A profile is either a constant rate or a piecewise-linear table of
(age, value) knots.  Evaluation clamps to the last knot value beyond the
table (no extrapolation, so rates stay nonnegative), and cumulative
integrals are computed segment-exactly: the trapezoid rule is exact on
linear segments.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ParameterError


class AgeProfile:
    """Nonnegative rate as a function of age (units 1/year).

    Instances are immutable and callable: ``profile(a)`` evaluates at age
    ``a`` (scalar or array).  ``cumulative(a)`` returns the exact integral
    from 0 to ``a``.
    """

    __slots__ = ("ages", "values", "_cum")

    def __init__(self, ages, values):
        ages = np.atleast_1d(np.asarray(ages, dtype=float))
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if ages.ndim != 1 or ages.shape != values.shape or ages.size == 0:
            raise ParameterError("profile needs matching 1-d age/value knots")
        if np.any(np.diff(ages) <= 0):
            raise ParameterError("profile knot ages must be strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ParameterError("profile values must be finite and >= 0")
        if ages[0] < 0:
            raise ParameterError("profile knot ages must be >= 0")
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "values", values)
        # exact integral of the linear interpolant up to each knot
        seg = 0.5 * (values[1:] + values[:-1]) * np.diff(ages)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        object.__setattr__(self, "_cum", cum)

    def __setattr__(self, name, value):
        raise AttributeError("AgeProfile is immutable")

    def __eq__(self, other):
        """Equal knots and values (so configs compare by value)."""
        if not isinstance(other, AgeProfile):
            return NotImplemented
        return np.array_equal(self.ages, other.ages) and np.array_equal(
            self.values, other.values
        )

    def __hash__(self):
        return hash((tuple(self.ages.tolist()), tuple(self.values.tolist())))

    @classmethod
    def constant(cls, value):
        return cls([0.0], [float(value)])

    @classmethod
    def from_table(cls, pairs):
        pairs = list(pairs)
        return cls([p[0] for p in pairs], [p[1] for p in pairs])

    @property
    def is_constant(self):
        return self.values.size == 1 or np.all(self.values == self.values[0])

    def __call__(self, a):
        a_arr = np.asarray(a, dtype=float)
        if np.any(a_arr < 0):
            raise DomainError("age must be >= 0")
        out = np.interp(a_arr, self.ages, self.values)
        return float(out) if np.isscalar(a) or a_arr.ndim == 0 else out

    def cumulative(self, a):
        """Exact integral of the profile over [0, a].

        The profile is held constant at ``values[0]`` before the first knot
        and at ``values[-1]`` beyond the last one.
        """
        a_arr = np.atleast_1d(np.asarray(a, dtype=float))
        if np.any(a_arr < 0):
            raise DomainError("age must be >= 0")
        ages, values, cum = self.ages, self.values, self._cum
        lead = ages[0] * values[0]  # constant piece on [0, ages[0]]
        out = np.empty_like(a_arr)
        below = a_arr <= ages[0]
        out[below] = a_arr[below] * values[0]
        above = ~below & (a_arr >= ages[-1])
        out[above] = lead + cum[-1] + (a_arr[above] - ages[-1]) * values[-1]
        mid = ~(below | above)
        if np.any(mid):
            am = a_arr[mid]
            k = np.searchsorted(ages, am, side="right") - 1
            da = am - ages[k]
            vk = values[k]
            slope = (values[k + 1] - vk) / (ages[k + 1] - ages[k])
            out[mid] = lead + cum[k] + da * (vk + 0.5 * slope * da)
        if np.isscalar(a) or np.asarray(a).ndim == 0:
            return float(out[0])
        return out

    def max_value(self):
        """Largest value the profile attains (extremes sit at knots)."""
        return float(self.values.max())

    def min_value(self):
        return float(self.values.min())

    def __repr__(self):
        if self.values.size == 1:
            return f"AgeProfile.constant({self.values[0]!r})"
        return f"AgeProfile({self.ages.tolist()!r}, {self.values.tolist()!r})"


def as_profile(spec) -> AgeProfile:
    """Coerce a number, (age, value) table, or profile into an AgeProfile."""
    if isinstance(spec, AgeProfile):
        return spec
    if np.isscalar(spec):
        return AgeProfile.constant(spec)
    return AgeProfile.from_table(spec)


def profile_sum(p: AgeProfile, q: AgeProfile) -> AgeProfile:
    """Pointwise sum of two profiles, exact on the union of their knots."""
    ages = np.union1d(p.ages, q.ages)
    return AgeProfile(ages, p(ages) + q(ages))
