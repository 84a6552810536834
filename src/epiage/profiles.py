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

    __slots__ = ("ages", "values", "_segments")

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
        # one segment per knot, plus a leading one from age 0: its start,
        # the exact integral up to it, its value there and half its slope
        # (zero before the first knot and past the last one).  An integral
        # past the largest double is inf, the right limit.  A slope across a
        # subnormal gap can overflow; capped, it gives 0 at da = 0.
        with np.errstate(over="ignore"):
            seg = 0.5 * (values[1:] + values[:-1]) * np.diff(ages)
            cum = ages[0] * values[0] + np.concatenate([[0.0], np.cumsum(seg)])
            half_slopes = np.nan_to_num(0.5 * (np.diff(values) / np.diff(ages)))
        segments = (
            np.concatenate([[0.0], ages]),
            np.concatenate([[0.0], cum]),
            np.concatenate([values[:1], values]),
            np.concatenate([[0.0], half_slopes, [0.0]]),
        )
        object.__setattr__(self, "_segments", segments)

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
        if not np.all(a_arr >= 0):
            raise DomainError("age must be >= 0")
        ages = np.atleast_1d(a_arr)
        out = np.interp(ages, self.ages, self.values)
        # inside a knot gap so narrow that its slope overflows, interp gives
        # +-inf; interpolate there by the share of the gap instead
        steep = np.isinf(out)
        if steep.any():
            k = np.searchsorted(self.ages, ages[steep], side="right") - 1
            share = (ages[steep] - self.ages[k]) / (self.ages[k + 1] - self.ages[k])
            out[steep] = self.values[k] + share * (self.values[k + 1] - self.values[k])
        return float(out[0]) if np.isscalar(a) or a_arr.ndim == 0 else out

    def cumulative(self, a):
        """Exact integral of the profile over [0, a].

        The profile is held constant at ``values[0]`` before the first knot
        and at ``values[-1]`` beyond the last one.
        """
        a_arr = np.atleast_1d(np.asarray(a, dtype=float))
        if not np.all(a_arr >= 0):
            raise DomainError("age must be >= 0")
        starts, integrals, values, half_slopes = self._segments
        k = np.searchsorted(starts, a_arr, side="right") - 1
        da = a_arr - starts[k]
        # below the last knot da never exceeds it; the clip keeps the zero
        # slope's term at 0, not nan, for a = inf
        out = integrals[k] + da * (values[k] + half_slopes[k] * np.minimum(da, starts[-1]))
        if np.isscalar(a) or np.asarray(a).ndim == 0:
            return float(out[0])
        return out

    def age_at(self, level):
        """Smallest age A with ``cumulative(A) >= level``; inf where the
        profile never reaches ``level``.

        A search over the doubles starts at the root of the segment's
        quadratic, 2 rest / (v + sqrt(v^2 + 4 h rest)) in units of its larger
        end value (no cancellation, no overflow), with strides that double so
        that no plateau of the rounded cumulative stalls it.  Where the rate
        does not fall at A, A is the one such double.  Where it falls, the
        rounded cumulative can wiggle in its last ulp, and A is a crossing
        cumulative(A) >= level > cumulative(prevfloat(A)) next to the root.
        """
        level = float(level)
        if not level >= 0.0:
            raise DomainError("level must be >= 0")
        starts, integrals, values, half_slopes = self._segments
        k = max(int(np.searchsorted(integrals, level)) - 1, 0)
        rest, v, h = level - integrals[k], values[k], half_slopes[k]
        m = values[k : k + 2].max()
        # doubles as ordered integers, -1 below age 0: cum(lo) < level <= cum(hi)
        lo, hi = -1, int(np.float64(np.inf).view(np.int64))
        with np.errstate(all="ignore"):  # a root or a far probe may overflow
            root = np.sqrt(max((v / m) ** 2 + 4.0 * (h * (rest / m) / m), 0.0))
            guess = starts[k] + 2.0 * (rest / m) / (v / m + root)
            near, stride = min(max(int(guess.view(np.int64)), 0), hi - 1), 1
            while hi - lo > 1:
                probe = near if lo < near < hi else (lo + hi) // 2
                if self.cumulative(np.int64(probe).view(np.float64)) < level:
                    lo, near = probe, probe + stride
                else:
                    hi, near = probe, probe - stride
                stride *= 2
        return float(np.int64(hi).view(np.float64))

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
