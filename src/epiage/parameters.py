"""Model parameter containers and structural validation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError
from .profiles import AgeProfile, as_profile, profile_sum

#: contact comes last: the first five are the fields of ``ConstantRates``
RATE_NAMES = ("mu", "beta", "phi", "gamma", "rho", "contact")


@dataclass(frozen=True)
class ParameterSet:
    """Age-dependent model rates plus the constant birth rate.

    mu      exit rate (must be strictly positive everywhere)
    beta    transmission rate to susceptibles
    phi     treatment rate
    gamma   recovery rate
    rho     relapse rate of the temporarily recovered
    contact per-capita contact/activity rate entering the mixing density
    """

    mu: AgeProfile
    beta: AgeProfile
    phi: AgeProfile
    gamma: AgeProfile
    rho: AgeProfile
    contact: AgeProfile = field(default_factory=lambda: AgeProfile.constant(1.0))
    birth_rate: float = 1.0
    _exit_pressure: AgeProfile = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in RATE_NAMES:
            object.__setattr__(self, name, as_profile(getattr(self, name)))
        object.__setattr__(self, "_exit_pressure", profile_sum(self.phi, self.gamma))
        # mu == 0 somewhere is constructible so that validate() can flag it;
        # the kernel builders reject it because survival would not decay.
        if not self.birth_rate > 0:
            raise ParameterError("birth rate must be positive")

    def exit_pressure(self) -> AgeProfile:
        """Combined treatment-plus-recovery rate phi + gamma."""
        return self._exit_pressure

    def with_rate(self, name: str, value) -> "ParameterSet":
        if name not in RATE_NAMES:
            raise ParameterError(f"unknown rate {name!r}")
        return replace(self, **{name: as_profile(value)})

    def constant_rates(self) -> "ConstantRates | None":
        """The closed-form rates when every profile is constant, else None.

        This is the one test of whether the closed forms apply.  A constant
        contact rate cancels from the mixing density and the birth rate
        from the fractions, so neither enters the result; rates that
        ``ConstantRates`` rejects also give None.
        """
        if not all(getattr(self, name).is_constant for name in RATE_NAMES):
            return None
        try:
            return ConstantRates(
                *(float(getattr(self, name).values[0]) for name in RATE_NAMES[:5])
            )
        except ParameterError:
            return None


@dataclass(frozen=True)
class ConstantRates:
    """Scalar rates for the closed-form constant-coefficient analysis."""

    mu: float
    beta: float
    phi: float
    gamma: float
    rho: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ParameterError("mu must be positive")
        for name in ("beta", "phi", "gamma", "rho"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")
        if not self.phi + self.gamma + self.rho > 0:
            raise ParameterError("phi + gamma + rho must be positive")

    @property
    def exit_pressure(self) -> float:
        return self.phi + self.gamma

    def to_parameter_set(self) -> ParameterSet:
        return ParameterSet(
            mu=self.mu, beta=self.beta, phi=self.phi, gamma=self.gamma, rho=self.rho
        )


def as_parameter_set(params) -> ParameterSet:
    if isinstance(params, ConstantRates):
        return params.to_parameter_set()
    return params


@dataclass(frozen=True)
class ValidationReport:
    """Structured diagnostics from ``validate``; never raises."""

    compatible: bool
    mu_positive: bool
    messages: tuple

    @property
    def ok(self) -> bool:
        return self.compatible and self.mu_positive


def validate(params: ParameterSet, n0: AgeProfile) -> ValidationReport:
    """Check the initial total population against the model's requirements.

    The total population stays continuous along the t = a characteristic
    if and only if n0(0) equals the birth rate.
    """
    n0 = as_profile(n0)
    messages = []
    compatible = bool(np.isclose(n0(0.0), params.birth_rate, rtol=1e-12, atol=0.0))
    if not compatible:
        messages.append(
            f"n0(0) = {n0(0.0)!r} != birth rate {params.birth_rate!r}: "
            "total population is discontinuous along t = a"
        )
    mu_positive = params.mu.min_value() > 0
    if not mu_positive:
        messages.append("mu has a nonpositive knot")
    return ValidationReport(compatible, mu_positive, tuple(messages))
