import math

import pytest

from epiage._roots import bracketed_root, crossings
from epiage.errors import ToleranceError


def test_superlinear_on_smooth_function():
    calls = []

    def f(x):
        calls.append(x)
        return math.exp(x) - 2.0

    root, value = bracketed_root(f, 0.0, 3.0, -1.0, math.exp(3.0) - 2.0, 1e-14, "test")
    assert abs(value) <= 1e-14
    assert root == pytest.approx(math.log(2.0), abs=1e-14)
    # bisection needs about 48 halvings of [0, 3] for this residual
    assert len(calls) <= 12


def test_sign_change_without_root_raises():
    def jump(x):
        return -1.0 if x < 0.3 else 1.0

    with pytest.raises(ToleranceError) as err:
        bracketed_root(jump, 0.0, 1.0, -1.0, 1.0, 1e-10, "test")
    assert err.value.best == pytest.approx(0.3, abs=1e-15)


def test_sign_change_of_tiny_values():
    """f_lo * f_hi underflows to -0.0 here; the sign change is still seen."""
    samples = [(-1e-200, -1e-200), (1e-200, 1e-200)]
    assert crossings(lambda x: x, samples, 1e-300, "test") == [(0.0, 0.0)]
