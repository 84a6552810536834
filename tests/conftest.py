import numpy as np
import pytest

from epiage import ConstantRates, analysis_kernel
from epiage.presets import PRESETS, preset_config

# drinking-dynamics rate magnitudes; beta selects the regime
RATES = dict(mu=0.0125, phi=60.0, gamma=13.0, rho=76.65)


@pytest.fixture(scope="session")
def rates_extinction():
    return ConstantRates(beta=0.011, **RATES)


@pytest.fixture(scope="session")
def rates_bistable():
    return ConstantRates(beta=60.0, **RATES)


@pytest.fixture(scope="session")
def rates_endemic():
    return ConstantRates(beta=120.0, **RATES)


@pytest.fixture(scope="session")
def kernel_bistable(rates_bistable):
    return analysis_kernel(rates_bistable)


@pytest.fixture(scope="session")
def kernel_endemic(rates_endemic):
    return analysis_kernel(rates_endemic)


@pytest.fixture(scope="session")
def kernel_extinction(rates_extinction):
    return analysis_kernel(rates_extinction)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session", params=PRESETS)
def preset_kernel(request):
    """(rates, analysis kernel) of each preset."""
    params = preset_config(request.param).params
    return params, analysis_kernel(params)
