import pytest

from calabilab import make_cp1_geometry, make_cpm_geometry, normalize_potential, round_profile


@pytest.fixture(scope="session")
def cp1():
    return make_cp1_geometry()


@pytest.fixture(scope="session")
def cp1_round(cp1):
    return round_profile(cp1)


@pytest.fixture(scope="session")
def cp1_phi(cp1):
    return normalize_potential(cp1)


@pytest.fixture(scope="session")
def geometries():
    """cp1 and cpm:2..4 at the default N, keyed by their CLI spec."""
    return {"cp1": make_cp1_geometry(), **{f"cpm:{m}": make_cpm_geometry(m) for m in (2, 3, 4)}}
