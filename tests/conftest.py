"""Shared fixtures: catalog weights, session-scoped so reports are computed
once, and the number of threads of the suffix kernel."""

import pytest

from cesaro import criteria
from cesaro.weights import catalog_weight


@pytest.fixture(params=[1, 2], ids=["workers1", "workers2"])
def workers(request, monkeypatch):
    """Forces the number of threads that share a chunk's rows."""
    monkeypatch.setattr(criteria, "_worker_count",
                        lambda rows: min(request.param, rows))
    return request.param


@pytest.fixture(scope="session")
def poly05():
    return catalog_weight("poly", {"alpha": 0.5})


@pytest.fixture(scope="session")
def poly1():
    return catalog_weight("poly", {"alpha": 1.0})


@pytest.fixture(scope="session")
def poly2():
    return catalog_weight("poly", {"alpha": 2.0})


@pytest.fixture(scope="session")
def poly25():
    return catalog_weight("poly", {"alpha": 2.5})


@pytest.fixture(scope="session")
def geom05():
    return catalog_weight("geom", {"r": 0.5, "beta": 0.0})


@pytest.fixture(scope="session")
def superfact():
    return catalog_weight("superfact")


@pytest.fixture(scope="session")
def spike():
    return catalog_weight("spike")


@pytest.fixture(scope="session")
def block313():
    return catalog_weight("block313")


@pytest.fixture(scope="session")
def block413a2():
    return catalog_weight("block413", {"alpha": 2.0})


@pytest.fixture(scope="session")
def loggamma1():
    return catalog_weight("loggamma", {"gamma": 1.0})


@pytest.fixture(scope="session")
def loggamma2():
    return catalog_weight("loggamma", {"gamma": 2.0})
