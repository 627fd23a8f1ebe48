import numpy as np
import pytest

from colombeau import default_grid
from colombeau.catalog import CATALOG, REFERENCE_COMPACTS, catalog_net
from colombeau.expr import special
from colombeau.regularity import psequence

CATALOG_NAMES = tuple(CATALOG)


@pytest.fixture(scope="session")
def grid():
    return default_grid()


@pytest.fixture(scope="session")
def compacts():
    return REFERENCE_COMPACTS


@pytest.fixture(scope="session")
def catalog_nets():
    return {name: catalog_net(name) for name in CATALOG_NAMES}


@pytest.fixture
def cutoff_calls(monkeypatch):
    """Spies on the cutoff entries: (the order of each cutoff_deriv_values
    call, the top order of each cutoff_jets build, the number of points of
    each cutoff_deriv_values call)."""
    orders, tops, points = [], [], []
    values, jets = special.cutoff_deriv_values, special.cutoff_jets

    def spy_values(order, t):
        orders.append(order)
        points.append(np.size(t))
        return values(order, t)

    monkeypatch.setattr(special, "cutoff_deriv_values", spy_values)
    monkeypatch.setattr(special, "cutoff_jets", lambda top, t: tops.append(top) or jets(top, t))
    return orders, tops, points


@pytest.fixture(scope="session")
def catalog_sequences(grid, compacts, catalog_nets):
    """P-sequences (k = 0..6) for every catalog net on both reference
    compacts; computed once, reused by the regularity and acceptance tests."""
    return {
        name: tuple(psequence(net, K, grid, k_max=6) for K in compacts)
        for name, net in catalog_nets.items()
    }
