"""Shared fixtures: the algebras and structures exercised across the suite."""

from fractions import Fraction

import pytest

from bornlab import LieAlgebra, catalog
from bornlab.errors import BornlabError
from bornlab.model import materialize


@pytest.fixture(scope="session")
def nil3():
    return LieAlgebra(4, {(1, 2): {3: 1}})


@pytest.fixture(scope="session")
def h4_algebra():
    return LieAlgebra(6, {(1, 2): {5: -1}, (1, 4): {6: -1}, (2, 3): {6: -1}})


@pytest.fixture(scope="session")
def h9_algebra():
    return LieAlgebra(6, {(1, 2): {5: -1}, (1, 4): {6: -1}, (2, 5): {6: -1}})


@pytest.fixture(scope="session")
def catalog_models():
    """Every catalog entry by name."""
    return {name: catalog.get_entry(name) for name, _ in catalog.list_entries()}


def structures_of(entry, kind):
    """The structures of one kind that `materialize` gives for an entry and that build, in its order.

    A Born structure's Kunneth structure is among the Kunneth ones, ahead of the declared ones on other splittings.
    """
    return [obj for k, _, obj in materialize(entry.model) if k == kind and not isinstance(obj, BornlabError)]


@pytest.fixture(scope="session")
def catalog_structures(catalog_models):
    """Built (borns, kunneths) per entry."""
    return {
        name: {"borns": structures_of(entry, "born"), "kunneths": structures_of(entry, "kunneth")}
        for name, entry in catalog_models.items()
    }


def rational_grid():
    """Small exact scalars used by randomized sweeps."""
    return [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
