"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest


def pytest_configure(config):
    """Register custom markers (no pytest.ini/pyproject pytest section exists)."""
    config.addinivalue_line(
        "markers",
        "slow: long-running test (excluded in CI's default run via -m 'not slow')",
    )
    config.addinivalue_line(
        "markers",
        "perf_regression: comparative wall-clock assertion; runs in the CI perf "
        "job (cron/dispatch) only, never as a per-PR gate, because relative "
        "timings flake on shared runners",
    )

from repro.gossip.engines import vectorized
from repro.gossip.model import Mode
from repro.protocols.complete import complete_graph_schedule
from repro.protocols.cycle import cycle_systolic_schedule
from repro.protocols.hypercube import hypercube_dimension_exchange
from repro.protocols.path import path_systolic_schedule
from repro.topologies.classic import (
    complete_graph,
    cycle_graph,
    grid_2d,
    hypercube,
    path_graph,
)
from repro.topologies.debruijn import de_bruijn, de_bruijn_digraph
from repro.topologies.butterfly import wrapped_butterfly
from repro.topologies.kautz import kautz_digraph


@pytest.fixture(scope="class", params=["source-map", "permuted"])
def vectorized_regime(request):
    """Run the requesting tests once per vectorized kernel regime.

    Every test-sized matrix falls below the engine's source-map threshold,
    so ``"source-map"`` leaves it at its default; ``"permuted"`` sets it to
    0, which sends every matrix through the row-permuted AP-segment /
    gather kernel that large instances use.  Class scope keeps the patch
    inside the requesting class (a module-level test gets its own), and
    Hypothesis accepts it where it rejects function-scoped fixtures.
    """
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "permuted":
            patch.setattr(vectorized, "_SOURCE_MAP_MAX_BYTES", 0)
        yield request.param


@pytest.fixture
def small_path():
    """Path on 6 vertices."""
    return path_graph(6)


@pytest.fixture
def small_cycle():
    """Cycle on 8 vertices."""
    return cycle_graph(8)


@pytest.fixture
def small_complete():
    """Complete graph on 8 vertices."""
    return complete_graph(8)


@pytest.fixture
def small_hypercube():
    """Hypercube Q_3."""
    return hypercube(3)


@pytest.fixture
def small_grid():
    """3 x 4 grid."""
    return grid_2d(3, 4)


@pytest.fixture
def small_debruijn():
    """Undirected de Bruijn DB(2, 3)."""
    return de_bruijn(2, 3)


@pytest.fixture
def small_debruijn_digraph():
    """Directed de Bruijn DB->(2, 3)."""
    return de_bruijn_digraph(2, 3)


@pytest.fixture
def small_wbf():
    """Undirected wrapped butterfly WBF(2, 3)."""
    return wrapped_butterfly(2, 3)


@pytest.fixture
def small_kautz_digraph():
    """Kautz digraph K->(2, 3)."""
    return kautz_digraph(2, 3)


@pytest.fixture
def path_schedule_half():
    """Half-duplex systolic schedule on P_8."""
    return path_systolic_schedule(8, Mode.HALF_DUPLEX)


@pytest.fixture
def cycle_schedule_half():
    """Half-duplex systolic schedule on C_8."""
    return cycle_systolic_schedule(8, Mode.HALF_DUPLEX)


@pytest.fixture
def hypercube_schedule_full():
    """Full-duplex dimension exchange on Q_3."""
    return hypercube_dimension_exchange(3, Mode.FULL_DUPLEX)


@pytest.fixture
def complete_schedule_half():
    """Half-duplex recursive doubling on K_8."""
    return complete_graph_schedule(8, Mode.HALF_DUPLEX)
