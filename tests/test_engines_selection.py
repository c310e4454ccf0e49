"""Workload-aware ``engine="auto"`` selection and resolution ergonomics.

Three layers are pinned here:

* the **decision function** (:func:`select_engine_name`) on fixtures taken
  straight from the measured crossover table in ROADMAP.md;
* **resolution precedence** — explicit names (case-insensitive) beat the
  ``REPRO_SIM_ENGINE`` override, which beats the decision function; bare
  resolution keeps the historical vectorized pick; unknown names raise an
  error that names the environment variable when that is where the bad
  spelling came from;
* **observability** — every entry point running under ``"auto"`` records a
  concrete registered backend in ``engine_name``, never the literal
  ``"auto"``, and dispatch never changes results.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from repro.exceptions import SimulationError
from repro.faults import BernoulliArcFaults, monte_carlo
from repro.gossip.analysis import all_arrival_times, arrival_times, eccentricities
from repro.gossip.engines import (
    ENGINE_ENV_VAR,
    FrontierEngine,
    available_engines,
    engine_override,
    get_engine,
    is_auto_spec,
    resolve_engine,
    select_engine_name,
)
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode
from repro.gossip.simulation import gossip_time, simulate, simulate_systolic
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.classic import cycle_graph, grid_2d, hypercube, path_graph


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    """Selection tests must not inherit a pinned CI environment."""
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)


def _program(graph, *, cyclic=True):
    schedule = coloring_systolic_schedule(graph, Mode.HALF_DUPLEX)
    program = RoundProgram.from_schedule(schedule)
    if not cyclic:
        return RoundProgram(
            program.graph, program.rounds, cyclic=False, max_rounds=len(program.rounds)
        )
    return program


class TestDecisionFunction:
    """Pins on crossover-table fixtures (ROADMAP.md)."""

    def test_tracked_cyclic_thin_degree_goes_frontier(self):
        # Cycles and paths have mean arc degree 2.0 ≤ 3.0; arrival-tracked
        # runs on them measured fastest on the frontier engine.  Item-tracked
        # runs scan items once per batch and stay on the dense kernel.
        for graph in (cycle_graph(64), path_graph(64)):
            program = _program(graph)
            assert select_engine_name(program, track_arrivals=True) == "frontier"
            assert (
                select_engine_name(program, track_item_completion=True) == "vectorized"
            )

    def test_tracked_cyclic_thick_degree_goes_hybrid(self):
        # Hypercube(4) has mean arc degree 4.0 > 3.0 (the 16×256 grid of the
        # table is ≈ 3.87): word-granular windows beat per-pair routing.
        program = _program(hypercube(4))
        assert select_engine_name(program, track_arrivals=True) == "hybrid"

    def test_grid_crossover_row(self):
        # The measured grid row itself: item-tracked 16×256 runs fastest on
        # the dense kernel (0.41 s against hybrid's 1.25 s at n = 4096).
        program = _program(grid_2d(16, 256))
        assert select_engine_name(program, track_item_completion=True) == "vectorized"

    @pytest.mark.parametrize(
        "graph", [cycle_graph(64), hypercube(4)], ids=lambda graph: graph.name
    )
    def test_incremental_item_tracked_goes_vectorized(self, graph):
        program = _program(graph)
        assert (
            select_engine_name(program, track_item_completion=True, incremental=True)
            == "vectorized"
        )

    @pytest.mark.parametrize("incremental", [False, True])
    def test_items_with_arrivals_keep_the_arrival_rule(self, incremental):
        for graph, expected in ((cycle_graph(64), "frontier"), (hypercube(4), "hybrid")):
            program = _program(graph)
            both = select_engine_name(
                program,
                track_item_completion=True,
                track_arrivals=True,
                incremental=incremental,
            )
            assert both == expected
            assert both == select_engine_name(
                program, track_arrivals=True, incremental=incremental
            )

    #: Arrival-tracked and plain picks, as recorded before item-tracked runs
    #: moved to the dense kernel: that move must not shift any of them.
    UNCHANGED_PICKS = {
        "C(64)": ("vectorized", "frontier"),
        "P(64)": ("vectorized", "frontier"),
        "Q(4)": ("vectorized", "hybrid"),
        "Grid(16x256)": ("vectorized", "hybrid"),
        "C(8192)": ("hybrid", "frontier"),
    }

    @pytest.mark.parametrize("incremental", [False, True])
    def test_arrival_and_plain_picks_are_unchanged(self, incremental):
        graphs = (
            cycle_graph(64),
            path_graph(64),
            hypercube(4),
            grid_2d(16, 256),
            cycle_graph(8192),
        )
        for graph in graphs:
            program = _program(graph)
            plain, arrivals = self.UNCHANGED_PICKS[graph.name]
            if incremental:
                plain = "vectorized"  # resumed untracked suffixes never warm up
            assert select_engine_name(program, incremental=incremental) == plain
            for history in (False, True):
                assert (
                    select_engine_name(
                        program,
                        track_arrivals=True,
                        track_history=history,
                        incremental=incremental,
                    )
                    == arrivals
                ), graph.name

    def test_plain_cyclic_cache_resident_goes_vectorized(self):
        # n = 64: packed matrix is tiny; the dense kernel wins plain runs.
        assert select_engine_name(_program(cycle_graph(64))) == "vectorized"

    def test_plain_cyclic_cache_spilling_goes_hybrid(self):
        # n = 8192: packed matrix is 8 MiB > the 4 MiB crossover.
        assert select_engine_name(_program(cycle_graph(8192))) == "hybrid"

    def test_finite_program_always_vectorized(self):
        # Finite programs never refire a slot, so sparse windows cannot pay.
        program = _program(cycle_graph(64), cyclic=False)
        assert select_engine_name(program) == "vectorized"
        assert select_engine_name(program, track_arrivals=True) == "vectorized"

    def test_track_history_does_not_change_the_pick(self):
        program = _program(cycle_graph(64))
        assert select_engine_name(program, track_history=True) == select_engine_name(
            program
        )


class TestResolutionPrecedence:
    def test_bare_resolution_keeps_historical_pick(self):
        assert resolve_engine().name == "vectorized"
        assert resolve_engine("auto").name == "vectorized"
        assert resolve_engine(None).name == "vectorized"

    def test_program_aware_resolution(self):
        program = _program(cycle_graph(64))
        assert resolve_engine("auto", program, track_arrivals=True).name == "frontier"
        assert resolve_engine(None, program).name == "vectorized"

    def test_engine_instances_pass_through(self):
        engine = FrontierEngine()
        assert resolve_engine(engine, _program(cycle_graph(8))) is engine

    def test_explicit_names_are_casefolded(self):
        assert resolve_engine(" Frontier ").name == "frontier"
        assert get_engine(" HYBRID ").name == "hybrid"

    def test_explicit_name_beats_program_aware_auto(self):
        program = _program(cycle_graph(64))
        assert resolve_engine("reference", program, track_arrivals=True).name == (
            "reference"
        )

    def test_env_override_beats_program_aware_auto(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "Reference")
        program = _program(cycle_graph(64))
        assert resolve_engine("auto", program, track_arrivals=True).name == "reference"

    def test_explicit_name_beats_env_override(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine("frontier").name == "frontier"

    def test_env_override_error_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "nosuch")
        with pytest.raises(SimulationError, match=ENGINE_ENV_VAR):
            resolve_engine("auto")

    def test_explicit_error_does_not_blame_the_environment(self):
        with pytest.raises(SimulationError) as excinfo:
            resolve_engine("nosuch")
        assert ENGINE_ENV_VAR not in str(excinfo.value)
        assert "nosuch" in str(excinfo.value)

    def test_is_auto_spec(self):
        assert is_auto_spec(None)
        assert is_auto_spec("auto")
        assert is_auto_spec(" AUTO ")
        assert not is_auto_spec("vectorized")
        assert not is_auto_spec(FrontierEngine())

    def test_engine_override_reads_environment(self, monkeypatch):
        assert engine_override() is None
        monkeypatch.setenv(ENGINE_ENV_VAR, "  ")
        assert engine_override() is None
        monkeypatch.setenv(ENGINE_ENV_VAR, "frontier")
        assert engine_override() == "frontier"


class TestAutoObservability:
    """``engine="auto"`` must always land a concrete registered name."""

    def test_simulate_records_concrete_engine(self):
        schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
        protocol = schedule.unroll(3)
        result = simulate(protocol, engine="auto")
        assert result.engine_name in available_engines()

    def test_simulate_systolic_records_concrete_engine(self):
        schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
        result = simulate_systolic(schedule, engine="auto")
        assert result.engine_name in available_engines()

    def test_tracked_analyses_dispatch_identically_to_reference(self):
        # auto sends arrival-tracked cycle runs to the frontier engine and
        # item-tracked ones to the vectorized engine; the values must match
        # the oracle exactly (dispatch changes speed only).
        schedule = coloring_systolic_schedule(cycle_graph(10), Mode.HALF_DUPLEX)
        assert arrival_times(schedule, 0, engine="auto") == arrival_times(
            schedule, 0, engine="reference"
        )
        auto_all = all_arrival_times(schedule, engine="auto")
        ref_all = all_arrival_times(schedule, engine="reference")
        assert {v: auto_all[v] for v in schedule.graph.vertices} == {
            v: ref_all[v] for v in schedule.graph.vertices
        }
        assert eccentricities(schedule, engine="auto") == eccentricities(
            schedule, engine="reference"
        )
        assert gossip_time(schedule, engine="auto") == gossip_time(
            schedule, engine="reference"
        )

    def test_looped_monte_carlo_records_concrete_engine(self):
        schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
        result = monte_carlo(
            schedule,
            BernoulliArcFaults(0.1),
            trials=3,
            seed=1,
            method="looped",
            engine="auto",
        )
        assert result.engine_name in available_engines()


class TestMonteCarloDispatch:
    """Regression pins for the documented method/engine dispatch matrix."""

    def _schedule(self):
        return coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)

    def _run(self, **kwargs):
        return monte_carlo(
            self._schedule(), BernoulliArcFaults(0.1), trials=3, seed=1, **kwargs
        )

    def test_auto_engine_takes_batched(self):
        for engine in (None, "auto", " AUTO "):
            assert self._run(engine=engine).engine_name == "montecarlo-batched"

    def test_explicit_engine_takes_looped(self):
        assert self._run(engine="reference").engine_name == "reference"
        assert self._run(engine=" Frontier ").engine_name == "frontier"

    def test_env_override_counts_as_specific_request(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert self._run(engine="auto").engine_name == "reference"

    def test_method_looped_with_auto_resolves_concretely(self):
        result = self._run(method="looped", engine="auto")
        assert result.engine_name in available_engines()

    def test_method_batched_is_explicitly_available(self):
        assert self._run(method="batched").engine_name == "montecarlo-batched"

    def test_dispatch_never_changes_results(self):
        batched = self._run(engine="auto")
        looped = self._run(method="looped", engine="vectorized")
        assert batched.completion_rounds == looped.completion_rounds
        assert batched.knowledge == looped.knowledge
