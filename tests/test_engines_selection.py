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

from repro.exceptions import SimulationError, TopologyError
from repro.faults import BernoulliArcFaults, monte_carlo
from repro.gossip import engines
from repro.gossip.analysis import all_arrival_times, arrival_times, eccentricities
from repro.gossip.engines import (
    ENGINE_ENV_VAR,
    FrontierEngine,
    available_engines,
    engine_override,
    explain_engine_selection,
    get_engine,
    is_auto_spec,
    resolve_engine,
    select_engine_name,
)
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode, make_round
from repro.gossip.simulation import gossip_time, simulate, simulate_systolic
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.base import Digraph
from repro.topologies.classic import (
    complete_binary_tree,
    cycle_graph,
    grid_2d,
    hypercube,
    path_graph,
    torus_2d,
)
from repro.topologies.debruijn import de_bruijn
from repro.topologies.kautz import kautz
from repro.topologies.properties import distances_from, eccentricity


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
    """Pins of the depth rule on small members of the crossover-table
    families (ROADMAP.md)."""

    #: Arrival-tracked cyclic runs whose BFS depth from vertex 0 is at least
    #: √n: the frontier engine's side of the rule.
    DEEP = {
        "C(64)": lambda: cycle_graph(64),  # depth 32, √n 8
        "P(64)": lambda: path_graph(64),  # depth 63
        "grid 8x32": lambda: grid_2d(8, 32),  # depth 38, √n 16
        "torus 8x24": lambda: torus_2d(8, 24),  # depth 16, √n 13.9
    }

    #: Arrival-tracked cyclic runs below √n: the vectorized kernel's side.
    SHALLOW = {
        "binary tree h=6": lambda: complete_binary_tree(6),  # depth 6, √n 11.3
        "K(2,6)": lambda: kautz(2, 6),  # depth 6, √n 9.8
        "DB(2,7)": lambda: de_bruijn(2, 7),  # depth 7, √n 11.3
        "Q(6)": lambda: hypercube(6),  # depth 6, √n 8
    }

    @pytest.mark.parametrize("name", sorted(DEEP))
    def test_deep_graphs_go_frontier(self, name):
        program = _program(self.DEEP[name]())
        assert select_engine_name(program, track_arrivals=True) == "frontier"

    @pytest.mark.parametrize("name", sorted(SHALLOW))
    def test_shallow_graphs_go_vectorized(self, name):
        program = _program(self.SHALLOW[name]())
        assert select_engine_name(program, track_arrivals=True) == "vectorized"

    def test_items_with_arrivals_follow_the_depth_rule(self):
        for graph, expected in ((cycle_graph(64), "frontier"), (hypercube(6), "vectorized")):
            program = _program(graph)
            both = resolve_engine(
                "auto", program, track_item_completion=True, track_arrivals=True
            ).name
            assert both == expected
            assert both == select_engine_name(program, track_arrivals=True)

    def test_rationale_carries_depth_and_sqrt_n(self):
        name, why = explain_engine_selection(
            _program(cycle_graph(64)), track_arrivals=True
        )
        assert name == "frontier"
        assert "BFS depth 32 >= sqrt(n) 8.0" in why
        name, why = explain_engine_selection(_program(hypercube(6)), track_arrivals=True)
        assert name == "vectorized"
        assert "BFS depth 6 < sqrt(n) 8.0" in why

    def test_digraph_that_is_not_strongly_connected_resolves(self):
        # Forward-only arcs: vertex 0 reaches every vertex but none reaches
        # it back, and reversed, vertex 0 reaches nothing.  The depth is the
        # largest finite distance in both cases (15, then 0), where the
        # eccentricity of vertex 0 is undefined.
        n = 16
        forward = [(i, i + 1) for i in range(n - 1)]
        for arcs, expected in (
            (forward, "frontier"),
            ([(h, t) for t, h in forward], "vectorized"),
        ):
            graph = Digraph(range(n), arcs, name="directed path")
            program = RoundProgram(
                graph, [make_round([arc]) for arc in arcs], cyclic=True, max_rounds=3 * n
            )
            assert select_engine_name(program, track_arrivals=True) == expected
            resolved = resolve_engine("auto", program, track_arrivals=True)
            got = resolved.run(program, track_arrivals=True)
            ref = get_engine("reference").run(program, track_arrivals=True)
            assert got.engine_name == expected
            assert got.arrival_rounds == ref.arrival_rounds
        with pytest.raises(TopologyError):
            eccentricity(graph, 0)

    def test_depth_is_computed_for_arrival_tracked_cyclic_runs_only(self, monkeypatch):
        calls = []

        def counting(graph, source):
            calls.append(graph.name)
            return distances_from(graph, source)

        monkeypatch.setattr(engines, "distances_from", counting)
        program = _program(cycle_graph(64))
        select_engine_name(program)
        resolve_engine("auto", program, track_item_completion=True)
        select_engine_name(_program(cycle_graph(64), cyclic=False), track_arrivals=True)
        assert calls == []
        select_engine_name(program, track_arrivals=True)
        assert calls == ["C(64)"]

    def test_grid_crossover_row(self):
        # The measured grid row itself: item-tracked 16×256 runs fastest on
        # the dense kernel (0.41 s against frontier's 1.29 s at n = 4096).
        program = _program(grid_2d(16, 256))
        assert resolve_engine("auto", program, track_item_completion=True).name == (
            "vectorized"
        )

    def test_plain_cyclic_cache_resident_goes_vectorized(self):
        # n = 64: packed matrix is tiny; the dense kernel wins plain runs.
        assert select_engine_name(_program(cycle_graph(64))) == "vectorized"

    def test_every_other_run_goes_vectorized(self):
        # Plain and item-tracked cyclic runs at every size and depth,
        # including C(8192) whose packed matrix is 8 MiB.
        for graph in (cycle_graph(64), grid_2d(16, 256), hypercube(6), cycle_graph(8192)):
            program = _program(graph)
            assert select_engine_name(program) == "vectorized", graph.name
            assert (
                resolve_engine("auto", program, track_item_completion=True).name
                == "vectorized"
            ), graph.name

    def test_finite_program_always_vectorized(self):
        # Finite programs never refire a slot, so sparse windows cannot pay.
        program = _program(cycle_graph(64), cyclic=False)
        assert select_engine_name(program) == "vectorized"
        assert select_engine_name(program, track_arrivals=True) == "vectorized"


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
        assert get_engine(" VECTORIZED ").name == "vectorized"

    def test_retired_hybrid_name_raises_listing_the_engines(self, monkeypatch):
        available = "available: frontier, reference, vectorized"
        with pytest.raises(SimulationError, match=available) as excinfo:
            resolve_engine("hybrid")
        assert ENGINE_ENV_VAR not in str(excinfo.value)
        monkeypatch.setenv(ENGINE_ENV_VAR, "hybrid")
        with pytest.raises(SimulationError, match=ENGINE_ENV_VAR) as excinfo:
            resolve_engine("auto", _program(cycle_graph(64)), track_arrivals=True)
        assert available in str(excinfo.value)

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
