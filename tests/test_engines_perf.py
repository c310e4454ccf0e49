"""Engine selection logic and the engines' performance smoke tests."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.exceptions import SimulationError
from repro.gossip.builders import random_systolic_schedule
from repro.gossip.engines import (
    AUTO_ENGINE,
    ENGINE_ENV_VAR,
    ReferenceEngine,
    VectorizedEngine,
    available_engines,
    get_engine,
    register_engine,
    resolve_engine,
)
from repro.gossip.engines import vectorized
from repro.gossip.engines.base import RoundProgram
from repro.gossip.engines.layout import packed_words
from repro.gossip.model import Mode
from repro.gossip.simulation import gossip_time, simulate_systolic
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.classic import cycle_graph


class TestEngineRegistry:
    def test_both_builtin_engines_registered(self):
        assert set(available_engines()) >= {"reference", "vectorized"}

    def test_import_names_numpy_2_when_bitwise_count_is_missing(self, tmp_path):
        # NumPy >= 2.0 is required (np.bitwise_count): an older NumPy fails
        # the package import with one ImportError naming the version.
        (tmp_path / "numpy").mkdir()
        (tmp_path / "numpy" / "__init__.py").write_text('__version__ = "1.26.4"\n')
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        completed = subprocess.run(
            [sys.executable, "-c", "import repro"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join((str(tmp_path), src))},
            timeout=120,
        )
        assert completed.returncode != 0
        last = completed.stderr.strip().splitlines()[-1]
        assert last == "ImportError: repro requires NumPy >= 2.0, found 1.26.4"

    def test_auto_selects_vectorized_never_silently_falls_back(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert resolve_engine(AUTO_ENGINE).name == "vectorized"
        assert resolve_engine(None).name == "vectorized"
        # The selected backend is stamped onto the result, so a fallback
        # could never go unnoticed by a caller that checks it.
        schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
        assert simulate_systolic(schedule, engine="auto").engine_name == "vectorized"

    def test_env_var_overrides_auto(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine(AUTO_ENGINE).name == "reference"
        schedule = coloring_systolic_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
        assert simulate_systolic(schedule, engine="auto").engine_name == "reference"

    def test_explicit_engine_wins_over_env_var(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine("vectorized").name == "vectorized"

    def test_engine_instance_passes_through(self):
        engine = ReferenceEngine()
        assert resolve_engine(engine) is engine

    def test_unknown_engine_name_raises(self):
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            get_engine("warp-drive")
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            resolve_engine("warp-drive")

    def test_unknown_env_override_raises_loudly(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "warp-drive")
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            resolve_engine(AUTO_ENGINE)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SimulationError, match="already registered"):
            register_engine(ReferenceEngine())

    def test_auto_name_reserved(self):
        class Impostor:
            name = AUTO_ENGINE

        with pytest.raises(SimulationError, match="reserved"):
            register_engine(Impostor())


@pytest.mark.slow
class TestVectorizedPerformance:
    def test_large_cycle_gossip_within_budget(self, monkeypatch):
        """Systolic gossip on C(4096) must finish comfortably within budget.

        The vectorized engine completes this in well under two seconds on
        any recent machine (the reference engine needs several); the
        generous wall-clock budget only guards against a silent collapse
        back to per-arc Python looping.
        """
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        n = 4096
        schedule = coloring_systolic_schedule(cycle_graph(n), Mode.HALF_DUPLEX)
        engine = resolve_engine("auto")
        assert engine.name == "vectorized", "auto must not fall back silently"
        start = time.perf_counter()
        rounds = gossip_time(schedule, engine=engine)
        elapsed = time.perf_counter() - start
        assert rounds >= n // 2  # can't beat the diameter
        assert elapsed < 30.0, f"vectorized gossip on C({n}) took {elapsed:.1f}s"


@pytest.mark.slow
@pytest.mark.perf_regression
class TestTilingRegressionGuard:
    """The L2-tiled kernel must never be slower than the PR 1 (untiled) kernel.

    Patching ``_TILE_TARGET_BYTES`` to ``1 << 62`` makes one tile span the
    whole matrix, which reproduces the untiled kernel exactly.  The workload
    is a random (irregular) matching schedule on C(8192): irregular rounds
    defeat the strided-segment fast path, so both configurations run the
    gather/scatter path whose temporary the tiling bounds —
    the knowledge matrix (8 MiB) plus an untiled gather temporary are far
    beyond L2 at this size.

    The relative assertion is ``perf_regression``-marked: it runs in the CI
    perf job (weekly cron + dispatch), not as a per-PR gate, where shared
    runners would make a 1.25× wall-clock comparison flaky.
    """

    def test_tiled_no_slower_than_untiled_at_8192(self, monkeypatch):
        n = 8192
        schedule = random_systolic_schedule(cycle_graph(n), 4, Mode.HALF_DUPLEX, seed=3)
        program = RoundProgram.from_schedule(schedule, 256)
        engine = VectorizedEngine()
        default_tile_bytes = vectorized._TILE_TARGET_BYTES

        def best_of(tile_target_bytes, repeats=3):
            monkeypatch.setattr(vectorized, "_TILE_TARGET_BYTES", tile_target_bytes)
            result = None
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                result = engine.run(program)
                best = min(best, time.perf_counter() - start)
            return best, result

        untiled_s, untiled_result = best_of(1 << 62)
        tiled_s, tiled_result = best_of(default_tile_bytes)

        # Large-instance differential check rides along for free.
        assert tiled_result.knowledge == untiled_result.knowledge
        assert tiled_result.rounds_executed == untiled_result.rounds_executed

        # "No slower", with headroom for scheduler noise; locally the tiled
        # kernel is ~1.4x faster on this workload.
        assert tiled_s <= untiled_s * 1.25, (
            f"tiled kernel regressed: tiled {tiled_s:.3f}s vs untiled {untiled_s:.3f}s"
        )


@pytest.mark.slow
@pytest.mark.perf_regression
class TestKernelRegimeGuard:
    """Each vectorized kernel regime must win on its side of the threshold.

    The engine runs matrices of at most ``_SOURCE_MAP_MAX_BYTES`` through
    one source-map gather-OR per round and larger ones through the
    row-permuted AP-segment/gather kernel.  Below the threshold the source
    map must be no slower than the permuted kernel on an irregular (random)
    schedule on C(1024), 128 KiB; above it the permuted kernel must be no
    slower than the source map on the colouring schedule of C(4096), 2 MiB,
    where strided segments touch only the round's rows.  Each test forces
    both regimes by patching the threshold and checks bit-identical results
    before comparing times.  Like the tiling guard it is
    ``perf_regression``-marked, so only the CI perf job gates on it.
    """

    @staticmethod
    def _best_of(program, monkeypatch, threshold, repeats):
        monkeypatch.setattr(vectorized, "_SOURCE_MAP_MAX_BYTES", threshold)
        engine = VectorizedEngine()
        result = None
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            result = engine.run(program)
            best = min(best, time.perf_counter() - start)
        return best, result

    def _compare(self, program, monkeypatch, repeats):
        source_map_s, source_map = self._best_of(program, monkeypatch, 1 << 62, repeats)
        permuted_s, permuted = self._best_of(program, monkeypatch, 0, repeats)
        assert source_map.knowledge == permuted.knowledge
        assert source_map.rounds_executed == permuted.rounds_executed
        assert source_map.completion_round == permuted.completion_round
        return source_map_s, permuted_s

    def test_source_map_no_slower_below_threshold(self, monkeypatch):
        n = 1024
        assert vectorized._uses_source_map(n, packed_words(n))
        schedule = random_systolic_schedule(cycle_graph(n), 4, Mode.HALF_DUPLEX, seed=3)
        program = RoundProgram.from_schedule(schedule, 512)
        source_map_s, permuted_s = self._compare(program, monkeypatch, repeats=5)
        # Locally the source map takes about half the permuted kernel's time.
        assert source_map_s <= permuted_s * 1.25, (
            f"source map {source_map_s:.4f}s vs permuted {permuted_s:.4f}s below the threshold"
        )

    def test_permuted_no_slower_above_threshold(self, monkeypatch):
        n = 4096
        assert not vectorized._uses_source_map(n, packed_words(n))
        schedule = coloring_systolic_schedule(cycle_graph(n), Mode.HALF_DUPLEX)
        program = RoundProgram.from_schedule(schedule, 512)
        source_map_s, permuted_s = self._compare(program, monkeypatch, repeats=3)
        # Locally the permuted kernel is about 5x faster on this workload.
        assert permuted_s <= source_map_s * 1.25, (
            f"permuted {permuted_s:.4f}s vs source map {source_map_s:.4f}s above the threshold"
        )


@pytest.mark.slow
class TestFrontierPerformance:
    def test_frontier_completes_large_cycle_within_budget(self):
        """Frontier gossip on C(4096) completes fast and agrees at scale.

        The ≥2× frontier-vs-vectorized comparison lives in
        ``benchmarks/bench_engine_comparison.py``; this smoke test only
        guards against the sparse path collapsing into something slow, and
        doubles as a large-instance differential check on the gossip time.
        """
        n = 4096
        schedule = coloring_systolic_schedule(cycle_graph(n), Mode.HALF_DUPLEX)
        start = time.perf_counter()
        rounds = gossip_time(schedule, engine="frontier")
        elapsed = time.perf_counter() - start
        assert rounds == gossip_time(schedule, engine="vectorized")
        assert elapsed < 15.0, f"frontier gossip on C({n}) took {elapsed:.1f}s"


@pytest.mark.slow
@pytest.mark.perf_regression
class TestItemScanGuard:
    """Item tracking must cost the vectorized engine little over a plain run.

    Item-tracked runs stay in the batched loop: the items every row holds
    are AND-reduced once per batch, and only batches in which items
    complete are replayed.  On the colouring schedule of C(3072) every item
    completes in the last few rounds, so the tracked run must stay within
    1.5× of the plain run of the same program.  On a 2-core Xeon a
    per-round item scan measured 8×, the batched scan 1.05–1.1×.  Like the
    other guards here it is ``perf_regression``-marked, so only the CI perf
    job gates on it.
    """

    def test_item_tracked_cycle_close_to_plain(self):
        n = 3072
        schedule = coloring_systolic_schedule(cycle_graph(n), Mode.HALF_DUPLEX)
        program = RoundProgram.from_schedule(schedule)
        engine = VectorizedEngine()

        def best_of(repeats=5, **options):
            result = None
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                result = engine.run(program, **options)
                best = min(best, time.perf_counter() - start)
            return best, result

        plain_s, plain = best_of()
        items_s, items = best_of(track_item_completion=True)
        assert items.completion_round == plain.completion_round == n
        assert max(items.item_completion_rounds) == n
        assert items_s <= plain_s * 1.5, (
            f"item-tracked run {items_s:.4f}s vs plain {plain_s:.4f}s on C({n})"
        )
