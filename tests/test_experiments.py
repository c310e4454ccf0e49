"""Tests for the experiment harness (repro.experiments.*) and the CLI."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.exceptions import SimulationError
from repro.experiments.fig4 import fig4_table
from repro.experiments.fig5 import fig5_table
from repro.experiments.fig6 import fig6_table
from repro.experiments.fig8 import fig8_table
from repro.experiments.reference import (
    FIG4_GENERAL_COEFFICIENTS,
    TEXT_QUOTED_HALF_DUPLEX_NONSYSTOLIC,
    TEXT_QUOTED_HALF_DUPLEX_SYSTOLIC,
)
from repro.experiments.runner import TABLES, format_table, format_value, run_all
from repro.experiments.sandwich import default_instances, sandwich_row, sandwich_table
from repro.experiments.structure import render_matrix, structure_report
from repro.gossip.model import Mode, SystolicSchedule, make_round
from repro.protocols.cycle import cycle_systolic_schedule
from repro.topologies.classic import path_graph


@pytest.fixture(scope="module")
def report_without_sandwich() -> str:
    """One ``run_all`` shared by the module's tests: it takes seconds."""
    return run_all(include_sandwich=False)


def _section(report: str, title: str) -> str:
    """The body of the report's section headed ``== title ==``."""
    return report.split(f"== {title} ==\n", 1)[1].split("\n\n== ", 1)[0]


class TestFig4:
    def test_all_periods_present(self):
        rows = fig4_table()
        assert [r.period for r in rows] == [3, 4, 5, 6, 7, 8, None]

    def test_matches_paper_within_print_precision(self):
        for row in fig4_table():
            assert row.paper_coefficient is not None
            assert row.deviation is not None
            assert row.deviation <= 1e-4

    def test_period_label(self):
        rows = fig4_table((3, None))
        assert rows[0].period_label == "3"
        assert rows[1].period_label == "∞"

    def test_custom_periods(self):
        rows = fig4_table((10, 12))
        assert len(rows) == 2
        assert all(r.paper_coefficient is None for r in rows)
        assert all(r.deviation is None for r in rows)


class TestFig5:
    def test_row_count(self):
        rows = fig5_table()
        assert len(rows) == 5 * 2 * 6

    def test_quoted_cells_match(self):
        rows = fig5_table()
        for row in rows:
            quoted = TEXT_QUOTED_HALF_DUPLEX_SYSTOLIC.get(row.family, {}).get(
                (row.degree, row.period)
            )
            if quoted is not None:
                assert row.coefficient == pytest.approx(quoted, abs=1e-4)

    def test_refined_never_below_general(self):
        for row in fig5_table():
            assert row.coefficient >= row.general_coefficient - 1e-6

    def test_de_bruijn_small_period_cell_coincides_with_general(self):
        # The DB(2,D), s = 4 cell equals the Fig. 4 value (a * entry): the
        # quoted 1.8133 coincides with the general bound.
        row = fig5_table(families=("DB",), degrees=(2,), periods=(4,))[0]
        assert not row.improves_on_general

    def test_de_bruijn_large_period_cell_improves(self):
        # For larger periods the separator refinement does beat the general
        # bound on de Bruijn networks (consistent with the non-systolic
        # 1.5876 > 1.4404 of Fig. 6).
        row = fig5_table(families=("DB",), degrees=(2,), periods=(8,))[0]
        assert row.improves_on_general

    def test_butterfly_cells_improve_for_period_four_and_up(self):
        for row in fig5_table(families=("BF",), degrees=(2,), periods=(4, 5, 6, 7, 8)):
            assert row.improves_on_general

    def test_deviation_none_without_reference(self):
        row = fig5_table(families=("BF",), degrees=(3,), periods=(5,))[0]
        assert row.deviation is None


class TestFig6:
    def test_row_count_and_reference(self):
        rows = fig6_table()
        assert len(rows) == 10
        for row in rows:
            quoted = TEXT_QUOTED_HALF_DUPLEX_NONSYSTOLIC.get(row.family, {}).get(row.degree)
            if quoted is not None:
                assert row.coefficient == pytest.approx(quoted, abs=1e-4)

    def test_general_column_is_golden(self):
        for row in fig6_table():
            assert row.general_coefficient == pytest.approx(1.4404, abs=1e-4)

    def test_diameter_column_positive(self):
        for row in fig6_table():
            assert row.diameter_coefficient > 0

    def test_nonsystolic_below_systolic(self):
        nonsys = {(r.family, r.degree): r.coefficient for r in fig6_table()}
        for row in fig5_table(periods=(8,)):
            assert nonsys[(row.family, row.degree)] <= row.coefficient + 1e-9


class TestFig8:
    def test_row_count(self):
        rows = fig8_table()
        assert len(rows) == 3 * 2 * 7

    def test_refined_at_least_general(self):
        for row in fig8_table():
            assert row.coefficient >= row.general_coefficient - 1e-6

    def test_full_duplex_below_half_duplex(self):
        half = {(r.family, r.degree, r.period): r.coefficient for r in fig5_table()}
        for row in fig8_table(periods=(4, 6)):
            key = (row.family, row.degree, row.period)
            if key in half:
                assert row.coefficient <= half[key] + 1e-9

    def test_period_label(self):
        rows = fig8_table(families=("WBF",), degrees=(2,), periods=(None,))
        assert rows[0].period_label == "∞"


class TestStructure:
    def test_report_checks_hold(self):
        report = structure_report()
        assert report.lemma42["right_holds"] and report.lemma42["left_holds"]
        assert report.lemma43["worst_split_holds"]
        assert report.lemma43["reduction_consistent"]
        assert report.lemma61["holds"]

    def test_matrix_shapes(self):
        report = structure_report(blocks=4)
        assert report.nx.shape == (4, 4)
        assert report.ox.shape == (4, 4)
        assert report.full_duplex_matrix.shape == (10, 10)

    def test_render_matrix(self):
        report = structure_report(blocks=2)
        text = render_matrix(report.nx)
        assert "\n" in text
        assert "." in text  # zeros rendered as dots

    def test_section_prints_the_fig7_matrix(self, report_without_sandwich):
        section = _section(report_without_sandwich, TABLES["structure"].title)
        assert render_matrix(structure_report().full_duplex_matrix) in section


class TestSandwich:
    def test_single_row_consistency(self):
        row = sandwich_row(cycle_systolic_schedule(8, Mode.HALF_DUPLEX))
        assert row.consistent
        assert row.certified_lower_bound <= row.measured_gossip_time
        assert row.gap_ratio >= 1.0

    def test_row_records_resolved_engine(self):
        from repro.gossip.engines import available_engines

        row = sandwich_row(cycle_systolic_schedule(8, Mode.HALF_DUPLEX))
        assert row.engine in available_engines()

    def test_row_honours_explicit_engine(self):
        row = sandwich_row(
            cycle_systolic_schedule(8, Mode.HALF_DUPLEX), engine="reference"
        )
        assert row.engine == "reference"

    def test_never_completing_schedule_raises(self):
        # Arc (2, 3) never fires, so vertex 3 never learns anything.
        schedule = SystolicSchedule(
            path_graph(4),
            [make_round([(0, 1)]), make_round([(1, 0)]), make_round([(1, 2)])],
            mode=Mode.HALF_DUPLEX,
        )
        with pytest.raises(SimulationError, match="did not complete gossip"):
            sandwich_row(schedule)

    def test_default_instances_nonempty(self):
        instances = default_instances()
        assert len(instances) >= 10

    def test_small_battery_consistent(self):
        from repro.protocols.hypercube import hypercube_dimension_exchange
        from repro.protocols.path import path_systolic_schedule

        rows = sandwich_table(
            [
                hypercube_dimension_exchange(3, Mode.FULL_DUPLEX),
                path_systolic_schedule(6, Mode.HALF_DUPLEX),
                cycle_systolic_schedule(6, Mode.HALF_DUPLEX),
            ]
        )
        assert all(row.consistent for row in rows)
        assert all(row.norm_at_lambda <= 1.0 + 1e-6 for row in rows)


class TestRunnerAndCli:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(1.23456) == "1.2346"
        assert format_value("x") == "x"

    def test_format_table_dataclasses(self):
        text = format_table(fig4_table((3, 4)), ["period_label", "coefficient"])
        assert "period_label" in text
        assert "2.8808" in text

    def test_format_table_mappings(self):
        text = format_table([{"a": 1, "b": None}])
        assert "a" in text and "-" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(empty table)"

    def test_format_table_rejects_unknown_rows(self):
        with pytest.raises(TypeError):
            format_table([object()])

    def test_run_all_without_sandwich(self, report_without_sandwich):
        report = report_without_sandwich
        assert "FIG4" in report
        assert "FIG5" in report
        assert "FIG6" in report
        assert "FIG8" in report
        assert "2.8808" in report

    @pytest.mark.parametrize("command", ["fig4", "fig5", "fig6", "fig8", "structure", "broadcast"])
    def test_cli_commands(self, command, capsys, report_without_sandwich):
        # Each table command prints exactly its section of `all`.
        assert main([command]) == 0
        section = _section(report_without_sandwich, TABLES[command].title)
        assert capsys.readouterr().out == section + "\n"

    def test_experiments_md_is_the_output_of_run_all(self, monkeypatch):
        # EXPERIMENTS.md records `repro all` at the default engine, whose
        # name the BROADCAST table prints: an engine pinned through the
        # environment would change that column.
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "EXPERIMENTS.md")
        with open(path, encoding="utf-8") as handle:
            fence = handle.read().split("```\n", 1)[1].rsplit("```", 1)[0]
        assert fence == run_all() + "\n"

    def test_cli_structure_takes_the_all_labels(self, capsys):
        assert main(["structure"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("local protocol: ")
        assert [line.split(":")[0] for line in lines[-3:]] == [
            "Lemma 4.2 check",
            "Lemma 4.3 check",
            "Lemma 6.1 check",
        ]

    def test_cli_survives_a_closed_pipe(self):
        # `python -m repro fig4 | head -1`, with the reader gone before the
        # first write: exit code 1 and nothing on stderr, no traceback.
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "fig4"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        process.stdout.close()
        _, stderr = process.communicate(timeout=120)
        assert process.returncode == 1
        assert stderr == b""

    def test_cli_broadcast_engine_flag(self, capsys):
        assert main(["broadcast", "--engine", "reference"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out
        assert "vectorized" not in out

    def test_cli_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["broadcast", "--engine", "warp-drive"])

    def test_cli_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestBroadcastSweep:
    def test_rows_cover_every_family_and_mode(self):
        from repro.experiments.broadcast_sweep import broadcast_sweep_table, sweep_instances

        rows = broadcast_sweep_table()
        assert len(rows) == 2 * len(sweep_instances())
        assert {row.mode for row in rows} == {"half-duplex", "full-duplex"}

    def test_max_broadcast_equals_gossip_time(self):
        from repro.experiments.broadcast_sweep import broadcast_sweep_table

        for row in broadcast_sweep_table():
            assert row.max_matches_gossip, row
            assert row.broadcast_min <= row.broadcast_mean <= row.broadcast_max

    def test_engines_produce_identical_tables(self):
        from dataclasses import replace

        from repro.experiments.broadcast_sweep import broadcast_sweep_table

        ref = broadcast_sweep_table(engine="reference")
        vec = broadcast_sweep_table(engine="vectorized")
        assert [replace(r, engine="x") for r in ref] == [replace(r, engine="x") for r in vec]
