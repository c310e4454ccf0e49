"""The report's tables, each declared once, and :func:`run_all`, which prints them.

Each experiment module returns plain dataclass rows.  :data:`TABLES`
declares every table of the report once — its title, its build function,
its columns (or, for the FIG1-3/7 matrices, its one text renderer) and the
options the CLI exposes — and three callers render from it:
:func:`run_all`, whose output is EXPERIMENTS.md; the CLI's table commands,
one per declared table except the ``run_all``-only ROBUSTNESS table; and
the paper-table benchmarks, which format the rows they time.
:func:`format_table` renders any sequence of row dataclasses (or dicts) as
an aligned text table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, is_dataclass
from collections.abc import Callable, Iterable, Mapping, Sequence

from repro.experiments.broadcast_sweep import broadcast_sweep_table
from repro.experiments.fig4 import fig4_table
from repro.experiments.fig5 import fig5_table
from repro.experiments.fig6 import fig6_table
from repro.experiments.fig8 import fig8_table
from repro.experiments.robustness import robustness_table
from repro.experiments.sandwich import sandwich_table
from repro.experiments.search_gaps import search_gaps_table
from repro.experiments.structure import render_structure, structure_report

__all__ = [
    "Option",
    "PaperTable",
    "TABLES",
    "format_table",
    "format_value",
    "run_all",
]


def format_value(value: object, *, digits: int = 4) -> str:
    """Render one cell: floats to ``digits`` decimals, None as '-', rest via str."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _row_mapping(row: object) -> Mapping[str, object]:
    if is_dataclass(row) and not isinstance(row, type):
        data = asdict(row)
        # Include computed properties that the dataclasses expose.
        for name in dir(type(row)):
            if name.startswith("_") or name in data:
                continue
            attribute = getattr(type(row), name, None)
            if isinstance(attribute, property):
                data[name] = getattr(row, name)
        return data
    if isinstance(row, Mapping):
        return row
    raise TypeError(f"cannot format row of type {type(row)!r}")


def format_table(
    rows: Sequence[object],
    columns: Iterable[str] | None = None,
    *,
    digits: int = 4,
) -> str:
    """Aligned text table from dataclass or mapping rows."""
    if not rows:
        return "(empty table)"
    mappings = [_row_mapping(row) for row in rows]
    if columns is None:
        columns = list(mappings[0].keys())
    columns = list(columns)
    rendered = [[format_value(m.get(c), digits=digits) for c in columns] for m in mappings]
    widths = [
        max(len(column), *(len(r[i]) for r in rendered)) for i, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in rendered
    ]
    return "\n".join([header, separator, *body])


@dataclass(frozen=True)
class Option:
    """A keyword of a table's ``build`` function that its CLI command
    takes as ``flag``; the default is the function's own."""

    flag: str
    keyword: str
    help: str


@dataclass(frozen=True)
class PaperTable:
    """One table of the report.

    ``build`` returns the table; :meth:`format` prints its rows as
    ``columns`` through :func:`format_table`, or hands what ``build``
    returned to ``renderer`` when the table is not a row table.  ``engine``
    says that ``build`` takes the simulation engine (its CLI command then
    takes ``--engine``), ``options`` are the other ``build`` keywords the
    command takes as flags, and ``metrics`` gives it ``--metrics``.  A
    table with ``command=False`` is printed by :func:`run_all` only.
    """

    title: str
    build: Callable[..., object]
    columns: tuple[str, ...] = ()
    renderer: Callable[[object], str] | None = None
    options: tuple[Option, ...] = ()
    engine: bool = False
    metrics: bool = False
    command: bool = True

    def format(self, rows: object) -> str:
        """The text of the table ``build`` returned."""
        if self.renderer is not None:
            return self.renderer(rows)
        return format_table(rows, self.columns)

    def render(self, *, engine: str = "auto", **options) -> str:
        """Build the table with ``options`` (and ``engine``, if it takes
        one) and return its text."""
        if self.engine:
            options["engine"] = engine
        return self.format(self.build(**options))


#: Every table of the report, in :func:`run_all` order, keyed by CLI command.
TABLES: dict[str, PaperTable] = {
    "fig4": PaperTable(
        "FIG4: general systolic lower bound",
        fig4_table,
        ("period_label", "lambda_star", "coefficient", "paper_coefficient", "deviation"),
    ),
    "fig5": PaperTable(
        "FIG5: separator-refined systolic bounds (half-duplex)",
        fig5_table,
        (
            "family",
            "degree",
            "period",
            "coefficient",
            "general_coefficient",
            "improves_on_general",
            "paper_coefficient",
        ),
    ),
    "fig6": PaperTable(
        "FIG6: non-systolic bounds (half-duplex)",
        fig6_table,
        (
            "family",
            "degree",
            "coefficient",
            "general_coefficient",
            "diameter_coefficient",
            "improves_on_general",
            "paper_coefficient",
        ),
    ),
    "fig8": PaperTable(
        "FIG8: full-duplex bounds",
        fig8_table,
        (
            "family",
            "degree",
            "period_label",
            "coefficient",
            "general_coefficient",
            "improves_on_general",
        ),
    ),
    "structure": PaperTable(
        "FIG1-3/7: delay-matrix structure", structure_report, renderer=render_structure
    ),
    "broadcast": PaperTable(
        "BROADCAST: batched multi-source broadcast sweep",
        broadcast_sweep_table,
        (
            "family",
            "n",
            "mode",
            "period",
            "gossip_rounds",
            "broadcast_min",
            "broadcast_max",
            "broadcast_mean",
            "max_matches_gossip",
            "engine",
        ),
        engine=True,
        metrics=True,
    ),
    "search": PaperTable(
        "SEARCH: synthesized schedules vs. certified lower bounds",
        search_gaps_table,
        (
            "family",
            "n",
            "mode",
            "period",
            "baseline_rounds",
            "found",
            "lower_bound",
            "gap",
            "beats_baseline",
            "evaluations",
            "engine",
        ),
        options=(
            Option("--seed", "seed", "search RNG seed"),
            Option("--iterations", "max_iters", "local-search proposals per driver run"),
        ),
        engine=True,
    ),
    "robustness": PaperTable(
        "ROBUSTNESS: fault tolerance of nominal vs robust schedules",
        robustness_table,
        (
            "family",
            "n",
            "mode",
            "p",
            "trials",
            "baseline_rounds",
            "baseline_completion",
            "baseline_mean",
            "robust_rounds",
            "robust_completion",
            "robust_mean",
            "worst_case_k1",
            "engine",
        ),
        engine=True,
        command=False,
    ),
    "sandwich": PaperTable(
        "SANDWICH: certified lower bounds vs. measured gossip times",
        sandwich_table,
        (
            "graph",
            "n",
            "mode",
            "period",
            "certified_lower_bound",
            "analytic_lower_bound",
            "measured_gossip_time",
            "consistent",
            "engine",
        ),
        options=(
            Option(
                "--unroll-periods",
                "unroll_periods",
                "periods to unroll when building delay digraphs",
            ),
        ),
        engine=True,
    ),
}


def run_all(*, include_sandwich: bool = True, engine: str = "auto") -> str:
    """Every table of :data:`TABLES` under its title, at the defaults of
    its ``build`` function: the report EXPERIMENTS.md records.

    ``engine`` selects the simulation backend of the simulation-backed
    tables; the lower-bound tables are pure arithmetic and take no engine.
    """
    return "\n\n".join(
        f"== {table.title} ==\n{table.render(engine=engine)}"
        for name, table in TABLES.items()
        if include_sandwich or name != "sandwich"
    )
