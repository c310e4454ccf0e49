#!/usr/bin/env python3
"""Regenerate every numeric table of the paper (Figs. 4, 5, 6 and 8).

Each table prints as its section of ``python -m repro all`` (EXPERIMENTS.md)
does: both render from the declarations in ``repro.experiments.runner``.

Run with ``python examples/paper_tables.py`` (add ``--sandwich`` to also run
the certified-vs-measured comparison, which takes a little longer).
"""

from __future__ import annotations

import argparse

from repro.experiments.runner import TABLES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sandwich", action="store_true", help="also run the sandwich battery")
    args = parser.parse_args()

    names = ["fig4", "fig5", "fig6", "fig8"] + (["sandwich"] if args.sandwich else [])
    for name in names:
        table = TABLES[name]
        print(f"== {table.title} ==")
        print(table.render())
        print()


if __name__ == "__main__":
    main()
