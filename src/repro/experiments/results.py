"""Result containers and plain-text rendering for the experiment harness.

Every table/figure reproduction returns a :class:`ResultTable`: a list of
rows, each mapping column names to values (floats are rendered as
``mean±sd`` pairs when both are present).  ``to_text`` prints the same rows
the paper reports, so the benchmark harness output can be compared to the
original tables side by side.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

__all__ = ["ResultTable"]


class ResultTable:
    """An ordered collection of result rows with text rendering.

    Rows are plain dictionaries; the column order is fixed by the first row
    (additional keys in later rows are appended).
    """

    def __init__(self, title: str, rows: Iterable[Mapping[str, Any]] | None = None) -> None:
        self.title = title
        self._rows: list[dict[str, Any]] = []
        #: the orchestrator's SweepReport when this table came out of a
        #: sweep (reused/computed cell counts, wall-clock); None otherwise
        self.run_report = None
        if rows is not None:
            for row in rows:
                self.add_row(row)

    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> list[dict[str, Any]]:
        """The accumulated rows (list of dicts)."""
        return self._rows

    def add_row(self, row: Mapping[str, Any]) -> None:
        """Append one row."""
        self._rows.append(dict(row))

    def columns(self) -> list[str]:
        """Column names in first-seen order."""
        seen: list[str] = []
        for row in self._rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def column(self, name: str) -> list[Any]:
        """Return the values of one column across all rows (missing → None)."""
        return [row.get(name) for row in self._rows]

    def filter(self, **criteria: Any) -> "ResultTable":
        """Return a new table containing only rows matching all criteria."""
        matched = [
            row
            for row in self._rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]
        return ResultTable(self.title, matched)

    def best_row(self, metric: str, maximize: bool = True) -> dict[str, Any]:
        """Return the row with the best value of ``metric``."""
        rows_with_metric = [row for row in self._rows if metric in row]
        if not rows_with_metric:
            raise KeyError(f"no row contains metric {metric!r}")
        chooser = max if maximize else min
        return chooser(rows_with_metric, key=lambda row: row[metric])

    # ------------------------------------------------------------------ #
    def to_text(self, float_format: str = "{:.4f}") -> str:
        """Render the table as aligned plain text (paper-style rows)."""
        columns = self.columns()
        if not columns:
            return f"== {self.title} ==\n(empty)"

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        header = [str(c) for c in columns]
        body = [[fmt(row.get(c, "")) for c in columns] for row in self._rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(columns))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths, strict=True)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths, strict=True)))
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"ResultTable(title={self.title!r}, rows={len(self._rows)})"
