"""Plain-text tables for benchmark output (the paper's rows/series)."""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned monospace table."""
    columns = [list(map(str, col)) for col in zip(headers, *rows, strict=True)]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header_cells = [str(h).ljust(w) for h, w in zip(headers, widths, strict=True)]
    lines.append("  ".join(header_cells))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths, strict=True)))
    return "\n".join(lines)


