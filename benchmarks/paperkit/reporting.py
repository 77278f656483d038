"""Plain-text reporting helpers for the benchmark harness."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence

import numpy as np


def summarize_latencies(latencies_ms: Iterable[float]) -> Dict[str, float]:
    """Summary statistics (mean/p50/p95/p99/max) for a latency sample in ms."""
    values = np.asarray(list(latencies_ms), dtype=float)
    if values.size == 0:
        nan = float("nan")
        return {"count": 0, "mean": nan, "p50": nan, "p95": nan, "p99": nan, "max": nan}
    return {
        "count": int(values.size),
        "mean": float(values.mean()),
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
        "p99": float(np.percentile(values, 99)),
        "max": float(values.max()),
    }


def format_table(rows: Sequence[Dict[str, Any]], title: str = "") -> str:
    """Render a list of row dictionaries as an aligned plain-text table.

    All rows must share the same keys (the first row defines column order).
    Floats are shown with four significant digits.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())

    def render(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    table = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(columns[i]), max(len(row[i]) for row in table))
        for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
