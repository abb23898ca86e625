"""Empirical CDFs and a terminal renderer.

The paper presents four figures as CDFs (Figs. 2, 4, 5, 6); this module
computes them and renders multi-series ASCII plots so the benchmark
harness can show the curves' shapes directly in its output.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass


@dataclass
class Cdf:
    """An empirical cumulative distribution function."""

    values: list[float]

    def __post_init__(self) -> None:
        self.values = sorted(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def at(self, x: float) -> float:
        """P(X <= x)."""
        if not self.values:
            return 0.0
        return bisect_right(self.values, x) / len(self.values)

    def quantile(self, q: float) -> float:
        """Inverse CDF (nearest-rank)."""
        if not self.values:
            raise ValueError("empty CDF")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        index = min(len(self.values) - 1, max(0, round(q * len(self.values)) - 1))
        return self.values[index]

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def fraction_below(self, x: float) -> float:
        """P(X < x) — used for claims like "93.5% of ratios are 1"."""
        if not self.values:
            return 0.0
        lo = 0
        hi = len(self.values)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.values[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(self.values)


#: Columns and rows of an ASCII CDF plot's area.
PLOT_WIDTH, PLOT_HEIGHT = 64, 16


def render_cdf_ascii(
    series: dict[str, Sequence[float]],
    x_label: str = "",
    log_x: bool = False,
    x_min: float | None = None,
    x_max: float | None = None,
) -> str:
    """Render several CDFs as an ASCII plot (one marker per series)."""
    width, height = PLOT_WIDTH, PLOT_HEIGHT
    markers = "*o+x#@%&"
    cleaned = {name: sorted(vals) for name, vals in series.items() if vals}
    if not cleaned:
        return "(no data)\n"

    all_values = [v for vals in cleaned.values() for v in vals]
    lo = x_min if x_min is not None else min(all_values)
    hi = x_max if x_max is not None else max(all_values)
    if log_x:
        lo = max(lo, 1e-12)
        hi = max(hi, lo * 1.0001)
    if hi <= lo:
        hi = lo + 1.0

    def x_at(col: int) -> float:
        frac = col / (width - 1)
        if log_x:
            return lo * (hi / lo) ** frac
        return lo + (hi - lo) * frac

    grid = [[" "] * width for _ in range(height)]
    for (name, values), marker in zip(cleaned.items(), markers):
        cdf = Cdf(list(values))
        for col in range(width):
            y = cdf.at(x_at(col))
            row = height - 1 - min(height - 1, int(y * (height - 1) + 0.5))
            grid[row][col] = marker

    lines = []
    for i, row in enumerate(grid):
        y_val = 1.0 - i / (height - 1)
        prefix = f"{y_val:4.1f} |" if i % 4 == 0 or i == height - 1 else "     |"
        lines.append(prefix + "".join(row))
    lines.append("     +" + "-" * width)
    lo_text = f"{lo:.4g}"
    hi_text = f"{hi:.4g}"
    axis = f"      {lo_text}" + " " * max(1, width - len(lo_text) - len(hi_text)) + hi_text
    lines.append(axis)
    if x_label:
        lines.append(f"      x: {x_label}" + ("  [log scale]" if log_x else ""))
    legend = "      " + "   ".join(
        f"{marker}={name}" for (name, _), marker in zip(cleaned.items(), markers)
    )
    lines.append(legend)
    return "\n".join(lines) + "\n"
