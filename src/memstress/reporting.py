"""Deterministic result files: RFC-4180 CSV, JSON summaries, and SVG plots.

CSV bytes depend only on the result rows (17 significant digits, fixed
column order), so rerunning an experiment with the same config and seed
reproduces them exactly.  Wall-clock and other volatile metadata live only
in the JSON summary, which is strict JSON: a non-finite number is written as
the string "NaN", "Infinity" or "-Infinity", which ``float()`` reads back.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

__all__ = ["format_number", "write_csv", "write_json", "write_svg_plot"]


def format_number(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_number(x) for x in row])


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False, default=str)
        fh.write("\n")


def _jsonable(obj):
    """``obj`` with numpy values as Python ones and non-finite floats as strings."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj


def write_svg_plot(
    path: Path,
    xs,
    ys,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
    width: int = 640,
    height: int = 420,
) -> None:
    """Minimal static polyline plot; no external plotting dependency."""
    xs = [math.log10(x) if logx else float(x) for x in xs]
    ys = [math.log10(y) if logy else float(y) for y in ys]
    if not xs:
        xs, ys = [0.0], [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 50

    def px(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    xtag = ("log10 " if logx else "") + xlabel
    ytag = ("log10 " if logy else "") + ylabel
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="#888"/>',
        f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" font-size="12">{xtag}</text>',
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.0f})">{ytag}</text>',
        f'<text x="{pad}" y="{height - 30}" font-size="10">{x0:.4g}</text>',
        f'<text x="{width - pad}" y="{height - 30}" text-anchor="end" font-size="10">{x1:.4g}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" font-size="10">{y0:.4g}</text>',
        f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" font-size="10">{y1:.4g}</text>',
        "</svg>",
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
