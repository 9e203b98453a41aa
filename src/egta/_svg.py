"""Tiny hand-rolled SVG line plots (cosmetic output for the --plot flag)."""

from __future__ import annotations

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_TICKS = 5  # labels per axis


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def write_line_plot(
    path: str,
    series: dict[str, tuple[list[float], list[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
) -> None:
    fx = math.log10 if logx else (lambda v: v)
    fy = math.log10 if logy else (lambda v: v)
    xs_all = [fx(x) for xs, _ in series.values() for x in xs]
    ys_all = [fy(y) for _, ys in series.values() for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def px(x):
        return _ML + (fx(x) - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (fy(y) - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W / 2}" y="{_H - 8}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{_H / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {_H / 2})">{ylabel}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = _ML + (tick - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)
        label = f"1e{tick:.1f}" if logx else f"{tick:.3g}"
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 16}" text-anchor="middle" font-size="10">{label}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = _H - _MB - (tick - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)
        label = f"1e{tick:.1f}" if logy else f"{tick:.3g}"
        parts.append(
            f'<text x="{_ML - 6}" y="{y:.1f}" text-anchor="end" font-size="10">{label}</text>'
        )
    for i, (label, (xs, ys)) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{points}"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")
