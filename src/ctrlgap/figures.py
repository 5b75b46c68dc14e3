"""Static SVG plots of control solutions, one panel per channel.

Plain polyline primitives in a fixed 800x500 viewport; no plotting
dependency, since the figure is a verification aid rather than an
interface.  Curves are decimated to a bounded point count so files stay
small on fine grids.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 800, 500
MARGIN_LEFT, MARGIN_RIGHT = 64, 16
MARGIN_TOP, MARGIN_BOTTOM = 34, 42
MAX_POINTS = 4000

SERIES_STYLE = (("uA", "#3465a4"), ("uB", "#cc0000"), ("v", "#2e8b57"))


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _polyline(t, y, x_of, y_of, color) -> str:
    stride = max(1, len(t) // MAX_POINTS)
    idx = np.arange(0, len(t), stride)
    if idx[-1] != len(t) - 1:
        idx = np.append(idx, len(t) - 1)
    pts = " ".join(f"{x_of(t[i]):.2f},{y_of(y[i]):.2f}" for i in idx)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
            f'points="{pts}"/>')


def write_svg(path, times: np.ndarray, series: dict[str, np.ndarray],
              title: str = "") -> None:
    """Write overlaid per-channel curves against time.

    ``series`` maps curve names (uA, uB, v) to N-by-m arrays sharing the
    time axis; each channel gets its own stacked panel.
    """
    m = next(iter(series.values())).shape[1]
    panel_h = (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM) / m
    t_lo, t_hi = float(times[0]), float(times[-1])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        # the XML escapes of text content; xml.sax.saxutils.escape would
        # import urllib.request and grow every run by megabytes
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{text}</text>')
    for ch in range(m):
        top = MARGIN_TOP + ch * panel_h
        bottom = top + panel_h - 8
        y_all = np.concatenate([arr[:, ch] for arr in series.values()])
        y_lo, y_hi = float(np.min(y_all)), float(np.max(y_all))
        pad = 0.05 * (y_hi - y_lo + 1e-30)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def x_of(t):
            return MARGIN_LEFT + (t - t_lo) / (t_hi - t_lo) * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

        def y_of(y):
            return bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top)

        parts.append(f'<rect x="{MARGIN_LEFT}" y="{top:.1f}" '
                     f'width="{WIDTH - MARGIN_LEFT - MARGIN_RIGHT}" '
                     f'height="{bottom - top:.1f}" fill="none" stroke="#888"/>')
        for tick in _ticks(y_lo, y_hi):
            py = y_of(tick)
            parts.append(f'<line x1="{MARGIN_LEFT - 4}" y1="{py:.1f}" '
                         f'x2="{MARGIN_LEFT}" y2="{py:.1f}" stroke="#444"/>')
            parts.append(f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.1f}" '
                         f'text-anchor="end" font-family="sans-serif" '
                         f'font-size="10">{_fmt(tick)}</text>')
        for tick in _ticks(t_lo, t_hi):
            px = x_of(tick)
            parts.append(f'<line x1="{px:.1f}" y1="{bottom:.1f}" '
                         f'x2="{px:.1f}" y2="{bottom + 4:.1f}" stroke="#444"/>')
            if ch == m - 1:
                parts.append(f'<text x="{px:.1f}" y="{bottom + 16:.1f}" '
                             f'text-anchor="middle" font-family="sans-serif" '
                             f'font-size="10">{_fmt(tick)}</text>')
        for name, color in SERIES_STYLE:
            if name in series:
                parts.append(_polyline(times, series[name][:, ch], x_of, y_of, color))
    legend_x = WIDTH - MARGIN_RIGHT - 150
    for j, (name, color) in enumerate(s for s in SERIES_STYLE if s[0] in series):
        y = MARGIN_TOP + 14 + 14 * j
        parts.append(f'<line x1="{legend_x}" y1="{y - 4}" x2="{legend_x + 22}" '
                     f'y2="{y - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{legend_x + 28}" y="{y}" font-family="sans-serif" '
                     f'font-size="11">{name}</text>')
    parts.append(f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 6}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11">t</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
