"""Minimal static SVG scatter/line charts for fit reports.

Hand-rolled on purpose: the output must be a deterministic, standalone
vector document with exactly one circle marker per plotted observation,
which keeps golden-file and structural tests trivial.
"""

from __future__ import annotations

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 48
MARGIN_BOTTOM = 56


def _escape(text: str) -> str:
    """html.escape(text, quote=False), without importing html."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_scatter(
    x: list[float],
    y: list[float],
    title: str,
    xlabel: str,
    ylabel: str,
    line: tuple[float, float] | None = None,
    annotation: str = "",
    vline: tuple[float, str] | None = None,
) -> str:
    """Render a scatter chart with an optional fitted line y = a + b*x.

    ``line`` is (intercept, slope); ``vline`` marks a vertical reference
    (position, label). Returns the SVG document as text.
    """
    if len(x) != len(y) or not x:
        raise ValueError("x and y must be equal-length, non-empty")

    x_lo, x_hi = min(x), max(x)
    y_lo, y_hi = min(y), max(y)
    if line is not None:
        a, b = line
        y_lo = min(y_lo, a + b * x_lo, a + b * x_hi)
        y_hi = max(y_hi, a + b * x_lo, a + b * x_hi)
    if vline is not None:
        x_lo = min(x_lo, vline[0])
        x_hi = max(x_hi, vline[0])
    x_pad = (x_hi - x_lo) * 0.05 or 1.0
    y_pad = (y_hi - y_lo) * 0.05 or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(v: float) -> float:
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]

    bottom = MARGIN_TOP + plot_h
    right = MARGIN_LEFT + plot_w
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" y2="{bottom}" '
        f'stroke="black" stroke-width="1"/>'
    )

    for tick in _ticks(x_lo + x_pad, x_hi - x_pad):
        tx = px(tick)
        parts.append(
            f'<line x1="{_fmt(tx)}" y1="{bottom}" x2="{_fmt(tx)}" y2="{bottom + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(tx)}" y="{bottom + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(tick)}</text>'
        )
    for tick in _ticks(y_lo + y_pad, y_hi - y_pad):
        ty = py(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(ty)}" x2="{MARGIN_LEFT}" y2="{_fmt(ty)}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(ty + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(tick)}</text>'
        )

    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.0f})">{_escape(ylabel)}</text>'
    )

    if vline is not None:
        vx, vlabel = vline
        parts.append(
            f'<line x1="{_fmt(px(vx))}" y1="{MARGIN_TOP}" x2="{_fmt(px(vx))}" y2="{bottom}" '
            f'stroke="gray" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text x="{_fmt(px(vx) + 4)}" y="{MARGIN_TOP + 14}" text-anchor="start" '
            f'font-family="sans-serif" font-size="11" fill="gray">{_escape(vlabel)}</text>'
        )

    if line is not None:
        a, b = line
        parts.append(
            f'<line x1="{_fmt(px(x_lo))}" y1="{_fmt(py(a + b * x_lo))}" '
            f'x2="{_fmt(px(x_hi))}" y2="{_fmt(py(a + b * x_hi))}" '
            f'stroke="#c0392b" stroke-width="1.5"/>'
        )

    for xi, yi in zip(x, y):
        parts.append(
            f'<circle cx="{_fmt(px(xi))}" cy="{_fmt(py(yi))}" r="3.5" '
            f'fill="#2c5f8a" fill-opacity="0.85"/>'
        )

    if annotation:
        parts.append(
            f'<text x="{right - 8}" y="{MARGIN_TOP + 16}" text-anchor="end" '
            f'font-family="sans-serif" font-size="13">{_escape(annotation)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
