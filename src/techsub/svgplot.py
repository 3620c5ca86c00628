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
TICKS = 5
AXIS = 'stroke="black" stroke-width="1"'


def _line(x1, y1, x2, y2, style: str = AXIS) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>'


def _text(x, y, anchor: str, size: int, body: str, extra: str = "") -> str:
    """A sans-serif label; body is escaped as html.escape(body, quote=False)
    would, without importing html."""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
        f'font-size="{size}"{extra}>{body}</text>'
    )


def _ticks(lo: float, hi: float) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (TICKS - 1)
    return [lo + i * step for i in range(TICKS)]


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
    (position, label). Returns the SVG text; ValueError if an axis span overflows.
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
    x_ticks, y_ticks = _ticks(x_lo, x_hi), _ticks(y_lo, y_hi)  # the data's span, not padded
    x_pad = (x_hi - x_lo) * 0.05 or 1.0
    y_pad = (y_hi - y_lo) * 0.05 or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    if not (x_hi - x_lo < float("inf") and y_hi - y_lo < float("inf")):
        raise ValueError("an axis span lies beyond the float range")

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    bottom = MARGIN_TOP + plot_h
    mid_y = f"{MARGIN_TOP + plot_h / 2:.0f}"

    def px(v: float, shift: float = 0) -> str:
        return f"{MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w + shift:.2f}"

    def py(v: float, shift: float = 0) -> str:
        return f"{MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h + shift:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(f"{WIDTH / 2:.0f}", 24, "middle", 15, title),
        _line(MARGIN_LEFT, bottom, MARGIN_LEFT + plot_w, bottom),
        _line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, bottom),
    ]
    for tick in x_ticks:
        tx = px(tick)
        parts.append(_line(tx, bottom, tx, bottom + 5))
        parts.append(_text(tx, bottom + 20, "middle", 11, f"{tick:.4g}"))
    for tick in y_ticks:
        ty = py(tick)
        parts.append(_line(MARGIN_LEFT - 5, ty, MARGIN_LEFT, ty))
        parts.append(_text(MARGIN_LEFT - 8, py(tick, 4), "end", 11, f"{tick:.4g}"))
    parts.append(_text(f"{MARGIN_LEFT + plot_w / 2:.0f}", HEIGHT - 12, "middle", 13, xlabel))
    parts.append(_text(18, mid_y, "middle", 13, ylabel, f' transform="rotate(-90 18 {mid_y})"'))

    if vline is not None:
        vx, vlabel = vline
        style = 'stroke="gray" stroke-width="1" stroke-dasharray="4 3"'
        parts.append(_line(px(vx), MARGIN_TOP, px(vx), bottom, style))
        parts.append(_text(px(vx, 4), MARGIN_TOP + 14, "start", 11, vlabel, ' fill="gray"'))
    if line is not None:
        a, b = line
        style = 'stroke="#c0392b" stroke-width="1.5"'
        parts.append(_line(px(x_lo), py(a + b * x_lo), px(x_hi), py(a + b * x_hi), style))
    for xi, yi in zip(x, y):
        parts.append(
            f'<circle cx="{px(xi)}" cy="{py(yi)}" r="3.5" fill="#2c5f8a" fill-opacity="0.85"/>'
        )
    if annotation:
        parts.append(_text(MARGIN_LEFT + plot_w - 8, MARGIN_TOP + 16, "end", 13, annotation))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
