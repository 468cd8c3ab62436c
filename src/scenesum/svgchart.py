"""Dependency-free SVG line chart used for divergence curve exports."""

from __future__ import annotations

WIDTH = 800
HEIGHT = 500
MARGIN_LEFT = 70
MARGIN_RIGHT = 30
MARGIN_TOP = 50
MARGIN_BOTTOM = 60
N_TICKS = 6


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def render_line_chart(xs, ys, title: str, x_label: str, y_label: str) -> str:
    """Render one polyline with axes, ticks, and a title into an 800x500 SVG."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least 2 matching points")

    x_min, x_max = min(xs), max(xs)
    y_min, y_max = 0.0, max(max(ys), 1e-9)
    x_span = (x_max - x_min) or 1.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v):
        return MARGIN_LEFT + (v - x_min) / x_span * plot_w

    def sy(v):
        return MARGIN_TOP + plot_h - (v - y_min) / (y_max - y_min) * plot_h

    points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    from html import escape  # here, not at the top: only evaluate --svg loads html.entities
    title, x_label, y_label = (escape(t, quote=False) for t in (title, x_label, y_label))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="28" text-anchor="middle" font-family="sans-serif" '
        f'font-size="18">{title}</text>',
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>',
    ]

    for i in range(N_TICKS):
        frac = i / (N_TICKS - 1)
        xv = x_min + frac * (x_max - x_min)
        px = sx(xv)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y1}" x2="{_fmt(px)}" y2="{y1 + 6}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{y1 + 22}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{_tick_label(xv)}</text>')
        yv = y_min + frac * (y_max - y_min)
        py = sy(yv)
        parts.append(f'<line x1="{x0 - 6}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 10}" y="{_fmt(py + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{_tick_label(yv)}</text>')

    parts.append(f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 14}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14">{x_label}</text>')
    parts.append(f'<text x="20" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14" '
                 f'transform="rotate(-90 20 {(y0 + y1) / 2:.0f})">{y_label}</text>')
    parts.append(f'<polyline fill="none" stroke="#1f6feb" stroke-width="2" points="{points}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
