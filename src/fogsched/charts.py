"""Minimal self-contained SVG line charts for experiment reports.

Charts are plain text built only from the input values, so identical data
always produces identical bytes.
"""

from __future__ import annotations

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 150, 40, 55

PALETTE = {
    "gap": "#1f77b4",
    "wgap": "#ff7f0e",
    "fcfs": "#2ca02c",
    "sjf": "#d62728",
    "rr": "#9467bd",
    "pso": "#8c564b",
}


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def line_chart(title: str, x_label: str, y_label: str, x_values: list[float],
               series: dict[str, list[float | None]]) -> str:
    """Render one chart; series maps a label to one y per x (None = gap)."""
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    xs = list(x_values)
    x_lo, x_hi = min(xs), max(xs)
    span_x = (x_hi - x_lo) or 1.0
    ys = [y for vals in series.values() for y in vals if y is not None]
    y_hi = max(ys) if ys else 1.0
    y_hi = y_hi or 1.0

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / span_x * plot_w

    def py(y: float) -> float:
        return MARGIN_T + plot_h - y / y_hi * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + plot_h}" x2="{MARGIN_L + plot_w}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>',
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">{y_label}</text>',
    ]
    for x in xs:
        out.append(f'<line x1="{px(x):.1f}" y1="{MARGIN_T + plot_h}" '
                   f'x2="{px(x):.1f}" y2="{MARGIN_T + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{px(x):.1f}" y="{MARGIN_T + plot_h + 18}" '
                   f'text-anchor="middle">{_fmt(x)}</text>')
    for i in range(5):
        y = y_hi * i / 4
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{py(y):.1f}" x2="{MARGIN_L}" '
                   f'y2="{py(y):.1f}" stroke="black"/>')
        out.append(f'<text x="{MARGIN_L - 9}" y="{py(y) + 4:.1f}" '
                   f'text-anchor="end">{_fmt(y)}</text>')
    for li, (label, vals) in enumerate(series.items()):
        color = PALETTE[label]
        pts = [(px(x), py(y)) for x, y in zip(xs, vals) if y is not None]
        if pts:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                       f'stroke-width="1.8"/>')
            for x, y in pts:
                out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.6" fill="{color}"/>')
        ly = MARGIN_T + 14 + 18 * li
        lx = WIDTH - MARGIN_R + 14
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="3"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_chart(path: str, title: str, x_label: str, y_label: str,
                x_values: list[float], series: dict[str, list[float | None]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(line_chart(title, x_label, y_label, x_values, series))
