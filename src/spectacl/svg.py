"""Hand-rolled SVG output: cluster scatter plots and sweep line charts.

No plotting dependency; every figure is a standalone SVG document of a fixed
size with one element per mark, written by `dataio.write_text`, so a failed
write is a DataIOError that names the file.
"""

from __future__ import annotations

import numpy as np

from .dataio import write_text
from .kmeans import NOISE

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
NOISE_COLOR = "#bbbbbb"
# (width, height) in pixels
SCATTER_SIZE = (640, 640)
CHART_SIZE = (720, 480)


def color_for(label: int) -> str:
    return NOISE_COLOR if label == NOISE else PALETTE[label % len(PALETTE)]


def _scale(values, lo_px, hi_px):
    vmin, vmax = float(np.min(values)), float(np.max(values))
    span = 1.0 if vmax - vmin <= 0 else vmax - vmin
    pad = 0.05 * span
    vmin, vmax = vmin - pad, vmax + pad

    def to_px(v):
        return lo_px + (v - vmin) / (vmax - vmin) * (hi_px - lo_px)

    return to_px, vmin, vmax


def _text(x, y, size, body, anchor="middle") -> str:
    """A sans-serif <text> element at x (shown to one decimal) and y (the
    attribute's text as given), anchored at `anchor` unless that is None."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x:.1f}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}">{body}</text>\n')


def _write_document(path, size, title, title_y, title_size, marks) -> None:
    """Write the SVG document of `size` (width, height): a white background,
    the title centred at height title_y if there is one, then the marks."""
    w, h = size
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n'
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>\n'
    )
    heading = _text(w / 2, title_y, title_size, title) if title else ""
    write_text(path, "".join([header, heading, *marks, "</svg>\n"]))


def scatter_svg(path, points, labels, title=None) -> None:
    """One circle per point, colored by cluster id; noise (NOISE, -1) in gray."""
    pts = np.asarray(points, dtype=np.float64)
    width, height = SCATTER_SIZE
    margin = 20.0
    sx, _, _ = _scale(pts[:, 0], margin, width - margin)
    sy, _, _ = _scale(pts[:, 1], height - margin, margin)  # y axis points up
    marks = (f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
             f'fill="{color_for(int(lab))}" fill-opacity="0.8"/>\n'
             for (x, y), lab in zip(pts, np.asarray(labels)))
    _write_document(path, SCATTER_SIZE, title, "14", 12, marks)


def line_chart_svg(path, xs, series, x_label="", y_label="", title=None) -> None:
    """Mean lines with translucent +/- one-standard-deviation bands.

    `series` maps a name to a (means, stds) pair aligned with xs.
    """
    xs = np.asarray(xs, dtype=np.float64)
    width, height = CHART_SIZE
    margin_l, margin_r, margin_t, margin_b = 60.0, 20.0, 30.0, 50.0
    all_vals = [0.0, 1.0]
    for means, stds in series.values():
        all_vals.extend(np.asarray(means) - np.asarray(stds))
        all_vals.extend(np.asarray(means) + np.asarray(stds))
    sx, _, _ = _scale(xs, margin_l, width - margin_r)
    sy, ymin, ymax = _scale(np.asarray(all_vals), height - margin_b, margin_t)

    bottom = height - margin_b
    marks = [  # axes
        f'<line x1="{margin_l}" y1="{bottom}" x2="{width - margin_r}" y2="{bottom}" '
        f'stroke="#333333"/>\n'
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" y2="{bottom}" '
        f'stroke="#333333"/>\n'
    ]
    marks += [_text(sx(x), f"{bottom + 16:.1f}", 10, f"{x:g}") for x in xs]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = ymin + frac * (ymax - ymin)
        marks.append(_text(margin_l - 6, f"{sy(v) + 3:.1f}", 10, f"{v:.2f}", anchor="end"))
    if x_label:
        marks.append(_text((margin_l + width - margin_r) / 2, f"{height - 10:.1f}", 11, x_label))
    if y_label:
        mid = f"{(margin_t + bottom) / 2:.1f}"
        marks.append(f'<text x="16" y="{mid}" font-family="sans-serif" font-size="11" '
                     f'transform="rotate(-90 16 {mid})" text-anchor="middle">{y_label}</text>\n')

    for idx, (name, (means, stds)) in enumerate(series.items()):
        means = np.asarray(means, dtype=np.float64)
        stds = np.asarray(stds, dtype=np.float64)
        color = PALETTE[idx % len(PALETTE)]
        upper = [f"{sx(x):.2f},{sy(m + s):.2f}" for x, m, s in zip(xs, means, stds)]
        lower = [f"{sx(x):.2f},{sy(m - s):.2f}"
                 for x, m, s in zip(xs[::-1], means[::-1], stds[::-1])]
        line = " ".join(f"{sx(x):.2f},{sy(m):.2f}" for x, m in zip(xs, means))
        ly = margin_t + 14 * idx
        marks += [
            f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
            f'fill-opacity="0.15" stroke="none"/>\n',
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>\n',
            f'<line x1="{width - margin_r - 110:.1f}" y1="{ly:.1f}" '
            f'x2="{width - margin_r - 90:.1f}" y2="{ly:.1f}" stroke="{color}" stroke-width="2"/>\n',
            _text(width - margin_r - 84, f"{ly + 3:.1f}", 10, name, anchor=None),
        ]
    _write_document(path, CHART_SIZE, title, "18", 13, marks)
