"""Hand-rolled SVG output: cluster scatter plots and sweep line charts.

No plotting dependency; every figure is a standalone SVG document with one
element per mark.
"""

from __future__ import annotations

import numpy as np

from .kmeans import NOISE

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
NOISE_COLOR = "#bbbbbb"

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}">\n'
    '<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>\n'
)


def color_for(label: int) -> str:
    if label == NOISE:
        return NOISE_COLOR
    return PALETTE[label % len(PALETTE)]


def _scale(values, lo_px, hi_px):
    vmin, vmax = float(np.min(values)), float(np.max(values))
    span = vmax - vmin
    if span <= 0:
        span = 1.0
    pad = 0.05 * span
    vmin, vmax = vmin - pad, vmax + pad

    def to_px(v):
        return lo_px + (v - vmin) / (vmax - vmin) * (hi_px - lo_px)

    return to_px, vmin, vmax


def scatter_svg(path, points, labels, width=640, height=640, title=None) -> None:
    """One circle per point, colored by cluster id; noise (NOISE, -1) in gray."""
    pts = np.asarray(points, dtype=np.float64)
    labs = np.asarray(labels)
    margin = 20.0
    sx, _, _ = _scale(pts[:, 0], margin, width - margin)
    sy, _, _ = _scale(pts[:, 1], height - margin, margin)  # y axis points up
    parts = [_HEADER.format(w=width, h=height)]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="14" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{title}</text>\n'
        )
    for (x, y), lab in zip(pts, labs):
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
            f'fill="{color_for(int(lab))}" fill-opacity="0.8"/>\n'
        )
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


def line_chart_svg(path, xs, series, width=720, height=480,
                   x_label="", y_label="", title=None) -> None:
    """Mean lines with translucent +/- one-standard-deviation bands.

    `series` maps a name to a (means, stds) pair aligned with xs.
    """
    xs = np.asarray(xs, dtype=np.float64)
    margin_l, margin_r, margin_t, margin_b = 60.0, 20.0, 30.0, 50.0
    all_vals = [0.0, 1.0]
    for means, stds in series.values():
        all_vals.extend(np.asarray(means) - np.asarray(stds))
        all_vals.extend(np.asarray(means) + np.asarray(stds))
    sx, _, _ = _scale(xs, margin_l, width - margin_r)
    sy, ymin, ymax = _scale(np.asarray(all_vals), height - margin_b, margin_t)

    parts = [_HEADER.format(w=width, h=height)]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>\n'
        )
    # axes
    parts.append(
        f'<line x1="{margin_l}" y1="{height - margin_b}" x2="{width - margin_r}" '
        f'y2="{height - margin_b}" stroke="#333333"/>\n'
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{height - margin_b}" stroke="#333333"/>\n'
    )
    for x in xs:
        parts.append(
            f'<text x="{sx(x):.1f}" y="{height - margin_b + 16:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{x:g}</text>\n'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = ymin + frac * (ymax - ymin)
        parts.append(
            f'<text x="{margin_l - 6:.1f}" y="{sy(v) + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{v:.2f}</text>\n'
        )
    if x_label:
        parts.append(
            f'<text x="{(margin_l + width - margin_r) / 2:.1f}" y="{height - 10:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">{x_label}</text>\n'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{(margin_t + height - margin_b) / 2:.1f}" '
            f'font-family="sans-serif" font-size="11" '
            f'transform="rotate(-90 16 {(margin_t + height - margin_b) / 2:.1f})" '
            f'text-anchor="middle">{y_label}</text>\n'
        )

    for idx, (name, (means, stds)) in enumerate(series.items()):
        means = np.asarray(means, dtype=np.float64)
        stds = np.asarray(stds, dtype=np.float64)
        color = PALETTE[idx % len(PALETTE)]
        upper = [f"{sx(x):.2f},{sy(m + s):.2f}" for x, m, s in zip(xs, means, stds)]
        lower = [f"{sx(x):.2f},{sy(m - s):.2f}" for x, m, s in zip(xs[::-1], means[::-1], stds[::-1])]
        parts.append(
            f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
            f'fill-opacity="0.15" stroke="none"/>\n'
        )
        line = " ".join(f"{sx(x):.2f},{sy(m):.2f}" for x, m in zip(xs, means))
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
        )
        ly = margin_t + 14 * idx
        parts.append(
            f'<line x1="{width - margin_r - 110:.1f}" y1="{ly:.1f}" '
            f'x2="{width - margin_r - 90:.1f}" y2="{ly:.1f}" stroke="{color}" stroke-width="2"/>\n'
            f'<text x="{width - margin_r - 84:.1f}" y="{ly + 3:.1f}" '
            f'font-family="sans-serif" font-size="10">{name}</text>\n'
        )
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))
