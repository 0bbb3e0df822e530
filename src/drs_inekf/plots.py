"""Minimal native SVG plotting for Monte Carlo summary figures.

One figure per metric: median line plus a shaded 10th-90th percentile band
per filter variant. Pure string assembly, no plotting dependencies, so
outputs are hermetic and byte-stable for a given report.
"""

from __future__ import annotations

import numpy as np

from .filter import Variant
from .harness import METRIC_NAMES, VARIANTS, AggregateReport

_COLORS = {
    Variant.PROPOSED: "#1f77b4",
    Variant.POSITION_ONLY: "#d62728",
}

_YLABELS = {
    "pos_err": "position error [m]",
    "vel_err": "velocity error [m/s]",
    "roll_err": "roll error [deg]",
    "pitch_err": "pitch error [deg]",
    "yaw_err": "yaw error [deg]",
    "nees": "NEES",
}

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 62, 16, 34, 46


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    return [float(first + i * step) for i in range(int((hi - first) / step) + 1)]


class _Frame:
    def __init__(self, t_lo, t_hi, y_lo, y_hi):
        self.t_lo, self.t_hi = t_lo, t_hi
        self.y_lo, self.y_hi = y_lo, y_hi

    def x(self, t):
        span = max(self.t_hi - self.t_lo, 1e-30)
        return _ML + (np.asarray(t) - self.t_lo) / span * (_W - _ML - _MR)

    def y(self, v):
        span = max(self.y_hi - self.y_lo, 1e-30)
        return _H - _MB - (np.asarray(v) - self.y_lo) / span * (_H - _MT - _MB)


def _points(xs, ys) -> str:
    """SVG points `x,y x,y ...` at two decimals, formatted with one `%`."""
    return " ".join(["%.2f,%.2f"] * len(xs)) % tuple(
        np.column_stack([xs, ys]).ravel().tolist())


def _polyline(xs, ys, color) -> str:
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{_points(xs, ys)}"/>')


def _band(xs, lo, hi, color) -> str:
    pts = _points(np.concatenate([xs, xs[::-1]]), np.concatenate([lo, hi[::-1]]))
    return (f'<polygon fill="{color}" fill-opacity="0.18" stroke="none" '
            f'points="{pts}"/>')


def render_metric_svg(report: AggregateReport, metric: str) -> str:
    """SVG document for one metric with per-variant median and band."""
    t = report.t
    bands = report.bands[..., METRIC_NAMES.index(metric)]  # (PERCENTILES, variant, T)
    y_hi = max(0.0, float(np.max(bands[2])))
    frame = _Frame(float(t[0]), float(t[-1]), 0.0, y_hi * 1.05 + 1e-12)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    for tick in _ticks(frame.y_lo, frame.y_hi):
        y = float(frame.y(tick))
        parts.append(f'<line x1="{_ML}" y1="{y:.2f}" x2="{_W - _MR}" y2="{y:.2f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 6}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{_fmt(tick)}</text>')
    for tick in _ticks(frame.t_lo, frame.t_hi, 6):
        x = float(frame.x(tick))
        parts.append(f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_H - _MB}" '
                     f'stroke="#eeeeee" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 16}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{_fmt(tick)}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="#333333"/>')

    xs = frame.x(t)
    for variant, (lo, mid, hi) in zip(VARIANTS, bands.swapaxes(0, 1)):
        color = _COLORS[variant]
        parts.append(_band(xs, frame.y(lo), frame.y(hi), color))
        parts.append(_polyline(xs, frame.y(mid), color))

    legend_y = _MT + 14
    for variant in VARIANTS:
        color = _COLORS[variant]
        parts.append(f'<line x1="{_W - _MR - 150}" y1="{legend_y}" '
                     f'x2="{_W - _MR - 122}" y2="{legend_y}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 116}" y="{legend_y + 4}" font-size="11" '
                     f'font-family="sans-serif">{variant.value}</text>')
        legend_y += 16

    label = _YLABELS[metric]
    parts.append(f'<text x="{_ML}" y="{_MT - 12}" font-size="13" '
                 f'font-family="sans-serif">{label} '
                 f'(median, p10-p90, {report.initial.shape[1]} trials)</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 10}" '
                 f'text-anchor="middle" font-size="12" '
                 f'font-family="sans-serif">time [s]</text>')
    parts.append(f'<text x="14" y="{(_MT + _H - _MB) / 2:.0f}" font-size="12" '
                 f'font-family="sans-serif" '
                 f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2:.0f})" '
                 f'text-anchor="middle">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_report_svgs(report: AggregateReport, out_dir) -> list[str]:
    """Write one SVG per metric into out_dir; returns the file paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for metric in METRIC_NAMES:
        path = os.path.join(str(out_dir), f"{metric}.svg")
        with open(path, "w") as fh:
            fh.write(render_metric_svg(report, metric))
        paths.append(path)
    return paths
