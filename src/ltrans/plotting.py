"""Minimal self-contained SVG line plots for sweep CSV files.

Hand-rolled on purpose: no plotting dependency, deterministic output, and
the few features sweeps need (a linear or log x axis, a log y axis,
several series, labels).
"""

from __future__ import annotations

import csv
import math

from .linalg import ValidationError

__all__ = ["emit_plot"]

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 40, 60
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
X_COL, Y_COLS, Y_LABEL = "value", ("kappa2", "kappa4", "kappa_total"), "kappa (k_B * omega_ref)"


def _read_csv(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValidationError(f"{path}: empty CSV")
    return rows[0], rows[1:]


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0**e for e in range(lo_e, hi_e + 1)]
    span = hi - lo
    if span <= 0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(t)
        t += step
    return ticks


def emit_plot(csv_path: str, svg_path: str, logx: bool, x_label: str) -> None:
    """Render the kappa columns of a sweep CSV against its `value` column, on a
    log y axis, to a standalone SVG file.

    Rows with NaN or (on log axes) non-positive values are skipped per
    series.  Raises if a column is missing or nothing is plottable.
    """
    header, rows = _read_csv(csv_path)
    try:
        xi = header.index(X_COL)
        yis = [header.index(c) for c in Y_COLS]
    except ValueError as exc:
        raise ValidationError(f"column not found in {csv_path}: {exc}") from None

    series = []
    for yi in yis:
        pts = []
        for row in rows:
            try:
                x = float(row[xi])
                y = float(row[yi])
            except (ValueError, IndexError):
                continue
            if math.isnan(x) or math.isnan(y):
                continue
            if (logx and x <= 0) or y <= 0:
                continue
            pts.append((x, y))
        series.append(pts)
    all_pts = [p for pts in series for p in pts]
    if not all_pts:
        raise ValidationError("no plottable data")

    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:        # one point: widen its axis, by a factor 2 each way if log
        x_lo, x_hi = (x_lo * 0.5, x_hi * 2) if logx else (x_lo - 0.5, x_hi + 0.5)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo * 0.5, y_hi * 2

    def tx(x):
        u = ((math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
             if logx else (x - x_lo) / (x_hi - x_lo))
        return MARGIN_L + u * (WIDTH - MARGIN_L - MARGIN_R)

    def ty(y):
        u = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return HEIGHT - MARGIN_B - u * (HEIGHT - MARGIN_T - MARGIN_B)

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for t in _ticks(x_lo, x_hi, logx):
        if t < x_lo or t > x_hi:
            continue
        px = tx(t)
        out.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{y0 + 20}" font-size="12" '
                   f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi, log=True):
        if t < y_lo or t > y_hi:
            continue
        py = ty(t)
        out.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{x0 - 8}" y="{py + 4:.2f}" font-size="12" '
                   f'text-anchor="end">{t:g}</text>')
    for pts, col, name in zip(series, COLORS, Y_COLS):
        if not pts:
            continue
        path = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in sorted(pts))
        out.append(f'<polyline points="{path}" fill="none" stroke="{col}" stroke-width="1.5"/>')
    for k, (name, col) in enumerate(zip(Y_COLS, COLORS)):
        out.append(f'<text x="{x1 - 150}" y="{y1 + 15 + 16 * k}" font-size="12" '
                   f'fill="{col}">{name}</text>')
    out.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 15}" font-size="13" '
               f'text-anchor="middle">{x_label}{" (log)" if logx else ""}</text>')
    out.append(f'<text x="20" y="{(y0 + y1) / 2:.1f}" font-size="13" '
               f'text-anchor="middle" transform="rotate(-90 20 {(y0 + y1) / 2:.1f})">'
               f'{Y_LABEL} (log)</text>')
    out.append("</svg>")
    with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
