"""Deterministic SVG trajectory overlays and CSV tables (no plotting deps)."""

from __future__ import annotations

import csv
import io

from .tlf import TlfFile, coarse_pixel_positions

METRIC_COLUMNS = ["dataset", "method", "metric", "value"]


def format_float(x: float) -> str:
    return repr(float(x))


def track_colors(n: int) -> list:
    """One hue per track, ordered by spatial index."""
    return [f"hsl({(360 * i) // max(n, 1)},80%,45%)" for i in range(n)]


def overlay_svg(tlf: TlfFile) -> str:
    """Trajectory polylines in pixel coordinates, colored by the spatial
    order of the query points; hidden spans are still drawn but dashed."""
    positions, vis = coarse_pixel_positions(tlf)
    t, hc, wc, _ = positions.shape
    n = hc * wc
    pos = positions.reshape(t, n, 2)
    visible = vis.reshape(t, n)
    colors = track_colors(n)
    buf = io.StringIO()
    buf.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    buf.write(f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {tlf.width} {tlf.height}" '
              f'width="{tlf.width * 8}" height="{tlf.height * 8}">\n')
    buf.write(f'<rect width="{tlf.width}" height="{tlf.height}" fill="#111111"/>\n')
    for i in range(n):
        pts = " ".join(f"{pos[t_i, i, 0]:.6f},{pos[t_i, i, 1]:.6f}" for t_i in range(t))
        dash = "" if visible[:, i].all() else ' stroke-dasharray="1,1"'
        buf.write(f'<polyline points="{pts}" fill="none" stroke="{colors[i]}" '
                  f'stroke-width="0.4"{dash}/>\n')
    for i in range(n):
        buf.write(f'<circle cx="{pos[-1, i, 0]:.6f}" cy="{pos[-1, i, 1]:.6f}" '
                  f'r="0.375" fill="{colors[i]}"/>\n')
    buf.write("</svg>\n")
    return buf.getvalue()


def metrics_csv(rows: list) -> str:
    """Rows of (dataset, method, metric, value) as deterministic CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRIC_COLUMNS)
    for row in rows:
        writer.writerow([row["dataset"], row["method"], row["metric"],
                         format_float(row["value"])])
    return buf.getvalue()


def read_metrics_csv(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [{"dataset": r["dataset"], "method": r["method"], "metric": r["metric"],
                 "value": float(r["value"])} for r in reader]


def curve_csv(curve: list) -> str:
    """Per-step loss components as CSV; header from the first row's keys."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if not curve:
        writer.writerow(["step"])
        return buf.getvalue()
    keys = list(curve[0].keys())
    writer.writerow(keys)
    for row in curve:
        writer.writerow([row["step"] if k == "step" else format_float(row[k]) for k in keys])
    return buf.getvalue()
