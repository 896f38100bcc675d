"""Deterministic SVG trajectory overlays and CSV tables (no plotting deps)."""

from __future__ import annotations

import csv
import io

from .tlf import TlfFile, to_tracks

METRIC_COLUMNS = ["dataset", "method", "metric", "value"]


def format_float(x: float) -> str:
    return repr(float(x))


def track_colors(n: int) -> list:
    """One hue per track, ordered by spatial index."""
    return [f"hsl({(360 * i) // max(n, 1)},80%,45%)" for i in range(n)]


def overlay_svg(tlf: TlfFile) -> str:
    """Trajectory polylines in pixel coordinates, colored by the spatial
    order of the query points; hidden spans are still drawn but dashed."""
    tracks = to_tracks(tlf)
    pos, visible = tracks.coords, tracks.visibility
    t, n, _ = pos.shape
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
    """The rows of a `metrics_csv` file.  A ValueError names the file, and
    the line of a header other than METRIC_COLUMNS, a row without exactly
    four fields, or a value that is not a number, or that the bytes are not
    text; blank lines are skipped."""
    with open(path, newline="") as fh:
        try:
            reader = csv.reader(fh.readlines())
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    if next(reader, None) != METRIC_COLUMNS:
        raise ValueError(f"{path}: line 1: header is not {','.join(METRIC_COLUMNS)}")
    rows = []
    for fields in filter(None, reader):
        where = f"{path}: line {reader.line_num}"
        if len(fields) != len(METRIC_COLUMNS):
            raise ValueError(f"{where}: {len(fields)} fields, not {len(METRIC_COLUMNS)}")
        try:
            value = float(fields[3])
        except ValueError:
            raise ValueError(f"{where}: value {fields[3]!r} is not a number") from None
        rows.append({**dict(zip(METRIC_COLUMNS[:3], fields)), "value": value})
    return rows


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
