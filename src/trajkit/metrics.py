"""Reference-free motion diagnostics on the coarse track grid.

All functions take per-cell positions in pixels, (T, H_c, W_c, 2), with a
binary visibility array of matching leading shape.  Operating on the coarse
grid (one sample per stride cell) avoids counting the duplicated values of
the dense pixel field.  Each metric reduces over all frames at once.
"""

from __future__ import annotations

import numpy as np


def flow_from_positions(positions: np.ndarray, visibility: np.ndarray):
    """Frame-to-frame displacements per cell, (flow, valid): flow[t], of
    shape (T-1, H_c, W_c, 2) in px/frame, covers frames t -> t+1 of the
    positions; the bool valid (T-1, H_c, W_c) holds where both endpoints
    are visible."""
    positions = np.asarray(positions, dtype=np.float64)
    visibility = np.asarray(visibility).astype(bool)
    if positions.shape[0] < 2:
        raise ValueError("flow needs at least 2 frames")
    return positions[1:] - positions[:-1], visibility[1:] & visibility[:-1]


def _flow_components(positions: np.ndarray, visibility: np.ndarray):
    """`flow_from_positions` with the flow as contiguous (2, T-1, H_c, W_c) u and v;
    a non-finite one where not valid is zeroed, so masking by a product ignores it."""
    flow, valid = flow_from_positions(positions, visibility)
    uv = np.ascontiguousarray(np.moveaxis(flow, -1, 0))
    if not np.isfinite(uv).all():
        uv[:, ~valid] = 0.0
    return uv, valid


def _frame_means(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-frame means of (..., T-1, H, W) values, zero off the mask, over its cells; 0 if none."""
    counts = mask.sum(axis=(1, 2))
    sums = values.sum(axis=(-2, -1))
    return np.divide(sums, counts, out=np.zeros(sums.shape), where=counts > 0)


def flow_tv(positions: np.ndarray, visibility: np.ndarray, stride: float) -> float:
    """Time-averaged total variation of the flow field.

    Per frame, horizontal and vertical forward differences (divided by the
    grid spacing in pixels) of both flow components average over their valid
    neighbor pairs and add; frames without a valid pair contribute zero to
    the time average, a left-to-right sum.  All frame pairs reduce at once.
    """
    uv, valid = _flow_components(positions, visibility)
    if valid.shape[1] < 2 and valid.shape[2] < 2:
        raise ValueError("flow_tv needs a grid of at least 2 cells in one direction")
    # (later, earlier) cells of each horizontal, then each vertical neighbor pair
    pairs = [(valid[head] & valid[tail], uv[head] - uv[tail]) for head, tail in
             ((np.s_[..., 1:], np.s_[..., :-1]), (np.s_[..., 1:, :], np.s_[..., :-1, :]))]
    if not any(pair.any() for pair, _ in pairs):
        raise ValueError("flow_tv: no valid neighbor pair at any frame")
    frame = sum(_frame_means(np.abs(d / stride) * pair, pair).sum(axis=0) for pair, d in pairs)
    return np.cumsum(frame)[-1] / len(frame)


def div_curl_energy(positions: np.ndarray, visibility: np.ndarray, stride: float,
                    single_spacing: bool = False) -> float:
    """Time-averaged mean squared divergence plus curl of the flow.

    Forward differences already carry a 1/stride; the divergence and curl
    then divide by stride again (set single_spacing=True for the variant
    without the second division).  A cell is valid when it and both forward
    neighbors are visible; the time average is as in `flow_tv`.
    """
    uv, valid = _flow_components(positions, visibility)
    if valid.shape[1] < 2 or valid.shape[2] < 2:
        raise ValueError("div_curl_energy needs a grid of at least 2x2 cells")
    cell = valid[:, :-1, :-1] & valid[:, :-1, 1:] & valid[:, 1:, :-1]
    if not cell.any():
        raise ValueError("div_curl_energy: no valid cell at any frame")
    extra = 1.0 if single_spacing else 1.0 / stride
    dx_u, dx_v = (uv[..., :-1, 1:] - uv[..., :-1, :-1]) / stride
    dy_u, dy_v = (uv[..., 1:, :-1] - uv[..., :-1, :-1]) / stride
    div = (dx_u + dy_v) * extra
    curl = (dx_v - dy_u) * extra
    return np.cumsum(_frame_means((div ** 2 + curl ** 2) * cell, cell))[-1] / len(cell)


def vepe(pred: np.ndarray, target: np.ndarray, visibility: np.ndarray) -> float:
    """Visibility-weighted mean Euclidean endpoint error, in pixels."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    vis = np.asarray(visibility).astype(bool)
    if pred.shape != target.shape or pred.shape[:-1] != vis.shape:
        raise ValueError(f"vepe: shape mismatch {pred.shape} vs {target.shape} vs {vis.shape}")
    if not vis.any():
        raise ValueError("vepe: no visible points")
    d = pred - target  # the (x, y) norm from one array per axis: no length-2 reductions
    return float(np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)[vis].mean())


def explained_variance(values: np.ndarray, visibility: np.ndarray) -> np.ndarray:
    """Percentage of variance attributable to grid location, per value axis.

    values: (T, N, A); visibility: (T, N); the result has one entry per
    axis A.  Per cell, a visibility-weighted time mean and variance; the
    between-cell variance of the means over (between + mean within) gives
    the explained share.
    """
    values = np.asarray(values, dtype=np.float64)
    vis = np.asarray(visibility, dtype=np.float64)
    if values.ndim != 3 or vis.shape != values.shape[:2]:
        raise ValueError(f"explained_variance: values {values.shape} must be (T, N, A) "
                         f"and visibility {vis.shape} their (T, N)")
    _, n, axes = values.shape
    counts = vis.sum(axis=0)
    keep = counts > 0
    if keep.sum() < 2:
        raise ValueError("explained_variance: need >= 2 cells with visible samples")
    out = np.empty(axes)
    for a in range(axes):
        d = values[..., a]
        mu = (vis * d).sum(axis=0)[keep] / counts[keep]
        mu_full = np.zeros(n)
        mu_full[keep] = mu
        sigma2 = (vis * (d - mu_full[None, :]) ** 2).sum(axis=0)[keep] / counts[keep]
        between = mu.var()
        within = sigma2.mean()
        denom = between + within
        if denom == 0:
            raise ValueError("explained_variance: zero total variance")
        out[a] = 100.0 * between / denom
    return out
