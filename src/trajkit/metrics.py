"""Reference-free motion diagnostics on the coarse track grid.

All functions take per-cell positions in pixels, (T, H_c, W_c, 2), with a
binary visibility array of matching leading shape.  Operating on the coarse
grid (one sample per stride cell) avoids counting the duplicated values of
the dense pixel field.
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
    flow = positions[1:] - positions[:-1]
    valid = visibility[1:] & visibility[:-1]
    return flow, valid


# (later, earlier) cells of each horizontal, then each vertical neighbor pair
_NEIGHBOR_SLICES = ((np.s_[:, 1:], np.s_[:, :-1]), (np.s_[1:, :], np.s_[:-1, :]))


def flow_tv(positions: np.ndarray, visibility: np.ndarray, stride: float) -> float:
    """Time-averaged total variation of the flow field.

    Per frame, horizontal and vertical forward differences (divided by the
    grid spacing in pixels) of both flow components average over their valid
    neighbor pairs and add; frames without a valid pair contribute zero to
    the time average.
    """
    flow, valid = flow_from_positions(positions, visibility)
    u, v = flow[..., 0], flow[..., 1]
    t_minus_1 = flow.shape[0]
    if flow.shape[1] < 2 and flow.shape[2] < 2:
        raise ValueError("flow_tv needs a grid of at least 2 cells in one direction")
    total = 0.0
    any_pair = False
    for t in range(t_minus_1):
        val, u_t, v_t = valid[t], u[t], v[t]
        frame = 0.0
        for head, tail in _NEIGHBOR_SLICES:
            pair = val[head] & val[tail]
            if pair.any():
                any_pair = True
                d_u = (u_t[head] - u_t[tail]) / stride
                d_v = (v_t[head] - v_t[tail]) / stride
                frame += (np.abs(d_u[pair]).sum() + np.abs(d_v[pair]).sum()) / pair.sum()
        total += frame
    if not any_pair:
        raise ValueError("flow_tv: no valid neighbor pair at any frame")
    return total / t_minus_1


def div_curl_energy(positions: np.ndarray, visibility: np.ndarray, stride: float,
                    single_spacing: bool = False) -> float:
    """Time-averaged mean squared divergence plus curl of the flow.

    Forward differences already carry a 1/stride; the divergence and curl
    then divide by stride again (set single_spacing=True for the variant
    without the second division).  A cell is valid when it and both forward
    neighbors are visible.
    """
    flow, valid = flow_from_positions(positions, visibility)
    if flow.shape[1] < 2 or flow.shape[2] < 2:
        raise ValueError("div_curl_energy needs a grid of at least 2x2 cells")
    u, v = flow[..., 0], flow[..., 1]
    t_minus_1 = flow.shape[0]
    extra = 1.0 if single_spacing else 1.0 / stride
    total = 0.0
    any_cell = False
    for t in range(t_minus_1):
        val = valid[t]
        cell = val[:-1, :-1] & val[:-1, 1:] & val[1:, :-1]
        if not cell.any():
            continue
        any_cell = True
        dx_u = (u[t, :-1, 1:] - u[t, :-1, :-1]) / stride
        dx_v = (v[t, :-1, 1:] - v[t, :-1, :-1]) / stride
        dy_u = (u[t, 1:, :-1] - u[t, :-1, :-1]) / stride
        dy_v = (v[t, 1:, :-1] - v[t, :-1, :-1]) / stride
        div = (dx_u + dy_v) * extra
        curl = (dx_v - dy_u) * extra
        total += (div[cell] ** 2 + curl[cell] ** 2).mean()
    if not any_cell:
        raise ValueError("div_curl_energy: no valid cell at any frame")
    return total / t_minus_1


def vepe(pred: np.ndarray, target: np.ndarray, visibility: np.ndarray) -> float:
    """Visibility-weighted mean Euclidean endpoint error, in pixels."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    vis = np.asarray(visibility).astype(bool)
    if pred.shape != target.shape or pred.shape[:-1] != vis.shape:
        raise ValueError(f"vepe: shape mismatch {pred.shape} vs {target.shape} vs {vis.shape}")
    if not vis.any():
        raise ValueError("vepe: no visible points")
    err = np.linalg.norm(pred - target, axis=-1)
    return float(err[vis].mean())


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
