import numpy as np
import pytest

import reference_ops as ref
from trajkit.metrics import div_curl_energy, explained_variance, flow_from_positions, flow_tv, vepe


# -- naive oracles: literal loops, kept independent of the library code ----

def flow_tv_brute(positions, vis, s):
    t_n, h, w, _ = positions.shape
    total = 0.0
    any_pair = False
    for t in range(1, t_n):
        frame = 0.0
        for name, (di, dj) in (("x", (0, 1)), ("y", (1, 0))):
            num, den = 0.0, 0
            for i in range(h):
                for j in range(w):
                    i2, j2 = i + di, j + dj
                    if i2 >= h or j2 >= w:
                        continue
                    ok = (vis[t, i, j] and vis[t - 1, i, j]
                          and vis[t, i2, j2] and vis[t - 1, i2, j2])
                    if not ok:
                        continue
                    f1 = positions[t, i2, j2] - positions[t - 1, i2, j2]
                    f0 = positions[t, i, j] - positions[t - 1, i, j]
                    num += abs(f1[0] - f0[0]) / s + abs(f1[1] - f0[1]) / s
                    den += 1
            if den:
                any_pair = True
                frame += num / den
        total += frame
    if not any_pair:
        raise ValueError("no valid pair")
    return total / (t_n - 1)


def div_curl_brute(positions, vis, s):
    t_n, h, w, _ = positions.shape
    total = 0.0
    any_cell = False
    for t in range(1, t_n):
        vals = []
        for i in range(h - 1):
            for j in range(w - 1):
                ok = all(vis[tt, ii, jj]
                         for tt in (t - 1, t)
                         for ii, jj in ((i, j), (i, j + 1), (i + 1, j)))
                if not ok:
                    continue
                f = lambda ii, jj: positions[t, ii, jj] - positions[t - 1, ii, jj]
                dx_u = (f(i, j + 1)[0] - f(i, j)[0]) / s
                dx_v = (f(i, j + 1)[1] - f(i, j)[1]) / s
                dy_u = (f(i + 1, j)[0] - f(i, j)[0]) / s
                dy_v = (f(i + 1, j)[1] - f(i, j)[1]) / s
                div = (dx_u + dy_v) / s
                curl = (dx_v - dy_u) / s
                vals.append(div ** 2 + curl ** 2)
        if vals:
            any_cell = True
            total += sum(vals) / len(vals)
    if not any_cell:
        raise ValueError("no valid cell")
    return total / (t_n - 1)


def vepe_brute(pred, gt, vis):
    num, den = 0.0, 0
    flatp = pred.reshape(-1, 2)
    flatg = gt.reshape(-1, 2)
    flatv = vis.reshape(-1)
    for k in range(flatp.shape[0]):
        if flatv[k]:
            num += np.hypot(*(flatp[k] - flatg[k]))
            den += 1
    return num / den


def explained_brute(values, vis):
    t_n, n = values.shape
    mus, sig2s = [], []
    for cell in range(n):
        sel = vis[:, cell] > 0
        if not sel.any():
            continue
        mu = values[sel, cell].mean()
        mus.append(mu)
        sig2s.append(((values[sel, cell] - mu) ** 2).mean())
    mus = np.array(mus)
    between = ((mus - mus.mean()) ** 2).mean()
    within = np.mean(sig2s)
    return 100.0 * between / (between + within)


def _hidden_frames_case(seed, h, w):
    """33 frames of random positions on an h x w grid, about a quarter of the
    points hidden, and frames 9-11 and 20 hidden whole between visible ones."""
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(33, h, w, 2)) * 10
    vis = (rng.random((33, h, w)) > 0.25).astype(np.uint8)
    vis[[9, 10, 11, 20]] = 0
    return p, vis


def _grid_positions(h=4, w=4, s=32.0):
    xs = np.arange(w) * s
    ys = np.arange(h) * s
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx, gy], axis=-1).astype(np.float64)


class TestFlowFromPositions:
    def test_static_zero(self):
        p = np.broadcast_to(_grid_positions(), (5, 4, 4, 2)).copy()
        flow, valid = flow_from_positions(p, np.ones((5, 4, 4)))
        assert np.all(flow == 0.0)
        assert valid.all()

    def test_linear_motion_constant(self):
        base = _grid_positions()
        p = np.stack([base + t * np.array([2.0, 0.0]) for t in range(4)])
        flow, _ = flow_from_positions(p, np.ones((4, 4, 4)))
        assert np.all(flow[..., 0] == 2.0)
        assert np.all(flow[..., 1] == 0.0)

    def test_visibility_hole_invalidates_both_adjacent_flows(self):
        p = np.zeros((4, 2, 2, 2))
        vis = np.ones((4, 2, 2))
        vis[2, 0, 1] = 0
        _, valid = flow_from_positions(p, vis)
        assert not valid[1, 0, 1]  # flow into frame 2
        assert not valid[2, 0, 1]  # flow out of frame 2
        assert valid[0, 0, 1]

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError):
            flow_from_positions(np.zeros((1, 2, 2, 2)), np.ones((1, 2, 2)))


class TestFlowTV:
    def test_uniform_translation_zero(self):
        base = _grid_positions()
        p = np.stack([base + t * np.array([3.0, -1.0]) for t in range(5)])
        assert flow_tv(p, np.ones((5, 4, 4)), 32.0) == 0.0

    def test_shear_closed_form(self):
        base = _grid_positions(4, 4, 32.0)
        u = 0.1 * base[..., 0]
        p = np.stack([base + t * np.stack([u, np.zeros_like(u)], axis=-1) for t in range(4)])
        assert flow_tv(p, np.ones((4, 4, 4)), 32.0) == pytest.approx(0.1, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(4, 5, 6, 2)) * 10
        vis = (rng.random((4, 5, 6)) > 0.25).astype(np.uint8)
        try:
            got = flow_tv(p, vis, 32.0)
        except ValueError:
            with pytest.raises(ValueError):
                flow_tv_brute(p, vis, 32.0)
            return
        assert got == pytest.approx(flow_tv_brute(p, vis, 32.0), abs=1e-9)

    @pytest.mark.parametrize("grid", [(5, 6), (1, 9), (9, 1)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_over_hidden_frames(self, seed, grid):
        p, vis = _hidden_frames_case(seed, *grid)
        assert flow_tv(p, vis, 4.0) == pytest.approx(flow_tv_brute(p, vis, 4.0), rel=1e-12)

    def test_constant_displacement_invariance(self):
        rng = np.random.default_rng(99)
        p = rng.normal(size=(4, 4, 4, 2)) * 5
        vis = np.ones((4, 4, 4))
        shifted = p + np.array([11.0, -4.0])
        assert flow_tv(p, vis, 32.0) == pytest.approx(flow_tv(shifted, vis, 32.0), abs=1e-12)


class TestDivCurlEnergy:
    def test_uniform_translation_zero(self):
        base = _grid_positions()
        p = np.stack([base + t * np.array([3.0, 2.0]) for t in range(5)])
        assert div_curl_energy(p, np.ones((5, 4, 4)), 32.0) == 0.0

    def test_rigid_rotation_closed_form(self):
        omega, s = 0.32, 32.0
        base = _grid_positions(4, 4, s)
        c = base.mean(axis=(0, 1))
        u = -omega * (base[..., 1] - c[1])
        v = omega * (base[..., 0] - c[0])
        p = np.stack([base + t * np.stack([u, v], axis=-1) for t in range(4)])
        val = div_curl_energy(p, np.ones((4, 4, 4)), s)
        assert val == pytest.approx(4e-4, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed + 100)
        p = rng.normal(size=(4, 5, 6, 2)) * 10
        vis = (rng.random((4, 5, 6)) > 0.2).astype(np.uint8)
        try:
            got = div_curl_energy(p, vis, 32.0)
        except ValueError:
            with pytest.raises(ValueError):
                div_curl_brute(p, vis, 32.0)
            return
        assert got == pytest.approx(div_curl_brute(p, vis, 32.0), abs=1e-9)

    @pytest.mark.parametrize("grid", [(5, 6), (2, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_over_hidden_frames(self, seed, grid):
        p, vis = _hidden_frames_case(seed + 10, *grid)
        assert div_curl_energy(p, vis, 4.0) == pytest.approx(div_curl_brute(p, vis, 4.0),
                                                             rel=1e-12)

    def test_single_spacing_variant_scales(self):
        rng = np.random.default_rng(7)
        p = rng.normal(size=(3, 4, 4, 2)) * 5
        vis = np.ones((3, 4, 4))
        double = div_curl_energy(p, vis, 32.0)
        single = div_curl_energy(p, vis, 32.0, single_spacing=True)
        assert single == pytest.approx(double * 32.0 ** 2, rel=1e-12)


@pytest.mark.parametrize("metric", [flow_tv, div_curl_energy])
def test_a_non_finite_hidden_position_changes_nothing(metric):
    p, vis = _hidden_frames_case(30, 5, 6)
    hidden = p.copy()
    hidden[vis == 0] = np.nan
    hidden[0][vis[0] == 0] = np.inf
    with np.errstate(invalid="ignore"):  # the flow of a hidden inf or NaN may be inf - inf
        assert metric(hidden, vis, 4.0) == metric(p, vis, 4.0)


class TestVepe:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_norm_of_the_last_axis(self, seed):
        rng = np.random.default_rng(seed + 500)
        shape = tuple(rng.integers(1, 20, size=3))
        a = rng.normal(size=(*shape, 2)) * 10.0 ** (seed - 3)
        b = a + rng.normal(size=a.shape) * 10.0 ** -seed
        vis = (rng.random(shape) > 0.3).astype(np.uint8)
        vis[0, 0, 0] = 1
        assert vepe(a, b, vis) == ref.vepe(a, b, vis)

    def test_exact_zero(self):
        p = np.zeros((3, 2, 2, 2))
        assert vepe(p, p.copy(), np.ones((3, 2, 2))) == 0.0

    def test_pythagorean_constant(self):
        gt = np.zeros((2, 3, 3, 2))
        pred = gt + np.array([3.0, 4.0])
        assert vepe(pred, gt, np.ones((2, 3, 3))) == pytest.approx(5.0, abs=1e-12)

    def test_invisible_points_excluded(self):
        gt = np.zeros((1, 1, 2, 2))
        pred = gt.copy()
        pred[0, 0, 0] = [3.0, 0.0]
        pred[0, 0, 1] = [100.0, 0.0]
        vis = np.array([[[1, 0]]])
        assert vepe(pred, gt, vis) == pytest.approx(3.0)

    def test_no_visible_raises(self):
        with pytest.raises(ValueError):
            vepe(np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 2)))

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 4, 4, 2))
        b = rng.normal(size=(3, 4, 4, 2))
        vis = (rng.random((3, 4, 4)) > 0.3).astype(np.uint8)
        assert vepe(a, b, vis) == vepe(b, a, vis)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed + 200)
        a = rng.normal(size=(3, 4, 5, 2)) * 8
        b = rng.normal(size=(3, 4, 5, 2)) * 8
        vis = (rng.random((3, 4, 5)) > 0.3).astype(np.uint8)
        if not vis.any():
            return
        assert vepe(a, b, vis) == pytest.approx(vepe_brute(a, b, vis), abs=1e-9)


class TestExplainedVariance:
    def test_static_distinct_cells_is_100(self):
        values = np.broadcast_to(np.arange(5.0), (4, 5)).copy()
        assert explained_variance(values[..., None], np.ones((4, 5))) == pytest.approx(100.0)

    def test_identical_series_everywhere_is_0(self):
        series = np.sin(np.arange(6.0))
        values = np.tile(series[:, None], (1, 4))
        assert explained_variance(values[..., None], np.ones((6, 4))) == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed + 300)
        values = rng.normal(size=(6, 8)) + rng.normal(size=(1, 8)) * 2
        vis = (rng.random((6, 8)) > 0.2).astype(np.float64)
        if (vis.sum(axis=0) > 0).sum() < 2:
            return
        got = explained_variance(values[..., None], vis)
        assert got == pytest.approx(explained_brute(values, vis), abs=1e-9)

    def test_invisible_perturbation_invariance(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(5, 6))
        vis = (rng.random((5, 6)) > 0.4).astype(np.float64)
        vis[:, 0] = 1
        tweaked = values.copy()
        tweaked[vis == 0] += 1e6
        assert explained_variance(values[..., None], vis) == pytest.approx(
            explained_variance(tweaked[..., None], vis), rel=1e-12)

    def test_per_axis_output(self):
        rng = np.random.default_rng(14)
        values = rng.normal(size=(5, 6, 2))
        out = explained_variance(values, np.ones((5, 6)))
        assert out.shape == (2,)

    def test_all_invisible_raises(self):
        with pytest.raises(ValueError):
            explained_variance(np.zeros((3, 4))[..., None], np.zeros((3, 4)))


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: flow_tv(np.zeros((2, 1, 1, 2)), np.ones((2, 1, 1)), 8),
                 "flow_tv needs a grid of at least 2 cells in one direction", id="flow_tv-grid"),
    pytest.param(lambda: flow_tv(np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2)), 8),
                 "flow_tv: no valid neighbor pair at any frame", id="flow_tv-no-pair"),
    pytest.param(lambda: div_curl_energy(np.zeros((2, 1, 2, 2)), np.ones((2, 1, 2)), 8),
                 "div_curl_energy needs a grid of at least 2x2 cells", id="div_curl-grid"),
    pytest.param(lambda: div_curl_energy(np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2)), 8),
                 "div_curl_energy: no valid cell at any frame", id="div_curl-no-cell"),
    pytest.param(lambda: vepe(np.zeros((2, 2)), np.zeros((3, 2)), np.ones(2)),
                 "vepe: shape mismatch (2, 2) vs (3, 2) vs (2,)", id="vepe-shapes"),
    pytest.param(lambda: explained_variance(np.zeros((2, 3)), np.ones((2, 3))),
                 "explained_variance: values (2, 3) must be (T, N, A) and visibility (2, 3) "
                 "their (T, N)", id="explained_variance-shapes"),
])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
