import numpy as np
import pytest

from pointseg import (
    ClassScoreMap,
    I2SConfig,
    LabelGrid,
    PipelineError,
    build_affinity_targets,
    generate_scene,
    refresh_semantic,
)
from pointseg.loop import _pair_logits
from pointseg.losses import sigmoid, softmax_rows


def grid(rows):
    return LabelGrid(np.array(rows, dtype=np.int32))


# ---------------------------------------------------------------- dense oracle
# The refresh as one H*W x H*W matrix product: exact, and small grids only.


def dense_affinity(instances):
    """Binary same-instance affinity of every pixel pair, unit diagonal."""
    flat = instances.data.ravel()
    aff = ((flat[:, None] == flat[None, :]) & (flat[:, None] > 0)).astype(np.float64)
    np.fill_diagonal(aff, 1.0)
    return aff


def dense_refresh(aff, class_map, beta):
    """Row-normalised aff**beta applied to the class scores."""
    h, w, ch = class_map.data.shape
    powered = aff**beta
    out = (powered @ class_map.data.reshape(h * w, ch)) / powered.sum(axis=1)[:, None]
    return out.reshape(h, w, ch)


def windowed(aff, shape):
    """A dense pixel-pair matrix as the window callable refresh_semantic takes."""
    index = np.arange(aff.shape[0]).reshape(shape)
    return lambda win_i, win_j: aff[index[win_i].ravel(), index[win_j].ravel()]


def same_instance(lab):
    """The binary same-instance affinity of a label array as a window callable."""

    def affinity(win_i, win_j):
        li = lab[win_i]
        return ((li == lab[win_j]) & (li > 0)).astype(np.float64).ravel()

    return affinity


def no_affinity(win_i, win_j):
    """Zero affinity between distinct pixels: the identity operator."""
    ys, xs = win_i
    return np.zeros((ys.stop - ys.start) * (xs.stop - xs.start))


# ------------------------------------------------------- materialising oracle
# The pair sampler as it was written first: list every candidate pair, then
# draw from the positive and the negative index lists.


def materialising_affinity_targets(instances, cfg, seed=0):
    """Every non-background pair within cfg.pair_radius, one per unordered
    pair, in (half-plane offset, raster) order; then a balanced draw. The
    ends are listed as (y, x) and returned as flat raster indices."""
    lab = instances.data
    h, w = lab.shape
    all_a, all_b, all_t = [], [], []
    for dy in range(cfg.pair_radius + 1):
        for dx in range(-cfg.pair_radius, cfg.pair_radius + 1):
            if (dy == 0 and dx <= 0) or dy >= h or abs(dx) >= w:
                continue
            la = lab[: h - dy, max(0, -dx) : w - max(0, dx)]
            lb = lab[dy:, max(0, dx) : w + min(0, dx)]
            keep = (la > 0) | (lb > 0)
            ayx = np.argwhere(keep)
            ayx[:, 1] += max(0, -dx)
            all_a.append(ayx)
            all_b.append(ayx + np.array([dy, dx]))
            all_t.append(((la == lb) & (la > 0))[keep])
    t = np.concatenate(all_t) if all_t else np.empty(0, dtype=bool)
    if not t.size:
        raise PipelineError("no affinity pairs")
    a = np.concatenate(all_a).astype(np.int32)
    b = np.concatenate(all_b).astype(np.int32)
    rng = np.random.default_rng(seed)
    pos_idx = np.flatnonzero(t)
    neg_idx = np.flatnonzero(~t)
    n_pos = min(len(pos_idx), (cfg.max_pairs + 1) // 2)
    n_neg = min(len(neg_idx), cfg.max_pairs - n_pos)
    n_pos = min(len(pos_idx), cfg.max_pairs - n_neg)
    chosen = np.concatenate([
        rng.choice(pos_idx, n_pos, replace=False) if n_pos else np.empty(0, dtype=np.int64),
        rng.choice(neg_idx, n_neg, replace=False) if n_neg else np.empty(0, dtype=np.int64),
    ])
    chosen.sort()
    a, b = (ends[chosen, 0].astype(np.int64) * w + ends[chosen, 1] for ends in (a, b))
    return a, b, t[chosen].astype(np.float64)


def _oracle_maps():
    """Instance maps for the sampler oracle, by name."""
    rng = np.random.default_rng(23)
    one_pair = np.zeros((5, 7), dtype=np.int32)
    one_pair[2, 3:5] = 1
    return {
        "scene_64": generate_scene(3, 64, 64, 4, 3).gt_instances.data,
        "scene_32": generate_scene(8, 32, 32, 3, 2).gt_instances.data,
        "noise": rng.integers(0, 4, size=(17, 23)).astype(np.int32),
        "sparse": (rng.integers(1, 3, size=(20, 9)) * (rng.random((20, 9)) < 0.1)).astype(np.int32),
        "one_instance": np.ones((6, 6), dtype=np.int32),
        "one_pair": one_pair,
        "row": np.array([[0, 1, 1, 2, 0, 2, 2]], dtype=np.int32),
        "column": np.array([[1], [1], [0], [2]], dtype=np.int32),
    }


class TestAffinityTargetsOracle:
    """build_affinity_targets draws the same pairs as the materialising
    sampler: same stream, same order, same dtypes."""

    @staticmethod
    def _assert_same(inst, cfg, seed):
        got = build_affinity_targets(LabelGrid(inst), cfg, seed=seed)
        want = materialising_affinity_targets(LabelGrid(inst), cfg, seed=seed)
        for name, expected in zip(("a", "b", "targets"), want):
            value = getattr(got, name)
            assert value.dtype == expected.dtype, name
            assert np.array_equal(value, expected), name

    @pytest.mark.parametrize("name", sorted(_oracle_maps()))
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_default_config(self, name, seed):
        self._assert_same(_oracle_maps()[name], I2SConfig(), seed)

    @pytest.mark.parametrize("radius", [1, 2, 5, 16, 31, 40, 100])
    def test_radius_up_to_past_the_grid(self, radius):
        maps = _oracle_maps()
        for name in ("scene_32", "noise", "row", "column"):
            self._assert_same(maps[name], I2SConfig(pair_radius=radius, max_pairs=300), radius)

    @pytest.mark.parametrize("max_pairs", [2, 3, 7, 64, 4096, 10**6])
    def test_max_pairs_up_to_past_the_supply(self, max_pairs):
        # one_pair has one positive; one_instance has no negatives; at 10**6
        # both sides of every map run out
        for name, inst in _oracle_maps().items():
            self._assert_same(inst, I2SConfig(pair_radius=3, max_pairs=max_pairs), 5)

    def test_both_raise_no_affinity_pairs(self):
        # all background, and a lone foreground pixel that spans no offset
        for inst in (np.zeros((4, 5), dtype=np.int32), np.ones((1, 1), dtype=np.int32)):
            for sampler in (build_affinity_targets, materialising_affinity_targets):
                with pytest.raises(PipelineError, match="no affinity pairs"):
                    sampler(LabelGrid(inst), I2SConfig())


class TestBuildAffinityTargets:
    def test_same_instance_pair_is_positive(self):
        g = grid([[1, 1]])
        s = build_affinity_targets(g, I2SConfig(pair_radius=1, max_pairs=16))
        assert len(s) == 1
        assert s.targets[0] == 1.0

    def test_cross_instance_pair_is_negative(self):
        g = grid([[1, 2]])
        s = build_affinity_targets(g, I2SConfig(pair_radius=1, max_pairs=16))
        assert s.targets[0] == 0.0

    def test_instance_background_pair_is_negative(self):
        g = grid([[1, 0]])
        s = build_affinity_targets(g, I2SConfig(pair_radius=1, max_pairs=16))
        assert s.targets[0] == 0.0

    def test_background_pairs_excluded(self):
        g = grid([[0, 0, 1]])
        s = build_affinity_targets(g, I2SConfig(pair_radius=2, max_pairs=64))
        flat = g.data.ravel()
        # the only pairs involve the foreground pixel
        for q in range(len(s)):
            assert flat[s.a[q]] > 0 or flat[s.b[q]] > 0
        assert len(s) == 2  # (0,1)-(0,2) and (0,0)-(0,2)

    def test_all_background_errors(self):
        with pytest.raises(PipelineError, match="no affinity pairs"):
            build_affinity_targets(grid([[0, 0], [0, 0]]), I2SConfig())

    def test_radius_respected(self):
        g = LabelGrid(np.ones((10, 10), dtype=np.int32))
        s = build_affinity_targets(g, I2SConfig(pair_radius=3, max_pairs=4096))
        (ya, xa), (yb, xb) = np.divmod(s.a, 10), np.divmod(s.b, 10)
        cheb = np.maximum(np.abs(ya - yb), np.abs(xa - xb))
        assert cheb.max() <= 3
        assert (cheb >= 1).all()

    def test_balance_within_one(self):
        g = grid([[1, 1, 1, 1, 0, 2, 2, 2, 2]])
        s = build_affinity_targets(g, I2SConfig(pair_radius=4, max_pairs=20))
        n_pos = int((s.targets > 0.5).sum())
        assert abs(n_pos - (len(s) - n_pos)) <= 1

    def test_balance_exhausted_side_backfills(self):
        # a 2-pixel instance: one positive pair, three eligible negatives;
        # with the positives exhausted the negatives fill the remaining quota
        g = grid([[1, 1] + [0] * 10])
        s = build_affinity_targets(g, I2SConfig(pair_radius=2, max_pairs=8))
        assert int((s.targets > 0.5).sum()) == 1
        assert int((s.targets < 0.5).sum()) == 3

    def test_deterministic_per_seed(self):
        g = LabelGrid((np.arange(64).reshape(8, 8) % 3).astype(np.int32))
        a = build_affinity_targets(g, I2SConfig(max_pairs=64), seed=9)
        b = build_affinity_targets(g, I2SConfig(max_pairs=64), seed=9)
        assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)
        c = build_affinity_targets(g, I2SConfig(max_pairs=64), seed=10)
        assert not (np.array_equal(a.a, c.a) and np.array_equal(a.b, c.b))

    def test_targets_agree_with_dense_matrix(self):
        rng = np.random.default_rng(17)
        g = LabelGrid(rng.integers(0, 4, size=(12, 12)).astype(np.int32))
        s = build_affinity_targets(g, I2SConfig(pair_radius=4, max_pairs=256), seed=3)
        dense = dense_affinity(g)
        for q in range(len(s)):
            assert s.targets[q] == dense[s.a[q], s.b[q]]


class TestDenseAffinity:
    def test_single_instance_all_ones(self):
        assert (dense_affinity(grid([[1, 1]])) == 1.0).all()

    def test_distinct_instances_identity(self):
        assert np.array_equal(dense_affinity(grid([[1, 2]])), np.eye(2))

    def test_background_identity_diagonal(self):
        assert np.array_equal(dense_affinity(grid([[1, 0]])), np.eye(2))


class TestRefreshSemantic:
    def test_identity_affinity_returns_input(self):
        rng = np.random.default_rng(1)
        cmap = ClassScoreMap(rng.standard_normal((3, 3, 4)))
        out = refresh_semantic(no_affinity, cmap, I2SConfig(beta=3.0))
        assert np.allclose(out.data, cmap.data)

    def test_binary_affinity_averages_within_instance(self):
        inst = grid([[1, 1]])
        cmap = ClassScoreMap(np.array([[[0.6, 0.4], [0.2, 0.8]]]))
        aff = windowed(dense_affinity(inst), inst.shape)
        out = refresh_semantic(aff, cmap, I2SConfig(beta=2.0))
        assert np.allclose(out.data[0, 0], [0.4, 0.6])
        assert np.allclose(out.data[0, 1], [0.4, 0.6])

    def test_row_mass_preserved_for_probability_rows(self):
        rng = np.random.default_rng(2)
        probs = rng.random((4, 4, 3))
        probs /= probs.sum(axis=2, keepdims=True)
        inst = LabelGrid(rng.integers(0, 3, size=(4, 4)).astype(np.int32))
        aff = windowed(dense_affinity(inst), inst.shape)
        out = refresh_semantic(aff, ClassScoreMap(probs), I2SConfig())
        assert np.allclose(out.data.sum(axis=2), 1.0, atol=1e-6)

    def test_argmax_invariant_under_identity(self):
        rng = np.random.default_rng(3)
        cmap = ClassScoreMap(rng.standard_normal((5, 5, 4)))
        out = refresh_semantic(no_affinity, cmap, I2SConfig())
        assert np.array_equal(out.argmax_grid().data, cmap.argmax_grid().data)

    def test_gt_affinity_gives_constant_argmax_within_instances(self):
        # Radius 15 reaches every pixel pair of the 16x16 grid.
        for seed in range(40, 50):
            sc = generate_scene(seed, 16, 16, 2, 2)
            rng = np.random.default_rng(seed)
            cmap = ClassScoreMap(rng.standard_normal((16, 16, 3)))
            aff = windowed(dense_affinity(sc.gt_instances), (16, 16))
            out = refresh_semantic(aff, cmap, I2SConfig(pair_radius=15))
            labels = out.argmax_grid().data
            for inst in sc.gt_instances.ids():
                vals = labels[sc.gt_instances.data == inst]
                assert (vals == vals[0]).all()

    def test_beta_sharpens_diagonal_weight(self):
        # For soft affinities in (0,1), raising beta increases the diagonal's
        # normalized weight; checked through the operator output by mixing a
        # delta class map.
        rng = np.random.default_rng(5)
        n = 16
        soft = rng.uniform(0.05, 0.95, size=(n, n))
        aff = windowed((soft + soft.T) / 2.0, (4, 4))
        delta = np.zeros((4, 4, 2))
        delta[1, 1, 1] = 1.0  # pixel 5 carries a unit mass in channel 1
        prev = None
        for beta in (1.0, 2.0, 4.0, 8.0):
            out = refresh_semantic(aff, ClassScoreMap(delta), I2SConfig(beta=beta))
            weight_self = out.data[1, 1, 1]
            if prev is not None:
                assert weight_self > prev
            prev = weight_self

    def test_callable_path_matches_dense_on_small_grid(self):
        rng = np.random.default_rng(6)
        inst = LabelGrid(rng.integers(0, 3, size=(6, 6)).astype(np.int32))
        cmap = ClassScoreMap(rng.standard_normal((6, 6, 3)))
        dense = dense_affinity(inst)
        # radius >= grid diameter makes the neighborhood path exhaustive
        out = refresh_semantic(windowed(dense, (6, 6)), cmap, I2SConfig(beta=2.0, pair_radius=6))
        assert np.allclose(out.data, dense_refresh(dense, cmap, 2.0), atol=1e-12)

    def test_callable_path_limited_to_radius(self):
        # With radius 1, a pixel two steps away must not influence the output.
        inst = grid([[1, 1, 1]])
        cmap = ClassScoreMap(np.array([[[1.0], [0.0], [0.0]]]))
        out = refresh_semantic(
            lambda win_i, win_j: np.ones(inst.data[win_i].size),
            cmap,
            I2SConfig(beta=1.0, pair_radius=1),
        )
        assert out.data[0, 2, 0] == 0.0
        assert out.data[0, 1, 0] > 0.0


class TestCallableContract:
    """The refresh calls a (symmetric) callable once per unordered offset
    that some pixel pair of the grid spans, in half-plane order."""

    @pytest.mark.parametrize("shape,radius", [
        ((13, 9), 1), ((13, 9), 3), ((13, 9), 12), ((13, 9), 20), ((1, 6), 4), ((5, 1), 8),
    ])
    def test_one_call_per_unordered_in_grid_offset(self, shape, radius):
        h, w = shape
        seen = []

        def affinity(win_i, win_j):
            (yi, xi), (yj, xj) = win_i, win_j
            seen.append((yj.start - yi.start, xj.start - xi.start))
            return np.full((yi.stop - yi.start) * (xi.stop - xi.start), 0.5)

        cmap = ClassScoreMap(np.random.default_rng(0).random((h, w, 3)))
        refresh_semantic(affinity, cmap, I2SConfig(pair_radius=radius))
        want = [(dy, dx) for dy, dx in half_plane(radius) if dy < h and abs(dx) < w]
        assert seen == want
        spanned = {(dy, dx) for dy in range(-h + 1, h) for dx in range(-w + 1, w)
                   if max(abs(dy), abs(dx)) <= radius} - {(0, 0)}
        assert len(seen) == len(spanned) // 2
        assert {(-dy, -dx) for dy, dx in seen} | set(seen) == spanned


class TestI2SConfig:
    def test_validation(self):
        with pytest.raises(PipelineError):
            I2SConfig(beta=0.5)
        with pytest.raises(PipelineError):
            I2SConfig(max_pairs=1)
        with pytest.raises(PipelineError):
            I2SConfig(pair_radius=0)
        for beta in (float("nan"), float("inf")):
            with pytest.raises(PipelineError, match="finite"):
                I2SConfig(beta=beta)


class TestRadiusPastGrid:
    # On a 32x32 grid no pixel pair is 32 or more steps apart, so radius 40
    # must behave exactly as radius 31.
    def test_affinity_targets_match_largest_fitting_radius(self):
        inst = generate_scene(8, 32, 32, 3, 2).gt_instances
        wide = build_affinity_targets(inst, I2SConfig(pair_radius=40, max_pairs=512), seed=4)
        fit = build_affinity_targets(inst, I2SConfig(pair_radius=31, max_pairs=512), seed=4)
        assert np.array_equal(wide.a, fit.a)
        assert np.array_equal(wide.b, fit.b)
        assert np.array_equal(wide.targets, fit.targets)

    def test_refresh_matches_largest_fitting_radius(self):
        inst = generate_scene(8, 32, 32, 3, 2).gt_instances
        cmap = ClassScoreMap(np.random.default_rng(3).random((32, 32, 3)))
        for affinity in (same_instance(inst.data), inst):
            wide = refresh_semantic(affinity, cmap, I2SConfig(pair_radius=40))
            fit = refresh_semantic(affinity, cmap, I2SConfig(pair_radius=31))
            assert np.array_equal(wide.data, fit.data)


def _label_cases():
    """(instance grid, pair radius) pairs that cover the instance path's edges."""
    rng = np.random.default_rng(31)
    borders = np.zeros((9, 11), dtype=np.int32)
    borders[0, 1:] = 1
    borders[1:, -1] = 2
    borders[-1, :-1] = 3
    borders[:-1, 0] = 4
    borders[3:6, 4:7] = 5
    pieces = np.zeros((12, 12), dtype=np.int32)
    pieces[1:4, 1:4] = 6  # one id in two disconnected pieces
    pieces[8:11, 7:11] = 6
    pieces[5:7, 5:7] = 2
    single = np.zeros((6, 6), dtype=np.int32)
    single[3, 2] = 7
    return {
        "1x1-instance": (np.ones((1, 1), dtype=np.int32), 1),
        "1x1-background": (np.zeros((1, 1), dtype=np.int32), 1),
        "7x5": (rng.integers(0, 4, size=(7, 5)), 2),
        "7x5-radius-past-grid": (rng.integers(0, 4, size=(7, 5)), 9),
        "borders": (borders, 3),
        "borders-radius-past-grid": (borders, 15),
        "two-pieces": (pieces, 4),
        "single-pixel": (single, 2),
        "all-background": (np.zeros((5, 8), dtype=np.int32), 2),
        "non-contiguous-ids": (rng.choice([0, 3, 40, 1000, 65535], size=(20, 17)), 3),
        "64x64": (generate_scene(12, 64, 64, 4, 3).gt_instances.data, 8),
        "256x256": (generate_scene(13, 256, 256, 5, 3).gt_instances.data, 8),
    }


LABEL_CASES = _label_cases()


class TestInstanceRefresh:
    """An instance LabelGrid as the affinity source: per-instance box sums
    that must reproduce the window path under the binary callable."""

    @pytest.fixture(params=sorted(LABEL_CASES))
    def case(self, request):
        lab, radius = LABEL_CASES[request.param]
        return LabelGrid(lab), radius

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_one_hot_byte_identical_to_window_path(self, case, beta):
        inst, radius = case
        rng = np.random.default_rng(radius)
        onehot = ClassScoreMap(np.eye(4)[rng.integers(0, 4, size=inst.shape)])
        cfg = I2SConfig(beta=beta, pair_radius=radius)
        window = refresh_semantic(same_instance(inst.data), onehot, cfg)
        boxed = refresh_semantic(inst, onehot, cfg)
        assert boxed.data.tobytes() == window.data.tobytes()

    def test_soft_map_within_1e12_of_window_path(self, case):
        inst, radius = case
        rng = np.random.default_rng(radius + 1)
        for scores in (softmax_rows(rng.standard_normal((*inst.shape, 4))),
                       rng.standard_normal((*inst.shape, 4))):
            cmap = ClassScoreMap(scores)
            cfg = I2SConfig(pair_radius=radius)
            window = refresh_semantic(same_instance(inst.data), cmap, cfg)
            boxed = refresh_semantic(inst, cmap, cfg)
            assert np.abs(boxed.data - window.data).max() <= 1e-12

    @pytest.mark.parametrize("beta", [1.0, 2.0, 5.0])
    def test_matches_dense_oracle(self, beta):
        # Radius 13 reaches every pixel pair of the 13x9 grid.
        rng = np.random.default_rng(7)
        inst = LabelGrid(rng.integers(0, 4, size=(13, 9)).astype(np.int32))
        cmap = ClassScoreMap(softmax_rows(rng.standard_normal((13, 9, 3))))
        out = refresh_semantic(inst, cmap, I2SConfig(beta=beta, pair_radius=13))
        want = dense_refresh(dense_affinity(inst), cmap, beta)
        assert np.allclose(out.data, want, rtol=0, atol=1e-12)

    def test_background_rows_kept(self):
        lab, radius = LABEL_CASES["two-pieces"]
        cmap = ClassScoreMap(np.random.default_rng(8).standard_normal((*lab.shape, 3)))
        out = refresh_semantic(LabelGrid(lab), cmap, I2SConfig(pair_radius=radius))
        assert np.array_equal(out.data[lab == 0], cmap.data[lab == 0])

    def test_beta_cannot_change_output(self):
        lab, radius = LABEL_CASES["non-contiguous-ids"]
        cmap = ClassScoreMap(np.random.default_rng(9).random((*lab.shape, 3)))
        outs = [
            refresh_semantic(LabelGrid(lab), cmap, I2SConfig(beta=b, pair_radius=radius))
            for b in (1.0, 5.0)
        ]
        assert outs[0].data.tobytes() == outs[1].data.tobytes()

    def test_grid_mismatch_rejected(self):
        cmap = ClassScoreMap(np.zeros((4, 5, 2)))
        with pytest.raises(PipelineError, match="disagree"):
            refresh_semantic(LabelGrid(np.ones((5, 4), dtype=np.int32)), cmap, I2SConfig())


def half_plane(radius):
    """Each unordered offset within Chebyshev radius once: dy > 0, or dy == 0
    and dx > 0, rows first."""
    return [(dy, dx) for dy in range(radius + 1) for dx in range(-radius, radius + 1)
            if dy > 0 or dx > 0]


def flat_index_refresh(affinity, class_map, cfg):
    """The refresh as a flat-index gather and scatter per offset: the oracle.

    affinity(i_idx, j_idx) takes flat pixel indices and must be symmetric.
    It is called once per unordered offset, in half-plane order, and each
    offset adds at the i side and then at the j side, the order
    refresh_semantic keeps, so the two must agree bit for bit.
    """
    h, w, ch = class_map.data.shape
    n = h * w
    flat_c = class_map.data.reshape(n, ch)
    acc = flat_c.copy()
    wsum = np.ones(n, dtype=np.float64)
    grid_idx = np.arange(n, dtype=np.int64).reshape(h, w)
    for dy, dx in half_plane(cfg.pair_radius):
        if dy >= h or abs(dx) >= w:
            continue
        i_idx = grid_idx[: h - dy, max(0, -dx) : w - max(0, dx)].ravel()
        j_idx = i_idx + dy * w + dx
        vals = np.asarray(affinity(i_idx, j_idx), dtype=np.float64) ** cfg.beta
        for to, frm in ((i_idx, j_idx), (j_idx, i_idx)):
            acc[to] += vals[:, None] * flat_c[frm]
            wsum[to] += vals
    return acc / wsum[:, None]


class TestWindowRefreshMatchesFlatIndexOracle:
    # 13x9 so that rows and columns differ; radius 20 lies past the grid.
    H, W = 13, 9

    def _probs(self, rng, ch=4):
        return ClassScoreMap(
            softmax_rows(rng.standard_normal((self.H, self.W, ch)))
        )

    @pytest.mark.parametrize("radius", [1, 3, 20])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_binary_affinity(self, radius, beta):
        rng = np.random.default_rng(radius)
        lab = rng.integers(0, 4, size=(self.H, self.W)).astype(np.int32)
        flat = lab.ravel()

        def by_index(i_idx, j_idx):
            return ((flat[i_idx] == flat[j_idx]) & (flat[i_idx] > 0)).astype(np.float64)

        cmap = self._probs(rng)
        cfg = I2SConfig(beta=beta, pair_radius=radius)
        out = refresh_semantic(same_instance(lab), cmap, cfg)
        assert np.array_equal(out.data.reshape(-1, 4), flat_index_refresh(by_index, cmap, cfg))

    @pytest.mark.parametrize("radius", [1, 3, 20])
    def test_sigmoid_embedding_affinity(self, radius):
        rng = np.random.default_rng(100 + radius)
        emb = rng.standard_normal((8, self.H, self.W))  # channel-first planes
        emb_flat = emb.reshape(8, -1)

        def by_index(i_idx, j_idx):
            return sigmoid(_pair_logits(emb_flat.take(i_idx, axis=1),
                                        emb_flat.take(j_idx, axis=1)))

        def by_window(win_i, win_j):
            return sigmoid(_pair_logits(emb[(slice(None), *win_i)],
                                        emb[(slice(None), *win_j)]).ravel())

        cmap = self._probs(rng)
        cfg = I2SConfig(pair_radius=radius)
        out = refresh_semantic(by_window, cmap, cfg)
        assert np.array_equal(out.data.reshape(-1, 4), flat_index_refresh(by_index, cmap, cfg))


def window_refresh(affinity, class_map, cfg):
    """The callable refresh as a loop over 3-D strided windows, one add per
    side of each offset: the oracle. It visits the offsets in half-plane
    order and adds at the i side and then at the j side, as refresh_semantic
    does, so the two must agree bit for bit."""
    h, w, _ = class_map.data.shape
    planes = np.ascontiguousarray(class_map.data.transpose(2, 0, 1))
    acc = planes.copy()
    wsum = np.ones((h, w))
    for dy, dx in half_plane(cfg.pair_radius):
        if dy >= h or abs(dx) >= w:
            continue
        win_i = (slice(max(0, -dy), h - max(0, dy)), slice(max(0, -dx), w - max(0, dx)))
        win_j = (slice(max(0, dy), h + min(0, dy)), slice(max(0, dx), w + min(0, dx)))
        vals = np.asarray(affinity(win_i, win_j), dtype=np.float64) ** cfg.beta
        vals = vals.reshape(h - dy, w - abs(dx))
        for to, frm in ((win_i, win_j), (win_j, win_i)):
            acc[(slice(None), *to)] += vals * planes[(slice(None), *frm)]
            wsum[to] += vals
    return (acc / wsum).transpose(1, 2, 0)


class TestPaddedRasterRefreshMatchesWindowLoop:
    """The callable refresh works on zero-padded flat rasters; it must give
    the window loop's floats on every grid shape, radius and beta."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (13, 1), (37, 53), (8, 8)])
    @pytest.mark.parametrize("radius", [1, 3, 8, 60])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_sigmoid_embedding_affinity(self, shape, radius, beta):
        rng = np.random.default_rng(shape[0] * 100 + shape[1] + radius)
        emb = rng.standard_normal((8, *shape))

        def by_window(win_i, win_j):
            return sigmoid(_pair_logits(emb[(slice(None), *win_i)],
                                        emb[(slice(None), *win_j)]).ravel())

        cmap = ClassScoreMap(softmax_rows(rng.standard_normal((*shape, 4))))
        cfg = I2SConfig(beta=beta, pair_radius=radius)
        got = refresh_semantic(by_window, cmap, cfg).data
        want = window_refresh(by_window, cmap, cfg)
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("radius", [2, 40])
    def test_zero_affinity_and_signed_scores(self, radius):
        # Exact zeros among the values and scores of both signs: a pair whose
        # far end is off the grid must add nothing that shows.
        rng = np.random.default_rng(radius)
        lab = rng.integers(0, 3, size=(37, 53))

        def same(win_i, win_j):
            return ((lab[win_i] == lab[win_j]) & (lab[win_i] > 0)).astype(np.float64).ravel()

        cmap = ClassScoreMap(rng.standard_normal((37, 53, 3)))
        cfg = I2SConfig(pair_radius=radius)
        got = refresh_semantic(same, cmap, cfg).data
        assert got.tobytes() == np.ascontiguousarray(window_refresh(same, cmap, cfg)).tobytes()

    def test_negative_zero_scores_differ_from_the_window_loop_in_sign_alone(self):
        # An off-grid partner adds an exact +0, which turns a -0.0 sum into
        # +0.0; the window loop never touches such a pixel. Every value, and
        # every nonzero's bits, still match.
        rng = np.random.default_rng(11)
        data = rng.random((1, 9, 3))
        data[..., 0] = -0.0
        cmap = ClassScoreMap(data)
        cfg = I2SConfig(pair_radius=1)

        def same(win_i, win_j):  # one row: a window's size is its width
            return np.full(win_i[1].stop - win_i[1].start, 0.5)

        got = refresh_semantic(same, cmap, cfg).data
        want = np.ascontiguousarray(window_refresh(same, cmap, cfg))
        assert np.array_equal(got, want)
        assert got[want != 0].tobytes() == want[want != 0].tobytes()
        assert np.signbit(want[..., 0]).all()
        assert not np.signbit(got[0, -1, 0])  # its partner at (0, +1) is off the grid

    def test_more_pixels_than_one_chunk(self):
        # Wide enough that each side of an offset runs in several chunks.
        rng = np.random.default_rng(5)
        emb = rng.standard_normal((8, 97, 131))

        def by_window(win_i, win_j):
            return sigmoid(_pair_logits(emb[(slice(None), *win_i)],
                                        emb[(slice(None), *win_j)]).ravel())

        cmap = ClassScoreMap(softmax_rows(rng.standard_normal((97, 131, 4))))
        cfg = I2SConfig(pair_radius=4)
        got = refresh_semantic(by_window, cmap, cfg).data
        assert got.tobytes() == np.ascontiguousarray(window_refresh(by_window, cmap, cfg)).tobytes()
