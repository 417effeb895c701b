import numpy as np
import pytest

from pointseg import (
    ClassScoreMap,
    I2SConfig,
    LabelGrid,
    PipelineError,
    build_affinity_targets,
    dense_affinity_from_instances,
    generate_scene,
    refresh_semantic,
)
from pointseg.loop import _pair_logits
from pointseg.losses import sigmoid, softmax_rows


def grid(rows):
    return LabelGrid(np.array(rows, dtype=np.int32))


class TestBuildAffinityTargets:
    def test_same_instance_pair_is_positive(self):
        g = grid([[1, 1]])
        s = build_affinity_targets(g, I2SConfig(pair_radius=1, max_pairs=16, balance=False))
        assert len(s) == 1
        assert s.targets[0] == 1.0

    def test_cross_instance_pair_is_negative(self):
        g = grid([[1, 2]])
        s = build_affinity_targets(g, I2SConfig(pair_radius=1, max_pairs=16, balance=False))
        assert s.targets[0] == 0.0

    def test_instance_background_pair_is_negative(self):
        g = grid([[1, 0]])
        s = build_affinity_targets(g, I2SConfig(pair_radius=1, max_pairs=16, balance=False))
        assert s.targets[0] == 0.0

    def test_background_pairs_excluded(self):
        g = grid([[0, 0, 1]])
        s = build_affinity_targets(g, I2SConfig(pair_radius=2, max_pairs=64, balance=False))
        coords = np.concatenate([s.a, s.b])
        # the only pairs involve the foreground pixel
        for q in range(len(s)):
            assert g.data[s.a[q, 0], s.a[q, 1]] > 0 or g.data[s.b[q, 0], s.b[q, 1]] > 0
        assert len(s) == 2  # (0,1)-(0,2) and (0,0)-(0,2)

    def test_all_background_errors(self):
        with pytest.raises(PipelineError, match="no affinity pairs"):
            build_affinity_targets(grid([[0, 0], [0, 0]]), I2SConfig())

    def test_radius_respected(self):
        g = LabelGrid(np.ones((10, 10), dtype=np.int32))
        s = build_affinity_targets(g, I2SConfig(pair_radius=3, max_pairs=4096))
        cheb = np.abs(s.a - s.b).max(axis=1)
        assert cheb.max() <= 3
        assert (cheb >= 1).all()

    def test_balance_within_one(self):
        g = grid([[1, 1, 1, 1, 0, 2, 2, 2, 2]])
        s = build_affinity_targets(g, I2SConfig(pair_radius=4, max_pairs=20, balance=True))
        assert abs(s.n_pos - s.n_neg) <= 1

    def test_balance_exhausted_side_backfills(self):
        # a 2-pixel instance: one positive pair, three eligible negatives;
        # with the positives exhausted the negatives fill the remaining quota
        g = grid([[1, 1] + [0] * 10])
        s = build_affinity_targets(g, I2SConfig(pair_radius=2, max_pairs=8, balance=True))
        assert s.n_pos == 1
        assert s.n_neg == 3

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
        dense = dense_affinity_from_instances(g)
        w = 12
        for q in range(len(s)):
            i = s.a[q, 0] * w + s.a[q, 1]
            j = s.b[q, 0] * w + s.b[q, 1]
            assert s.targets[q] == dense[i, j]


class TestDenseAffinity:
    def test_single_instance_all_ones(self):
        assert (dense_affinity_from_instances(grid([[1, 1]])) == 1.0).all()

    def test_distinct_instances_identity(self):
        assert np.array_equal(dense_affinity_from_instances(grid([[1, 2]])), np.eye(2))

    def test_background_identity_diagonal(self):
        assert np.array_equal(dense_affinity_from_instances(grid([[1, 0]])), np.eye(2))

    def test_guard_on_large_grids(self):
        with pytest.raises(PipelineError, match="dense affinity guard"):
            dense_affinity_from_instances(LabelGrid(np.ones((65, 64), dtype=np.int32)))


class TestRefreshSemantic:
    def test_identity_affinity_returns_input(self):
        rng = np.random.default_rng(1)
        cmap = ClassScoreMap(rng.standard_normal((3, 3, 4)))
        out = refresh_semantic(np.eye(9), cmap, I2SConfig(beta=3.0))
        assert np.allclose(out.data, cmap.data)

    def test_binary_affinity_averages_within_instance(self):
        inst = grid([[1, 1]])
        cmap = ClassScoreMap(np.array([[[0.6, 0.4], [0.2, 0.8]]]))
        aff = dense_affinity_from_instances(inst)
        out = refresh_semantic(aff, cmap, I2SConfig(beta=2.0))
        assert np.allclose(out.data[0, 0], [0.4, 0.6])
        assert np.allclose(out.data[0, 1], [0.4, 0.6])

    def test_row_mass_preserved_for_probability_rows(self):
        rng = np.random.default_rng(2)
        probs = rng.random((4, 4, 3))
        probs /= probs.sum(axis=2, keepdims=True)
        inst = LabelGrid(rng.integers(0, 3, size=(4, 4)).astype(np.int32))
        aff = dense_affinity_from_instances(inst)
        out = refresh_semantic(aff, ClassScoreMap(probs), I2SConfig())
        assert np.allclose(out.data.sum(axis=2), 1.0, atol=1e-6)

    def test_argmax_invariant_under_identity(self):
        rng = np.random.default_rng(3)
        cmap = ClassScoreMap(rng.standard_normal((5, 5, 4)))
        out = refresh_semantic(np.eye(25), cmap, I2SConfig())
        assert np.array_equal(out.argmax_grid().data, cmap.argmax_grid().data)

    def test_gt_affinity_gives_constant_argmax_within_instances(self):
        for seed in range(40, 50):
            sc = generate_scene(seed, 16, 16, 2, 2)
            rng = np.random.default_rng(seed)
            cmap = ClassScoreMap(rng.standard_normal((16, 16, 3)))
            aff = dense_affinity_from_instances(sc.gt_instances)
            out = refresh_semantic(aff, cmap, I2SConfig())
            labels = out.argmax_grid().data
            for inst in sc.gt_instances.ids():
                vals = labels[sc.gt_instances.data == inst]
                assert (vals == vals[0]).all()

    def test_asymmetric_affinity_rejected(self):
        aff = np.eye(4)
        aff[0, 1] = 0.5
        cmap = ClassScoreMap(np.zeros((2, 2, 2)))
        with pytest.raises(PipelineError, match="affinity not symmetric"):
            refresh_semantic(aff, cmap, I2SConfig())

    def test_degenerate_row_copies_input(self):
        aff = np.eye(4)
        aff[2, 2] = 0.0  # this row sums to zero after the power
        rng = np.random.default_rng(4)
        cmap = ClassScoreMap(rng.standard_normal((2, 2, 3)))
        out = refresh_semantic(aff, cmap, I2SConfig())
        assert np.allclose(out.data.reshape(4, 3)[2], cmap.data.reshape(4, 3)[2])

    def test_beta_sharpens_diagonal_weight(self):
        # For soft affinities in (0,1), raising beta increases the diagonal's
        # normalized weight; checked through the operator output by mixing a
        # delta class map.
        rng = np.random.default_rng(5)
        n = 16
        soft = rng.uniform(0.05, 0.95, size=(n, n))
        aff = (soft + soft.T) / 2.0
        np.fill_diagonal(aff, 1.0)
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
        dense = dense_affinity_from_instances(inst)
        index = np.arange(36).reshape(6, 6)

        def fn(win_i, win_j):
            return dense[index[win_i].ravel(), index[win_j].ravel()]

        # radius >= grid diameter makes the neighborhood path exhaustive
        cfg = I2SConfig(beta=2.0, pair_radius=6)
        out_callable = refresh_semantic(fn, cmap, cfg)
        out_dense = refresh_semantic(dense, cmap, cfg)
        assert np.allclose(out_callable.data, out_dense.data, atol=1e-12)

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


class TestI2SConfig:
    def test_validation(self):
        with pytest.raises(PipelineError):
            I2SConfig(beta=0.5)
        with pytest.raises(PipelineError):
            I2SConfig(max_pairs=1)
        with pytest.raises(PipelineError):
            I2SConfig(pair_radius=0)


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
        lab = inst.data

        def same_instance(win_i, win_j):
            li = lab[win_i]
            return ((li == lab[win_j]) & (li > 0)).astype(np.float64).ravel()

        wide = refresh_semantic(same_instance, cmap, I2SConfig(pair_radius=40))
        fit = refresh_semantic(same_instance, cmap, I2SConfig(pair_radius=31))
        assert np.array_equal(wide.data, fit.data)


def flat_index_refresh(affinity, class_map, cfg):
    """The refresh as a flat-index gather and scatter per offset: the oracle.

    affinity(i_idx, j_idx) takes flat pixel indices. Offsets run from
    (-r, -r) to (r, r) with one add per offset, the order refresh_semantic
    keeps, so the two must agree bit for bit.
    """
    h, w, ch = class_map.data.shape
    n = h * w
    flat_c = class_map.data.reshape(n, ch)
    acc = flat_c.copy()
    wsum = np.ones(n, dtype=np.float64)
    grid_idx = np.arange(n, dtype=np.int64).reshape(h, w)
    r = cfg.pair_radius
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if (dy == 0 and dx == 0) or abs(dy) >= h or abs(dx) >= w:
                continue
            ys = slice(max(0, -dy), h - max(0, dy))
            xs = slice(max(0, -dx), w - max(0, dx))
            i_idx = grid_idx[ys, xs].ravel()
            j_idx = grid_idx[
                slice(max(0, dy), h + min(0, dy)), slice(max(0, dx), w + min(0, dx))
            ].ravel()
            vals = np.asarray(affinity(i_idx, j_idx), dtype=np.float64) ** cfg.beta
            acc[i_idx] += vals[:, None] * flat_c[j_idx]
            wsum[i_idx] += vals
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

        def by_window(win_i, win_j):
            li = lab[win_i]
            return ((li == lab[win_j]) & (li > 0)).astype(np.float64).ravel()

        cmap = self._probs(rng)
        cfg = I2SConfig(beta=beta, pair_radius=radius)
        out = refresh_semantic(by_window, cmap, cfg)
        assert np.array_equal(out.data.reshape(-1, 4), flat_index_refresh(by_index, cmap, cfg))

    @pytest.mark.parametrize("radius", [1, 3, 20])
    def test_sigmoid_embedding_affinity(self, radius):
        rng = np.random.default_rng(100 + radius)
        emb = rng.standard_normal((self.H, self.W, 8))
        emb_flat = emb.reshape(-1, 8)

        def by_index(i_idx, j_idx):
            return sigmoid(_pair_logits(emb_flat[i_idx], emb_flat[j_idx]))

        def by_window(win_i, win_j):
            return sigmoid(_pair_logits(emb[win_i], emb[win_j]).ravel())

        cmap = self._probs(rng)
        cfg = I2SConfig(pair_radius=radius)
        out = refresh_semantic(by_window, cmap, cfg)
        assert np.array_equal(out.data.reshape(-1, 4), flat_index_refresh(by_index, cmap, cfg))
