import hashlib
import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roarbench import cli, datasets, experiment, nn, pipeline
from roarbench.config import parse_config
from roarbench.pipeline import (KAR, ROAR, ProvenanceError, Record, ResultGrid,
                                derive_seed, generate_modified_datasets,
                                load_modified_dataset, make_modified_dataset,
                                modify_rows, n_modified, rank_features,
                                ranking_to_scores, replacement_matrix,
                                run_deletion_metric, run_roar,
                                save_modified_dataset)


class TestRankFeatures:
    def test_descending_order(self):
        np.testing.assert_array_equal(
            rank_features(np.array([0.1, 0.9, 0.5])), [1, 2, 0])

    def test_ties_break_by_ascending_index(self):
        np.testing.assert_array_equal(
            rank_features(np.array([0.5, 0.5, 0.5])), [0, 1, 2])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_reference_sort(self, seed):
        scores = np.random.default_rng(seed).standard_normal(100)
        order = rank_features(scores)
        # Independent oracle: stable sort on (-score, index) pairs.
        oracle = [i for _, i in sorted((-s, i) for i, s in enumerate(scores))]
        np.testing.assert_array_equal(order, oracle)

    def test_pixel_granularity_sums_channels(self):
        scores = np.array([[[1.0, 5.0], [2.0, 0.0]],
                           [[0.0, 0.5], [9.0, 1.0]]]).ravel()  # (2,2,2)
        order = rank_features(scores, image_shape=(2, 2, 2))
        np.testing.assert_array_equal(order, [3, 0, 1, 2])

    def test_ranking_to_scores_round_trip(self, rng):
        order = rng.permutation(17)
        np.testing.assert_array_equal(
            rank_features(ranking_to_scores(order)), order)

    @pytest.mark.parametrize("image_shape", [None, (2, 3, 2)],
                             ids=["feature", "pixel"])
    def test_rows_rank_independently(self, rng, image_shape):
        # Coarse values force ties, which must break per row as in 1-D.
        scores = rng.integers(0, 4, (9, 12)).astype(float)
        rows = rank_features(scores, image_shape)
        for row, order in zip(scores, rows):
            np.testing.assert_array_equal(
                order, rank_features(row, image_shape))


def cells_of(x, scores):
    """The `split_cells` cells of the (n, P) rows x (the train split of a
    dataset) under per-position scores, replacing each position with
    0.25."""
    labels = np.zeros(len(x), dtype=np.int64)
    return pipeline.split_cells(nn.ArrayDataset(x, labels, x, labels),
                                "train", scores,
                                np.full((x.shape[1], 1), 0.25))


def order_scores(orders):
    """(rows, P) per-position scores whose top-k selection is the first k
    of each row of `orders`."""
    return np.stack([ranking_to_scores(order) for order in orders])


class TestModifySample:
    def test_threshold_zero_is_identity(self, rng):
        x = rng.standard_normal(10)
        out = cells_of(x[None], order_scores([np.arange(10)]))(0.0, ROAR)[0]
        np.testing.assert_array_equal(out, x)

    def test_threshold_one_is_all_replacement(self, rng):
        x = rng.standard_normal(10)
        out = cells_of(x[None], order_scores([np.arange(10)]))(1.0, ROAR)[0]
        np.testing.assert_array_equal(out, np.full(10, 0.25))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 15))
    @settings(max_examples=40, deadline=None)
    def test_remove_and_keep_modes_are_complementary(self, seed, numerator):
        # t * P integral: at the same t the two modes touch complementary
        # position sets (keep-mode replaces what remove-mode spares).
        p = 16
        t = numerator / p
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(p)
        order = rng.permutation(p)
        removed = set(np.nonzero(
            cells_of(x[None], order_scores([order]))(t, ROAR)[0]
            != x)[0])
        kept_mode = set(np.nonzero(
            cells_of(x[None], order_scores([order]))(t, KAR)[0]
            != x)[0])
        # Replacement collisions with original values are measure-zero for
        # continuous draws; the touched sets partition the positions.
        assert removed == set(order[:numerator])
        assert kept_mode == set(order[numerator:])

    @given(st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, 1.0, allow_nan=False),
           st.sampled_from([ROAR, KAR]))
    @settings(max_examples=40, deadline=None)
    def test_idempotence(self, seed, t, mode):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(12)
        order = rng.permutation(12)
        once = cells_of(x[None], order_scores([order]))(t, mode)[0]
        np.testing.assert_array_equal(
            cells_of(once[None], order_scores([order]))(t, mode)[0], once)

    def test_modified_count_is_ceil(self):
        for p in (10, 16, 28 * 28):
            for t in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                assert n_modified(t, p) == int(np.ceil(round(t * p, 9)))

    def test_length_mismatch(self):
        x = np.zeros(5)
        with pytest.raises(ValueError, match="scores for 4 positions"):
            cells_of(x[None], order_scores([np.arange(4)]))(0.5, ROAR)


class TestModifyRows:
    @given(st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, 1.0, allow_nan=False),
           st.sampled_from([ROAR, KAR]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_row_oracle(self, seed, t, mode, shared):
        # Oracle: assign the selected positions of each row one at a time.
        rng = np.random.default_rng(seed)
        n, p, c = 7, 6, 2
        x = rng.standard_normal((n, p * c))
        rankings = np.argsort(rng.standard_normal((1 if shared else n, p)))
        replacement = rng.standard_normal((p, c))
        k = n_modified(t, p)
        top = pipeline.top_positions(order_scores(rankings), k)
        for i, row in enumerate(modify_rows(x, top, mode, replacement)):
            order = rankings[0 if shared else i]
            selected = order[:k] if mode == ROAR else order[k:]
            expected = x[i].reshape(p, c).copy()
            expected[selected] = replacement[selected]
            np.testing.assert_array_equal(row, expected.ravel())

    @pytest.mark.parametrize("image_shape", [None, (2, 3, 2)],
                             ids=["feature", "pixel"])
    def test_shared_scores_match_tiled_rows(self, rng, image_shape):
        ds = tiny_dataset(rng, d=12, image_shape=image_shape)
        shared = rng.standard_normal(12)
        tiled = np.tile(shared, (20, 1)), np.tile(shared, (8, 1))
        for t in (0.0, 0.3, 0.5, 1.0):
            for mode in (ROAR, KAR):
                a = make_modified_dataset(ds, shared, shared, "e", t, mode)
                b = make_modified_dataset(ds, *tiled, "e", t, mode)
                np.testing.assert_array_equal(a.train_x, b.train_x)
                np.testing.assert_array_equal(a.test_x, b.test_x)
        model = nn.fit_least_squares(ds, ridge=1e-6, fit_bias=True)
        shared_grid, tiled_grid = (
            run_deletion_metric(ds, model, [("e", scores)], [0.3, 0.5, 1.0])
            for scores in (shared, tiled[1]))
        assert shared_grid.records == tiled_grid.records


# Score draws for selection tests: tie-heavy integers, constant rows, zeros
# of both signs, and continuous values.
SCORE_KINDS = {
    "integers": lambda rng, shape: rng.integers(-2, 3, shape).astype(float),
    "constant": lambda rng, shape: np.full(shape, 0.5),
    "signed_zeros": lambda rng, shape: rng.choice([-0.0, 0.0, 1.0], shape),
    "continuous": lambda rng, shape: rng.standard_normal(shape),
    "float32_ties": lambda rng, shape: rng.integers(-2, 3, shape).astype(
        np.float32),
}


class TestReplacementMatrix:
    @pytest.mark.parametrize("image_shape", [None, (2, 3, 1), (2, 3, 2)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_means_accumulate_in_float64_in_the_split_dtype(
            self, rng, image_shape, dtype):
        d = 6 if image_shape is None else int(np.prod(image_shape))
        ds = tiny_dataset(rng, d=d, image_shape=image_shape)
        ds.train_x = ds.train_x.astype(dtype)
        c = 1 if image_shape is None else image_shape[2]
        per = d if image_shape is None else c
        means = np.array([math.fsum(column) / len(column) for column in
                          ds.train_x.astype(np.float64).reshape(-1, per).T])
        got = replacement_matrix(ds)
        assert got.dtype == dtype and got.shape == (d // c, c)
        want = np.broadcast_to(means.astype(dtype).reshape(-1, c), got.shape)
        if dtype == np.float32:
            # The float64 sums round to the exact means' float32 values.
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-14)


class TestTopPositions:
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([None, (2, 3, 1), (2, 3, 2)]),
           st.sampled_from(sorted(SCORE_KINDS)), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_mask_is_first_k_of_rank_features(self, seed, image_shape, kind,
                                              shared):
        rng = np.random.default_rng(seed)
        n = 5
        d = 6 if image_shape is None else int(np.prod(image_shape))
        scores = SCORE_KINDS[kind](rng, d if shared else (n, d))
        positions = pipeline.rank_split(
            tiny_dataset(rng, n=n, d=d, image_shape=image_shape), "train",
            scores)
        order = np.atleast_2d(rank_features(scores, image_shape))
        p = order.shape[1]
        assert positions.shape == (1 if shared else n, p)
        ordered = np.sort(positions, axis=1)
        for k in range(p + 1):
            expected = np.zeros(order.shape, dtype=bool)
            np.put_along_axis(expected, order[:, :k], True, axis=1)
            np.testing.assert_array_equal(
                pipeline.top_positions(positions, k), expected)
            np.testing.assert_array_equal(
                pipeline.top_positions(positions, k, ordered), expected)

    def test_split_cells_sorts_each_split_once(self, rng, monkeypatch):
        ds = tiny_dataset(rng)
        scores = rng.standard_normal(ds.train_x.shape).astype(np.float32)
        replacement = replacement_matrix(ds)
        cells = [(t, mode) for t in (0.1, 0.5, 0.9, 0.5)
                 for mode in (ROAR, KAR)]
        expected = [modify_rows(ds.train_x, pipeline.top_positions(
            scores, n_modified(t, 6)), mode, replacement)
            for t, mode in cells]
        sorts = []
        sort = np.sort
        monkeypatch.setattr(np, "sort", lambda *a, **k: sorts.append(1)
                            or sort(*a, **k))
        cell = pipeline.split_cells(ds, "train", scores, replacement)
        for t in (0.0, 1.0):
            cell(t, ROAR)
        assert sorts == []  # rank-free cells select nothing
        for (t, mode), want in zip(cells, expected):
            assert cell(t, mode).tobytes() == want.tobytes()
        assert len(sorts) == 1

    def test_one_channel_scores_are_not_copied(self, rng):
        scores = rng.standard_normal((4, 6))
        for image_shape in (None, (2, 3, 1)):
            ds = nn.ArrayDataset(scores, np.zeros(4, int), scores,
                                 np.zeros(4, int), image_shape)
            positions = pipeline.rank_split(ds, "train", scores)
            assert np.shares_memory(positions, scores)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_non_finite_scores_are_refused_by_split(self, rng, split, bad):
        ds = tiny_dataset(rng)
        scores = {"train": rng.standard_normal((20, 6)),
                  "test": rng.standard_normal((8, 6))}
        scores[split][3, 2] = bad
        with pytest.raises(ValueError,
                           match=f"non-finite {split} scores at sample 3"):
            make_modified_dataset(ds, scores["train"], scores["test"], "e",
                                  0.5, ROAR)


def tiny_dataset(rng, n=20, m=8, d=6, image_shape=None):
    return nn.ArrayDataset(rng.standard_normal((n, d)),
                           rng.integers(0, 2, n),
                           rng.standard_normal((m, d)),
                           rng.integers(0, 2, m), image_shape)


class TestGenerateModifiedDatasets:
    def test_zero_threshold_equals_source(self, rng):
        ds = tiny_dataset(rng)
        scores = rng.standard_normal((20, 6)), rng.standard_normal((8, 6))
        out = list(generate_modified_datasets(ds, {"e": scores}.items(),
                                              [0.0]))
        assert len(out) == 1
        np.testing.assert_array_equal(out[0].train_x, ds.train_x)
        np.testing.assert_array_equal(out[0].test_x, ds.test_x)

    def test_grid_counting_and_provenance(self, rng):
        ds = tiny_dataset(rng)
        scores = rng.standard_normal((20, 6)), rng.standard_normal((8, 6))
        out = list(generate_modified_datasets(
            ds, {"a": scores, "b": scores}.items(), [0.0, 0.3, 0.5, 0.7, 0.9],
            modes=(ROAR, KAR)))
        assert len(out) == 20
        tuples = {(m.provenance.estimator_id, m.provenance.threshold,
                   m.provenance.mode) for m in out}
        assert len(tuples) == 20

    def test_per_sample_modified_count(self, rng):
        ds = tiny_dataset(rng)
        scores = (rng.standard_normal((20, 6)), rng.standard_normal((8, 6)))
        rep = replacement_matrix(ds)[:, 0]
        # Continuous draws never collide with the replacement values, so the
        # elementwise match count equals the number of replaced positions.
        for t in (0.0, 0.3, 0.5, 0.9, 1.0):
            out = make_modified_dataset(ds, *scores, "e", t, ROAR)
            k = n_modified(t, 6)
            for src, row in zip(ds.train_x, out.train_x):
                assert (row == rep).sum() == k
                np.testing.assert_array_equal(row[row != rep],
                                              src[row != rep])

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
           st.sampled_from([None, (2, 3, 1), (2, 3, 2)]),
           st.lists(st.booleans(), min_size=6, max_size=6),
           st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1,
                    max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_equals_make_modified_dataset_per_cell(
            self, seed, n_estimators, image_shape, shared, thresholds):
        # Each split's scores are checked once per estimator, and its top
        # positions selected once per threshold for both modes, yet every
        # cell must equal the one-cell reference. Coarse scores force ties.
        rng = np.random.default_rng(seed)
        d = 6 if image_shape is None else int(np.prod(image_shape))
        ds = tiny_dataset(rng, d=d, image_shape=image_shape)
        estimates = {
            f"e{k}": tuple(
                rng.integers(0, 3, d if shared[2 * k + split]
                             else (len(x), d)).astype(float)
                for split, x in enumerate((ds.train_x, ds.test_x)))
            for k in range(n_estimators)}
        thresholds = sorted(thresholds)
        calls, selections = [], []
        rank_split = pipeline.rank_split
        top_positions = pipeline.top_positions
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "rank_split",
                       lambda *a, **kw: calls.append(1) or rank_split(
                           *a, **kw))
            mp.setattr(pipeline, "top_positions",
                       lambda *a: selections.append(1) or top_positions(*a))
            out = list(generate_modified_datasets(
                ds, estimates.items(), thresholds, modes=(ROAR, KAR),
                source_id="src"))
        assert len(calls) == 2 * n_estimators
        # Sorted thresholds with the same replaced count share one, too.
        counts = {n_modified(t, len(replacement_matrix(ds)))
                  for t in thresholds}
        assert len(selections) == 2 * n_estimators * len(counts)
        cells = [(e, t, m) for e in estimates for t in thresholds
                 for m in (ROAR, KAR)]
        assert len(out) == len(cells)
        for got, (e, t, m) in zip(out, cells):
            want = make_modified_dataset(ds, *estimates[e], e, t, m,
                                         source_id="src")
            for name in ("train_x", "train_y", "test_x", "test_y"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))
            assert got.provenance == want.provenance

    def test_missing_estimates_raise_provenance_error(self, rng):
        ds = tiny_dataset(rng)
        short = rng.standard_normal((5, 6))  # fewer rows than samples
        with pytest.raises(ProvenanceError, match="sample"):
            list(generate_modified_datasets(
                ds, {"e": (short, short)}.items(), [0.5]))


class TestOneBuilder:
    """Every path that builds a modified split builds it through
    `split_cells`, which alone checks a cell's threshold, mode and
    replacement."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The splits, in call order, that `split_cells` is asked for."""
        splits = []
        split_cells = pipeline.split_cells
        monkeypatch.setattr(pipeline, "split_cells", lambda ds, split, *a: (
            splits.append(split) or split_cells(ds, split, *a)))
        return splits

    PATHS = {
        "make_modified_dataset": (lambda ds, est: make_modified_dataset(
            ds, *est["a"], "a", 0.5, KAR), ["train", "test"]),
        "generate_modified_datasets": (
            lambda ds, est: list(generate_modified_datasets(
                ds, est.items(), [0.3, 0.5], (ROAR, KAR))),
            ["train", "test"] * 2),
        "run_roar": (lambda ds, est: run_roar(
            ds, est, [0.3, 0.5], nn.least_squares_trainer(
                nn.TrainConfig(ridge=1e-6)), 1, (ROAR, KAR)),
            ["train", "test"] * 2),
        "run_deletion_metric": (lambda ds, est: run_deletion_metric(
            ds, nn.fit_least_squares(ds, ridge=1e-6, fit_bias=True),
            [(e, test) for e, (_, test) in est.items()], [0.3, 0.5]),
            ["test"] * 2),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_path_builds_through_split_cells(self, rng, built, path):
        ds = tiny_dataset(rng)
        estimates = {e: (rng.standard_normal((20, 6)),
                         rng.standard_normal((8, 6))) for e in "ab"}
        build, splits = self.PATHS[path]
        build(ds, estimates)
        assert built == splits

    def test_load_modified_dataset_builds_through_split_cells(
            self, tmp_path, built):
        out = modified_output(tmp_path, TINY_BARS)
        built.clear()
        load_modified_dataset(
            str(out / "modified" / pipeline.cell_name("grad", 0.5, KAR)))
        assert built == ["train", "test"]

    @pytest.mark.parametrize("threshold,mode,replacement,message", [
        (-0.1, ROAR, None, r"threshold -0\.1 outside \[0, 1\]"),
        (1.5, KAR, None, r"threshold 1\.5 outside \[0, 1\]"),
        (np.nan, ROAR, None, r"threshold nan outside \[0, 1\]"),
        (0.5, "drop", None, "unknown mode 'drop'"),
        (0.5, ROAR, np.full((6, 1), np.nan), "non-finite replacement values"),
        (0.5, KAR, np.array([[0.0]] * 5 + [[np.inf]]),
         "non-finite replacement values"),
        (0.5, ROAR, np.zeros((5, 1)),
         "scores for 6 positions; the replacement has 5"),
    ], ids=["below", "above", "nan", "mode", "nan-replacement",
            "inf-replacement", "short-replacement"])
    def test_refused_with_its_message(self, rng, threshold, mode,
                                      replacement, message):
        # The replacement is checked once per split, the threshold and the
        # mode once per cell.
        ds = tiny_dataset(rng)
        scores = rng.standard_normal(ds.train_x.shape)
        if replacement is not None:
            with pytest.raises(ValueError, match=message):
                pipeline.split_cells(ds, "train", scores, replacement)
            return
        cell = pipeline.split_cells(ds, "train", scores,
                                    replacement_matrix(ds))
        with pytest.raises(ValueError, match=message):
            cell(threshold, mode)


# Two cells' train splits of a 40 x 6 dataset in the float32 training dtype.
TWO_CELLS = 2 * 4 * 40 * 6


class TestRunRoar:
    def trainer(self):
        return nn.least_squares_trainer(nn.TrainConfig(ridge=1e-6))

    def test_record_count(self, rng):
        ds = tiny_dataset(rng, n=40, m=20)
        scores = np.arange(6.0)
        grid = run_roar(ds, {"e": (scores, scores)}, [0.5], self.trainer(),
                        runs_per_point=3)
        assert len(grid.records) == 3
        assert {r.run_index for r in grid.records} == {0, 1, 2}

    def test_zero_threshold_matches_baseline(self, rng):
        ds = tiny_dataset(rng, n=60, m=30)
        scores = np.arange(6.0)
        grid = run_roar(ds, {"e": (scores, scores)}, [0.0], self.trainer(),
                        runs_per_point=2)
        model = nn.fit_least_squares(ds, ridge=1e-6, fit_bias=True)
        baseline = nn.accuracy(model, ds.test_x, ds.test_y)
        for record in grid.records:
            assert record.accuracy == baseline

    def test_kar_at_full_threshold_matches_baseline(self, rng):
        ds = tiny_dataset(rng, n=60, m=30)
        scores = np.arange(6.0)
        grid = run_roar(ds, {"e": (scores, scores)}, [1.0], self.trainer(),
                        runs_per_point=1, modes=(KAR,))
        model = nn.fit_least_squares(ds, ridge=1e-6, fit_bias=True)
        assert grid.records[0].accuracy == nn.accuracy(model, ds.test_x,
                                                       ds.test_y)

    def test_results_independent_of_cell_order(self, rng):
        ds = tiny_dataset(rng, n=40, m=20)
        scores = np.arange(6.0)
        est_fwd = {"a": (scores, scores), "b": (scores[::-1].copy(),) * 2}
        est_rev = dict(reversed(est_fwd.items()))
        grid_fwd = run_roar(ds, est_fwd, [0.3, 0.7], self.trainer(), 2)
        grid_rev = run_roar(ds, est_rev, [0.3, 0.7], self.trainer(), 2)
        assert [(r.estimator_id, r.threshold, r.mode, r.run_index, r.accuracy)
                for r in grid_fwd.sorted_records()] == \
               [(r.estimator_id, r.threshold, r.mode, r.run_index, r.accuracy)
                for r in grid_rev.sorted_records()]

    @pytest.mark.parametrize("stack_bytes", [pipeline.STACK_BYTES, 1,
                                             TWO_CELLS])
    def test_stacks_equal_per_cell_training(self, rng, monkeypatch,
                                            stack_bytes):
        """One estimator's cells train as a stack; every run must equal
        training its cell's modified dataset alone, however the stack is
        split."""
        monkeypatch.setattr(pipeline, "STACK_BYTES", stack_bytes)
        ds = tiny_dataset(rng, n=40, m=20)
        train_scores, test_scores = (rng.standard_normal((40, 6)),
                                     rng.standard_normal((20, 6)))
        trainer = nn.mlp_trainer(nn.TrainConfig(
            hidden=[4], learning_rate=0.3, steps=30, batch_size=8))
        stack_sizes, trained = [], {}  # trained: seeds -> results

        def counting_trainer(stack, seeds):
            stack_sizes.append(stack.size)
            results = trainer(stack, seeds)
            trained.update(zip(map(tuple, seeds), results, strict=True))
            return results

        thresholds, modes = (0.2, 0.5, 0.8), (ROAR, KAR)
        grid = run_roar(ds, {"e": (train_scores, test_scores)}, thresholds,
                        counting_trainer, runs_per_point=2, modes=modes,
                        base_seed=3)
        assert stack_sizes == {pipeline.STACK_BYTES: [6], 1: [1] * 6,
                               TWO_CELLS: [2] * 3}[stack_bytes]
        entries = iter(grid.entries)
        for t in thresholds:
            for mode in modes:
                modified = make_modified_dataset(ds, train_scores,
                                                 test_scores, "e", t, mode)
                seeds = pipeline.run_seeds(
                    3, pipeline.cell_key("e", t, mode, 6), 2)
                [solo] = trainer(nn.DatasetStack.of([modified]), [seeds])
                for run, (model, acc), (solo_model, solo_acc) in zip(
                        range(2), trained[tuple(seeds)], solo, strict=True):
                    assert next(entries) == Record("e", t, mode, run,
                                                   solo_acc)
                    assert acc == solo_acc
                    for la, lb in zip(model.layers, solo_model.layers,
                                      strict=True):
                        np.testing.assert_array_equal(la.weight, lb.weight)
                        np.testing.assert_array_equal(la.bias, lb.bias)
        assert next(entries, None) is None

    @pytest.mark.parametrize("stack_bytes", [pipeline.STACK_BYTES, 1,
                                             TWO_CELLS])
    def test_roar_and_kar_cells_share_one_selection(self, rng, monkeypatch,
                                                    stack_bytes):
        """Each split's top positions are selected once per threshold for
        both modes, however the stack is split, and every cell the trainer
        sees equals the one-cell reference. Coarse scores force ties."""
        monkeypatch.setattr(pipeline, "STACK_BYTES", stack_bytes)
        ds = tiny_dataset(rng, n=40, m=20)
        train_scores = rng.integers(0, 3, (40, 6)).astype(float)
        test_scores = rng.integers(0, 3, 6).astype(float)
        selections, seen = [], []
        top_positions = pipeline.top_positions
        monkeypatch.setattr(pipeline, "top_positions",
                            lambda *a: selections.append(1) or top_positions(
                                *a))

        def recording_trainer(stack, seeds):
            seen.extend((stack.train_x(c), stack.test_x(c))
                        for c in range(stack.size))
            return [[(None, 0.5)] * len(s) for s in seeds]

        thresholds, modes = (0.2, 0.5, 0.8), (ROAR, KAR)
        run_roar(ds, {"e": (train_scores, test_scores)}, thresholds,
                 recording_trainer, runs_per_point=1, modes=modes)
        assert len(selections) == 2 * len(thresholds)
        cells = [(t, mode) for t in thresholds for mode in modes]
        assert len(seen) == len(cells)
        for (train_x, test_x), (t, mode) in zip(seen, cells):
            want = make_modified_dataset(ds, train_scores, test_scores, "e",
                                         t, mode)
            np.testing.assert_array_equal(train_x, want.train_x)
            np.testing.assert_array_equal(test_x, want.test_x)



class TestCellKey:
    """A cell whose replaced count is 0 or P is keyed by what it replaces,
    whatever its estimator; any other cell keeps its estimator's key, and
    with it the seeds `run_seeds` has always derived."""

    @pytest.mark.parametrize("t,mode,key", [
        (0.0, ROAR, pipeline.NONE_REPLACED), (1.0, KAR, pipeline.NONE_REPLACED),
        (0.0, KAR, pipeline.ALL_REPLACED), (1.0, ROAR, pipeline.ALL_REPLACED),
        (0.1, ROAR, ("e", "0.100000", ROAR)),
        (0.5, KAR, ("e", "0.500000", KAR)),
        (0.99, KAR, pipeline.NONE_REPLACED)])  # ceil(0.99 * 6) = 6
    def test_keys(self, t, mode, key):
        assert pipeline.cell_key("e", t, mode, 6) == key

    @given(st.integers(0, 2**32), st.floats(0.01, 0.99),
           st.sampled_from([ROAR, KAR]), st.integers(1, 4))
    def test_ranked_seeds_are_the_estimator_seeds(self, base, t, mode, runs):
        key = pipeline.cell_key("e", t, mode, 1000)
        assert pipeline.run_seeds(base, key, runs) == [
            derive_seed(base, "e", f"{t:.6f}", mode, run)
            for run in range(runs)]


class TestRankFreeCells:
    """`run_roar` over several estimators and both modes, with a trainer that
    records the train and test splits of every dataset it is given, keyed
    by the dataset's seeds."""

    @staticmethod
    def recording_trainer(seen):
        def train(stack, seeds):
            for c, cell_seeds in enumerate(seeds):
                seen.append((tuple(cell_seeds), stack.train_x(c),
                             stack.test_x(c)))
            return [[(None, 0.5)] * len(cell_seeds) for cell_seeds in seeds]
        return train

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), n_estimators=st.integers(1, 3),
           inner=st.sets(st.sampled_from([0.2, 0.5, 0.8])),
           runs=st.integers(1, 3), shared_row=st.booleans())
    def test_cells(self, seed, n_estimators, inner, runs, shared_row):
        rng = np.random.default_rng(seed)
        ds = tiny_dataset(rng, n=12, m=6)
        thresholds = sorted({0.0, *inner, 1.0})
        estimates = {f"e{i}": ((rng.standard_normal(6),) * 2 if shared_row
                               else (rng.standard_normal((12, 6)),
                                     rng.standard_normal((6, 6))))
                     for i in range(n_estimators)}
        seen = []
        grid = run_roar(ds, estimates, thresholds,
                        self.recording_trainer(seen), runs,
                        modes=(ROAR, KAR), base_seed=seed)
        # Every cell holds runs_per_point entries, in grid order.
        assert [(e.estimator_id, e.threshold, e.mode, e.run_index)
                for e in grid.entries] == [
            (e, t, m, r) for e in estimates for t in thresholds
            for m in (ROAR, KAR) for r in range(runs)]
        # Each rank-free key trains once per call, each ranked cell once.
        trained = {cell_seeds: splits for cell_seeds, *splits in seen}
        assert len(trained) == len(seen) == 2 + n_estimators * len(inner) * 2

        def splits(e, t, mode):
            return trained[tuple(pipeline.run_seeds(
                seed, pipeline.cell_key(e, t, mode, 6), runs))]

        sources = (ds.train_x, ds.test_x)
        for e in estimates:
            # ROAR at t = 0 and KAR at t = 1 train on the unmodified data.
            for t, mode in ((0.0, ROAR), (1.0, KAR)):
                for got, x in zip(splits(e, t, mode), sources):
                    np.testing.assert_array_equal(got, x)
            # ROAR and KAR at one t replace complementary positions.
            for t in thresholds:
                for roar, kar, x in zip(splits(e, t, ROAR), splits(e, t, KAR),
                                        sources):
                    assert np.all((roar != x) ^ (kar != x))

    def test_shared_dict_spans_calls(self, rng):
        ds = tiny_dataset(rng, n=12, m=6)
        estimates = {e: (rng.standard_normal((12, 6)),
                         rng.standard_normal((6, 6))) for e in "abc"}
        seen, shared = [], {}
        trainer = self.recording_trainer(seen)
        split = [run_roar(ds, {e: scores}, [0.0, 0.5, 1.0], trainer, 2,
                          (ROAR, KAR), 4, shared)
                 for e, scores in estimates.items()]
        assert set(shared) == {pipeline.NONE_REPLACED, pipeline.ALL_REPLACED}
        assert len(seen) == 2 + 3 * 2
        whole = run_roar(ds, estimates, [0.0, 0.5, 1.0], trainer, 2,
                         (ROAR, KAR), 4)
        assert [e for grid in split for e in grid.entries] == whole.entries
        # Without a shared dict each call trains the rank-free keys again.
        seen.clear()
        for e, scores in estimates.items():
            run_roar(ds, {e: scores}, [0.0, 1.0], trainer, 2, (ROAR, KAR), 4)
        assert len(seen) == 3 * 2


class TestDeletionMetric:
    def test_zero_threshold_is_original_accuracy(self, rng):
        ds = tiny_dataset(rng, n=60, m=30)
        model = nn.fit_least_squares(ds, ridge=1e-6, fit_bias=True)
        scores = np.arange(6.0)
        grid = run_deletion_metric(ds, model, [("e", scores)], [0.0])
        assert grid.records[0].accuracy == nn.accuracy(model, ds.test_x,
                                                       ds.test_y)
        assert grid.records[0].run_index == 0

    def test_rank_free_cells_are_scored_once(self, rng, monkeypatch):
        """t = 0 and t = 1 replace no position or every one, whatever the
        ranking, so each is scored once for all estimators, with the
        accuracy that scoring each estimator alone gives."""
        ds = tiny_dataset(rng, n=60, m=30)
        model = nn.fit_least_squares(ds, ridge=1e-6, fit_bias=True)
        estimates = [(e, rng.standard_normal((30, 6))) for e in "abc"]
        thresholds = (0.0, 0.5, 1.0)
        alone = [record for pair in estimates for record in
                 run_deletion_metric(ds, model, [pair], thresholds).records]
        forwards = []
        accuracy = pipeline.accuracy
        monkeypatch.setattr(pipeline, "accuracy",
                            lambda *a: forwards.append(1) or accuracy(*a))
        grid = run_deletion_metric(ds, model, estimates, thresholds)
        assert len(forwards) == 2 + len(estimates)
        assert grid.records == alone

    def test_shares_one_selection_per_replaced_count(self, rng,
                                                     monkeypatch):
        """Each estimator's test scores are checked once, and consecutive
        thresholds that replace the same count share one selection, and the
        rank-free cells (t = 0 and t = 1) are scored for the first estimator
        only, yet every scored set equals the one-cell reference. Coarse
        scores force ties."""
        ds = tiny_dataset(rng, n=40, m=20)
        estimates = [("e0", rng.integers(0, 3, (20, 6)).astype(float)),
                     ("e1", rng.integers(0, 3, 6).astype(float))]
        thresholds = (0.0, 0.1, 0.15, 0.4, 0.5, 1.0)  # counts 0, 1, 1, 3, 3, 6
        calls, selections, seen = [], [], []
        rank_split = pipeline.rank_split
        top_positions = pipeline.top_positions
        monkeypatch.setattr(pipeline, "rank_split",
                            lambda *a: calls.append(1) or rank_split(*a))
        monkeypatch.setattr(pipeline, "top_positions",
                            lambda *a: selections.append(1) or top_positions(
                                *a))
        monkeypatch.setattr(pipeline, "accuracy",
                            lambda model, x, y: seen.append(x) or 1.0)
        run_deletion_metric(ds, None, estimates, thresholds)
        assert len(calls) == len(estimates)
        assert len(selections) == 4 + 2
        cells = [(estimates[0][1], t) for t in thresholds] + [
            (estimates[1][1], t) for t in thresholds[1:-1]]
        assert len(seen) == len(cells)
        for test_x, (scores, t) in zip(seen, cells):
            want = make_modified_dataset(ds, np.zeros(6), scores, "e", t,
                                         ROAR)
            np.testing.assert_array_equal(test_x, want.test_x)


class TestResultGrid:
    def test_aggregate_matches_hand_statistics(self):
        grid = ResultGrid()
        for run, acc in enumerate([0.5, 0.7, 0.9]):
            grid.add(Record("e", 0.3, ROAR, run, acc))
        [(est, t, mode, mean, std)] = grid.aggregate()
        assert (est, t, mode) == ("e", 0.3, ROAR)
        assert mean == pytest.approx(0.7)
        assert std == pytest.approx(np.sqrt((0.04 + 0.0 + 0.04) / 3))

    def test_csv_schema(self, tmp_path):
        grid = ResultGrid()
        grid.add(Record("e", 0.3, ROAR, 0, 0.5))
        per_record = tmp_path / "results.csv"
        aggregated = tmp_path / "aggregated.csv"
        grid.to_csv(str(per_record))
        grid.aggregated_to_csv(str(aggregated))
        assert per_record.read_text().splitlines()[0] == \
            "estimator,threshold,mode,run,accuracy"
        assert aggregated.read_text().splitlines()[0] == \
            "estimator,threshold,mode,mean_accuracy,std_accuracy"


# Tiny configs whose `estimate` and `modify` write real output directories:
# a saved cell is rebuilt from its directory's config and estimates.
TINY_BARS = """
[experiment]
seed = 3
runs_per_point = 1
thresholds = 0,0.5,1
modes = roar,kar

[dataset]
kind = bars
n_train = 20
n_test = 8
size = 4

[estimators]
ids = grad, random, sobel

[train]
model = mlp
hidden = 4
steps = 10
batch_size = 8
"""

TINY_TOY = """
[experiment]
seed = 3
runs_per_point = 1
thresholds = 0,0.3,0.5
modes = roar,kar

[dataset]
kind = toy
n_train = 20
n_test = 8
dim = 6

[estimators]
ids = grad, ig, random

[train]
model = least_squares
"""


def modified_output(tmp_path, text, commands=("estimate", "modify")):
    """The output directory of `commands` run on a config text."""
    tmp_path.mkdir(exist_ok=True)
    config = tmp_path / "experiment.ini"
    config.write_text(text)
    out = tmp_path / "out"
    for command in commands:
        assert cli.main([command, "--config", str(config),
                         "--output", str(out)]) == 0
    return out


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        out = modified_output(tmp_path, TINY_BARS)
        ctx = experiment.build_context(
            parse_config((out / "config.ini").read_text()))
        estimates = dict(experiment.load_estimates(
            ctx, str(out / "estimates")))
        loaded = load_modified_dataset(
            str(out / "modified" / pipeline.cell_name("grad", 0.5, ROAR)))
        modified = make_modified_dataset(ctx.dataset, *estimates["grad"],
                                         "grad", 0.5, ROAR, 3, "bars")
        # The cell as built: the bars dataset's float32 features, not a
        # float64 copy.
        assert loaded.train_x.dtype == ctx.dataset.train_x.dtype == np.float32
        np.testing.assert_array_equal(loaded.train_x, modified.train_x)
        np.testing.assert_array_equal(loaded.train_y, modified.train_y)
        assert loaded.provenance == modified.provenance

    @pytest.mark.parametrize("text,dtype", [("bars", np.float32),
                                            ("toy", np.float64)])
    def test_sha256_cell_is_the_digest_of_the_cells_own_bytes(
            self, tmp_path, text, dtype):
        out = modified_output(tmp_path,
                              {"bars": TINY_BARS, "toy": TINY_TOY}[text])
        cell = out / "modified" / pipeline.cell_name("grad", 0.5, ROAR)
        loaded = load_modified_dataset(str(cell))
        assert loaded.train_x.dtype == loaded.test_x.dtype == dtype
        digest = hashlib.sha256(b"".join(
            a.tobytes() for a in (loaded.train_x, loaded.train_y,
                                  loaded.test_x, loaded.test_y)))
        assert f"sha256_cell={digest.hexdigest()}\n" in \
            (cell / "manifest.txt").read_text()

    def test_image_shape_survives_round_trip(self, tmp_path):
        out = modified_output(tmp_path, TINY_BARS)
        ds = experiment.build_context(
            parse_config((out / "config.ini").read_text())).dataset
        loaded = load_modified_dataset(
            str(out / "modified" / pipeline.cell_name("grad", 0.0, ROAR)))
        assert loaded.image_shape == ds.image_shape == (4, 4, 1)
        np.testing.assert_array_equal(replacement_matrix(loaded),
                                      replacement_matrix(ds))
        assert loaded.train_y.dtype == loaded.test_y.dtype == np.int64

    def test_flat_image_shape_round_trips_as_none(self, tmp_path):
        out = modified_output(tmp_path, TINY_TOY)
        cell = out / "modified" / pipeline.cell_name("grad", 0.5, ROAR)
        manifest = (cell / "manifest.txt").read_text()
        assert "image_shape=none\n" in manifest
        assert load_modified_dataset(str(cell)).image_shape is None

    def test_manifest_without_image_shape_is_refused(self, tmp_path):
        _, cell = self.saved(None, tmp_path)
        manifest = cell / "manifest.txt"
        manifest.write_text("".join(
            line for line in manifest.read_text().splitlines(keepends=True)
            if not line.startswith("image_shape=")))
        with pytest.raises(ProvenanceError, match="image_shape"):
            load_modified_dataset(str(cell))

    def saved(self, _rng, tmp_path):
        """The output directory of the tiny bars config, and one cell; no
        draw is needed, since the config makes the cell."""
        out = modified_output(tmp_path, TINY_BARS)
        return out, out / "modified" / pipeline.cell_name("grad", 0.5, ROAR)

    def test_checksum_mismatch_detected(self, tmp_path):
        # Estimates rewritten after `modify`, finite and of the right shape,
        # rebuild another cell than the one saved.
        out, cell = self.saved(None, tmp_path)
        path = out / "estimates" / "grad.npz"
        with np.load(path) as data:
            train, test = data["train"], data["test"]
        np.savez(path, train=train[::-1].copy(), test=test)
        with pytest.raises(ProvenanceError,
                           match=f"manifest in {re.escape(str(cell))}: "
                                 f"sha256_cell is"):
            load_modified_dataset(str(cell))

    def test_four_file_layout_is_refused_by_name(self, tmp_path):
        # The data-file layout's checksum line, and the four-file layout's.
        _, cell = self.saved(None, tmp_path)
        manifest = cell / "manifest.txt"
        lines = [line for line in manifest.read_text().splitlines()
                 if not line.startswith("sha256_")]
        for parts in (["data.bin"], ["train_features.f32", "train_labels.i64",
                                     "test_features.f32", "test_labels.i64"]):
            manifest.write_text("\n".join(lines + [
                f"sha256_{part}={hashlib.sha256(part.encode()).hexdigest()}"
                for part in parts]) + "\n")
            with pytest.raises(ProvenanceError, match="has no sha256_cell"):
                load_modified_dataset(str(cell))

    @pytest.mark.parametrize("key,value", [
        ("train_shape", None), ("test_shape", None), ("train_shape", "20"),
        ("train_shape", "twentyx6"), ("test_shape", "8x6x1"),
        ("test_shape", "-8x6")])
    def test_malformed_shape_is_refused_by_name(self, rng, tmp_path, key,
                                                value):
        _, cell = self.saved(rng, tmp_path)
        manifest = cell / "manifest.txt"
        lines = [line for line in manifest.read_text().splitlines()
                 if not line.startswith(key + "=")]
        if value is not None:
            lines.append(f"{key}={value}")
        manifest.write_text("\n".join(lines) + "\n")
        where = re.escape(str(cell))
        with pytest.raises(ProvenanceError,
                           match=f"manifest in {where} has no {key}"
                           if value is None else
                           f"manifest in {where}: {key} is"):
            load_modified_dataset(str(cell))

    @pytest.mark.parametrize("key,value", [
        ("estimator_id", None), ("estimator_id", ""),
        ("threshold", None), ("threshold", "half"), ("threshold", "1.5"),
        ("mode", None), ("mode", "remove"),
        ("seed", None), ("seed", "-1"),
        ("source_id", None), ("source_id", ""),
        ("image_shape", None), ("image_shape", "4xq"),
        ("image_shape", "4x4")])
    def test_missing_or_malformed_provenance_is_refused_by_name(
            self, rng, tmp_path, key, value):
        _, cell = self.saved(rng, tmp_path)
        manifest = cell / "manifest.txt"
        lines = [line for line in manifest.read_text().splitlines()
                 if not line.startswith(key + "=")]
        if value is not None:
            lines.append(f"{key}={value}")
        manifest.write_text("\n".join(lines) + "\n")
        where = re.escape(str(cell))
        with pytest.raises(ProvenanceError,
                           match=f"manifest in {where} has no {key}"
                           if value is None else
                           f"manifest in {where}: {key} is {value!r}"):
            load_modified_dataset(str(cell))

    def test_loaded_dataset_stacks_and_keeps_its_image_shape(self,
                                                             tmp_path):
        _, cell = self.saved(None, tmp_path)
        loaded = load_modified_dataset(str(cell))
        assert isinstance(loaded, nn.ArrayDataset)
        assert loaded.image_shape == (4, 4, 1)
        stack = nn.DatasetStack.of([loaded])
        np.testing.assert_array_equal(stack.train_x(0), loaded.train_x)
        np.testing.assert_array_equal(stack.test_y, loaded.test_y)
        trainer = nn.mlp_trainer(nn.TrainConfig(hidden=[4], steps=5,
                                                batch_size=8))
        [[(model, _)]] = trainer(stack, [[0]])
        assert model.layers[0].weight.shape == (16, 4)

    @pytest.mark.parametrize("change", ["truncated", "shape"])
    def test_data_length_must_match_shapes(self, tmp_path, change):
        # A manifest shape the rebuilt cell does not have: fewer train rows,
        # or test rows of another width.
        _, cell = self.saved(None, tmp_path)
        key, old, new = (("train_shape", "20x16", "10x16")
                         if change == "truncated" else
                         ("test_shape", "8x16", "8x15"))
        manifest = cell / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(
            f"{key}={old}\n", f"{key}={new}\n"))
        with pytest.raises(ProvenanceError, match=(
                f"manifest in {re.escape(str(cell))}: {key} is '{new}', but "
                f"the cell rebuilt .* has '{old}'")):
            load_modified_dataset(str(cell))


class TestRecipe:
    """A saved cell is its manifest; loading it rebuilds the cell from its
    output directory's config.ini and estimates."""

    @pytest.mark.parametrize("text", [TINY_BARS, TINY_TOY],
                             ids=["bars", "toy"])
    def test_every_cell_loads_as_built(self, tmp_path, text):
        out = modified_output(tmp_path, text)
        cfg = parse_config(text)
        ctx = experiment.build_context(cfg)
        estimates = dict(experiment.load_estimates(
            ctx, str(out / "estimates")))
        names = sorted(p.name for p in (out / "modified").iterdir())
        assert len(names) == (len(cfg.estimators.ids) * len(cfg.thresholds)
                              * len(cfg.modes))
        for estimator_id in cfg.estimators.ids:
            for t in cfg.thresholds:
                for mode in cfg.modes:
                    cell = out / "modified" / pipeline.cell_name(
                        estimator_id, t, mode)
                    assert [p.name for p in cell.iterdir()] == \
                        ["manifest.txt"]
                    loaded = load_modified_dataset(str(cell))
                    built = make_modified_dataset(
                        ctx.dataset, *estimates[estimator_id], estimator_id,
                        t, mode, cfg.seed, cfg.dataset.kind)
                    for name in ("train_x", "train_y", "test_x", "test_y"):
                        got, want = getattr(loaded, name), getattr(built,
                                                                   name)
                        assert got.dtype == want.dtype
                        np.testing.assert_array_equal(got, want)
                    assert loaded.provenance == built.provenance
                    assert loaded.image_shape == built.image_shape

    def test_modify_alone_saves_its_estimates(self, tmp_path):
        alone = modified_output(tmp_path / "alone", TINY_BARS, ("modify",))
        both = modified_output(tmp_path / "both", TINY_BARS)
        for estimator_id in ("grad", "random", "sobel"):
            with np.load(alone / "estimates" / f"{estimator_id}.npz") as a, \
                    np.load(both / "estimates" / f"{estimator_id}.npz") as b:
                for split in ("train", "test"):
                    np.testing.assert_array_equal(a[split], b[split])
        for cell in (alone / "modified").iterdir():
            assert (cell / "manifest.txt").read_text() == (
                both / "modified" / cell.name / "manifest.txt").read_text()
            load_modified_dataset(str(cell))

    def test_threshold_past_six_decimals_rebuilds_its_cell(self, tmp_path):
        # The manifest writes 0.500000; rebuilt at 0.5, the cell would
        # replace one of the two positions instead of both.
        text = TINY_TOY.replace("thresholds = 0,0.3,0.5",
                                "thresholds = 0.5000004").replace(
            "dim = 6", "dim = 2\nn_informative = 1")
        out = modified_output(tmp_path, text)
        loaded = load_modified_dataset(
            str(out / "modified" / pipeline.cell_name("grad", 0.5, ROAR)))
        assert loaded.provenance.threshold == 0.5000004
        source = experiment.build_context(parse_config(text)).dataset
        np.testing.assert_array_equal(
            loaded.train_x, np.tile(replacement_matrix(source).T, (20, 1)))

    @pytest.mark.parametrize("damage,message", [
        ("no config", "cannot rebuild .*config.ini: FileNotFoundError"),
        ("bad config", "cannot rebuild .*config.ini: ConfigError"),
        ("no estimates", "missing estimate file .*grad.npz"),
        ("seed", "seed is '4', but the cell rebuilt .* has '3'")])
    def test_recipe_refusals(self, tmp_path, damage, message):
        out = modified_output(tmp_path, TINY_BARS)
        cell = out / "modified" / pipeline.cell_name("grad", 0.5, KAR)
        if damage == "no config":
            (out / "config.ini").unlink()
        elif damage == "bad config":
            (out / "config.ini").write_text("[experiment]\nseed = soon\n")
        elif damage == "no estimates":
            (out / "estimates" / "grad.npz").unlink()
        else:
            manifest = cell / "manifest.txt"
            manifest.write_text(manifest.read_text().replace(
                "seed=3\n", "seed=4\n"))
        with pytest.raises(ProvenanceError, match=message):
            load_modified_dataset(str(cell))

    @pytest.mark.parametrize("edit,cell,message", [
        (("thresholds = 0,0.5,1", "thresholds = 0,1"), ("grad", 0.5, ROAR),
         "threshold '0.500000' names no cell"),
        (("modes = roar,kar", "modes = roar"), ("grad", 0.5, KAR),
         "mode 'kar' names no cell"),
        (("ids = grad, random, sobel", "ids = grad, random"),
         ("sobel", 0.5, ROAR), "estimator_id 'sobel' names no cell")])
    def test_cell_of_another_config_is_refused(self, tmp_path, edit, cell,
                                               message):
        # Copied in from a directory whose config has the cell, it would
        # rebuild from this directory's estimates, or fail to find them.
        source = modified_output(tmp_path / "source", TINY_BARS)
        target = modified_output(tmp_path / "target", TINY_BARS.replace(*edit))
        name = pipeline.cell_name(*cell)
        shutil.copytree(source / "modified" / name, target / "modified" / name)
        with pytest.raises(ProvenanceError,
                           match=f"{name}: {message} of .*config.ini"):
            load_modified_dataset(str(target / "modified" / name))


class TestSeeds:
    def test_derive_seed_is_stable_and_distinct(self):
        a = derive_seed(0, "e", "0.300000", ROAR, 0)
        assert a == derive_seed(0, "e", "0.300000", ROAR, 0)
        assert a != derive_seed(0, "e", "0.300000", ROAR, 1)
        assert a != derive_seed(1, "e", "0.300000", ROAR, 0)
        assert 0 <= a < 2 ** 64
