import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roarbench import datasets, nn, pipeline
from roarbench.pipeline import (KAR, ROAR, ModificationSpec,
                                ProvenanceError, Record, ResultGrid,
                                derive_seed, generate_modified_datasets,
                                load_modified_dataset, make_modified_dataset,
                                modify_rows, modify_sample, n_modified,
                                rank_features, ranking_to_scores,
                                replacement_matrix, run_deletion_metric,
                                run_roar, save_modified_dataset)


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


def spec_for(x, threshold, mode):
    replacement = np.full((len(x), 1), 0.25)
    return ModificationSpec(threshold, mode, replacement)


class TestModifySample:
    def test_threshold_zero_is_identity(self, rng):
        x = rng.standard_normal(10)
        out = modify_sample(x, np.arange(10), spec_for(x, 0.0, ROAR))
        np.testing.assert_array_equal(out, x)

    def test_threshold_one_is_all_replacement(self, rng):
        x = rng.standard_normal(10)
        out = modify_sample(x, np.arange(10), spec_for(x, 1.0, ROAR))
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
            modify_sample(x, order, spec_for(x, t, ROAR)) != x)[0])
        kept_mode = set(np.nonzero(
            modify_sample(x, order, spec_for(x, t, KAR)) != x)[0])
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
        spec = spec_for(x, t, mode)
        once = modify_sample(x, order, spec)
        np.testing.assert_array_equal(modify_sample(once, order, spec), once)

    def test_modified_count_is_ceil(self):
        for p in (10, 16, 28 * 28):
            for t in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                assert n_modified(t, p) == int(np.ceil(round(t * p, 9)))

    def test_length_mismatch(self):
        x = np.zeros(5)
        with pytest.raises(ValueError, match="ranking length"):
            modify_sample(x, np.arange(4), spec_for(x, 0.5, ROAR))


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
        spec = ModificationSpec(t, mode, rng.standard_normal((p, c)))
        k = n_modified(t, p)
        for i, row in enumerate(modify_rows(x, rankings, spec)):
            order = rankings[0 if shared else i]
            selected = order[:k] if mode == ROAR else order[k:]
            expected = x[i].reshape(p, c).copy()
            expected[selected] = spec.replacement[selected]
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


def tiny_dataset(rng, n=20, m=8, d=6, image_shape=None):
    return nn.ArrayDataset(rng.standard_normal((n, d)),
                           rng.integers(0, 2, n),
                           rng.standard_normal((m, d)),
                           rng.integers(0, 2, m), image_shape)


class TestGenerateModifiedDatasets:
    def test_zero_threshold_equals_source(self, rng):
        ds = tiny_dataset(rng)
        scores = rng.standard_normal((20, 6)), rng.standard_normal((8, 6))
        out = list(generate_modified_datasets(ds, {"e": scores}, [0.0]))
        assert len(out) == 1
        np.testing.assert_array_equal(out[0].train_x, ds.train_x)
        np.testing.assert_array_equal(out[0].test_x, ds.test_x)

    def test_grid_counting_and_provenance(self, rng):
        ds = tiny_dataset(rng)
        scores = rng.standard_normal((20, 6)), rng.standard_normal((8, 6))
        out = list(generate_modified_datasets(
            ds, {"a": scores, "b": scores}, [0.0, 0.3, 0.5, 0.7, 0.9],
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
        # Each split is ranked once per estimator, yet every cell must equal
        # the one-cell reference. Coarse scores force ties.
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
        calls = []
        rank_features = pipeline.rank_features
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "rank_features",
                       lambda *a, **kw: calls.append(1) or rank_features(
                           *a, **kw))
            out = list(generate_modified_datasets(
                ds, estimates, thresholds, modes=(ROAR, KAR),
                source_id="src"))
        assert len(calls) == 2 * n_estimators
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
            list(generate_modified_datasets(ds, {"e": (short, short)},
                                            [0.5]))


class TestRunRoar:
    def trainer(self):
        return nn.least_squares_trainer(ridge=1e-6)

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


# Two cells' train splits of a 40 x 6 dataset in the float32 training dtype.
TWO_CELLS = 2 * 4 * 40 * 6


class TestRetrainEstimator:
    """One estimator's cells train as a stack; every run must equal training
    its cell's modified dataset alone, however the stack is split."""

    @pytest.mark.parametrize("stack_bytes", [pipeline.STACK_BYTES, 1,
                                             TWO_CELLS])
    def test_equals_per_cell_training(self, rng, monkeypatch, stack_bytes):
        monkeypatch.setattr(pipeline, "STACK_BYTES", stack_bytes)
        ds = tiny_dataset(rng, n=40, m=20)
        train_scores, test_scores = (rng.standard_normal((40, 6)),
                                     rng.standard_normal((20, 6)))
        trainer = nn.mlp_trainer([4], nn.TrainConfig(
            learning_rate=0.3, steps=30, batch_size=8))
        stack_sizes = []

        def counting_trainer(stack, seeds):
            stack_sizes.append(stack.size)
            return trainer(stack, seeds)

        cells = [(t, mode) for t in (0.2, 0.5, 0.8) for mode in (ROAR, KAR)]
        results = pipeline.retrain_estimator(
            ds, replacement_matrix(ds), train_scores, test_scores,
            "e", cells, counting_trainer, base_seed=3, runs_per_point=2)
        assert len(results) == len(cells)
        assert stack_sizes == {pipeline.STACK_BYTES: [6], 1: [1] * 6,
                               TWO_CELLS: [2] * 3}[stack_bytes]
        for (t, mode), cell_results in zip(cells, results):
            modified = make_modified_dataset(ds, train_scores, test_scores,
                                             "e", t, mode)
            solo = trainer(modified.as_dataset(),
                           pipeline.run_seeds(3, "e", t, mode, 2))
            for (model, acc), (solo_model, solo_acc) in zip(
                    cell_results, solo, strict=True):
                assert acc == solo_acc
                for la, lb in zip(model.layers[::2], solo_model.layers[::2]):
                    np.testing.assert_array_equal(la.weight, lb.weight)
                    np.testing.assert_array_equal(la.bias, lb.bias)


class TestDeletionMetric:
    def test_zero_threshold_is_original_accuracy(self, rng):
        ds = tiny_dataset(rng, n=60, m=30)
        model = nn.fit_least_squares(ds, ridge=1e-6, fit_bias=True)
        scores = np.arange(6.0)
        grid = run_deletion_metric(ds, model, [("e", scores)], [0.0])
        assert grid.records[0].accuracy == nn.accuracy(model, ds.test_x,
                                                       ds.test_y)
        assert grid.records[0].run_index == 0


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


class TestPersistence:
    def test_save_load_round_trip(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        scores = rng.standard_normal((20, 6)), rng.standard_normal((8, 6))
        [modified] = generate_modified_datasets(ds, {"e": scores}, [0.5])
        save_modified_dataset(modified, str(tmp_path / "cell"))
        loaded = load_modified_dataset(str(tmp_path / "cell"))
        # float32 on disk by contract
        np.testing.assert_allclose(loaded.train_x, modified.train_x,
                                   atol=1e-6)
        np.testing.assert_array_equal(loaded.train_y, modified.train_y)
        assert loaded.provenance == modified.provenance

    def test_image_shape_survives_round_trip(self, tmp_path):
        ds = datasets.generate_bars(40, 10, size=4, seed=1)
        # float32-exact features, so the float32 files hold them exactly.
        ds.train_x = ds.train_x.astype(np.float32).astype(np.float64)
        scores = np.arange(ds.n_features, dtype=np.float64)
        [modified] = generate_modified_datasets(ds, {"e": (scores, scores)},
                                                [0.0])
        save_modified_dataset(modified, str(tmp_path / "cell"))
        loaded = load_modified_dataset(str(tmp_path / "cell"))
        assert loaded.image_shape == ds.image_shape == (4, 4, 1)
        assert loaded.as_dataset().image_shape == ds.image_shape
        np.testing.assert_array_equal(
            replacement_matrix(loaded.as_dataset()), replacement_matrix(ds))
        assert loaded.train_y.dtype == loaded.test_y.dtype == np.int64

    def test_flat_image_shape_round_trips_as_none(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        scores = rng.standard_normal((20, 6)), rng.standard_normal((8, 6))
        [modified] = generate_modified_datasets(ds, {"e": scores}, [0.5])
        save_modified_dataset(modified, str(tmp_path / "cell"))
        manifest = (tmp_path / "cell" / "manifest.txt").read_text()
        assert "image_shape=none\n" in manifest
        assert load_modified_dataset(str(tmp_path / "cell")).image_shape \
            is None

    def test_manifest_without_image_shape_is_refused(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        scores = rng.standard_normal((20, 6)), rng.standard_normal((8, 6))
        [modified] = generate_modified_datasets(ds, {"e": scores}, [0.5])
        save_modified_dataset(modified, str(tmp_path / "cell"))
        manifest = tmp_path / "cell" / "manifest.txt"
        manifest.write_text("".join(
            line for line in manifest.read_text().splitlines(keepends=True)
            if not line.startswith("image_shape=")))
        with pytest.raises(ProvenanceError, match="image_shape"):
            load_modified_dataset(str(tmp_path / "cell"))

    def test_checksum_mismatch_detected(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        scores = rng.standard_normal((20, 6)), rng.standard_normal((8, 6))
        [modified] = generate_modified_datasets(ds, {"e": scores}, [0.5])
        save_modified_dataset(modified, str(tmp_path / "cell"))
        path = tmp_path / "cell" / "train_features.f32"
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ProvenanceError, match="checksum"):
            load_modified_dataset(str(tmp_path / "cell"))


class TestSeeds:
    def test_derive_seed_is_stable_and_distinct(self):
        a = derive_seed(0, "e", "0.300000", ROAR, 0)
        assert a == derive_seed(0, "e", "0.300000", ROAR, 0)
        assert a != derive_seed(0, "e", "0.300000", ROAR, 1)
        assert a != derive_seed(1, "e", "0.300000", ROAR, 0)
        assert 0 <= a < 2 ** 64
