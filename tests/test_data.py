import math

import numpy as np
import pytest

from htlreg.cli import main as cli_main
from htlreg.data import (
    CsvError,
    Dataset,
    DomainTag,
    SyntheticSpec,
    doppler,
    doppler_fn,
    generate_synthetic,
    linear_w,
    load_csv,
    save_csv,
    subsample,
    uniform_sampler,
)
from htlreg.transform import non_transfer, offset

# frozen from an independent high-precision evaluation of
# sqrt(0.25) * sin(2.1*pi / 0.55)
DOPPLER_HALF = -0.2703204087


def doppler_offset_spec(noise_variance: float = 0.01) -> SyntheticSpec:
    """The offset benchmark's truth: doppler, and doppler + x on the target."""
    return SyntheticSpec(doppler_fn, offset(1.0), linear_w(slope=1.0),
                         noise_variance_source=noise_variance,
                         noise_variance_target=noise_variance)


class TestDoppler:
    def test_vanishes_at_endpoints(self):
        assert doppler(0.0) == 0.0
        assert doppler(1.0) == 0.0

    def test_midpoint_value(self):
        assert doppler(0.5) == pytest.approx(DOPPLER_HALF, abs=5e-11)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            doppler(-0.1)
        with pytest.raises(ValueError):
            doppler(1.5)

    def test_vectorized(self):
        xs = np.linspace(0, 1, 11)
        vals = doppler(xs)
        assert vals.shape == (11,)
        assert vals[0] == 0.0 and vals[-1] == 0.0


class TestDataset:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            Dataset(features=np.zeros((3, 1)), labels=np.zeros(2))

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            Dataset(features=np.zeros((0, 1)), labels=np.zeros(0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Dataset(features=[[0.0], [bad]], labels=[0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            Dataset(features=[[0.0], [1.0]], labels=[bad, 1.0])

    def test_immutable_arrays(self):
        ds = Dataset(features=[[1.0], [2.0]], labels=[1.0, 2.0])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.labels[0] = 9.0

    def test_fold_equals_a_fresh_sample_and_its_stable_sort(self):
        # a shuffled dyadic grid with every third point repeated, so the
        # stable sort's row-index tie rule shows
        rng = np.random.default_rng(6)
        xs = rng.permutation(np.r_[np.arange(33), np.arange(0, 33, 3)]) / 32
        data = Dataset(features=xs.reshape(-1, 1), labels=rng.normal(size=len(xs)),
                       domain_tag=DomainTag.SOURCE)
        for test_idx in np.array_split(np.random.default_rng(3).permutation(data.n), 5):
            fold = data.without(test_idx)
            fresh = Dataset(features=np.delete(data.features, test_idx, axis=0),
                            labels=np.delete(data.labels, test_idx))
            assert fold.domain_tag is DomainTag.SOURCE
            assert np.array_equal(fold.features, fresh.features)
            assert np.array_equal(fold.labels, fresh.labels)
            for derived, sort in zip(fold.sorted_1d, fresh.sorted_1d):
                assert derived.dtype == sort.dtype
                assert np.array_equal(derived, sort)

    def test_with_labels_shares_the_features_and_sorts_its_own_labels(self):
        data = Dataset(features=[[0.3], [0.1], [0.2]], labels=[1.0, 2.0, 3.0],
                       domain_tag=DomainTag.VALIDATION)
        data.sorted_1d  # cached before relabeling
        relabeled = data.with_labels([4.0, 5.0, 6.0])
        fresh = Dataset(features=data.features, labels=[4.0, 5.0, 6.0],
                        domain_tag=DomainTag.VALIDATION)
        assert relabeled.features is data.features
        assert relabeled.domain_tag is DomainTag.VALIDATION
        assert not relabeled.labels.flags.writeable
        assert relabeled.labels.tolist() == [4.0, 5.0, 6.0]
        for derived, sort in zip(relabeled.sorted_1d, fresh.sorted_1d):
            assert np.array_equal(derived, sort)

    @pytest.mark.parametrize("labels", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0],
                                        [1.0, math.nan, 3.0], [[1.0, math.inf, 3.0]]])
    def test_with_labels_rejects_a_wrong_count_or_a_non_finite_label(self, labels):
        data = Dataset(features=[[0.3], [0.1], [0.2]], labels=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="labels must be 3 finite values"):
            data.with_labels(labels)

    def test_take_keeps_the_order_and_the_tag_in_read_only_arrays(self):
        # a shuffled dyadic grid with repeats, so the taken sample's stable
        # sort must break ties by its own row order
        rng = np.random.default_rng(9)
        xs = rng.permutation(np.r_[np.arange(17), np.arange(0, 17, 2)]) / 16
        data = Dataset(features=xs.reshape(-1, 1), labels=rng.normal(size=len(xs)),
                       domain_tag=DomainTag.SOURCE)
        data.sorted_1d  # cached before taking
        rows = rng.permutation(data.n)[:15]
        taken = data.take(rows)
        fresh = Dataset(features=data.features[rows], labels=data.labels[rows])
        assert taken.domain_tag is DomainTag.SOURCE
        assert taken.features.tobytes() == fresh.features.tobytes()
        assert taken.labels.tobytes() == fresh.labels.tobytes()
        assert not (taken.features.flags.writeable or taken.labels.flags.writeable)
        for derived, sort in zip(taken.sorted_1d, fresh.sorted_1d):
            assert derived.dtype == sort.dtype
            assert np.array_equal(derived, sort)

    @pytest.mark.parametrize("rows", [[], np.array([], dtype=int), 1],
                             ids=["empty_list", "empty_array", "scalar"])
    def test_take_needs_one_or_more_rows(self, rows):
        data = Dataset(features=[[0.3], [0.1], [0.2]], labels=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="one or more row indices"):
            data.take(rows)

    @pytest.mark.parametrize("ties", ["none", "many", "signed_zeros"])
    def test_sorted_1d_is_the_stable_sort_bit_for_bit(self, ties):
        # samples large enough for numpy's default sort to reorder equal
        # values, which must then fall back to the stable sort
        rng = np.random.default_rng(8)
        if ties == "none":
            xs = rng.uniform(-1.0, 1.0, size=6000)
            assert len(np.unique(xs)) == len(xs)
        elif ties == "many":
            xs = rng.integers(-20, 21, size=8000) / 20
            xs[rng.choice(len(xs), size=300, replace=False)] = -0.0
        else:  # distinct values but for 50 zeros of each sign, interleaved
            xs = rng.uniform(-1.0, 1.0, size=5000)
            xs[rng.choice(len(xs), size=100, replace=False)] = np.tile([-0.0, 0.0], 50)
        data = Dataset(features=xs.reshape(-1, 1), labels=rng.normal(size=len(xs)))
        order = np.argsort(xs, kind="stable")
        sorted_xs, labels, got = data.sorted_1d
        assert np.array_equal(got, order)
        assert sorted_xs.tobytes() == xs[order].tobytes()
        assert labels.tobytes() == data.labels[order].tobytes()


class TestGenerateSynthetic:
    def test_zero_noise_identity_labels(self):
        spec = SyntheticSpec(
            source_fn=lambda X: X[:, 0],
            transformation=offset(0.0),
            w=lambda X: X[:, 0],
            input_sampler=uniform_sampler(1),
        )
        ds = generate_synthetic(spec, 3, DomainTag.SOURCE, seed=7)
        np.testing.assert_array_equal(ds.labels, ds.features[:, 0])

    def test_same_seed_bit_identical(self):
        spec = doppler_offset_spec(0.01)
        a = generate_synthetic(spec, 25, DomainTag.TARGET, seed=7)
        b = generate_synthetic(spec, 25, DomainTag.TARGET, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = generate_synthetic(spec, 25, DomainTag.TARGET, seed=8)
        assert not np.array_equal(a.labels, c.labels)

    def test_noise_centering_montecarlo(self):
        # residual mean within 3*sigma/sqrt(n) of 0 for the benchmark spec
        spec = doppler_offset_spec(0.01)
        ds = generate_synthetic(spec, 100, DomainTag.TARGET, seed=11)
        residuals = ds.labels - spec.target_fn(ds.features)
        assert abs(residuals.mean()) < 3 * 0.1 / math.sqrt(100)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noise_centering_large_sample(self, seed):
        spec = doppler_offset_spec(0.04)
        n = 10_000
        ds = generate_synthetic(spec, n, DomainTag.TARGET, seed=seed)
        residuals = ds.labels - spec.target_fn(ds.features)
        assert abs(residuals.mean()) < 4 * 0.2 / math.sqrt(n)

    def test_validation_uses_target_law(self):
        spec = SyntheticSpec(
            source_fn=lambda X: np.zeros(len(X)),
            transformation=non_transfer(),
            w=lambda X: np.ones(len(X)),
            input_sampler=uniform_sampler(1),
        )
        ds = generate_synthetic(spec, 5, DomainTag.VALIDATION, seed=0)
        np.testing.assert_array_equal(ds.labels, np.ones(5))

    def test_n_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(doppler_offset_spec(), 0, DomainTag.SOURCE, 0)


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n0,1\n\n1,3\n")  # the blank row is skipped
        ds = load_csv(path, "y")
        np.testing.assert_array_equal(ds.features, [[0.0], [1.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, 3.0])

    @pytest.mark.parametrize("text, message", [
        ("", "empty file, expected a header row"),
        ("x,y\n", "no data rows"),
        ("y\n1\n2\n", "no feature columns besides the label"),
    ], ids=["empty", "header_only", "label_only"])
    def test_file_without_a_sample_is_rejected(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(CsvError) as info:
            load_csv(path, "y")
        assert str(info.value) == f"{path}: {message}"

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n0,1\nfoo,3\n")
        with pytest.raises(CsvError, match=r"line 3.*column 'x'"):
            load_csv(path, "y")

    def test_non_finite_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n0,1\n2,nan\n")
        with pytest.raises(CsvError, match=r"non-finite.*line 3.*column 'y'"):
            load_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv", "y")

    def test_a_byte_order_mark_is_not_part_of_the_first_header(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports begin with the mark; the label
        # column comes first, so the mark would otherwise prefix its name
        text = "y,x0\n1,0\n3,0.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want, got = load_csv(plain, "y"), load_csv(marked, "y")
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "marked"])
    def test_a_file_that_is_not_utf8_names_the_file_and_the_byte(self, tmp_path, mark):
        # the bad byte lies past the first 8 KB a text stream decodes at once,
        # so its offset must count from the start of the file, mark included
        head = mark + b"x,y\n" + b"0.25,1.5\n" * 1500
        path = tmp_path / "t.csv"
        path.write_bytes(head + b"\xff,2\n")
        with pytest.raises(CsvError) as info:
            load_csv(path, "y")
        assert str(info.value) == (f"{path}: not UTF-8 text: invalid start byte "
                                   f"at byte {len(head)}")

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n0,1\n1,2,3\n")
        with pytest.raises(CsvError, match="line 3"):
            load_csv(path, "y")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n0,1\n")
        with pytest.raises(CsvError, match="label column"):
            load_csv(path, "z")

    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(doppler_offset_spec(0.01), 40, DomainTag.TARGET, 3)
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path, "y")
        np.testing.assert_allclose(back.features, ds.features, atol=1e-12)
        np.testing.assert_allclose(back.labels, ds.labels, atol=1e-12)


def test_subsample_deterministic():
    ds = generate_synthetic(doppler_offset_spec(0.0), 30, DomainTag.SOURCE, 1)
    a = subsample(ds, 10, seed=2)
    b = subsample(ds, 10, seed=2)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.n == 10
    with pytest.raises(ValueError):
        subsample(ds, 31, seed=0)


def _doppler_literal(X):
    x = X[:, 0]
    return np.sqrt(x * (1.0 - x)) * np.sin(2.1 * np.pi / (x + 0.05))


def _kin_source_literal(X):
    weights = np.array([0.35, -0.2, 0.15, 0.1, -0.25, 0.2, 0.05, -0.1])
    return X @ weights + 0.25 * np.sin(2.0 * np.pi * X[:, 0])


# synth dataset -> (features, source truth, target truth, source noise variance)
SYNTH_FORMULAS = {
    "doppler_offset": (1, _doppler_literal,
                       lambda X: _doppler_literal(X) + X[:, 0], 0.01),
    "doppler_scale": (1, _doppler_literal, lambda X: 5.0 * _doppler_literal(X), 0.01),
    "kin_analog": (8, _kin_source_literal,
                   lambda X: (_kin_source_literal(X)
                              + 0.5 * np.sin(4.0 * np.pi * X[:, 1]) * X[:, 2]), 0.001),
}


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("domain", ["source", "target"])
@pytest.mark.parametrize("dataset", sorted(SYNTH_FORMULAS))
def test_synth_writes_its_draws_labelled_by_the_benchmark_formulas(
        tmp_path, capsys, dataset, domain, seed):
    # the bytes of the kin CSVs fix the benchmark's recorded krr_cv_csv rows
    dim, f_so, f_ta, source_noise = SYNTH_FORMULAS[dataset]
    n, path = 60, tmp_path / "synth.csv"
    assert cli_main(["synth", "--dataset", dataset, "--domain", domain, "--n", str(n),
                     "--seed", str(seed), "--out", str(path)]) == 0
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, dim))
    truth, noise = (f_so, source_noise) if domain == "source" else (f_ta, 0.01)
    save_csv(Dataset(X, truth(X) + rng.normal(0.0, math.sqrt(noise), size=n)),
             tmp_path / "literal.csv")
    assert path.read_bytes() == (tmp_path / "literal.csv").read_bytes()
