import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from rmdn.data import (ParseError, ReturnSeries, TwoRegimeSpec, load_csv,
                       sample_seeds, simulate_mixture_process, write_csv)


class TestReturnSeries:
    def test_basic(self):
        s = ReturnSeries([0.01, -0.02], name="x")
        assert len(s) == 2 and s.name == "x"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ReturnSeries([0.01, math.nan])
        with pytest.raises(ValueError):
            ReturnSeries([math.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ReturnSeries([])

    def test_label_length_check(self):
        with pytest.raises(ValueError):
            ReturnSeries([0.1, 0.2], labels=["2020-01-01"])

    def test_labels_must_strictly_increase(self):
        with pytest.raises(ValueError):
            ReturnSeries([0.1, 0.2], labels=["2020-01-02", "2020-01-01"])
        with pytest.raises(ValueError):
            ReturnSeries([0.1, 0.2], labels=["2020-01-01", "2020-01-01"])
        ReturnSeries([0.1, 0.2], labels=["2020-01-01", "2020-01-02"])


class TestCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("return\n0.01\n-0.02\n0.005\n")
        s = load_csv(path)
        np.testing.assert_allclose(s.values, [0.01, -0.02, 0.005])
        assert s.name == "r"

    def test_with_labels(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("date,return\n2020-01-01,0.01\n2020-01-02,-0.02\n")
        s = load_csv(path, label_column="date")
        assert s.labels == ["2020-01-01", "2020-01-02"]

    def test_byte_order_mark_skipped(self, tmp_path):
        """Excel's "CSV UTF-8" starts the file with a byte-order mark, which
        must not become part of the first header."""
        path = tmp_path / "r.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,return\n2020-01-01,0.01\n2020-01-02,-0.02\n")
        s = load_csv(path, label_column="date")
        np.testing.assert_array_equal(s.values, [0.01, -0.02])
        assert s.labels == ["2020-01-01", "2020-01-02"]

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("ret\n0.01\n")
        with pytest.raises(ParseError, match="'return' not found"):
            load_csv(path)

    def test_missing_label_column_named(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("return\n0.01\n")
        with pytest.raises(ParseError, match="label column 'date' not found"):
            load_csv(path, label_column="date")

    def test_row_without_label_cell_names_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("return,date\n0.01,2020-01-01\n0.02\n")
        with pytest.raises(ParseError, match="row 3: missing label"):
            load_csv(path, label_column="date")

    @pytest.mark.parametrize("rows,row_no", [
        (",0.01\n2020-01-02,0.02\n", 2),
        ("2020-01-01,0.01\n ,0.02\n", 3),
    ], ids=["first-row", "later-row"])
    def test_blank_label_names_row(self, rows, row_no, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("date,return\n" + rows)
        with pytest.raises(ParseError, match=f"row {row_no}: missing label"):
            load_csv(path, label_column="date")

    def test_blank_cell_names_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("return\n0.01\n\n0.02\n,\n")
        # fully blank lines are skipped; a present-but-empty cell errors
        with pytest.raises(ParseError, match="row 5"):
            load_csv(path)

    def test_non_numeric_names_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("return\n0.01\nnot-a-number\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("return\n0.01\nnan\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("return\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(path)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        s = ReturnSeries(rng.normal(0, 0.017, 50),
                         labels=[f"2020-01-{d:02d}" for d in range(1, 51)]
                         if False else None)
        path = tmp_path / "rt.csv"
        write_csv(s, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.values, s.values)

    def test_round_trip_with_labels(self, tmp_path):
        s = ReturnSeries([0.1, -0.2, 0.3],
                         labels=["2021-03-01", "2021-03-02", "2021-03-03"])
        path = tmp_path / "lab.csv"
        write_csv(s, path)
        back = load_csv(path, label_column="date")
        np.testing.assert_array_equal(back.values, s.values)
        assert back.labels == s.labels


class TestMixtureProcess:
    def test_deterministic(self):
        spec = TwoRegimeSpec(0.0, 0.25, 0.0, 4.0, 0.5, 0.05)
        a = simulate_mixture_process(spec, 500, seed=3)
        b = simulate_mixture_process(spec, 500, seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_identical_regimes_look_gaussian(self):
        spec = TwoRegimeSpec(0.1, 0.5, 0.1, 0.5, 0.5, 0.3)
        s = simulate_mixture_process(spec, 5000, seed=4)
        stat, pvalue = stats.kstest(s.values, "norm", args=(0.1, math.sqrt(0.5)))
        assert pvalue > 0.01

    def test_degenerate_weight_pure_regime_one(self):
        spec = TwoRegimeSpec(0.0, 1e-6, 50.0, 1e-6, 1.0, 0.5)
        s = simulate_mixture_process(spec, 2000, seed=5)
        assert np.max(np.abs(s.values)) < 1.0  # regime 2 (mean 50) never drawn

    def test_marginal_variance_matches_mixture_formula(self):
        # i.i.d. switching makes the standard error of the sample variance exact
        spec = TwoRegimeSpec(0.3, 0.25, -0.1, 4.0, 0.6, 1.0)
        n = 10 ** 4
        s = simulate_mixture_process(spec, n, seed=6)
        w = np.array([0.6, 0.4])
        mu = np.array([0.3, -0.1])
        var = np.array([0.25, 4.0])
        mean = float(w @ mu)
        target = float(w @ (var + mu ** 2) - mean ** 2)
        d = mu - mean
        mu4 = float(w @ (3 * var ** 2 + 6 * var * d ** 2 + d ** 4))
        se = math.sqrt((mu4 - target ** 2) / n)
        assert abs(float(np.var(s.values)) - target) < 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoRegimeSpec(var1=-1.0)
        with pytest.raises(ValueError):
            TwoRegimeSpec(weight1=1.5)
        with pytest.raises(ValueError):
            TwoRegimeSpec(switch_prob=0.0)
        with pytest.raises(ValueError, match="t_len must be >= 1"):
            simulate_mixture_process(TwoRegimeSpec(), 0, seed=1)


# SHA-256 of ``simulate_mixture_process(SIM_SPECS[i], t_len, seed=i + 3).values
# .tobytes()``, keyed by (i, t_len): i.i.d. regimes (switch_prob 1.0) and sticky
# ones (0.05). Every benchmark input and acceptance series is such a path, so a
# change that moves any bit of one must show up here.
SIM_SPECS = (TwoRegimeSpec(), TwoRegimeSpec(0.1, 0.5, -0.2, 3.0, 0.7, 0.05))
SIM_DIGESTS = {
    (0, 1): "a6b0ef8ccd767bc8e1008d69d0b33887f640ed1106f1702a60a84a4cebb7e993",
    (0, 300): "3a550bffa0202dd108f26970e760e8f39ee2777b0a545532b46c6cde6c34edae",
    (0, 20000): "810b5749d6ec0a5e73c25c475f553090630d8acbe4072344afc318a9e098ab38",
    (1, 1): "f6a3c270626c5a27594e503676bebd9f9a1322c3233ef12b9ee3af2961ef06fa",
    (1, 300): "4af260b4869d168e3989b54d1310a14b16f6445914ff105a9281cb7bc66725f7",
    (1, 20000): "33c3b1662998c9a634596f07ebe5929157c61929b2b1f777663d42cf3bba116c",
}


@pytest.mark.parametrize("key", sorted(SIM_DIGESTS))
def test_simulated_path_is_pinned(key):
    i, t_len = key
    values = simulate_mixture_process(SIM_SPECS[i], t_len, seed=i + 3).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == SIM_DIGESTS[key]


class TestSampleSeeds:
    def test_contract(self):
        seeds = sample_seeds(10, 0, 50000, meta_seed=42)
        assert len(seeds) == 10
        assert len(set(seeds)) == 10
        assert all(0 <= s <= 50000 for s in seeds)
        assert all(isinstance(s, int) for s in seeds)

    def test_deterministic(self):
        assert sample_seeds(10, 0, 50000, meta_seed=7) == sample_seeds(10, 0, 50000, meta_seed=7)
        assert sample_seeds(10, 0, 50000, meta_seed=7) != sample_seeds(10, 0, 50000, meta_seed=8)

    def test_exhaustive_is_permutation(self):
        seeds = sample_seeds(11, 5, 15, meta_seed=1)
        assert sorted(seeds) == list(range(5, 16))

    def test_over_ask_rejected(self):
        with pytest.raises(ValueError):
            sample_seeds(12, 5, 15)

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_seeds(0)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            sample_seeds(1, 5, 5)
