"""InfoNCE losses, contrastive bounds, score plumbing."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.errors import ValidationError
from geoloop import mi


def scalar_row_loss(matrix):
    """Independent brute-force softmax arithmetic via math module."""
    n = len(matrix)
    total = 0.0
    for i in range(n):
        lse = math.log(sum(math.exp(v) for v in matrix[i]))
        total += -(matrix[i][i] - lse)
    return total / n


def scalar_col_loss(matrix):
    n = len(matrix)
    return scalar_row_loss([[matrix[i][j] for i in range(n)] for j in range(n)])


class TestInfonceLosses:
    def test_uniform_scores(self):
        losses = mi.infonce_losses(np.zeros((2, 2)))
        assert losses["row_loss"] == pytest.approx(math.log(2))
        assert losses["col_loss"] == pytest.approx(math.log(2))

    def test_strong_diagonal(self):
        losses = mi.infonce_losses(np.array([[10.0, 0.0], [0.0, 10.0]]))
        expected = math.log(1 + math.exp(-10))
        assert losses["row_loss"] == pytest.approx(expected, rel=1e-12)

    def test_single_candidate(self):
        losses = mi.infonce_losses(np.array([[3.7]]))
        assert losses["row_loss"] == 0.0
        assert losses["col_loss"] == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            mi.infonce_losses(np.zeros((2, 3)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_matches_scalar_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.normal(0, 2, (n, n))
        losses = mi.infonce_losses(scores)
        assert losses["row_loss"] == pytest.approx(scalar_row_loss(scores.tolist()), abs=1e-10)
        assert losses["col_loss"] == pytest.approx(scalar_col_loss(scores.tolist()), abs=1e-10)
        assert losses["row_loss"] >= 0.0
        assert losses["col_loss"] >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_shift_invariances(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(0, 1, (5, 5))
        row_shift = rng.normal(0, 3, (5, 1))
        col_shift = rng.normal(0, 3, (1, 5))
        base = mi.infonce_losses(scores)
        shifted_rows = mi.infonce_losses(scores + row_shift)
        shifted_cols = mi.infonce_losses(scores + col_shift)
        assert shifted_rows["row_loss"] == pytest.approx(base["row_loss"], abs=1e-9)
        assert shifted_cols["col_loss"] == pytest.approx(base["col_loss"], abs=1e-9)


def reference_log_softmax(scores, axis):
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def reference_infonce(scores):
    """Losses, diagonal statistic and softmaxes, each from its own pass over
    the matrix: the separate infonce_losses, diag_mi and SAMI-gradient
    formulas that infonce_losses' single pass replaces."""
    diag = np.arange(len(scores))
    row_ls, col_ls = reference_log_softmax(scores, 1), reference_log_softmax(scores, 0)
    row_loss = float(-np.mean(row_ls[diag, diag]))
    col_loss = float(-np.mean(col_ls[diag, diag]))
    row_term = float(np.mean(row_ls[diag, diag]))
    col_term = float(np.mean(col_ls[diag, diag]))
    soft_row = np.exp(scores - scores.max(axis=1, keepdims=True))
    soft_row /= soft_row.sum(axis=1, keepdims=True)
    soft_col = np.exp(scores - scores.max(axis=0, keepdims=True))
    soft_col /= soft_col.sum(axis=0, keepdims=True)
    return {"row_loss": max(0.0, row_loss), "col_loss": max(0.0, col_loss),
            "diag_mi": min(0.0, 0.5 * (row_term + col_term)),
            "row_softmax": soft_row, "col_softmax": soft_col}


def reference_cases(seed):
    """Square score matrices: random, tied on a coarse grid, with constant
    rows or columns, all equal, and 1 x 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    scores = rng.normal(0, rng.choice([0.1, 2.0, 30.0]), (n, n))
    tied = np.round(scores)
    constant_rows = scores.copy()
    constant_rows[::3] = rng.normal()
    constant_cols = scores.copy()
    constant_cols[:, 1::2] = rng.normal()
    return [scores, tied, constant_rows, constant_cols, np.full((n, n), rng.normal()),
            rng.normal(0, 5, (1, 1))]


class TestInfonceSinglePass:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_separate_formulas_bit_for_bit(self, seed):
        for scores in reference_cases(seed):
            got, want = mi.infonce_losses(scores), reference_infonce(scores)
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert np.array_equal(got[key], value), key
            assert mi.diag_mi(scores) == want["diag_mi"]


class TestDiagMi:
    def test_uniform(self):
        assert mi.diag_mi(np.zeros((2, 2))) == pytest.approx(-math.log(2))

    def test_strong_diagonal(self):
        expected = -math.log(1 + math.exp(-10))
        assert mi.diag_mi(np.diag([10.0, 10.0])) == pytest.approx(expected, rel=1e-9)

    def test_one_by_one(self):
        assert mi.diag_mi(np.array([[5.0]])) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_never_positive(self, seed, n):
        rng = np.random.default_rng(seed)
        assert mi.diag_mi(rng.normal(0, 3, (n, n))) <= 0.0


class TestShapingTerm:
    def test_zero_weight(self):
        assert mi.shaping_term(np.zeros((3, 3)), [True] * 3, 0.0) == 0.0

    def test_empty_mask(self):
        assert mi.shaping_term(np.eye(3), [False] * 3, 0.5) == 0.0

    def test_uniform_scores_full_mask(self):
        assert mi.shaping_term(np.zeros((4, 4)), [True] * 4, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_constant_shift_cancels(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(0, 1, (5, 5))
        mask = [True, False, True, False, True]
        a = mi.shaping_term(scores, mask, 0.3)
        b = mi.shaping_term(scores + 7.0, mask, 0.3)
        assert a == pytest.approx(b, abs=1e-9)


class TestBounds:
    def test_equal_scores_chance_level(self):
        assert mi.infonce_bound(np.zeros((10, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_ceiling_approach(self):
        scores = np.zeros((4, 3))
        scores[:, 0] = 50.0
        assert mi.infonce_bound(scores) == pytest.approx(math.log(3), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 6), st.integers(1, 20))
    def test_never_exceeds_ceiling(self, seed, k, n):
        rng = np.random.default_rng(seed)
        scores = rng.normal(0, 5, (n, k + 1))
        assert mi.infonce_bound(scores) <= math.log(k + 1) + 1e-9

    def test_clean_bounds_masking(self):
        # K is read from the blocks' width.
        rng = np.random.default_rng(2)
        mask = np.array([True, False, True, True, False, True])
        for k in (1, 2, 5):
            rows, cols = rng.normal(0, 1, (2, 6, k + 1))
            out = mi.clean_mi_bounds(rows, cols, mask)
            assert out["clean_count"] == 4
            assert out["row_bound"] == mi.infonce_bound(rows[mask]) <= math.log(k + 1)
            assert out["col_bound"] == mi.infonce_bound(cols[mask])

    def test_zero_clean_rows(self):
        out = mi.clean_mi_bounds(np.zeros((3, 3)), np.zeros((3, 3)), [False, False, False])
        assert math.isnan(out["row_bound"])
        assert math.isnan(out["col_bound"])
        assert out["clean_count"] == 0

    def test_candidate_count_checked(self):
        # K is the blocks' width less the positive: a one-column block has no
        # shadow, and is refused even when no row is clean.
        for clean in ([True, True, True], [False, False, False]):
            with pytest.raises(ValidationError, match="at least one shadow"):
                mi.clean_mi_bounds(np.zeros((3, 1)), np.zeros((3, 1)), clean)

    def test_row_and_column_blocks_must_align(self):
        with pytest.raises(ValidationError):
            mi.clean_mi_bounds(np.zeros((3, 3)), np.zeros((4, 3)), [True, True, True])

    def test_bound_needs_a_shadow_column(self):
        with pytest.raises(ValidationError, match="at least one shadow"):
            mi.infonce_bound(np.zeros((3, 1)))

    def test_clean_mask_of_another_length_rejected(self):
        scores = np.zeros((3, 2))
        with pytest.raises(ValidationError, match="clean mask length must match the batch"):
            mi.clean_mi_bounds(scores, scores, [True, True])


class TestShadowDraws:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_never_true_never_duplicate(self, seed):
        rng = np.random.default_rng(seed)
        pool = [f"p{i}" for i in range(6)]
        draw = mi.draw_shadows(pool, "p2", 3, rng)
        assert "p2" not in draw
        assert len(set(draw)) == 3

    def test_small_pool_falls_back_to_replacement(self):
        rng = np.random.default_rng(0)
        draw = mi.draw_shadows(["a", "b"], "a", 3, rng)
        assert draw == ("b", "b", "b")

    def test_no_alternatives_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            mi.draw_shadows(["only"], "only", 1, rng)

    @pytest.mark.parametrize("m, k", [(8, 2), (3, 2), (2, 3)])
    def test_candidates_are_draw_shadows_over_the_columns(self, m, k):
        # (2, 3): one alternative, so the picks fall back to replacement.
        true = np.random.default_rng(m).integers(0, m, 20)
        got = mi.shadow_candidates(np.random.default_rng(7), true, m, k)
        rng = np.random.default_rng(7)
        expected = [[j, *mi.draw_shadows(range(m), j, k, rng)] for j in true]
        assert got.tolist() == expected


class TestSequenceScores:
    def test_standardisation_constant_row(self):
        # A constant row scales to all zeros, so its z is chance level.  Any
        # other row is scaled to mean 0 and population std 1 first, so a
        # positive affine map of it leaves z as it was.
        z = mi.row_positive_logsoftmax(
            np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0], [10.0, 13.0, 16.0]]))
        assert z[0] == pytest.approx(-math.log(3))
        unit = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2 / 3)
        assert z[1] == pytest.approx(unit[0] - math.log(np.exp(unit).sum()), rel=1e-12)
        assert z[2] == pytest.approx(z[1], rel=1e-12)

    def test_row_positive_logsoftmax_bits(self):
        # The scaling takes numpy's mean and population std, bit for bit.
        scores = np.random.default_rng(5).normal(0, 3, (32, 3))
        scores[4] = 1.5
        mu, sigma = scores.mean(axis=1), scores.std(axis=1)
        scaled = (scores - mu[:, None]) / np.where(sigma > 0, sigma, 1.0)[:, None]
        scaled[sigma == 0] = 0.0
        assert np.array_equal(mi.row_positive_logsoftmax(scores),
                              mi._log_softmax(scaled, axis=1)[:, 0])

    def test_row_positive_logsoftmax_uniform(self):
        z = mi.row_positive_logsoftmax(np.ones((4, 3)) * 2.0)
        assert z == pytest.approx([-math.log(3)] * 4)


class TestScoreCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        scores = rng.normal(0, 1, (3, 5))
        path = tmp_path / "scores.csv"
        mi.write_score_csv(scores, path)
        assert path.read_text().splitlines()[0] == "normalisation=length_mean,N=3,M=5"
        back = mi.read_score_csv(path)
        assert back.dtype == np.float64 and np.array_equal(back, scores)

    @pytest.mark.parametrize("label", mi.NORMALISATIONS)
    def test_every_label_reads_as_its_array(self, tmp_path, label):
        path = tmp_path / "scores.csv"
        path.write_text(f"normalisation={label},N=2,M=2\n0.0,-1.5\n-2.0,0.25\n")
        assert np.array_equal(mi.read_score_csv(path), [[0.0, -1.5], [-2.0, 0.25]])

    @pytest.mark.parametrize("header, body, message", [
        ("normalisation=mean,N=2,M=2", "0.0,inf\n", "does not match header (2,2)"),
        ("normalisation=mean,N=1,M=2", "0.0,inf\n", "score matrix entries must be finite"),
        ("normalisation=mean,N=1,M=2", "0.0,1.0\n", "unknown normalisation 'mean'")],
        ids=["shape", "finiteness", "label"])
    def test_refusals_in_order(self, tmp_path, header, body, message):
        # Shape, then finiteness, then the label: each row breaks every
        # later rule too.
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n{body}")
        with pytest.raises(ValidationError, match=re.escape(f"score CSV {path}: ")) as err:
            mi.read_score_csv(path)
        assert str(err.value).endswith(message)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("normalisation=length_mean,N=2,M=2\n0.0,0.0\n")
        with pytest.raises(ValidationError):
            mi.read_score_csv(path)
