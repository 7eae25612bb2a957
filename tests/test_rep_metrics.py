"""Representation probes: Fréchet distance, spectrum measures, Gaussian fits."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.errors import DimensionMismatchError, ValidationError
from geoloop import rep_metrics as rm


def random_psd(rng, d, scale=1.0):
    a = rng.normal(0, scale, (d, d))
    return a @ a.T + 1e-9 * np.eye(d)


class TestFrechet:
    def test_identical_summaries(self):
        g = rm.GaussianSummary([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        assert rm.frechet_distance(g, g) == pytest.approx(0.0, abs=1e-9)

    def test_point_masses(self):
        a = rm.GaussianSummary([0.0, 0.0], np.zeros((2, 2)))
        b = rm.GaussianSummary([3.0, 4.0], np.zeros((2, 2)))
        assert rm.frechet_distance(a, b) == pytest.approx(25.0)

    def test_commuting_diagonal_closed_form(self):
        # tr(S1 + S2 - 2 sqrt(S1 S2)) = (1+4) + (4+1) - 2*(2+2) = 2
        a = rm.GaussianSummary([0.0, 0.0], np.diag([1.0, 4.0]))
        b = rm.GaussianSummary([0.0, 0.0], np.diag([4.0, 1.0]))
        assert rm.frechet_distance(a, b) == pytest.approx(2.0, abs=1e-9)

    def test_dimension_mismatch(self):
        a = rm.GaussianSummary([0.0], [[1.0]])
        b = rm.GaussianSummary([0.0, 0.0], np.eye(2))
        with pytest.raises(DimensionMismatchError):
            rm.frechet_distance(a, b)

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValidationError):
            rm.GaussianSummary([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])

    def test_non_psd_rejected(self):
        with pytest.raises(ValidationError):
            rm.GaussianSummary([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_symmetry_and_separation(self, seed, d):
        rng = np.random.default_rng(seed)
        a = rm.GaussianSummary(rng.normal(0, 1, d), random_psd(rng, d))
        b = rm.GaussianSummary(rng.normal(0, 1, d), random_psd(rng, d))
        dab = rm.frechet_distance(a, b)
        dba = rm.frechet_distance(b, a)
        assert dab == pytest.approx(dba, rel=1e-8, abs=1e-8)
        assert dab >= 0.0
        assert rm.frechet_distance(a, a) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("seed, d", [(388, 7), (2433, 5), (39, 6), (5186, 8)])
    def test_self_distance_roundoff(self, seed, d):
        # Taking the square roots of the eigenvalues of S^{1/2} S S^{1/2} put
        # d_F^2(a, a) at -4.2e-7, -4.4e-7, +1.8e-7 and +4.7e-7 here (tr S 26-62):
        # the first two raised, the last two missed the 1e-8 of the property test.
        rng = np.random.default_rng(seed)
        a = rm.GaussianSummary(rng.normal(0, 1, d), random_psd(rng, d))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert rm.frechet_distance(a, a) == pytest.approx(0.0, abs=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 64))
    def test_matrix_sqrt_reconstructs(self, seed, d):
        rng = np.random.default_rng(seed)
        mat = random_psd(rng, d)
        root = rm.psd_sqrt(mat)
        err = np.linalg.norm(root @ root - mat) / np.linalg.norm(mat)
        assert err < 1e-8


class TestEffectiveDims:
    def test_isotropic(self):
        dims = rm.effective_dims(rm.Spectrum([1.0, 1.0, 1.0, 1.0]))
        assert dims["effrank"] == pytest.approx(4.0)
        assert dims["participation_ratio"] == pytest.approx(4.0)

    def test_rank_one(self):
        dims = rm.effective_dims(rm.Spectrum([1.0, 0.0, 0.0]))
        assert dims["effrank"] == pytest.approx(1.0)
        assert dims["participation_ratio"] == pytest.approx(1.0)

    def test_two_to_one_spectrum(self):
        # Frozen from the scalar entropy oracle: exp(H(2/3, 1/3)), 9/5.
        dims = rm.effective_dims(rm.Spectrum([2.0, 1.0]))
        assert dims["effrank"] == pytest.approx(1.8898815748423097, abs=1e-12)
        assert dims["participation_ratio"] == pytest.approx(1.8)

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            rm.effective_dims(rm.Spectrum([0.0, 0.0]))

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            rm.Spectrum([1.0, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 10),
           st.floats(0.1, 100.0))
    def test_scale_invariance_and_range(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.random(n) + 1e-6)[::-1]
        dims = rm.effective_dims(rm.Spectrum(lam))
        scaled = rm.effective_dims(rm.Spectrum(lam * scale))
        assert dims["effrank"] == pytest.approx(scaled["effrank"], rel=1e-9)
        assert dims["participation_ratio"] == pytest.approx(
            scaled["participation_ratio"], rel=1e-9)
        for key in ("effrank", "participation_ratio"):
            assert 1.0 - 1e-9 <= dims[key] <= n + 1e-9


class TestGaussianFit:
    def test_unbiased_covariance(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        fit = rm.fit_gaussian(rm.EmpiricalMeasure(pts))
        assert fit.mean == pytest.approx([1.0, 0.0])
        assert fit.cov[0, 0] == pytest.approx(2.0)  # divide by B-1 = 1

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            rm.fit_gaussian(rm.EmpiricalMeasure([[1.0, 2.0]]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectrum_is_a_fresh_eigvalsh(self, seed):
        # The spectrum comes from the PSD check's eigenvalues; it equals
        # eigvalsh of the stored covariance, descending and clamped at 0.
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(32, 8))
        fit = rm.fit_gaussian(rm.EmpiricalMeasure(pts / np.linalg.norm(pts, axis=1, keepdims=True),
                                                  normalised=True))
        expected = np.clip(np.linalg.eigvalsh(fit.cov)[::-1], 0.0, None)
        assert np.array_equal(fit.spectrum().eigenvalues, expected)
