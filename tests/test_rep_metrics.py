"""Representation probes: Fréchet distance, spectrum measures, Gaussian fits."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.errors import ValidationError
from geoloop import rep_metrics as rm


def random_psd(rng, d, scale=1.0):
    a = rng.normal(0, scale, (d, d))
    return a @ a.T + 1e-9 * np.eye(d)


def psd_sqrt_frechet(a, b):
    """The squared Fréchet distance with the cross term taken from the
    covariances' matrix square roots, unclamped: the reference for the
    factor route."""
    cross = np.linalg.svd(rm.psd_sqrt(a.cov) @ rm.psd_sqrt(b.cov), compute_uv=False)
    diff = a.mean - b.mean
    return float(diff @ diff + np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.sum(cross))


def unit_cloud(rng, b, d):
    pts = rng.normal(size=(b, d))
    return rm.EmpiricalMeasure(pts / np.linalg.norm(pts, axis=1, keepdims=True))


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
        with pytest.raises(ValidationError):
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
        # a against itself returns 0 before the cross term; a rotated factor
        # describes the same Gaussian and goes through it.
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        rotated = rm.GaussianSummary(a.mean, a.cov, q @ a.factor)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert rm.frechet_distance(a, a) == pytest.approx(0.0, abs=1e-8)
            assert rm.frechet_distance(a, rotated) == pytest.approx(0.0, abs=1e-8)
            assert rm.frechet_distance(rotated, a) == pytest.approx(0.0, abs=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 64))
    def test_matrix_sqrt_reconstructs(self, seed, d):
        rng = np.random.default_rng(seed)
        mat = random_psd(rng, d)
        root = rm.psd_sqrt(mat)
        err = np.linalg.norm(root @ root - mat) / np.linalg.norm(mat)
        assert err < 1e-8

    def test_beyond_roundoff_raises(self):
        # A factor of 10 I against the identity covariance: the cross term
        # counts 20 where tr S1 + tr S2 is 4, so d_F^2 reads -36.
        wrong = rm.GaussianSummary(np.zeros(2), np.eye(2), 10.0 * np.eye(2))
        with pytest.raises(ValidationError, match="Fréchet distance -36.0 too negative"):
            rm.frechet_distance(wrong, rm.GaussianSummary(np.zeros(2), np.eye(2)))


class TestFactorRoute:
    """frechet_distance takes tr(cross) from the summaries' factors: the centred
    points of a fit, psd_sqrt(cov) of an explicit covariance."""

    @staticmethod
    def summaries(rng, b, d, kinds):
        out = []
        for kind in kinds:
            if kind == "fit":
                out.append(rm.fit_gaussian(unit_cloud(rng, b, d)))
            else:
                out.append(rm.GaussianSummary(rng.normal(0, 0.3, d),
                                              random_psd(rng, d, 0.3)))
        return out

    @pytest.mark.parametrize("kinds, b, d", [
        *((("fit", "fit"), b, d) for b, d in [(8, 32), (16, 32), (32, 32), (48, 32),
                                              (2, 3), (3, 3), (5, 3), (12, 3)]),
        *((kinds, b, d) for kinds in [("fit", "cov"), ("cov", "fit")]
          for b, d in [(48, 32), (5, 3), (12, 3)]),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_psd_sqrt_formula(self, seed, kinds, b, d):
        rng = np.random.default_rng(seed)
        a, c = self.summaries(rng, b, d, kinds)
        scale = float(np.trace(a.cov) + np.trace(c.cov))
        assert abs(rm.frechet_distance(a, c) - psd_sqrt_frechet(a, c)) <= 1e-12 * scale

    @pytest.mark.parametrize("seed, b, d, exact", [
        (1, 2, 3, 0.9872538476353266), (1, 3, 3, 0.9599457291044136),
        (0, 8, 32, 83.35064837767138)])
    def test_rank_deficient_fit_against_a_covariance(self, seed, b, d, exact):
        # A fit of B <= d points against a full-rank explicit covariance;
        # exact is frozen from a 50-digit mpmath evaluation of the same
        # inputs.  The psd_sqrt formula misses it by 8.9e-10, 6.2e-10 and
        # 1.3e-7: the square roots of the fit's zero eigenvalues are
        # sqrt(eps)-sized, and the full-rank side does not cancel them.
        rng = np.random.default_rng(seed)
        a, c = self.summaries(rng, b, d, ("fit", "cov"))
        scale = float(np.trace(a.cov) + np.trace(c.cov))
        assert abs(rm.frechet_distance(a, c) - exact) <= 1e-12 * scale
        assert abs(rm.frechet_distance(c, a) - exact) <= 1e-12 * scale

    @pytest.mark.parametrize("b, d", [(8, 32), (32, 32), (48, 32), (4, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_in_its_arguments(self, seed, b, d):
        rng = np.random.default_rng(seed)
        a, c = self.summaries(rng, b, d, ("fit", "fit"))
        scale = float(np.trace(a.cov) + np.trace(c.cov))
        assert abs(rm.frechet_distance(a, c) - rm.frechet_distance(c, a)) <= 1e-12 * scale

    @pytest.mark.parametrize("b, d", [(8, 32), (32, 32), (48, 32), (4, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_cloud_against_itself(self, seed, b, d):
        rng = np.random.default_rng(seed)
        pts = unit_cloud(rng, b, d).points
        # Duplicate completions make the cloud rank-deficient.
        pts[1::3] = pts[0]
        fit = rm.fit_gaussian(rm.EmpiricalMeasure(pts))
        twice = rm.fit_gaussian(rm.EmpiricalMeasure(pts.copy()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rm.frechet_distance(fit, twice) == 0.0
        # The same points in another order: the same Gaussian, reached
        # through roundoff.
        shuffled = rm.fit_gaussian(rm.EmpiricalMeasure(pts[::-1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rm.FrechetClampWarning)
            assert rm.frechet_distance(fit, shuffled) <= rm._FRECHET_ROUNDOFF

    def test_fit_factor_is_the_centred_points(self):
        rng = np.random.default_rng(3)
        cloud = unit_cloud(rng, 10, 4)
        fit = rm.fit_gaussian(cloud)
        centred = cloud.points - cloud.points.mean(axis=0)
        assert np.array_equal(fit.factor, centred / 3.0)
        assert np.allclose(fit.factor.T @ fit.factor, fit.cov, rtol=0, atol=1e-15)

    def test_explicit_covariance_factor_is_psd_sqrt(self):
        cov = random_psd(np.random.default_rng(4), 5)
        g = rm.GaussianSummary(np.zeros(5), cov)
        assert np.array_equal(g.factor, rm.psd_sqrt(g.cov))

    def test_factor_width_must_be_the_dimension(self):
        with pytest.raises(ValidationError):
            rm.GaussianSummary(np.zeros(2), np.eye(2), np.ones((3, 3)))

    def test_covariance_must_match_the_mean(self):
        with pytest.raises(ValidationError, match="cov must be d x d for a d-vector mean"):
            rm.GaussianSummary(np.zeros(2), np.eye(3))


class TestStatedTolerances:
    """The symmetry check holds at the 1e-9 it states, with no relative
    slack on top."""

    def test_asymmetry_beyond_1e_9_rejected(self):
        # 5e-6 on unit entries: within allclose's default rtol of 1e-5.
        cov = np.array([[2.0, 1.0], [1.0 + 5e-6, 2.0]])
        with pytest.raises(ValidationError):
            rm.GaussianSummary([0.0, 0.0], cov)

    def test_asymmetry_within_1e_9_accepted(self):
        cov = np.array([[1.0, 0.5], [0.5 + 5e-10, 1.0]])
        g = rm.GaussianSummary([0.0, 0.0], cov)
        assert g.cov[0, 1] == g.cov[1, 0]


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

    @pytest.mark.parametrize("eigenvalues, message", [
        ([], "non-empty 1-D vector"), ([1.0, -0.5], "eigenvalues must be nonnegative")],
        ids=["empty", "negative"])
    def test_empty_or_negative_rejected(self, eigenvalues, message):
        with pytest.raises(ValidationError, match=message):
            rm.Spectrum(eigenvalues)


class TestGaussianFit:
    def test_unbiased_covariance(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        fit = rm.fit_gaussian(rm.EmpiricalMeasure(pts))
        assert fit.mean == pytest.approx([1.0, 0.0])
        assert fit.cov[0, 0] == pytest.approx(2.0)  # divide by B-1 = 1

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            rm.fit_gaussian(rm.EmpiricalMeasure([[1.0, 2.0]]))

    @pytest.mark.parametrize("seed", range(8))
    def test_fit_equals_the_checked_summary_bit_for_bit(self, seed):
        # The reference is the fit through GaussianSummary's checks: the
        # covariance symmetrised and eigvalsh of that.  Clouds of 2 to 40
        # points in 1 to 32 dimensions, some with repeated or equal points.
        rng = np.random.default_rng(seed)
        b, d = int(rng.integers(2, 41)), int(rng.choice([1, 2, 7, 32]))
        pts = rng.normal(0, rng.choice([1e-3, 1.0, 50.0]), (b, d))
        if seed % 4 == 1:
            pts[1::2] = pts[0]
        if seed % 4 == 2:
            pts[:] = pts[0]
        fit = rm.fit_gaussian(rm.EmpiricalMeasure(pts))
        centred = pts - pts.mean(axis=0)
        cov = centred.T @ centred / (b - 1)
        checked = rm.GaussianSummary(pts.mean(axis=0), cov, centred / math.sqrt(b - 1))
        assert np.array_equal(fit.cov, fit.cov.T)
        for name in ("mean", "cov", "factor", "eigenvalues"):
            assert np.array_equal(getattr(fit, name), getattr(checked, name)), name
        assert np.array_equal(fit.eigenvalues, np.linalg.eigvalsh(0.5 * (cov + cov.T)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.random.default_rng(5).normal(size=(6, 3))
        pts[2, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            rm.fit_gaussian(rm.EmpiricalMeasure(pts))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectrum_is_a_fresh_eigvalsh(self, seed):
        # The spectrum equals eigvalsh of the stored covariance, descending
        # and clamped at 0.
        rng = np.random.default_rng(seed)
        fit = rm.fit_gaussian(unit_cloud(rng, 32, 8))
        expected = np.clip(np.linalg.eigvalsh(fit.cov)[::-1], 0.0, None)
        assert np.array_equal(fit.spectrum().eigenvalues, expected)

    def test_measure_needs_a_point(self):
        with pytest.raises(ValidationError, match="at least one point"):
            rm.EmpiricalMeasure(np.zeros((0, 2)))
