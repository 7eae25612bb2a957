"""Categorical-distribution probes: frozen oracles and randomized properties."""
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.errors import ValidationError
from geoloop import cli
from geoloop import prob_metrics as pm


def scalar_probe_oracle(p, q):
    """Independent scalar-arithmetic oracle for every probe quantity."""
    bc = sum(math.sqrt(a * b) for a, b in zip(p, q))
    m = [(a + b) / 2 for a, b in zip(p, q)]

    def kl(x, y):
        return sum(a * math.log(a / b) for a, b in zip(x, y) if a > 0)

    js = 0.5 * kl(p, m) + 0.5 * kl(q, m)
    return {
        "bc": bc,
        "bhat_angle": math.acos(min(1.0, bc)),
        "hellinger": math.sqrt(1 - min(1.0, bc)),
        "js_nats": js,
        "fr": 2 * math.acos(min(1.0, bc)),
    }


def random_simplex(rng, n):
    v = rng.random(n) + 1e-3
    return v / v.sum()


class TestProbeReport:
    def test_identity_pair(self):
        rec = pm.probe_report([0.5, 0.5], [0.5, 0.5])
        assert rec["bc"] == pytest.approx(1.0, abs=1e-15)
        for key in ("bhat_angle", "bhat_distance", "hellinger", "js_nats",
                    "js_bits", "fr_distance"):
            assert rec[key] == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports(self):
        rec = pm.probe_report([1.0, 0.0], [0.0, 1.0])
        assert rec["bc"] == 0.0
        assert rec["bhat_angle"] == pytest.approx(math.pi / 2)
        assert rec["hellinger"] == pytest.approx(1.0)
        assert rec["js_bits"] == pytest.approx(1.0)
        assert rec["fr_distance"] == pytest.approx(math.pi)
        assert rec["bhat_distance"] == math.inf

    def test_skewed_pair_against_oracle(self):
        # Oracle values recomputed in scalar_probe_oracle and frozen here.
        rec = pm.probe_report([0.5, 0.5], [0.9, 0.1])
        assert rec["bc"] == pytest.approx(0.8944271909999159, abs=1e-12)
        assert rec["bhat_angle"] == pytest.approx(0.46364760900080615, abs=1e-12)
        assert rec["hellinger"] == pytest.approx(0.32491969623290634, abs=1e-12)
        assert rec["js_nats"] == pytest.approx(0.10174922507919676, abs=1e-12)
        oracle = scalar_probe_oracle([0.5, 0.5], [0.9, 0.1])
        assert rec["js_bits"] == pytest.approx(oracle["js_nats"] / math.log(2))
        assert rec["fr_distance"] == pytest.approx(oracle["fr"])

    def test_support_mismatch(self):
        with pytest.raises(ValidationError):
            pm.probe_report([0.5, 0.5], [0.5, 0.25, 0.25])

    def test_unnormalised_input(self):
        with pytest.raises(ValidationError):
            pm.probe_report([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValidationError):
            pm.ProbVector([-0.1, 1.1])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12))
    def test_random_pair_properties(self, seed, n):
        rng = np.random.default_rng(seed)
        p, q = random_simplex(rng, n), random_simplex(rng, n)
        rec = pm.probe_report(p, q)
        rec_swapped = pm.probe_report(q, p)
        for key in pm.PROBE_CSV_FIELDS:
            assert rec[key] == pytest.approx(rec_swapped[key], abs=1e-12)
        assert rec["fr_distance"] == 2.0 * rec["bhat_angle"]
        assert rec["hellinger"] ** 2 + rec["bc"] == pytest.approx(1.0, abs=1e-12)
        assert rec["js_bits"] <= 1.0 + 1e-12
        oracle = scalar_probe_oracle(list(p), list(q))
        assert rec["bc"] == pytest.approx(oracle["bc"], abs=1e-10)
        assert rec["js_nats"] == pytest.approx(oracle["js_nats"], abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_js_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        p = random_simplex(rng, 6)
        assert pm.js_divergence_nats(p, p) == pytest.approx(0.0, abs=1e-12)
        q = random_simplex(rng, 6)
        if np.max(np.abs(p - q)) > 1e-6:
            assert pm.js_divergence_nats(p, q) > 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10_000))
    def test_fr_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        p, q, r = (random_simplex(rng, 5) for _ in range(3))
        assert pm.fr_distance(p, r) <= pm.fr_distance(p, q) + pm.fr_distance(q, r) + 1e-9

    def test_js_supports_of_different_sizes_rejected(self):
        with pytest.raises(ValidationError, match="support mismatch: 2 vs 3"):
            pm.js_divergence_nats([0.5, 0.5], [0.25, 0.25, 0.5])

    @pytest.mark.parametrize("probs", [np.full((2, 2), 0.25), np.zeros(0)],
                             ids=["2-D", "empty"])
    def test_prob_vector_must_be_a_non_empty_vector(self, probs):
        with pytest.raises(ValidationError, match="non-empty 1-D vector"):
            pm.ProbVector(probs)


class TestPathStats:
    def test_great_circle_path(self):
        stats = pm.fr_path_stats(([1, 0], [0.5, 0.5], [0, 1]))
        assert stats["segment_lengths"] == pytest.approx([math.pi / 2, math.pi / 2])
        assert stats["cumulative_length"] == pytest.approx(math.pi)
        assert stats["endpoint_geodesic"] == pytest.approx(math.pi)
        assert stats["ratio"] == pytest.approx(1.0)
        assert not stats["degenerate"]

    def test_stationary_path(self):
        stats = pm.fr_path_stats(([0.3, 0.7], [0.3, 0.7]))
        assert stats["cumulative_length"] == pytest.approx(0.0, abs=1e-9)
        assert math.isnan(stats["ratio"])
        assert stats["degenerate"]

    def test_closed_loop(self):
        stats = pm.fr_path_stats(([1, 0], [0.5, 0.5], [1, 0]))
        assert stats["cumulative_length"] == pytest.approx(math.pi)
        assert stats["endpoint_geodesic"] == pytest.approx(0.0, abs=1e-9)
        assert math.isnan(stats["ratio"])
        assert stats["degenerate"]

    def test_needs_two_checkpoints(self):
        with pytest.raises(ValidationError):
            pm.fr_path_stats(([1, 0],))

    @pytest.mark.parametrize("measure", [pm.fr_path_stats, pm.turning_angles])
    def test_checkpoints_must_share_one_support(self, measure):
        with pytest.raises(ValidationError):
            measure(([1, 0], [0.2, 0.3, 0.5], [0.5, 0.5]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 6))
    def test_ratio_at_least_one(self, seed, length):
        rng = np.random.default_rng(seed)
        cps = [random_simplex(rng, 4) for _ in range(length)]
        stats = pm.fr_path_stats(cps)
        if not stats["degenerate"]:
            assert stats["ratio"] >= 1.0 - 1e-9


class TestTurningAngles:
    def test_quarter_circle_turn(self):
        # Chord-turn of a two-segment great-circle path: pi/4 (frozen from the
        # sqrt-embedding chord oracle).
        angles = pm.turning_angles(([1, 0], [0.5, 0.5], [0, 1]))
        assert angles == pytest.approx([math.pi / 4], abs=1e-12)

    def test_repeated_middle_point(self):
        angles = pm.turning_angles(([0.2, 0.8], [0.2, 0.8], [0.6, 0.4]))
        assert angles[0] == 0.0

    def test_exact_reversal(self):
        angles = pm.turning_angles(([1, 0], [0.5, 0.5], [1, 0]))
        assert angles[0] == pytest.approx(math.pi)

    def test_needs_three_checkpoints(self):
        with pytest.raises(ValidationError):
            pm.turning_angles(([1, 0], [0, 1]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_angles_in_range(self, seed):
        rng = np.random.default_rng(seed)
        cps = [random_simplex(rng, 4) for _ in range(5)]
        for angle in pm.turning_angles(cps):
            assert 0.0 <= angle <= math.pi


def perturb(base, alpha, beta):
    """Per-cell reference: power-temper a ProbVector, then mix it toward uniform."""
    powered = np.power(base.probs, alpha)
    tempered = powered / float(np.sum(powered))
    uniform = np.full(base.probs.size, 1.0 / base.probs.size)
    return pm.ProbVector((1.0 - beta) * tempered + beta * uniform)


def reference_grid(base, alphas, betas):
    """landscape_grid one cell at a time, as the probe computed it before it was batched."""
    base = pm.ProbVector(base)
    grid = np.empty((len(alphas), len(betas)))
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            grid[i, j] = pm.fr_distance(base, perturb(base, float(a), float(b)))
    return grid


def landscape_bases():
    rng = np.random.default_rng(11)
    bases = [rng.dirichlet(np.full(16, c)) for c in (0.05, 0.3, 1.0, 5.0) for _ in range(5)]
    zeros = np.zeros(16)
    zeros[[1, 4, 9]] = [0.5, 0.3, 0.2]
    return bases + [zeros]


class TestLandscape:
    # The grid's alpha 1 (row 5) and betas 0 and 1 (first and last columns)
    # are exact in floating point.
    UNIT_ALPHA = 5

    def test_matches_the_per_cell_loop(self):
        # The probe's 11x11 grid, bit for bit.
        alphas, betas = np.linspace(0.5, 1.5, 11), np.linspace(0.0, 1.0, 11)
        assert np.array_equal(pm.LANDSCAPE_ALPHAS, alphas)
        assert np.array_equal(pm.LANDSCAPE_BETAS, betas)
        for base in landscape_bases():
            grid = pm.landscape_grid(base)
            assert np.array_equal(grid, reference_grid(base, alphas, betas))

    def test_identity_cell_fr(self):
        grid = pm.landscape_grid([0.6, 0.3, 0.1])
        assert pm.LANDSCAPE_ALPHAS[self.UNIT_ALPHA] == 1.0 and pm.LANDSCAPE_BETAS[0] == 0.0
        assert grid[self.UNIT_ALPHA, 0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_row_closed_form(self):
        base = [0.7, 0.2, 0.1]
        grid = pm.landscape_grid(base)
        assert pm.LANDSCAPE_BETAS[-1] == 1.0
        expected = 2 * math.acos(sum(math.sqrt(p / 3) for p in base))
        assert np.all(np.abs(grid[:, -1] - expected) <= 1e-12)

    def test_beta_monotone_for_unit_alpha(self, monkeypatch):
        monkeypatch.setattr(pm, "LANDSCAPE_BETAS", np.linspace(0, 1, 21))
        grid = pm.landscape_grid([0.9, 0.05, 0.05])
        assert grid.shape == (11, 21)
        diffs = np.diff(grid[self.UNIT_ALPHA])
        assert np.all(diffs >= -1e-12)

    def test_grid_shape(self):
        grid = pm.landscape_grid([0.5, 0.5])
        assert grid.shape == (11, 11)


class TestProbeCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pairs = [(random_simplex(rng, 5), random_simplex(rng, 5)) for _ in range(4)]
        records = pm.probe_report_batch(pairs)
        path = tmp_path / "probes.csv"
        cli._write_csv(path, ",".join(pm.PROBE_CSV_FIELDS),
                       ([rec[key] for key in pm.PROBE_CSV_FIELDS] for rec in records))
        header = path.read_text().splitlines()[0]
        assert header == "bc,bhat_angle,bhat_distance,hellinger,js_nats,js_bits,fr_distance"
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(records)
        for rec, rec2 in zip(records, back):
            for key in pm.PROBE_CSV_FIELDS:
                assert rec[key] == float(rec2[key])
