"""Sufficiency evaluation: component arithmetic, AUC, SI, leaky detection."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geoloop.errors import ValidationError
from geoloop import cli
from geoloop import constitution as con
from geoloop.policy import ToyPolicy, mle_pretrain
from geoloop.task import Vocab, gold_items, make_toy_task, principles_from_patterns

# (bits, auc, margin_pos, margin_neg) -> (mi_eff, si, drop_pct) published rows
MEASURED_ROWS = [
    ("1b_baseline", 0.123, 0.074, 6.39, 3.97, 2.42, 0.715, 8.2),
    ("1b_rewritten", 0.123, 0.272, 6.39, -0.045, 6.44, 1.959, 8.2),
    ("4b_baseline", 0.0575, 0.148, 6.48, 4.42, 2.06, 0.582, 3.9),
    ("4b_rewritten", 0.0575, 0.356, 6.48, -0.022, 6.50, 1.956, 3.9),
]


class TestDeltaNll:
    def test_known_drops(self):
        out = con.delta_nll(0.123, 0.0)
        assert (1 - out["perplexity_ratio"]) * 100 == pytest.approx(8.2, abs=0.1)
        out = con.delta_nll(0.0575, 0.0)
        assert (1 - out["perplexity_ratio"]) * 100 == pytest.approx(3.9, abs=0.1)

    def test_zero_delta(self):
        assert con.delta_nll(1.0, 1.0)["perplexity_ratio"] == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            con.delta_nll(math.inf, 0.0)


class TestMannWhitneyAuc:
    def test_full_separation(self):
        assert con.mann_whitney_auc([2, 3], [0, 1]) == 1.0

    def test_all_ties(self):
        assert con.mann_whitney_auc([1], [1]) == 0.5

    def test_interleaved(self):
        # pairs: (1 < 2) and (3 > 2) -> 0.5
        assert con.mann_whitney_auc([1, 3], [2]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            con.mann_whitney_auc([], [1.0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 10), st.integers(1, 10))
    def test_swap_complement(self, seed, n_pos, n_neg):
        rng = np.random.default_rng(seed)
        pos = rng.normal(0, 1, n_pos)
        neg = rng.normal(0.5, 1, n_neg)
        auc = con.mann_whitney_auc(pos, neg)
        swapped = con.mann_whitney_auc(neg, pos)
        assert auc + swapped == pytest.approx(1.0)
        assert 0.0 <= auc <= 1.0


class TestMiEffective:
    def test_measured_rows(self):
        for _, _, _, mp, mn, expect, _, _ in MEASURED_ROWS:
            assert con.mi_effective(mp, mn) == pytest.approx(expect, abs=0.01)

    def test_equal_margins(self):
        assert con.mi_effective(3.3, 3.3) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_antisymmetric(self, a, b):
        assert con.mi_effective(a, b) == -con.mi_effective(b, a)


class TestSufficiencyIndex:
    def test_measured_si_values(self):
        for name, bits, auc, mp, mn, _, si_expect, _ in MEASURED_ROWS:
            mie = con.mi_effective(mp, mn)
            si = con.sufficiency_index(bits, mie, auc)
            assert si == pytest.approx(si_expect, abs=0.01), name

    def test_unit_zscores_combine_to_one(self):
        # Cohort where the last element sits exactly one MAD above the median
        # in every component.
        bits = [0.0, 1.0, 2.0]
        mi_eff = [0.0, 1.0, 2.0]
        auc = [0.0, 0.5, 1.0]  # separation -1, 0, 1
        out = con.sufficiency_index(bits, mi_eff, auc, mode="zscored")
        assert out[2] == pytest.approx(0.6 + 0.3 + 0.1)

    def test_linear_in_components(self):
        base = con.sufficiency_index(0.1, 2.0, 0.3)
        doubled_w = con.sufficiency_index(0.1, 2.0, 0.3, weights=(0.6, 0.6, 0.1))
        assert doubled_w - base == pytest.approx(0.3 * 2.0)

    def test_zscored_needs_cohort(self):
        with pytest.raises(ValidationError):
            con.sufficiency_index([0.1], [1.0], [0.5], mode="zscored")

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1, 1), st.floats(-8, 8), st.floats(0, 1), st.floats(0.1, 3))
    def test_scaling_component(self, bits, mie, auc, factor):
        si1 = con.sufficiency_index(bits, mie, auc)
        si2 = con.sufficiency_index(bits, mie * factor, auc)
        assert si2 - si1 == pytest.approx(0.3 * mie * (factor - 1), abs=1e-9)


# Entries for the median checks: any float, often one of a few values (ties)
# or an infinity or NaN.  -0.0 becomes 0.0, since a sort and np.median's
# partition may order the two zeros differently, and no geoloop path
# produces -0.0.
MEDIAN_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, -2.5, 1e308, -1e308, math.inf, -math.inf, math.nan]),
).map(lambda x: 0.0 if x == 0.0 else x)


def assert_same_medians(got, want):
    """Equal shape, == on every entry, and NaN exactly where `want` is NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True), (got, want)


class TestMedian:
    """`median` is np.median's value to the bit: the middle order statistic,
    (lower + upper) / 2, and NaN wherever the reduced slice holds a NaN
    (including inf - inf from a pair of infinities)."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(MEDIAN_ENTRIES, min_size=1, max_size=12))
    def test_one_dimensional(self, values):
        with np.errstate(all="ignore"):
            assert_same_medians(con.median(values), np.median(values))
            assert_same_medians(con.median(np.array(values)), np.median(np.array(values)))

    @settings(max_examples=400, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 5)),
                      elements=MEDIAN_ENTRIES))
    def test_columns_of_a_matrix(self, matrix):
        with np.errstate(all="ignore"):
            assert_same_medians(con.median(matrix), np.median(matrix, axis=0))

    def test_odd_and_even_counts_with_ties(self):
        assert float(con.median([3.0, 1.0, 2.0])) == 2.0
        assert float(con.median([4.0, 1.0, 2.0, 3.0])) == 2.5
        assert float(con.median([1.0, 1.0, 5.0, 5.0])) == 3.0
        assert con.median([[1.0, 2.0], [3.0, math.nan], [5.0, 0.0]]).tolist()[0] == 3.0
        with np.errstate(invalid="ignore"):
            assert math.isnan(con.median([-math.inf, math.inf]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6).map(lambda x: 0.0 if x == 0.0 else x),
                    min_size=2, max_size=12))
    def test_robust_zscores_use_np_median_values(self, values):
        arr = np.array(values)
        med = float(np.median(arr))
        mad = float(np.median(np.abs(arr - med)))
        want = np.zeros_like(arr) if mad == 0.0 else (arr - med) / mad
        assert_same_medians(con.robust_zscores(values), want)


class TestLeakyFlags:
    def test_no_flags(self):
        out = con.leaky_negative_flags({"n0": -0.1, "n1": -0.02})
        assert out["count"] == 0

    def test_positive_delta_flagged(self):
        out = con.leaky_negative_flags({"n0": -0.1, "n1": 0.05})
        assert out["flagged_ids"] == ["n1"]
        assert out["delta_nll_bits"] == {"n1": 0.05}

    def test_count_matches_sign(self):
        rng = np.random.default_rng(0)
        deltas = {f"n{i}": float(v) for i, v in enumerate(rng.normal(0, 1, 20))}
        out = con.leaky_negative_flags(deltas)
        assert out["count"] == sum(1 for v in deltas.values() if v > 0)


class TestPrincipleFiles:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("name: demo\npositives:\n- 4 9 4 9\n- 5 10 5 10\n"
                        "negatives:\n- some free text negative\n")
        pset = con.parse_principle_file(path)
        assert pset.name == "demo"
        assert pset.positives[0].tokens == (4, 9, 4, 9)
        assert pset.negatives[0].tokens == ()
        assert pset.negatives[0].text == "some free text negative"

    def test_no_positives_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("negatives:\n- x\n")
        with pytest.raises(ValidationError):
            con.parse_principle_file(path)

    def test_item_outside_section_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("- floating item\n")
        with pytest.raises(ValidationError) as err:
            con.parse_principle_file(path)
        assert "floating item" in str(err.value)


class TestReportFromComponents:
    def test_replay_reproduces_measured_rows(self):
        for name, bits, auc, mp, mn, mi_expect, si_expect, drop in MEASURED_ROWS:
            report = con.report_from_components(name, bits, auc, mp, mn)
            assert report.mi_effective == pytest.approx(mi_expect, abs=0.01)
            assert report.si == pytest.approx(si_expect, abs=0.01)
            assert (1 - report.perplexity_ratio) * 100 == pytest.approx(drop, abs=0.1)

    def test_json_writes_non_finite_values_as_null(self):
        report = con.report_from_components(
            "x", 0.1, 0.6, 1.0, 0.5, lb_pos_bits=math.inf,
            leaky={"count": 1, "delta_nll_bits": {"neg0": math.nan}})
        text = report.to_json()
        assert "NaN" not in text and "Infinity" not in text
        payload = json.loads(text)
        assert payload["mi_lb_pos_bits"] is None and payload["mi_lb_neg_bits"] is None
        assert payload["leaky"]["delta_nll_bits"]["neg0"] is None
        assert payload["si"] == report.si


def principle_aware_policy(task, seed=0, epochs=150):
    policy = ToyPolicy(task.vocab)
    policy.init_params(seed)
    mle_pretrain(policy, gold_items(task), epochs, 0.5)
    return policy


def toy_set(vocab, negatives):
    positives = [("pos0", (4, 9, 4, 9)), ("pos1", (5, 10, 5, 10)),
                 ("pos2", (4, 10, 4, 10)), ("pos3", (5, 9, 5, 9))]
    pos = tuple(con.Principle(pid, " ".join(map(str, toks)), toks)
                for pid, toks in positives)
    neg = tuple(con.Principle(f"neg{i}", " ".join(map(str, toks)), toks)
                for i, toks in enumerate(negatives))
    return pos, neg


@pytest.fixture(scope="module")
def setup():
    vocab = Vocab()
    patterns = [("pos0", (4, 9, 4, 9)), ("pos1", (5, 10, 5, 10)),
                ("pos2", (4, 10, 4, 10)), ("pos3", (5, 9, 5, 9))]
    principles = principles_from_patterns(vocab, patterns)
    task = make_toy_task(vocab, n_items=32, prompt_len=2, seed=0,
                         principles=principles)
    policy = principle_aware_policy(task, seed=0)
    return vocab, task, policy


class TestEvaluatePrincipleSet:
    def test_identical_pools_symmetric(self, setup):
        vocab, task, policy = setup
        pos, _ = toy_set(vocab, [])
        # negatives identical to positives (fresh ids)
        neg = tuple(con.Principle(f"neg{i}", p.text, p.tokens)
                    for i, p in enumerate(pos))
        pset = con.PrincipleSet("mirror", pos, neg)
        report = con.evaluate_principle_set(policy, task, pset, k=2, seed=0)
        assert report.mi_effective == pytest.approx(0.0, abs=1e-9)
        assert report.auc == pytest.approx(0.5, abs=0.05)

    def test_high_si_beats_leaky_variant(self, setup):
        vocab, task, policy = setup
        pos, neg_clean = toy_set(vocab, [(5, 10, 5, 5), (4, 9, 9, 9),
                                         (5, 9, 9, 9), (4, 10, 10, 10)])
        _, neg_leaky = toy_set(vocab, [(4, 9, 4, 5), (5, 10, 5, 4),
                                       (4, 10, 4, 5), (5, 9, 5, 10)])
        high = con.evaluate_principle_set(
            policy, task, con.PrincipleSet("high", pos, neg_clean), k=2, seed=0)
        low = con.evaluate_principle_set(
            policy, task, con.PrincipleSet("low", pos, neg_leaky), k=2, seed=0)
        assert high.si > low.si
        assert high.mi_effective > low.mi_effective
        assert high.delta_nll_median == pytest.approx(low.delta_nll_median, abs=1e-9)

    def test_leaky_negatives_flagged_more(self, setup):
        vocab, task, policy = setup
        pos, neg_leaky = toy_set(vocab, [(4, 9, 4, 5), (5, 10, 5, 4),
                                         (4, 10, 4, 5), (5, 9, 5, 10)])
        report = con.evaluate_principle_set(
            policy, task, con.PrincipleSet("low", pos, neg_leaky), k=2, seed=0)
        assert report.leaky["count"] >= 1

    def test_k_below_one_rejected(self, setup):
        vocab, task, policy = setup
        pos, neg = toy_set(vocab, [(5, 10, 5, 5), (4, 9, 9, 9)])
        with pytest.raises(ValidationError, match="k must be at least 1"):
            con.evaluate_principle_set(policy, task, con.PrincipleSet("x", pos, neg), k=0)

    def test_deterministic(self, setup):
        vocab, task, policy = setup
        pos, neg = toy_set(vocab, [(5, 10, 5, 5), (4, 9, 9, 9),
                                   (5, 9, 9, 9), (4, 10, 10, 10)])
        pset = con.PrincipleSet("high", pos, neg)
        r1 = con.evaluate_principle_set(policy, task, pset, k=2, seed=7)
        r2 = con.evaluate_principle_set(policy, task, pset, k=2, seed=7)
        assert r1 == r2

    def test_leaves_the_policy_unchanged(self, setup):
        # eval-constitution scores every set that shares golds with one policy.
        vocab, task, policy = setup
        before = policy.param_hash()
        for negatives in ([(5, 10, 5, 5), (4, 9, 9, 9)], [(4, 9, 4, 5)]):
            pos, neg = toy_set(vocab, negatives)
            con.evaluate_principle_set(policy, task, con.PrincipleSet("x", pos, neg))
            assert policy.param_hash() == before


def reference_margin_rows(scores, true_cols):
    """Own-column score minus the mean of the other columns, row by row."""
    n, m = scores.shape
    out = np.zeros(n)
    for i, j in enumerate(true_cols):
        others = [c for c in range(m) if c != j]
        out[i] = scores[i, j] - scores[i, others].mean()
    return out


class TestMarginRows:
    def test_matches_the_row_loop_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n, m = int(rng.integers(1, 40)), int(rng.integers(2, 41))
            scores = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3)
            true_cols = [int(j) for j in rng.integers(0, m, n)]
            assert (con._margin_rows(scores, true_cols).tobytes()
                    == reference_margin_rows(scores, true_cols).tobytes())

    def test_one_column_rejected(self):
        with pytest.raises(ValidationError, match="at least two principles"):
            con._margin_rows(np.zeros((3, 1)), [0, 0, 0])


def reference_scores(policy, items, principles):
    """(n_items, n_principles) length-normalised gold scores, one table per
    item and pool."""
    out = np.zeros((len(items), len(principles)))
    for i, (prompt, gold) in enumerate(items):
        sums = policy.multi_context_logprob([(prompt, p.tokens) for p in principles], gold)
        out[i] = sums / max(1, len(gold))
    return out


def reference_evaluate(policy, task, pset, k, seed):
    """evaluate_principle_set with a separate table for every pool, every
    true positive and every no-principle score: 5 per item, 160 in all on a
    32-item task."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 17)))
    items = [(item.prompt, item.gold) for item in task.items]
    pos_by_pid = {p.pid: i for i, p in enumerate(task.principles)}
    true_pos_idx = [pos_by_pid[item.principle_id] % len(pset.positives)
                    for item in task.items]
    pos_scores = reference_scores(policy, items, pset.positives)
    neg_scores = reference_scores(policy, items, pset.negatives)
    deltas_bits = []
    for i, item in enumerate(task.items):
        ptoks = pset.positives[true_pos_idx[i]].tokens
        with_lp = policy.multi_context_logprob([(item.prompt, ptoks)], item.gold)[0]
        without_lp = policy.multi_context_logprob([(item.prompt, ())], item.gold)[0]
        deltas_bits.append((with_lp - without_lp) / max(1, len(item.gold)) / con.LN2)
    delta_bits = float(np.median(deltas_bits))
    without = np.array([policy.multi_context_logprob([(p, ())], g)[0] / max(1, len(g))
                        for p, g in items])
    per_pos = {p.pid: float(np.median((pos_scores[:, j] - without) / con.LN2))
               for j, p in enumerate(pset.positives)}
    per_neg = {p.pid: float(np.median((neg_scores[:, j] - without) / con.LN2))
               for j, p in enumerate(pset.negatives)}
    auc = con.mann_whitney_auc(list(per_pos.values()), list(per_neg.values()))
    margin_pos = float(np.mean(reference_margin_rows(pos_scores, true_pos_idx)))
    true_neg_idx = [i % len(pset.negatives) for i in true_pos_idx]
    if len(pset.negatives) >= 2:
        margin_neg = float(np.mean(reference_margin_rows(neg_scores, true_neg_idx)))
        lb_neg = con._bound_bits(neg_scores, true_neg_idx, k, rng)
    else:
        margin_neg, lb_neg = 0.0, math.nan
    lb_pos = con._bound_bits(pos_scores, true_pos_idx, k, rng)
    mie = margin_pos - margin_neg
    return con.SufficiencyReport(
        name=pset.name, delta_nll_median=delta_bits,
        perplexity_ratio=2.0 ** (-delta_bits), auc=auc,
        mi_diag_margin_pos=margin_pos, mi_diag_margin_neg=margin_neg,
        mi_lb_pos_bits=lb_pos, mi_lb_neg_bits=lb_neg, mi_effective=mie,
        si=0.6 * delta_bits + 0.3 * mie + 0.1 * (2.0 * auc - 1.0),
        leaky=con.leaky_negative_flags(per_neg))


def assert_same_report(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "leaky":
            # The flagged negatives' ΔNLL values come from per-pool tables
            # here, whose products can round differently in the last bits
            # (seen on one-negative pools); ids and count stay exact.
            a, b = dict(a), dict(b)
            assert a.pop("delta_nll_bits") == pytest.approx(
                b.pop("delta_nll_bits"), rel=1e-12, abs=1e-12)
        assert a == b or (isinstance(b, float) and math.isnan(a) and math.isnan(b)), field.name


class TestMatchesPerPoolScoring:
    @pytest.mark.parametrize("negatives", [
        [(5, 10, 5, 5), (4, 9, 9, 9), (5, 9, 9, 9), (4, 10, 10, 10)],
        [(4, 9, 4, 5), (5, 10, 5, 4), (4, 10, 4, 5), (5, 9, 5, 10)],
        [(4, 9, 4, 5)],
    ], ids=["clean", "leaky", "one-negative"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_fixture_sets(self, setup, negatives, seed):
        vocab, task, policy = setup
        pos, neg = toy_set(vocab, negatives)
        pset = con.PrincipleSet("set", pos, neg)
        assert_same_report(con.evaluate_principle_set(policy, task, pset, k=2, seed=seed),
                           reference_evaluate(policy, task, pset, 2, seed))

    @pytest.mark.parametrize("name", ["toy_high_si", "toy_low_si"])
    def test_bundled_sets(self, name):
        # The eval-constitution set-up at its default items, epochs and rate.
        path = cli.DATA_DIR / f"{name}.txt"
        pset = cli._load_principles(path)
        task = cli._build_task(pset, 1, 32, Vocab())
        policy = ToyPolicy(task.vocab)
        policy.init_params(1)
        mle_pretrain(policy, gold_items(task), 120, 0.5)
        assert_same_report(con.evaluate_principle_set(policy, task, pset, k=2, seed=1),
                           reference_evaluate(policy, task, pset, 2, 1))


class TestExternalScorePath:
    def test_matrix_driven_report(self):
        from geoloop.mi import ScoreMatrix
        rng = np.random.default_rng(0)
        n, m = 12, 4
        base = rng.normal(-1.5, 0.1, (n, m))
        pos = base.copy()
        for i in range(n):
            pos[i, i % m] += 2.0  # strong diagonal binding
        neg = rng.normal(-1.5, 0.1, (n, m))
        nll_rows = [(2.0, 1.8)] * n  # delta = 0.2 bits/token
        report = con.evaluate_from_score_files(
            "external", ScoreMatrix(pos), ScoreMatrix(neg), nll_rows, k=2)
        assert report.delta_nll_median == pytest.approx(0.2)
        assert report.mi_diag_margin_pos > 1.0
        assert abs(report.mi_diag_margin_neg) < 0.5
        assert report.si > 0.0

    def test_k_below_one_rejected(self):
        from geoloop.mi import ScoreMatrix
        scores = ScoreMatrix(np.eye(4))
        with pytest.raises(ValidationError, match="k must be at least 1"):
            con.evaluate_from_score_files("x", scores, scores, [(2.0, 1.8)], k=0)
