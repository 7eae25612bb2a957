"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The long end-to-end run (criterion 7) executes once as a module
fixture and feeds criteria that inspect its artifacts.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from geoloop import cli, constitution as con, mi, ot
from geoloop.policy import ToyPolicy, Vocab, make_toy_task, warm_start
from geoloop.prob_metrics import ProbVector, probe_report
from geoloop.rep_metrics import (EmpiricalMeasure, GaussianSummary, Spectrum,
                                 effective_dims, frechet_distance)
from geoloop.trainer import Trainer

DATA = Path(cli.DATA_DIR)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def passed(num, message):
    print(f"\nACCEPTANCE {num}: PASS — {message}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_component_arithmetic():
    """Published component values reproduce MI-effective, drops, and SI."""
    rows = json.loads((DATA / "component_replay.json").read_text())
    expected = {
        "1b_baseline": (2.42, 8.2, 0.715),
        "1b_rewritten": (6.44, 8.2, 1.959),
        "4b_baseline": (2.06, 3.9, 0.582),
        "4b_rewritten": (6.50, 3.9, 1.956),
    }
    for row in rows:
        mi_eff, drop, si = expected[row["name"]]
        report = con.report_from_components(
            row["name"], row["bits"], row["auc"], row["margin_pos"], row["margin_neg"])
        assert report.mi_effective == pytest.approx(mi_eff, abs=0.01), row["name"]
        assert (1 - report.perplexity_ratio) * 100 == pytest.approx(drop, abs=0.1)
        assert report.si == pytest.approx(si, abs=0.01), row["name"]
    passed(1, "MI-effective (2.42/6.44/2.06/6.50), perplexity drops (8.2%/3.9%), "
              "SI (0.715/1.959/0.582/1.956) all within tolerance")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_ot_oracle_equivalence():
    """Sinkhorn divergence at eps=1e-3 matches brute-force W2 within 1%."""
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = EmpiricalMeasure(rng.normal(0, 1, (n, 2)))
        b = EmpiricalMeasure(rng.normal(2.0, 1, (n, 2)))
        exact = ot.exact_w2_small(a, b)
        approx = ot.sinkhorn_divergence_with_grad(a, b, 1e-3)[0]
        worst = max(worst, abs(approx - exact) / exact)
        assert abs(approx - exact) / exact < 0.01
        assert ot.sinkhorn_divergence_with_grad(a, a, 1e-3)[0] <= 1e-9
    passed(2, f"50 random instances within 1% of the enumeration oracle "
              f"(worst {worst:.2e}); self-divergence <= 1e-9 on all")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_mi_bound_ceiling_and_chance():
    """Bounds never exceed log(K+1); equal scores give exactly chance level."""
    rng = np.random.default_rng(17)
    draws = 0
    for k in (1, 2, 4):
        ceiling = math.log(k + 1)
        for _ in range(25):
            scores = rng.normal(0, 5, (1500, k + 1))
            # single-row bound per draw: ceiling + log softmax at the positive
            log_sm = scores - scores.max(axis=1, keepdims=True)
            log_sm = log_sm - np.log(np.exp(log_sm).sum(axis=1, keepdims=True))
            bounds = ceiling + log_sm[:, 0]
            draws += bounds.size
            assert np.all(bounds <= ceiling + 1e-9)
    assert draws >= 100_000
    for k in (1, 2, 4):
        chance = mi.infonce_bound(np.full((64, k + 1), 3.25))
        assert abs(chance) <= 1e-9
    passed(3, f"{draws} random draws never exceeded log(K+1)+1e-9; "
              "equal-score batches sit at 0 ± 1e-9")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_gradient_correctness():
    """Analytic policy gradients vs central differences, 100 random instances."""
    rng = np.random.default_rng(4)
    worst = 0.0
    h = 1e-6
    for trial in range(100):
        policy = ToyPolicy(Vocab(), dim=5)
        policy.embed = rng.normal(0, 0.4, policy.embed.shape)
        policy.out = rng.normal(0, 0.4, policy.out.shape)
        policy.ctx_scale = rng.normal(1, 0.2, policy.ctx_scale.shape)
        policy.prev_scale = rng.normal(1, 0.2, policy.prev_scale.shape)
        prompt = tuple(rng.integers(0, 11, 2))
        principle = tuple(rng.integers(0, 11, 2))
        completion = tuple(rng.integers(0, 16, int(rng.integers(1, 7))))
        grad = policy.grad_seq_logprob(prompt, principle, completion)

        def seq_lp():
            return float(np.sum(policy.token_logprobs(prompt, principle, completion)))

        blocks = [(policy.embed, grad.embed), (policy.out, grad.out),
                  (policy.ctx_scale, grad.ctx_scale),
                  (policy.prev_scale, grad.prev_scale)]
        # spot-check 12 random coordinates per instance across all blocks
        for _ in range(12):
            arr, g = blocks[int(rng.integers(len(blocks)))]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            original = arr[idx]
            arr[idx] = original + h
            up = seq_lp()
            arr[idx] = original - h
            dn = seq_lp()
            arr[idx] = original
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(g[idx] - fd) / max(abs(fd), 1e-6))
    assert worst <= 1e-4
    passed(4, f"100 random instances, max relative error {worst:.2e} <= 1e-4")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_geometry_closed_forms():
    """Randomized property suite over the closed-form geometry identities."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        p = rng.random(n) + 1e-3
        q = rng.random(n) + 1e-3
        rec = probe_report(ProbVector(p / p.sum()), ProbVector(q / q.sum()))
        assert rec["fr_distance"] == 2.0 * math.acos(rec["bc"])
        assert abs(rec["hellinger"] ** 2 + rec["bc"] - 1.0) <= 1e-12
        assert rec["js_bits"] <= 1.0 + 1e-12
    a = GaussianSummary([0.0, 0.0], np.diag([1.0, 4.0]))
    b = GaussianSummary([0.0, 0.0], np.diag([4.0, 1.0]))
    assert frechet_distance(a, b) == pytest.approx(2.0, abs=1e-9)
    for n in (2, 5, 17):
        dims = effective_dims(Spectrum(np.full(n, 3.3)))
        assert dims["effrank"] == pytest.approx(n, rel=1e-9)
        assert dims["participation_ratio"] == pytest.approx(n, rel=1e-9)
    passed(5, "fr = 2*arccos(BC), Hellinger^2+BC = 1 (1e-12), JS <= 1 bit on "
              "300 random pairs; commuting-diagonal Fréchet = 2; effrank = PR = n "
              "for isotropic spectra")


# ---------------------------------------------------------------- criterion 6

def _short_ablation_run(name, steps=30, seed=11):
    """A short run of a bundled config's trainer settings on a small task."""
    task = make_toy_task(seed=seed, prompt_len=2, n_items=16)
    policy = ToyPolicy(Vocab())
    policy.init_params(seed)
    warm_start(policy, task, 200, 0.5, seed, bias=0.15)
    config = cli.load_config(CONFIGS / f"{name}.toml")
    trainer = Trainer(policy, task, config, max_steps=steps, seed=seed)
    return [trainer.train_step() for _ in range(steps)]


def test_criterion_6_ablation_signal_collapse():
    """Saturated format reward: zero within-group std and zero policy gradient;
    jitter or the MI tie-breaker restores both."""
    cot = _short_ablation_run("grpo_cot")
    zero_std = [r for r in cot if r.reward_std == 0.0]
    assert len(zero_std) / len(cot) >= 0.9
    assert all(r.grad_norm == 0.0 for r in zero_std)

    plus = _short_ablation_run("grpo_cot_plus")
    assert np.mean([r.reward_std for r in plus]) > 0.05
    assert np.mean([r.grad_norm for r in plus]) > 0.0
    assert sum(r.reward_std > 0 for r in plus) / len(plus) >= 0.9

    full = _short_ablation_run("enigma_high_si")
    assert np.mean([r.reward_std for r in full]) > 0.0
    assert sum(r.reward_std > 0 for r in full) / len(full) >= 0.9
    assert np.mean([r.grad_norm for r in full]) > 0.0
    passed(6, f"grpo_cot: reward_std = 0 on {len(zero_std)}/{len(cot)} steps with "
              "zero gradient at each; jitter and MI tie-breaker both restore "
              "reward_std > 0 and nonzero grad_norm")


# ---------------------------------------------------------------- criterion 7

@pytest.fixture(scope="module")
def enigma_run(tmp_path_factory):
    """The full 2000-step seeded run, via the CLI, once per session."""
    tmp = tmp_path_factory.mktemp("enigma_e2e")
    config = cli.RunConfig(
        seed=42, max_steps=2000, checkpoint_every=500,
        output_dir=str(tmp / "run"),
        constitution=str(DATA / "toy_high_si.txt"))
    config_path = tmp / "config.toml"
    config_path.write_text(cli.serialise_config(config))
    assert cli.main(["train", "--config", str(config_path)]) == cli.EXIT_OK
    return tmp / "run"


@pytest.mark.slow
def test_criterion_7_end_to_end_mi_rise(enigma_run):
    """Clean MI row bound rises from <= 0.01 to > 0.05 nats with OT term < 0.1."""
    rows = [json.loads(line) for line in
            (enigma_run / "steps.jsonl").read_text().splitlines()]
    assert len(rows) == 2000
    # steps.jsonl logs an undefined bound (no clean row) as null.
    row_bound = [math.nan if r["mi_row_clean"] is None else r["mi_row_clean"] for r in rows]
    first = row_bound[0]
    final_window = row_bound[-25:]
    max_ot = max(r["loss_ot"] for r in rows)
    assert not math.isnan(first)
    assert first <= 0.01
    assert float(np.nanmean(final_window)) > 0.05
    assert row_bound[-1] > 0.05
    assert max_ot < 0.1
    passed(7, f"row bound {first:+.4f} at step 0 -> {row_bound[-1]:+.4f} "
              f"at step 2000 (> 0.05 nats); OT term peaked at {max_ot:.4f} < 0.1")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_determinism(tmp_path):
    """Identical config+seed produce byte-identical steps.jsonl."""
    outputs = []
    for name in ("a", "b"):
        config = cli.RunConfig(
            seed=123, max_steps=50, checkpoint_every=25,
            output_dir=str(tmp_path / name),
            constitution=str(DATA / "toy_high_si.txt"),
            warmstart_epochs=60, ot_warmup=20)
        path = tmp_path / f"config_{name}.toml"
        path.write_text(cli.serialise_config(config))
        assert cli.main(["train", "--config", str(path)]) == cli.EXIT_OK
        outputs.append((tmp_path / name / "steps.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
    passed(8, f"two 50-step runs byte-identical ({len(outputs[0])} bytes of JSONL)")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_si_ordering(tmp_path):
    """Bundled high-separation set scores strictly higher SI than the
    lexically-overlapping variant."""
    out = tmp_path / "eval"
    code = cli.main(["eval-constitution",
                     str(DATA / "toy_high_si.txt"), str(DATA / "toy_low_si.txt"),
                     "--items", "32", "--warm-epochs", "150", "--seed", "0",
                     "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    high = json.loads((out / "report_toy_high_si.json").read_text())
    low = json.loads((out / "report_toy_low_si.json").read_text())
    assert high["si"] > low["si"]
    assert high["mi_effective"] > low["mi_effective"]
    passed(9, f"SI(high) = {high['si']:.4f} > SI(low) = {low['si']:.4f}; "
              f"MI-effective {high['mi_effective']:.3f} vs {low['mi_effective']:.3f}")
