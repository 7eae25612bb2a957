"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The long end-to-end run (criterion 7) executes once as a module
fixture and feeds criteria that inspect its artifacts.
"""
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from geoloop import cli, constitution as con, mi, ot
from geoloop.policy import ToyPolicy, warm_start
from geoloop.task import Vocab, make_toy_task
from geoloop.prob_metrics import ProbVector, probe_report
from geoloop.rep_metrics import (EmpiricalMeasure, GaussianSummary, Spectrum,
                                 effective_dims, frechet_distance)
from geoloop.trainer import Trainer
from test_ot import exact_w2_small

DATA = Path(cli.DATA_DIR)
GOLDEN = Path(__file__).resolve().parent / "data"
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
        exact = exact_w2_small(a, b)
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

CRITERION_6_CONFIGS = ("grpo_cot", "grpo_cot_plus", "enigma_high_si")


def criterion_6_runs(seed, steps=30):
    """Each CRITERION_6_CONFIGS config's step reports: a short run of its
    trainer settings on a small task, each from a copy of one warm start."""
    task = make_toy_task(seed=seed, prompt_len=2, n_items=16)
    policy = ToyPolicy(Vocab())
    policy.init_params(seed)
    warm_start(policy, task, 200, 0.5, seed, bias=0.15)
    runs = []
    for name in CRITERION_6_CONFIGS:
        config = replace(cli.load_config(CONFIGS / f"{name}.toml"), max_steps=steps, seed=seed)
        trainer = Trainer(policy.clone(), task, config)
        runs.append([trainer.train_step() for _ in range(steps)])
    return runs


def criterion_6_failures(cot, plus, full) -> list:
    """The names of criterion 6's conditions that the three runs fail."""
    zero_std = [r for r in cot if r.reward_std == 0.0]
    checks = {
        "grpo_cot zero std on 90% of steps": len(zero_std) / len(cot) >= 0.9,
        "grpo_cot zero gradient at zero std": all(r.grad_norm == 0.0 for r in zero_std),
        "grpo_cot_plus mean std > 0.05": np.mean([r.reward_std for r in plus]) > 0.05,
        "grpo_cot_plus mean grad_norm > 0": np.mean([r.grad_norm for r in plus]) > 0.0,
        "grpo_cot_plus std > 0 on 90% of steps":
            sum(r.reward_std > 0 for r in plus) / len(plus) >= 0.9,
        "enigma mean std > 0": np.mean([r.reward_std for r in full]) > 0.0,
        "enigma std > 0 on 90% of steps": sum(r.reward_std > 0 for r in full) / len(full) >= 0.9,
        "enigma mean grad_norm > 0": np.mean([r.grad_norm for r in full]) > 0.0,
    }
    return [name for name, ok in checks.items() if not ok]


def test_criterion_6_ablation_signal_collapse():
    """Saturated format reward: zero within-group std and zero policy gradient;
    jitter or the MI tie-breaker restores both."""
    cot, plus, full = criterion_6_runs(11)
    assert criterion_6_failures(cot, plus, full) == []
    zero_std = sum(r.reward_std == 0.0 for r in cot)
    passed(6, f"grpo_cot: reward_std = 0 on {zero_std}/{len(cot)} steps with "
              "zero gradient at each; jitter and MI tie-breaker both restore "
              "reward_std > 0 and nonzero grad_norm")


# ---------------------------------------------------------------- criterion 7

def enigma_run_dir(tmp, seed, max_steps):
    """The bundled defaults' run on toy_high_si at seed, via the CLI, with
    a checkpoint every 500 steps; its run directory."""
    config = cli.RunConfig(
        seed=seed, max_steps=max_steps, checkpoint_every=500,
        output_dir=str(tmp / "run"),
        constitution=str(DATA / "toy_high_si.txt"))
    config_path = tmp / "config.toml"
    config_path.write_text(cli.serialise_config(config))
    assert cli.main(["train", "--config", str(config_path)]) == cli.EXIT_OK
    return tmp / "run"


def steps_rows(run) -> list:
    return [json.loads(line) for line in (run / "steps.jsonl").read_text().splitlines()]


def row_bounds(rows) -> list:
    """The rows' clean row bounds; steps.jsonl logs an undefined bound (no
    clean row) as null, read here as NaN."""
    return [math.nan if r["mi_row_clean"] is None else r["mi_row_clean"] for r in rows]


def criterion_7_step_0_holds(rows) -> bool:
    """Criterion 7's step-0 condition: a defined row bound of at most 0.01."""
    return row_bounds(rows[:1])[0] <= 0.01


def criterion_7_failures(rows) -> list:
    """The names of criterion 7's conditions that a run's steps.jsonl rows fail."""
    row_bound = row_bounds(rows)
    checks = {
        "step-0 bound <= 0.01": criterion_7_step_0_holds(rows),
        "last-25 mean bound > 0.05": float(np.nanmean(row_bound[-25:])) > 0.05,
        "last bound > 0.05": row_bound[-1] > 0.05,
        "max loss_ot < 0.1": max(r["loss_ot"] for r in rows) < 0.1,
    }
    return [name for name, ok in checks.items() if not ok]


@pytest.fixture(scope="module")
def enigma_run(tmp_path_factory):
    """The full 2000-step seeded run, via the CLI, once per session."""
    return enigma_run_dir(tmp_path_factory.mktemp("enigma_e2e"), 42, 2000)


@pytest.mark.slow
def test_criterion_7_end_to_end_mi_rise(enigma_run):
    """Clean MI row bound rises from <= 0.01 to > 0.05 nats with OT term < 0.1."""
    rows = steps_rows(enigma_run)
    assert len(rows) == 2000
    assert criterion_7_failures(rows) == []
    row_bound = row_bounds(rows)
    max_ot = max(r["loss_ot"] for r in rows)
    passed(7, f"row bound {row_bound[0]:+.4f} at step 0 -> {row_bound[-1]:+.4f} "
              f"at step 2000 (> 0.05 nats); OT term peaked at {max_ot:.4f} < 0.1")


@pytest.mark.slow
def test_every_ot_step_of_the_run_converges(enigma_run):
    """Each of the run's 1 800 OT steps logs an iteration count and a converged solve.

    A cross solve whose Newton step fails stops there unconverged, so this
    guards the run against that path.
    """
    rows = steps_rows(enigma_run)
    warmup = cli.RunConfig().ot_warmup
    assert all(r["ot_iters"] is None and r["ot_converged"] is None for r in rows[:warmup])
    ot_rows = rows[warmup:]
    assert len(ot_rows) == 1800
    assert all(r["ot_iters"] is not None and r["ot_converged"] is True for r in ot_rows)


@pytest.mark.slow
def test_run_steps_match_the_golden(enigma_run):
    """The run's steps.jsonl, byte for byte, as tests/data pins it."""
    expected = (GOLDEN / "enigma_high_si_seed42_steps.sha256").read_text().split()[0]
    assert hashlib.sha256((enigma_run / "steps.jsonl").read_bytes()).hexdigest() == expected


def test_short_run_steps_match_the_golden(tmp_path):
    """A 40-step run of the bundled config with ot_warmup = 20, so pre-OT and
    OT steps both count: its steps.jsonl, byte for byte, as tests/data pins it."""
    config = cli.load_config(CONFIGS / "enigma_high_si.toml",
                             {"seed": 42, "max_steps": 40, "ot_warmup": 20,
                              "constitution": str(DATA / "toy_high_si.txt"),
                              "output_dir": str(tmp_path / "run")})
    config_path = tmp_path / "config.toml"
    config_path.write_text(cli.serialise_config(config))
    assert cli.main(["train", "--config", str(config_path)]) == cli.EXIT_OK
    expected = (GOLDEN / "enigma_high_si_seed42_ot20_40steps.sha256").read_text().split()[0]
    assert hashlib.sha256((tmp_path / "run" / "steps.jsonl").read_bytes()).hexdigest() == expected


@pytest.mark.parametrize("name", ["grpo_cot", "grpo_cot_plus"])
def test_ablation_run_steps_match_the_golden(tmp_path, name):
    """A 40-step run of each bundled GRPO ablation (SAMI weight 0; jitter on
    in grpo_cot_plus): its steps.jsonl, byte for byte, as tests/data pins it."""
    config = cli.load_config(CONFIGS / f"{name}.toml",
                             {"seed": 42, "max_steps": 40,
                              "constitution": str(DATA / "toy_high_si.txt"),
                              "output_dir": str(tmp_path / "run")})
    config_path = tmp_path / "config.toml"
    config_path.write_text(cli.serialise_config(config))
    assert cli.main(["train", "--config", str(config_path)]) == cli.EXIT_OK
    expected = (GOLDEN / f"{name}_seed42_40steps.sha256").read_text().split()[0]
    assert hashlib.sha256((tmp_path / "run" / "steps.jsonl").read_bytes()).hexdigest() == expected


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_determinism(tmp_path):
    """Identical config+seed produce byte-identical steps.jsonl."""
    outputs = []
    for name in ("a", "b"):
        config = cli.RunConfig(
            seed=123, max_steps=50, checkpoint_every=25,
            output_dir=str(tmp_path / name),
            constitution=str(DATA / "toy_high_si.txt"),
            ot_warmup=20)
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
                     "--warm-epochs", "150", "--seed", "0",
                     "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    high = json.loads((out / "report_toy_high_si.json").read_text())
    low = json.loads((out / "report_toy_low_si.json").read_text())
    assert high["si"] > low["si"]
    assert high["mi_effective"] > low["mi_effective"]
    passed(9, f"SI(high) = {high['si']:.4f} > SI(low) = {low['si']:.4f}; "
              f"MI-effective {high['mi_effective']:.3f} vs {low['mi_effective']:.3f}")
