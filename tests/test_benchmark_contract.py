"""The names the benchmark in perfbench/ wraps or calls still exist in geoloop.

perfbench/tracer.py wraps the functions listed in its LAYERS table, reads
"iterations" and "converged" from each ot.entropic_ot result, and counts the
loops of ot._sinkhorn_potentials by items [2] (iterations) and [3]
(converged) of its result; perfbench/workloads.py checks each step
with trainer.sami_weight_at and the StepReport and cli.RunConfig fields its
step_problems reads, and rewrites two lines of the bundled config.  A rename
here would silently break ``perfbench/run.py --trace 1``.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_tracer().LAYERS


@pytest.mark.parametrize("module, qualname", [
    (module, qualname) for module, names in LAYERS.items() for qualname in names])
def test_layer_name_resolves(module, qualname):
    target = importlib.import_module(f"geoloop.{module}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_solver_and_schedule_hooks_exist():
    from geoloop import cli, ot, trainer

    assert callable(ot._sinkhorn_potentials)
    # step_problems checks each step's loss identity with
    # sami_weight_at(config, report.step) on the run's config; a changed
    # signature would fail every benchmark step instead of a test.
    config = cli.load_config(ROOT / "configs" / "enigma_high_si.toml")
    assert [trainer.sami_weight_at(config, step) for step in (0, 25, 50, 100)] \
        == [0.0, 0.025, 0.05, 0.05]


def test_solver_results_the_tracer_reads():
    import numpy as np

    from geoloop import ot
    from geoloop.rep_metrics import EmpiricalMeasure

    a = EmpiricalMeasure([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    b = EmpiricalMeasure([[0.5, 0.5], [2.0, 1.0], [1.0, 1.0]])
    costs = ot.squared_distances(a.points, b.points)
    self_costs = ot.squared_distances(a.points, a.points)
    log_w = np.log(a.weights)
    for result in (ot._sinkhorn_potentials(costs, log_w, log_w, 0.1),
                   ot._sinkhorn_potentials(self_costs, log_w, None, 0.1)):
        assert isinstance(result, tuple) and len(result) == 5
        assert isinstance(result[2], int)
        assert isinstance(result[3], bool)
    res = ot.entropic_ot(a, b, 0.1)
    assert isinstance(res["iterations"], int)
    assert isinstance(res["converged"], bool)


def test_config_lines_the_benchmark_rewrites():
    lines = (ROOT / "configs" / "enigma_high_si.toml").read_text().splitlines()
    for key in ("ot_warmup", "checkpoint_every"):
        assert sum(line.split("=")[0].strip() == key for line in lines) == 1


def step_problems_reads() -> dict:
    """{"report": names, "config": names} that perfbench/workloads.py's
    step_problems reads: attributes, and getattr names from the tuple its
    loop runs over."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "step_problems")
    reads = {"report": set(), "config": set()}
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in reads):
            reads[node.value.id].add(node.attr)
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
                        and getattr(call.args[0], "id", None) in reads
                        and getattr(call.args[1], "id", None) == node.target.id):
                    reads[call.args[0].id].update(elt.value for elt in node.iter.elts)
    return reads


def test_step_report_and_config_fields_the_benchmark_reads():
    # A deleted field would fail every benchmark step, not a test.
    from dataclasses import fields

    from geoloop import cli, trainer

    reads = step_problems_reads()
    # The extraction finds both kinds of read.
    assert {"step", "mi_row_clean", "mi_col_clean"} <= reads["report"]
    assert {"shadow_k", "ot_warmup"} <= reads["config"]
    assert reads["report"] <= {f.name for f in fields(trainer.StepReport)}
    assert reads["config"] <= {f.name for f in fields(cli.RunConfig)}


def test_eval_scoring_starts_inside_the_first_evaluate_call(monkeypatch, tmp_path):
    # perfbench/workloads.py ends an eval set-up at the first
    # constitution.evaluate_principle_set call.  Scoring hoisted ahead of
    # that call would be timed as set-up, and a path that bypassed the
    # function would leave the workload with no set-ups at all.
    from geoloop import cli, constitution
    from geoloop.policy import ToyPolicy

    events = []
    evaluate, forward, pretrain = (constitution.evaluate_principle_set, ToyPolicy.forward,
                                   constitution.mle_pretrain)

    def spy_pretrain(*args):
        pretrain(*args)
        events.append("pretrained")

    def spy_forward(policy, *args, **kwargs):
        events.append("forward")
        return forward(policy, *args, **kwargs)

    def spy_evaluate(*args, **kwargs):
        events.append("evaluate")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(constitution, "mle_pretrain", spy_pretrain)
    monkeypatch.setattr(constitution, "evaluate_principle_set", spy_evaluate)
    monkeypatch.setattr(ToyPolicy, "forward", spy_forward)
    data = Path(cli.DATA_DIR)
    assert cli.main(["eval-constitution", str(data / "toy_high_si.txt"),
                     str(data / "toy_low_si.txt"), "--out-dir", str(tmp_path / "out")]) == 0
    first = events.index("evaluate")
    assert "forward" not in events[events.index("pretrained"):first]
    assert events.count("pretrained") == 1 and events.count("evaluate") == 2
