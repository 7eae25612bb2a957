"""tools/ab_pairs.py: the pair rule's verdict and the BENCH_<label>.json record."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

BASE = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]


def test_quartiles_interpolate_linearly():
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize("change, better, expected", [
    # Every pair 5% lower: a gain.
    ([0.95 * b for b in BASE], "lower", (10, True)),
    # The same values where higher is better: no pair won.
    ([0.95 * b for b in BASE], "higher", (0, False)),
    # Nine wins and a tie: 9 of 10 suffices; the tie counts for neither.
    ([0.95 * b for b in BASE[:9]] + [BASE[9]], "lower", (9, True)),
    # Eight wins and two losses: short of nine tenths.
    ([0.95 * b for b in BASE[:8]] + [b + 1.0 for b in BASE[8:]], "lower", (8, False)),
    # Every pair 0.1% lower: the medians differ by less than the base's
    # quartile distance (0.15).
    ([0.999 * b for b in BASE], "lower", (10, False)),
    # Fewer than ten pairs claim nothing.
    ([0.95 * b for b in BASE[:9]], "lower", (9, False)),
])
def test_verdict(change, better, expected):
    assert ab_pairs.verdict(BASE[:len(change)], change, better) == expected


BENCH = {"command": ["python3", "perfbench/run.py"], "run_seconds": 12,
         "end_to_end": [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
                        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}
MACHINE = {"nproc": 2, "cpu_model": "test cpu", "python": "3.11.7", "numpy": "2.4.6"}


def synthetic_run(op_ms, fingerprint="aa", failed=0):
    return {"metrics": {"op_ms_p50": op_ms, "ops_per_s": 1000.0 / op_ms},
            "fingerprints": {"steps": fingerprint}, "failed": failed, "attempted": 40,
            "machine": MACHINE}


def synthetic_runs():
    """Three pairs: the change faster in the first two; the third pair's
    fingerprints differ and its change side failed one operation."""
    return {"base": [synthetic_run(2.0), synthetic_run(2.2), synthetic_run(2.1)],
            "change": [synthetic_run(1.9), synthetic_run(2.1),
                       synthetic_run(2.3, fingerprint="bb", failed=1)]}


def test_bench_record():
    runs = synthetic_runs()
    base = {"ref": "HEAD", "commit": "c" * 40}
    record = ab_pairs.bench_record("probe", BENCH, base, "t" * 40, [7, 8, 9], runs)
    assert json.loads(json.dumps(record)) == record
    assert (record["workload"], record["run_seconds"]) == ("probe", 12)
    assert record["base"] == base and record["change"] == {"tree": "t" * 40}
    assert record["machine"] == MACHINE
    assert [p["seed"] for p in record["pairs"]] == [7, 8, 9]
    assert [p["first"] for p in record["pairs"]] == ["base", "change", "base"]
    assert [p["fingerprints_same"] for p in record["pairs"]] == [True, True, False]
    third = record["pairs"][2]
    assert third["change"] == {"metrics": runs["change"][2]["metrics"], "failed": 1,
                               "attempted": 40}
    assert third["base"]["metrics"] == {"op_ms_p50": 2.1, "ops_per_s": 1000.0 / 2.1}
    assert list(record["metrics"]) == ["op_ms_p50", "ops_per_s"]
    for name, m in record["metrics"].items():
        values = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
        spec = next(s for s in BENCH["end_to_end"] if s["name"] == name)
        assert (m["unit"], m["better"]) == (spec["unit"], spec["better"])
        for side in runs:
            assert tuple(m[side].values()) == ab_pairs.quartiles(values[side])
            assert list(m[side]) == ["q1", "median", "q3"]
        assert (m["wins"], m["gain"]) == ab_pairs.verdict(values["base"], values["change"],
                                                          spec["better"])
        assert (m["wins"], m["gain"]) == (2, False)


@pytest.fixture
def offline_main(tmp_path, monkeypatch):
    """main against tmp_path as the repository root, with git, the tree export
    and perfbench replaced by the synthetic runs."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    runs = synthetic_runs()
    queue = {side: iter(runs[side]) for side in runs}
    monkeypatch.setattr(ab_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(ab_pairs, "git", lambda *args, env=None: b"c" * 40 + b"\n")
    monkeypatch.setattr(ab_pairs, "working_tree_id", lambda scratch: "t" * 40)
    monkeypatch.setattr(ab_pairs, "export", lambda tree, dest: dest.mkdir())
    monkeypatch.setattr(ab_pairs, "run_bench",
                        lambda tree, bench, workload, seed: next(queue[tree.name]))
    return runs


def test_without_label_nothing_is_written(offline_main, tmp_path, capsys):
    assert ab_pairs.main(["--workload", "probe", "--seeds", "7", "8", "9"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json"]
    out = capsys.readouterr().out
    assert "DIFFER in some pair" in out and "failed operations, change: 1 of 120" in out


def test_label_writes_the_record(offline_main, tmp_path):
    assert ab_pairs.main(["--workload", "probe", "--seeds", "7", "8", "9",
                          "--label", "run.x-1"]) == 0
    record = json.loads((tmp_path / "BENCH_run.x-1.json").read_text())
    assert record == ab_pairs.bench_record("probe", BENCH, {"ref": "HEAD", "commit": "c" * 40},
                                           "t" * 40, [7, 8, 9], offline_main)


@pytest.mark.parametrize("label", ["", "../up", "a/b"])
def test_label_must_be_a_plain_name(offline_main, tmp_path, label):
    with pytest.raises(SystemExit) as exit_info:
        ab_pairs.main(["--workload", "probe", "--seeds", "7", "--label", label])
    assert exit_info.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json"]
