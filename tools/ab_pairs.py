"""Alternating pairs of perfbench runs: a base git ref against the working tree.

    python tools/ab_pairs.py --workload train_pre_ot --seeds 901 902 ... 910
    python tools/ab_pairs.py --workload eval --seeds 1 2 3 --base HEAD~2
    python tools/ab_pairs.py --workload probe --seeds 1 2 3 --label probe_check

Each side runs from a fresh `git archive` tree in a new temporary directory:
the base ref's commit, and the working tree's tracked and untracked files
that .gitignore does not exclude, as they are now (staged through a temporary
index, so the real index and the working tree stay as they are).  No stale
bytecode or run output of the checkout reaches either side, and every run
sets PYTHONDONTWRITEBYTECODE=1, so no run leaves bytecode for a later one.

Each run is BENCHMARK.json's command for one workload and seed, at its
run_seconds.  One pair per seed; pair i runs the base first when i is even
and the change first when i is odd.  The script prints every pair's
op_ms_p50 and whether its fingerprints match, then, for each end-to-end
metric of BENCHMARK.json, each side's median and quartiles, the change's
wins and the verdict of the pair rule (`verdict`), and last the failed
operations of each side.  With --label, it also writes all of that, with the
base commit, the change's tree id and the machine perfbench reports, to
BENCH_<label>.json at the repository root (`bench_record`).  Standard library
only; the trees are deleted when it ends.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIR_METRIC = "op_ms_p50"   # the metric each pair's line shows


def quartiles(values) -> tuple:
    """(q1, median, q3), numpy's default linear interpolation."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(base, change, better: str = "lower") -> tuple:
    """(wins, gain) of paired values base[i], change[i] of one metric.

    Pair i is a win when change[i] is better than base[i]; a tie counts for
    neither side.  A gain holds when at least ten pairs ran, the change won
    at least nine tenths of them, and its median is better than the base's
    by more than the distance between the base's quartiles."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    q1, base_median, q3 = quartiles(base)
    gain = (len(base) >= 10 and 10 * wins >= 9 * len(base)
            and sign * (base_median - quartiles(change)[1]) > q3 - q1)
    return wins, gain


def pair_order(i: int) -> tuple:
    """The sides of pair i in the order they run: the base first when i is even."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def git(*args, env=None) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, env=env).stdout


def export(tree: str, dest: Path) -> None:
    """The files of a git tree-ish, written under dest."""
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", tree), check=True)


def working_tree_id(scratch: Path) -> str:
    """The tree object of the working tree's non-ignored files, written through
    a temporary index."""
    env = {**os.environ, "GIT_INDEX_FILE": str(scratch / "index")}
    git("add", "-A", env=env)
    return git("write-tree", env=env).decode().strip()


def run_bench(tree: Path, bench: dict, workload: str, seed: int) -> dict:
    """{"metrics": {name: value}, "fingerprints": {key: sha256}, "failed",
    "attempted", "machine"} of one untraced run of the benchmark `bench` in
    `tree`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([*bench["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(bench["run_seconds"])],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench in {tree} exited {proc.returncode}:\n{proc.stderr}")
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "fingerprints": {key: fp["sha256"] for key, fp in detail["fingerprints"].items()},
            "failed": result["failed"], "attempted": result["attempted"],
            "machine": detail["machine"]}


def bench_record(workload: str, bench: dict, base: dict, change_tree: str, seeds,
                 runs: dict) -> dict:
    """The BENCH_<label>.json record of one set of pairs.

    `base` is {"ref", "commit"}; runs[side][i] is run_bench's result of pair
    i, whose seed is seeds[i].  The machine is the first run's."""
    pairs = [{"seed": seed, "first": pair_order(i)[0],
              **{side: {k: runs[side][i][k] for k in ("metrics", "failed", "attempted")}
                 for side in ("base", "change")},
              "fingerprints_same": runs["base"][i]["fingerprints"]
              == runs["change"][i]["fingerprints"]}
             for i, seed in enumerate(seeds)]
    metrics = {}
    for spec in bench["end_to_end"]:
        values = {side: [r["metrics"][spec["name"]] for r in runs[side]] for side in runs}
        wins, gain = verdict(values["base"], values["change"], spec["better"])
        metrics[spec["name"]] = {
            "unit": spec["unit"], "better": spec["better"],
            **{side: dict(zip(("q1", "median", "q3"), quartiles(values[side])))
               for side in ("base", "change")},
            "wins": wins, "gain": gain}
    return {"workload": workload, "run_seconds": bench["run_seconds"], "base": base,
            "change": {"tree": change_tree}, "machine": runs["base"][0]["machine"],
            "pairs": pairs, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--base", default="HEAD", help="git ref of the base side (HEAD)")
    parser.add_argument("--label", help="also write BENCH_<label>.json at the repository root")
    args = parser.parse_args(argv)
    if args.label is not None and not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("--label takes letters, digits, '_', '.' and '-' only")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        scratch = Path(tmp)
        trees = {"base": scratch / "base", "change": scratch / "change"}
        base = {"ref": args.base,
                "commit": git("rev-parse", f"{args.base}^{{commit}}").decode().strip()}
        change_tree = working_tree_id(scratch)
        export(base["commit"], trees["base"])
        export(change_tree, trees["change"])
        runs = {"base": [], "change": []}
        print(f"{args.workload}, {bench['run_seconds']} s a run, base {args.base} against "
              f"the working tree; {PAIR_METRIC} in {specs[PAIR_METRIC]['unit']}")
        print(f"{'pair':>4} {'seed':>6} {'first':>6} {'base':>12} {'change':>12} "
              f"{'change %':>9}  fingerprints")
        for i, seed in enumerate(args.seeds):
            order = pair_order(i)
            for side in order:
                runs[side].append(run_bench(trees[side], bench, args.workload, seed))
            b, c = runs["base"][-1], runs["change"][-1]
            vb, vc = b["metrics"][PAIR_METRIC], c["metrics"][PAIR_METRIC]
            same = "same" if b["fingerprints"] == c["fingerprints"] else "DIFFER"
            print(f"{i + 1:>4} {seed:>6} {order[0]:>6} {vb:>12.6g} {vc:>12.6g} "
                  f"{100.0 * (vc - vb) / vb:>+8.2f}%  {same}", flush=True)

    record = bench_record(args.workload, bench, base, change_tree, args.seeds, runs)
    print(f"{'metric':<12} {'side':<7} {'q1':>12} {'median':>12} {'q3':>12}   verdict")
    for name, m in record["metrics"].items():
        for side in ("base", "change"):
            q = m[side]
            note = (f"wins {m['wins']} of {len(args.seeds)}, median "
                    f"{100.0 * (q['median'] / m['base']['median'] - 1.0):+.2f}%, "
                    f"{'gain' if m['gain'] else 'no gain'}") if side == "change" else ""
            print(f"{name:<12} {side:<7} {q['q1']:>12.6g} {q['median']:>12.6g} "
                  f"{q['q3']:>12.6g}   {note}")
    same = all(pair["fingerprints_same"] for pair in record["pairs"])
    print(f"fingerprints: {'every pair the same' if same else 'DIFFER in some pair'}")
    for side in runs:
        print(f"failed operations, {side}: {sum(r['failed'] for r in runs[side])} of "
              f"{sum(r['attempted'] for r in runs[side])}")
    if args.label is not None:
        out = ROOT / f"BENCH_{args.label}.json"
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
