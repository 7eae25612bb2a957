"""What the commands import: no CLI path loads numpy's masked-array package."""
import subprocess
import sys
from pathlib import Path

import geoloop

ROOT = Path(__file__).resolve().parent.parent

# Runs each CLI path in turn in one fresh process (argv[1] is the package's
# parent, argv[2] a scratch directory) and prints the label of the first
# path after which numpy.ma is in sys.modules, or "none".  The bundled
# configs name their constitution relative to the repository root, the
# working directory.
_PATHS = r"""
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from geoloop import cli, mi

work, data, configs = Path(sys.argv[2]), cli.DATA_DIR, Path("configs")
short = work / "short.toml"
short.write_text(cli.serialise_config(cli.RunConfig(
    seed=3, max_steps=3, checkpoint_every=1, output_dir=str(work / "short"),
    constitution=str(data / "toy_high_si.txt"), ot_warmup=1)))
n = 6
mi.write_score_csv(mi.ScoreMatrix([[-1.0 + (i % 3 == j) - (i * j % 5) / 10 for j in range(3)]
                                   for i in range(n)]), work / "pos.csv")
mi.write_score_csv(mi.ScoreMatrix([[-1.0 - (i + j) % 4 / 10 for j in range(3)]
                                   for i in range(n)]), work / "neg.csv")
(work / "nll.csv").write_text("nll_without_bits,nll_with_bits\n" + "".join(
    f"{2.0 + i / 10},{1.9 - i % 2 / 10}\n" for i in range(n)))
ckpts = [str(work / "short" / f"ckpt_{s:06d}.npz") for s in range(4)]
paths = [
    *((f"train {name}", ["train", "--config", str(configs / f"{name}.toml"),
                         "--max-steps", "3", "--output-dir", str(work / name)])
      for name in ("enigma_high_si", "grpo_cot", "grpo_cot_plus")),
    ("train with OT from step 1", ["train", "--config", str(short)]),
    ("eval-constitution", ["eval-constitution", str(data / "toy_high_si.txt"),
                           str(data / "toy_low_si.txt"), "--out-dir", str(work / "e1")]),
    ("eval-constitution --components", ["eval-constitution", "--components",
                                        str(data / "component_replay.json"),
                                        "--out-dir", str(work / "e2")]),
    ("eval-constitution --scores", ["eval-constitution", "--scores", str(work / "pos.csv"),
                                    str(work / "neg.csv"), "--nll", str(work / "nll.csv"),
                                    "--out-dir", str(work / "e3")]),
    ("probe --metric fr", ["probe", *ckpts, "--metric", "fr", "--out-dir", str(work / "p1")]),
    ("probe --metric diag_mi", ["probe", *ckpts, "--metric", "diag_mi",
                                "--out-dir", str(work / "p2")]),
]
for label, argv in paths:
    if cli.main(argv) != cli.EXIT_OK:
        sys.exit(f"{label} failed")
    if "numpy.ma" in sys.modules:
        print(label)
        break
else:
    print("none")
"""


def test_no_cli_path_imports_numpy_ma(tmp_path):
    """numpy loads numpy.ma on the first np.unique, np.union1d or np.median
    call, about 6 ms of CPU and 0.8 MB that a one-shot command pays for
    nothing, since no geoloop command uses masked arrays."""
    result = subprocess.run(
        [sys.executable, "-I", "-c", _PATHS, str(Path(geoloop.__file__).parent.parent),
         str(tmp_path)], cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    first = result.stdout.splitlines()[-1]
    assert first == "none", f"numpy.ma was first imported by {first!r}"
