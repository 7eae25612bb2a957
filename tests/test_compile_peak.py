"""The compile peak of each source module, bounded.

Every process compiles the package from source (no bytecode is written), so
each module's compile is a transient heap peak in every command.  This file
bounds that peak; it does not show that the bound sets perfbench's
peak_rss_mb.  Lowering the largest peak, policy.py's, by 64 KiB left the
median peak RSS of train_pre_ot 0.05 MB higher, while moving 375 KiB of
compile from cli.py to constitution.py, the largest peak unchanged, lowered
it by 0.11-0.18 MB on three workloads and raised it by 0.06 MB on probe,
where one commit paired against itself, ten pairs, read 0.10 MB apart.
"""
import subprocess
import sys
from pathlib import Path

import geoloop

SRC = Path(geoloop.__file__).parent

# Each module is compiled in its own fresh `python -I` process: a compile
# that resizes the interned-string table peaks about 900 KiB higher, and how
# many strings a long-lived process has interned depends on what ran in it
# before.  With Python 3.11, the largest peak is policy.py's 1 974 KiB, then
# cli.py's 1 467 KiB, constitution.py's 1 310 KiB and trainer.py's
# 1 200 KiB.  The parser's arena grows in 8 KiB blocks, about seven short
# statements each, and docstring text adds about 2-3 bytes a character, so
# the peak rises in steps: policy.py is 74 KiB under the bound, room for
# about nine more blocks; cli.py is about 580 KiB under it.
BOUND_KIB = 2048

# Reads the module named by argv[1] and prints its compile peak in bytes.
_PEAK = """
import sys, tracemalloc
source = open(sys.argv[1]).read()
tracemalloc.start()
compile(source, sys.argv[1], "exec")
print(tracemalloc.get_traced_memory()[1])
"""


def compile_peak(path: Path) -> int:
    result = subprocess.run([sys.executable, "-I", "-c", _PEAK, str(path)],
                            capture_output=True, text=True, check=True)
    return int(result.stdout)


def test_largest_compile_peak_is_bounded():
    """Each module compiles in under BOUND_KIB of traced heap."""
    peaks = {path.name: compile_peak(path) for path in sorted(SRC.glob("*.py"))}
    name = max(peaks, key=peaks.get)
    every = ", ".join(f"{n} {peak // 1024}" for n, peak in sorted(peaks.items(),
                                                                key=lambda kv: -kv[1]))
    assert peaks[name] < BOUND_KIB * 1024, (f"{name} compiles at {peaks[name] // 1024} KiB, "
                                            f"bound {BOUND_KIB}; peaks in KiB: {every}")
