"""The compile peak of each source module, which sets the program's peak heap."""
import subprocess
import sys
from pathlib import Path

import geoloop

SRC = Path(geoloop.__file__).parent

# Each module is compiled in its own fresh `python -I` process: a compile
# that resizes the interned-string table peaks about 900 KiB higher, and how
# many strings a long-lived process has interned depends on what ran in it
# before.  With Python 3.11, the largest peak is policy.py's 2 013 KiB, then
# cli.py's 1 885 KiB and trainer.py's 1 297 KiB.  A line of code adds about
# 4 KiB to its module's peak, so the margin of 35 KiB leaves policy.py about
# 8 lines to grow, and cli.py about 40.
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
    """Every process compiles the package from source (no bytecode is
    written), and the largest module's compile sets the heap's high-water
    mark, so perfbench's peak_rss_mb follows this peak on every workload: a
    module that grows past the bound raises the peak RSS of every command."""
    peaks = {path.name: compile_peak(path) for path in sorted(SRC.glob("*.py"))}
    name = max(peaks, key=peaks.get)
    assert peaks[name] < BOUND_KIB * 1024, f"{name} compiles at {peaks[name] // 1024} KiB"
