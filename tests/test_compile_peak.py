"""The compile peak of each source module, which sets the program's peak heap."""
import tracemalloc
from pathlib import Path

import geoloop

SRC = Path(geoloop.__file__).parent

# With Python 3.11, the largest peak is policy.py's 1 909 KiB (cli.py's is
# 1 825 KiB); before the synthetic task moved to task.py, policy.py's was
# 2 352 KiB.  A line of code adds about 4 KiB to its module's peak, so the
# margin of 139 KiB leaves the largest module about 35 lines to grow.
BOUND_KIB = 2048


def compile_peak(path: Path) -> int:
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_largest_compile_peak_is_bounded():
    """Every process compiles the package from source (no bytecode is
    written), and the largest module's compile sets the heap's high-water
    mark, so perfbench's peak_rss_mb follows this peak on every workload: a
    module that grows past the bound raises the peak RSS of every command."""
    peaks = {path.name: compile_peak(path) for path in sorted(SRC.glob("*.py"))}
    name = max(peaks, key=peaks.get)
    assert peaks[name] < BOUND_KIB * 1024, f"{name} compiles at {peaks[name] // 1024} KiB"
