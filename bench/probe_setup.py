"""Set-up time of one workload in a fresh process.

Times importing neuric, building the workload's configs, loading the model
and finishing a first one-item call, which fills the lazy caches.  Making
that item's input is excluded, and so is importing numpy: it is a fixed
cost of the dependency that neuric cannot change, and on a shared machine
its load time swings by half between stretches of minutes, which would
hide a change in neuric's own set-up.  Prints {"setup_s": ...} as its last
line.  run.py starts this several times per run, one process at a time,
after capping the thread variables it inherits.

Usage: python3 bench/probe_setup.py WORKLOAD
"""

import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (before the clock; see above)

_T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports neuric)


def main() -> None:
    wl = workloads.make(sys.argv[1], ROOT)
    g0 = time.perf_counter()
    inp = wl.inputs(0, workloads.WARMUP_INDEX, 1)
    gen = time.perf_counter() - g0
    wl.call(inp)
    print(f'{{"setup_s": {time.perf_counter() - _T0 - gen!r}}}')


if __name__ == "__main__":
    main()
