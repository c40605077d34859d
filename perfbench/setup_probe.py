"""Time one workload set-up in a fresh process and print the seconds.

Set-up is the import of ``scaletop`` (and of the benchmark modules, which
import it), the enumeration the workload needs, and the generation of
its inputs from the seed.  ``run.py`` starts this a few times per run and
reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import workloads  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name](seed)
    print(f"{time.perf_counter() - _T0!r}")


if __name__ == "__main__":
    main()
