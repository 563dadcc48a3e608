"""One set-up in a fresh interpreter: import the package, run the warm-up pass.

Prints the seconds this took.  ``run.py`` starts it several times per run and
reports the median as ``setup_s``.  The corpus is built before the clock
starts, since generating inputs is the benchmark's work, not the program's.
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
import time
from pathlib import Path

import corpus
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    cases = corpus.generate(args.workload, args.seed, workloads.WARMUP_CASES[args.workload])
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=work_dir))
    try:
        start = time.perf_counter()
        lib = workloads.load_library(ROOT / "src")
        workloads.warm_up(lib, args.workload, cases, tmp)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(elapsed)


if __name__ == "__main__":
    main()
