"""Record the held-out rank loss per workload, algorithm and seed.

Usage: ``python3 bench/record_expected.py [WORKLOAD ...]``.
Runs one untraced operation per data seed (``0 .. DATA_SEEDS - 1``) and
workload and writes the rank losses into ``expected.json``, which ``run.py``
checks every operation against.  Re-record only for a change that is meant to alter results, and
say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
from checks import EXPECTED_PATH, load_expected
from workloads import DATA_SEEDS, WORKLOADS


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    expected = load_expected()
    for name in names:
        w = WORKLOADS[name]
        table = expected["rank_loss"][name] = {}
        for seed in range(DATA_SEEDS):
            work = run.WORK / f"record-{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            _, files = run.write_inputs(w, seed, work / "inputs")
            result = run.Runner(w, seed, files, work, time.perf_counter()).launch()
            shutil.rmtree(work, ignore_errors=True)
            if "error" in result:
                print(f"{name} seed {seed}: {result['error']}", file=sys.stderr)
                return 1
            for algo, r in result["algos"].items():
                table.setdefault(algo, {})[str(seed)] = r["rank_loss"]
            print(f"{name} seed {seed}: " + " ".join(
                f"{a}={r['rank_loss']:.6f}" for a, r in result["algos"].items())
                + f" (setup {result['setup_s']:.2f} s, solve {result['solve_s']:.2f} s)",
                flush=True)
            EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
