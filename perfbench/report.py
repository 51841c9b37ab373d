"""Run every workload once and print each metric by name and unit.

    python3 perfbench/report.py [--trace]

Each run uses seed 1 and BENCHMARK.json's ``run_seconds``.  Without
``--trace`` it prints the end-to-end metrics of each workload; with it,
the per-layer metrics of each workload, zero rows left out (a layer that
does not run on a workload reports zero), ending with the tracing
overhead.
"""

import argparse
import json
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS

SEED = 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", str(seconds),
             "--trace", str(int(args.trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload}: run failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {workload}: correct={result['correct']}"
              f" attempted={result['attempted']} failed={result['failed']}")
        status = status or int(not result["correct"])
        for name, m in result["metrics"].items():
            if m["value"] or not args.trace:
                print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
