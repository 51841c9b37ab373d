"""Record the frozen verdict of every benchmark op.

    python3 perfbench/freeze.py

Runs every op of every workload once and writes ``frozen/<workload>.json``:
for each op its exit code and the sha256 of its deterministic output
(the ``--output`` JSON of a CLI op, the report fields of a library op).
Every benchmark run checks its ops against these files and names each op
that differs, so this script is only for a change meant to change a
verdict.
"""

import json
import shutil
import sys
import tempfile

import worker


def verdicts(workload):
    """Verdict of every op of the workload, and the failures met."""
    import workloads

    worker.WORK.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"freeze-{workload}-", dir=worker.WORK)
    try:
        checker = worker.Checker()
        worker.run_pass(workloads.build(workload, work), checker)
        return checker.verdicts, checker.failures
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    worker.load_hornfill()
    import workloads

    status = 0
    for workload in workloads.WORKLOADS:
        got, failures = verdicts(workload)
        for failure in failures:
            print(f"{workload}: {failure}", file=sys.stderr)
        if failures:
            status = 1
            continue
        worker.FROZEN.mkdir(exist_ok=True)
        with open(worker.FROZEN / f"{workload}.json", "w") as fh:
            json.dump({"workload": workload, "ops": got}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: froze {len(got)} ops")
    return status


if __name__ == "__main__":
    sys.exit(main())
