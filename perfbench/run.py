"""hornfill benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run measures one workload for
about S seconds in a fresh single-threaded process (worker.py), checks
every op against its frozen verdict, and prints as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Untraced, set-up time is sampled in the measuring process and in the
set-up-only processes it starts every few seconds between ops.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Run metadata goes to the line before it and, with the
per-member times, to ``out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from worker import BENCH, OUT, ROOT

WORKER = BENCH / "worker.py"
WORKLOADS = ("census", "levels")
# pass_s, largest_s and setup_s are wall seconds scaled to this time of the
# reference loop in worker.py, about its median on the 2-core Xeon the
# benchmark was defined on: seconds * REFERENCE_S / (the reference time
# measured with them).  The machine's speed moves in phases of seconds to
# minutes, and the reference loop moves with it.
REFERENCE_S = 0.0016
CHILD_TIMEOUT = 150  # seconds; a run must end within 180


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hornfill").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_worker(args):
    """The result of the worker's last line, with its own set-up sample."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER)] + args,
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_samples"].insert(0, [result["ready"] - started, result["ready_reference_s"]])
    return result


def member_medians(passes):
    return {m: statistics.median(p[m] for p in passes) for m in passes[0]}


def wall_times(result):
    """(pass seconds, largest member's seconds) as measured, unscaled."""
    medians = member_medians(result["plain"])
    return sum(medians.values()), medians[result["largest"]]


def end_to_end(result):
    scale = REFERENCE_S / statistics.median(result["reference_s"])
    pass_s, largest_s = wall_times(result)
    setup_s = statistics.median(s * REFERENCE_S / ref for s, ref in result["setup_samples"])
    return {
        "pass_s": (pass_s * scale, "s"),
        "largest_s": (largest_s * scale, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(result):
    metrics = {name: tuple(v) for name, v in result["layers"].items()}
    plain = sum(member_medians(result["plain"]).values())
    traced = sum(member_medians(result["traced"]).values())
    metrics["trace.untraced_pass_s"] = (plain, "s")
    metrics["trace.pass_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - plain, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hornfill" / "__init__.py").is_file():
        print(f"error: no hornfill sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": os.getloadavg(),
    }
    result = run_worker(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)]
    )
    meta["loadavg_after"] = os.getloadavg()
    meta["member_order"] = result["order"]

    metrics = per_layer(result) if args.trace else end_to_end(result)
    failures = result["failures"]
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    pass_wall_s, largest_wall_s = wall_times(result)
    record = dict(meta, setup_samples=result["setup_samples"],
                  reference_s=result["reference_s"],
                  pass_wall_s=pass_wall_s, largest_wall_s=largest_wall_s,
                  passes=result["plain"], traced_passes=result["traced"], failures=failures,
                  metrics={k: v[0] for k, v in metrics.items()})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1)

    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} {value:.6g} {unit}")
    print(f"{args.workload} unscaled: pass {pass_wall_s:.6g} s, largest {largest_wall_s:.6g} s,"
          f" reference loop {statistics.median(result['reference_s']) * 1e3:.4g} ms")
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
