"""One measured run of one workload, in a single process and thread.

run.py starts this file as a fresh subprocess to measure.  Untraced, the
measuring process itself starts this file again with ``--setup-only``
every few seconds between ops, to sample the set-up time over the whole
run.  The last line of standard output is a JSON object that the parent
reads.

Measuring is a closed loop: one op in flight, the next op starts when
the previous one has returned and its verdict has been checked.  Passes
over all members, in the seed's member order, repeat until the next
pass would end after ``--seconds``.  With ``--trace 1`` untraced and
traced passes alternate, so the run reports the tracing overhead too.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / "out"
FROZEN = BENCH / "frozen"


class SourcesMissing(Exception):
    pass


def load_hornfill():
    """Import hornfill from this checkout's src/, never from elsewhere.

    The search budget is the default one, whatever the shell exports, so
    that the verdicts match the frozen ones.
    """
    os.environ.pop("HORNFILL_BUDGET", None)
    pkg = SRC / "hornfill"
    if not (pkg / "__init__.py").is_file():
        raise SourcesMissing(f"no hornfill sources at {pkg}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hornfill

    if Path(hornfill.__file__).resolve().parent != pkg.resolve():
        raise SourcesMissing(f"hornfill was imported from {hornfill.__file__}, not {pkg}")
    return hornfill


def load_frozen(workload):
    with open(FROZEN / f"{workload}.json") as fh:
        return json.load(fh)["ops"]


class Checker:
    """Runs ops, times them and checks each verdict against the frozen one.

    With ``frozen=None`` it records verdicts instead of checking them.
    """

    def __init__(self, frozen=None):
        self.frozen = frozen
        self.attempted = 0
        self.failures = []
        self.verdicts = {}

    def run(self, op):
        """Seconds spent in the op's call; a failure is recorded by name."""
        self.attempted += 1
        if op.output and os.path.exists(op.output):
            os.remove(op.output)
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed op is counted, the run goes on
            elapsed = time.perf_counter() - start
            self.failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            code, payload = op.verdict(result)
        except Exception as exc:
            self.failures.append(f"{op.name}: verdict raised {type(exc).__name__}: {exc}")
            return elapsed
        got = [code, hashlib.sha256(payload).hexdigest()]
        self.verdicts[op.name] = got
        if code == 2:
            self.failures.append(f"{op.name}: exit code 2")
        elif self.frozen is not None and self.frozen.get(op.name) != got:
            self.failures.append(
                f"{op.name}: verdict {got} differs from frozen {self.frozen.get(op.name)}"
            )
        return elapsed


def reference_loop():
    """A fixed piece of pure-Python dict and tuple work, independent of hornfill.

    Its time tracks how fast the machine runs this process at the moment.
    """
    table = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
    return sorted(table.items())


def time_reference(repeats=1):
    """Median seconds of ``repeats`` back-to-back reference loops, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class SpeedProbe:
    """Times the reference loop between ops, at most every 0.2 seconds.

    On a shared machine the speed this process gets moves by tens of
    percent in phases that last minutes.  run.py divides the median of
    these samples out of the run's time metrics.
    """

    EVERY = 0.2

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def maybe_sample(self):
        if time.perf_counter() - self._last < self.EVERY:
            return
        self.samples.append(time_reference())
        self._last = time.perf_counter()


# a set-up sample's reference time: the median of this many loops, timed
# as soon as the process is ready
READY_REPEATS = 9


def ready_record():
    """When this process was ready to measure, and the reference time then."""
    ready = time.monotonic()
    return {"ready": ready, "ready_reference_s": time_reference(READY_REPEATS)}


class SetupProbe:
    """Samples set-up time in fresh processes, every few seconds between ops.

    Each sample starts this file with ``--setup-only``, waits for it and
    keeps [seconds from start to ready, reference time at ready].  Spread
    over the run, the samples meet the same speed phases as the passes.
    """

    EVERY = 5.0

    def __init__(self, workload):
        self.argv = [sys.executable, str(Path(__file__).resolve()),
                     "--workload", workload, "--setup-only"]
        self.samples = []
        self._last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self._last < self.EVERY:
            return
        started = time.monotonic()
        proc = subprocess.run(self.argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=60, check=True)
        ready = json.loads(proc.stdout.strip().splitlines()[-1])
        self.samples.append([ready["ready"] - started, ready["ready_reference_s"]])
        self._last = time.perf_counter()


def run_pass(members, checker, probes=()):
    """Seconds per member for one pass over all members, in order.

    The probes sample between ops, outside the timed calls.
    """
    gc.collect()
    times = {}
    for member in members:
        total = 0.0
        for op in member.ops:
            for probe in probes:
                probe.maybe_sample()
            total += checker.run(op)
        times[member.name] = total
    return times


def measure(members, seconds, checker, probes, tracer=None):
    """Untraced passes, alternating with traced ones when a tracer is given."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(members, checker, probes))
        last = sum(plain[-1].values())
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(members, checker, probes))
            finally:
                tracer.uninstall()
            last += sum(traced[-1].values())
        if time.perf_counter() - start + last > seconds:
            return plain, traced


def write_spans(tracer, path):
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    hornfill = load_hornfill()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    WORK.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        members = workloads.order(workloads.build(args.workload, work), args.seed)
        frozen = load_frozen(args.workload)
        ready = ready_record()
        if args.setup_only:
            print(json.dumps(ready))
            return 0
        checker = Checker(frozen)
        speed = SpeedProbe()
        probes = [speed]
        tracer = setup = None
        if args.trace:
            import spans

            tracer = spans.Tracer(hornfill)
        else:
            setup = SetupProbe(args.workload)
            probes.append(setup)
        plain, traced = measure(members, args.seconds, checker, probes, tracer)
        result = dict(
            ready,
            order=[m.name for m in members],
            largest=workloads.LARGEST[args.workload],
            plain=plain,
            traced=traced,
            reference_s=speed.samples,
            setup_samples=setup.samples if setup else [],
            attempted=checker.attempted,
            failures=checker.failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer, len(traced))
            OUT.mkdir(parents=True, exist_ok=True)
            write_spans(tracer, OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SourcesMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
