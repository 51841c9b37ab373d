import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parents[1]


def test_without_the_sources_the_run_fails_and_prints_no_result(work):
    shutil.copytree(BENCH, work / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", work)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_the_metrics_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    result = {
        "plain": [{"a": 1.0, "b": 3.0}, {"a": 2.0, "b": 5.0}, {"a": 9.0, "b": 4.0}],
        "traced": [{"a": 2.0, "b": 6.0}],
        # the reference loop ran at half the nominal speed: times are halved
        "reference_s": [run.REFERENCE_S * 2, run.REFERENCE_S * 1.5, run.REFERENCE_S * 3],
        "largest": "b",
        "peak_rss_mb": 30.0,
        "layers": {},
        # [seconds, reference time]: scaled to 0.3, 0.2 and 0.1
        "setup_samples": [[0.3, run.REFERENCE_S], [0.1, run.REFERENCE_S / 2],
                          [0.4, run.REFERENCE_S * 4]],
    }
    e2e = run.end_to_end(result)
    assert e2e == {
        "pass_s": (3.0, "s"),  # member medians 2 + 4, halved
        "largest_s": (2.0, "s"),
        "peak_rss_mb": (30.0, "MB"),
        "setup_s": (0.2, "s"),
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in e2e.items()
    }
    import spans

    layer_names = {m["name"] for m in spec["per_layer"]}
    assert set(spans.layer_metrics(spans.Tracer(None), 1)) | set(run.per_layer(result)) == (
        layer_names
    )
    assert run.per_layer(result)["trace.overhead_s"] == (8.0 - 6.0, "s")
