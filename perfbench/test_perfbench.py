"""Self-tests of the benchmark's checker and tracer.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from utileval import cli  # noqa: E402

ROWS = 1500


@pytest.fixture
def contextual(tmp_path, monkeypatch):
    """A small contextual workload, run once; returns (workload, out, digests)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inputs").mkdir()
    workload = workloads.prepare_contextual(tmp_path, tmp_path / "inputs", seed=3, rows=ROWS)
    out = tmp_path / "out"
    assert cli.main([*workload.argv, "--seed", "3", "--out-dir", "out"]) == 0
    problems, digests = workloads.check_outputs(workload, out, None)
    assert problems == []
    assert workloads.check_outputs(workload, out, digests) == ([], digests)
    return workload, out, digests


def test_one_changed_byte_fails_the_run(contextual):
    workload, out, digests = contextual
    path = out / "evaluate_roc.csv"
    data = bytearray(path.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    problems, _ = workloads.check_outputs(workload, out, digests)
    assert problems == ["report bytes differ from the first run"]


def test_u_max_one_ulp_off_fails_the_run(contextual):
    workload, out, _ = contextual
    path = out / "evaluate_report.json"
    payload = json.loads(path.read_text())
    metrics = payload["report"]["metrics"]
    metrics["u_max"] = math.nextafter(metrics["u_max"], math.inf)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    # the checks alone must catch it, without the byte comparison
    problems, _ = workloads.check_outputs(workload, out, None)
    assert len(problems) == 2
    assert all(p.startswith("u_max ") for p in problems)


def test_resample_intervals_are_checked_against_an_independent_bootstrap(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inputs").mkdir()
    workload = workloads.prepare_resample(tmp_path, tmp_path / "inputs", seed=4)
    out = tmp_path / "out"
    assert cli.main([*workload.argv, "--seed", "4", "--out-dir", "out"]) == 0
    assert workloads.check_outputs(workload, out, None)[0] == []
    path = out / "compare_report.json"
    payload = json.loads(path.read_text())
    interval = payload["models"]["coarse3"]["intervals"]["auc@95"]
    interval["low"] = math.nextafter(interval["low"], -math.inf) - 1e-9
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    problems, _ = workloads.check_outputs(workload, out, None)
    assert len(problems) == 1
    assert problems[0].startswith("coarse3: auc@95 ") and "rank-sum bootstrap" in problems[0]


def test_missing_reports_fail_the_run(contextual):
    workload, out, digests = contextual
    shutil.rmtree(out)
    assert workloads.check_outputs(workload, out, digests)[0] == ["no reports written"]


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_nested_self_times_sum_to_the_root_total():
    t = tracer.Tracer()
    leaf = t.span("leaf", lambda: _busy(0.002))
    mid = t.span("mid", lambda: [leaf(), _busy(0.001), leaf()])
    root = t.span("root", lambda: [mid(), leaf(), _busy(0.001)])
    root()
    root()
    assert (t.calls["root"], t.calls["mid"], t.calls["leaf"]) == (2, 2, 6)
    assert all(value >= 0.0 for value in t.self_time.values())
    assert math.isclose(sum(t.self_time.values()), t.total["root"], rel_tol=1e-9)


def _in_child(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter, so patching never leaks into this one."""
    prelude = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "import json, tracer, utileval\n"
    )
    return subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, timeout=120
    )


def test_every_from_import_is_rebound():
    proc = _in_child(
        "rebound = tracer.install(tracer.Tracer())\n"
        "print(json.dumps(rebound))\n"
    )
    assert proc.returncode == 0, proc.stderr
    rebound = json.loads(proc.stdout)
    assert set(rebound) == set(tracer.span_names())
    for span, sites in {
        "dataio.read_scores": ["utileval.cli.read_scores", "utileval.dataio.read_scores"],
        "utility.utility_curve": [
            "utileval.cli.utility_curve",
            "utileval.learners.utility_curve",
            "utileval.simstudy.utility_curve",
            "utileval.stats.utility_curve",
            "utileval.utility.utility_curve",
        ],
        "metrics.auc_rank": [
            "utileval.cli.auc_rank",
            "utileval.learners.auc_rank",
            "utileval.metrics.auc_rank",
            "utileval.stats.auc_rank",
        ],
        "learners.tune_and_compare": [
            "utileval.cli.tune_and_compare",
            "utileval.learners.tune_and_compare",
        ],
        "simstudy.generate_realization": [
            "utileval.cli.generate_realization",
            "utileval.simstudy.generate_realization",
        ],
    }.items():
        assert set(sites) <= set(rebound[span]), (span, rebound[span])


def test_a_missed_binding_is_an_error():
    proc = _in_child(
        "import utileval.stats, utileval.metrics\n"
        "utileval.stats._held = {'auc': utileval.metrics.auc_rank}\n"
        "tracer.install(tracer.Tracer())\n"
    )
    assert proc.returncode != 0
    assert "TraceError" in proc.stderr
    assert "utileval.stats._held['auc'] -> metrics.auc_rank" in proc.stderr


def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    (tmp_path / "inputs").mkdir()
    workload = workloads.prepare_contextual(tmp_path, tmp_path / "inputs", seed=5, rows=ROWS)
    results = []
    for i in range(2):
        result_path = tmp_path / f"child{i}.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(result_path), "1", "--",
             *workload.argv, "--out-dir", "out"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(result_path.read_text())["trace"])
    first, second = results
    counts = [m["name"] for m in tracer.per_layer_metrics() if m["unit"] != "s"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    thresholds = workload.inputs["contextual"]["distinct_score_ratio"] * ROWS + 1
    assert first["utility.ctx_cells"] == ROWS * round(thresholds)
    assert first["dataio.rows_read"] == ROWS
    assert first["cli.main.calls"] == 1
    self_total = sum(first[f"{span}.self_s"] for span in tracer.span_names())
    assert math.isclose(self_total, first["cli.main.total_s"], rel_tol=1e-9)


def test_peak_rss_is_the_childs_own(tmp_path):
    held = bytearray(300 * 2**20)
    held[:: 4096] = b"\x01" * len(held[:: 4096])  # make the driver's RSS 300 MB larger
    result_path = tmp_path / "child.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(result_path), "0", "--",
         "simulate", "--samples", "200", "--realizations", "2", "--out-dir", "out"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert 10.0 < json.loads(result_path.read_text())["peak_rss_mb"] < 250.0
    del held


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == tracer.per_layer_metrics()


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
