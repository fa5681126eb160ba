"""utileval benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload resample --seed 1 --seconds 30 --trace 0

Makes the workload's inputs from ``--seed``, then runs the real CLI one
command per child interpreter, one child at a time, until ``--seconds`` have
passed.  Every run's reports are checked (untimed): they must be
byte-identical to the first run's and pass the workload's checks.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced children and reports the per-layer metrics of the traced
ones; counts must repeat exactly across them.  The last line of standard
output is the result object; the line before it holds the environment, the
input properties and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 120.0
MIN_MEASURED = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "ok_frac": "frac",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def _environment(env: dict[str, str]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: env[name] for name in THREAD_VARS},
    }


class Child:
    """One child interpreter: its exit code and lifetime."""

    def __init__(self, run_dir: Path, argv: list[str], trace: bool, env: dict[str, str]):
        self.result_path = run_dir / "child.json"
        self.stderr_path = run_dir / "stderr.txt"
        command = [sys.executable, str(HERE / "child.py"), str(self.result_path),
                   "1" if trace else "0", "--", *argv]
        with open(run_dir / "stdout.txt", "wb") as out, open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=out, stderr=err)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            self.lifetime = time.perf_counter() - start
        self.returncode = proc.returncode

    def result(self) -> tuple[dict | None, list[str]]:
        problems = []
        if self.returncode != 0:
            problems.append(f"exit code {self.returncode}")
        stderr = self.stderr_path.read_text(errors="replace")
        if "Traceback" in stderr:
            problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
        try:
            result = json.loads(self.result_path.read_text())
        except (OSError, ValueError):
            return None, problems + ["no result from child"]
        module = Path(result.get("module", "")).resolve()
        if ROOT / "src" not in module.parents:
            problems.append(f"utileval imported from {module}, not from the checkout")
        return result, problems


def _quantiles(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with at least 10 samples
    beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "tail": None, "quartiles": None}
    if n >= 2:
        out["quartiles"] = statistics.quantiles(ordered, n=4)[::2]
    if n >= 20:
        out["tail"] = {"q": (n - 10) / n, "value": ordered[n - 11]}
    return out


def _per_layer(traces: list[dict], untraced: list[dict], problems: list[str]) -> dict:
    """Median times and exactly repeated counts of the traced runs."""
    metrics = {}
    for metric in tracer.per_layer_metrics():
        name, unit = metric["name"], metric["unit"]
        if name == tracer.OVERHEAD:
            continue
        values = [t[name] for t in traces]
        if unit != "s" and len(set(values)) != 1:
            problems.append(f"{name} differs between traced runs: {values}")
        value = statistics.median(values) if unit == "s" else values[0]
        metrics[name] = {"value": value, "unit": unit}
    untraced_wall = statistics.median(s["wall_s"] for s in untraced)
    metrics[tracer.OVERHEAD] = {
        "value": metrics["cli.main.total_s"]["value"] - untraced_wall,
        "unit": "s",
    }
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    env = _child_env()
    work = WORK / workload_name
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    workload = workloads.PREPARE[workload_name](ROOT, work / "inputs", seed)
    out_dir = work / "out"
    argv = [*workload.argv, "--seed", str(seed), "--out-dir", str(out_dir.relative_to(ROOT))]

    reference = None
    attempted = failed = 0
    problems: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []

    def one(trace_child: bool) -> dict | None:
        nonlocal reference, attempted, failed
        run_dir = work / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)
        run_dir.mkdir()
        child = Child(run_dir, argv, trace_child, env)
        result, found = child.result()
        if result is not None:
            wrong, digests = workloads.check_outputs(workload, out_dir, reference)
            found.extend(wrong)
            reference = reference or digests
        attempted += 1
        if found:
            failed += 1
            problems.extend(found)
            return None
        return {
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "setup_s": child.lifetime - result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "trace": result.get("trace"),
        }

    # start another child only if it should end within the measured time,
    # judging by the last one
    start = time.perf_counter()
    last = 0.0
    while time.perf_counter() - start + last < seconds or len(untraced) + len(traced) < MIN_MEASURED:
        trace_child = trace and len(traced) <= len(untraced)
        before = time.perf_counter()
        sample = one(trace_child)
        last = time.perf_counter() - before
        if sample is not None:
            (traced if trace_child else untraced).append(sample)
        if attempted >= 2 * MIN_MEASURED and failed == attempted:
            break

    values: dict[str, float] = {}
    if not trace and untraced:
        walls = [s["wall_s"] for s in untraced]
        values["wall_s"] = statistics.median(walls)
        values["setup_s"] = statistics.median(s["setup_s"] for s in untraced)
        values["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in untraced)
        values["work_per_s"] = statistics.median(workload.units / w for w in walls)
        values["ok_frac"] = 1.0 - failed / attempted
    metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    if trace and traced and untraced:
        metrics = _per_layer([s["trace"] for s in traced], untraced, problems)
    info = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "unit_of_work": workload.unit,
        "units_per_run": workload.units,
        "inputs": workload.inputs,
        "environment": _environment(env),
        "failed_frac": failed / attempted,
        "traced_runs": len(traced),
        "problems": problems[:10],
    }
    for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
        info[key] = _quantiles([s[key] for s in untraced]) if untraced else None
    expected = tracer.per_layer_metrics() if trace else END_TO_END
    result = {
        "correct": not problems and len(metrics) == len(expected),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/utileval/cli.py", "data/breast_cancer.csv") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a utileval checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another workload's files are still there
        pass
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
