"""One measured CLI run, in a fresh interpreter.

Usage: python3 perfbench/child.py RESULT_JSON TRACE(0|1) -- CLI_ARGS...

Imports utileval from the checkout's ``src`` (never from site-packages),
times ``cli.main(argv)`` and writes the exit code, the wall time, the peak
RSS and, when traced, the per-layer metrics to RESULT_JSON.  Everything before and after
``main`` (interpreter start, imports, exit) is the parent's ``setup_s``.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space (``VmHWM``).

    The rusage ``ru_maxrss`` that ``wait4`` returns is no use here: Linux
    carries the spawning process's high-water mark over ``execve`` into it,
    so it would read the benchmark driver's size whenever that is larger.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- CLI_ARGS...")
    sys.path.insert(0, str(ROOT / "src"))
    from utileval import cli

    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start, cpu_start = time.perf_counter(), time.process_time()
    code = cli.main(argv)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    result = {
        "exit": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "module": cli.__file__,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
