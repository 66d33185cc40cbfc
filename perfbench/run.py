#!/usr/bin/env python3
"""ecgsym benchmark: drive ``ecgsym.cli.main`` in-process on generated inputs.

    python3 perfbench/run.py --workload grid212 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing is installed. One process, one thread, a
closed loop of back-to-back invocations for ``--seconds`` after one
untimed warm-up call. Every invocation's output is checked; see
``README.md`` for the workloads, metrics and predictions.

``--trace 0`` prints the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced invocations and prints the per-layer
metrics, which come from spans recorded around the package's public names
(``spans.py``); all spans are written to ``perfbench/work/`` at the end.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from spans import CLI_SPAN, UNITS, Tracer, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_CALLS = 20
TAIL_BEYOND = 10

# Spans each workload must produce; one with zero calls is reported missing.
EXPECTED_SPANS = {
    "grid212": ["cli.main", "experiment.run", "experiment.ingest", "records.read",
                "records.label", "filtering.filter", "filtering.alignment_delay",
                "encoding.encode", "features.entropy", "features.lz",
                "distribution.evaluate", "experiment.write"],
    "stream_text": ["cli.main", "experiment.run", "experiment.ingest", "records.read",
                    "records.label", "filtering.filter", "filtering.alignment_delay",
                    "encoding.encode", "features.entropy", "features.lz",
                    "distribution.evaluate"],
    "pairs_csv": ["cli.main", "experiment.run", "experiment.load_csv", "experiment.pairs",
                  "distribution.evaluate"],
}


def host_ref() -> float:
    """Seconds for a fixed pure-Python plus numpy loop; recorded, never used to rescale."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    x = np.arange(200_000, dtype=float)
    for _ in range(20):
        x = np.sqrt(x * x + 1.0)
    return time.perf_counter() - t0


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def import_package():
    """Import ``ecgsym`` from this checkout's ``src/`` or exit with code 2."""
    if not (SRC / "ecgsym" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {SRC / 'ecgsym'}")
    sys.path.insert(0, str(SRC))
    import ecgsym.cli

    if Path(ecgsym.cli.__file__).resolve().parent != SRC / "ecgsym":
        sys.exit(f"benchmark: imported ecgsym from {ecgsym.cli.__file__}, not {SRC}")
    return ecgsym.cli


def setup(write, work: Path, seed: int):
    """Fresh-interpreter package import plus input generation, median of repeats."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, inputs = [], None
    for rep in range(SETUP_REPEATS):
        target = work / f"inputs{rep}"
        target.mkdir()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ecgsym"], env=env, check=True, timeout=60)
        generated = write(target, seed)
        times.append(time.perf_counter() - t0)
        if inputs is None:
            inputs = generated
        else:
            shutil.rmtree(target)
    return statistics.median(times), inputs


class Invoker:
    """Runs checked invocations; counts attempts and keeps each failure."""

    def __init__(self, main, inputs, check, workload: str, seed: int):
        self.main, self.inputs, self.check = main, inputs, check
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, call) -> float:
        if self.inputs.out_dir is not None:
            shutil.rmtree(self.inputs.out_dir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        # a failed invocation is counted and the loop goes on
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = call(self.inputs.argv)
                finally:
                    elapsed = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
            self.check(self.inputs, out.getvalue(), self.seed, self.workload)
        except Exception:
            self.failures.append(traceback.format_exc(limit=3))
        return elapsed


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(invoker: Invoker, seconds: float, tracer=None) -> dict:
    """Closed loop for ``seconds``; with a tracer, untraced and traced calls alternate."""
    invoker.invoke(invoker.main)  # warm-up: lazy set-up and caches, not timed
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(plain) < MIN_CALLS:
        plain.append(invoker.invoke(invoker.main))
        if tracer is not None:
            traced.append(traced_invoke(invoker, tracer))
    return {"plain": plain, "traced": traced}


def traced_invoke(invoker: Invoker, tracer: Tracer) -> float:
    """One invocation with every hook installed, under a fresh invocation id."""
    tracer.invocation += 1
    tracer.install()
    try:
        return invoker.invoke(tracer.wrap(invoker.main, CLI_SPAN))
    finally:
        tracer.uninstall()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_package()
    write, check = WORKLOADS[args.workload]
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_s, inputs = setup(write, work, args.seed)
        invoker = Invoker(cli.main, inputs, check, args.workload, args.seed)
        refs = [host_ref() for _ in range(3)]
        tracer = Tracer() if args.trace else None
        times = measure(invoker, args.seconds, tracer)
        refs += [host_ref() for _ in range(3)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in invoker.failures[:3]:
        print(f"failed invocation:\n{failure}", file=sys.stderr)
    env = environment()
    plain = times["plain"]
    run_s = statistics.median(plain)
    tail_s, tail_pct = tail(plain)
    failed = len(invoker.failures)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} timed invocations, "
          f"inputs {inputs.segments} segments or points")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']}, host.ref_s {statistics.median(refs):.4f}")
    # The median is printed, not gated: host-speed phases make it flip between
    # modes from run to run, while the tail stays in the slow mode (README.md).
    print(f"run_s {run_s:.6f} s (median of {len(plain)} invocations)")
    print(f"run_s_tail is p{tail_pct:.1f} of {len(plain)} invocations "
          f"({TAIL_BEYOND} slower samples beyond it)")
    print(f"failed_frac {failed / invoker.attempted:.4f} (fraction) = "
          f"{failed}/{invoker.attempted} invocations")

    varying = []
    if tracer is None:
        metrics = {
            "run_s_tail": metric(tail_s, "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layer, missing, varying = per_layer(tracer, EXPECTED_SPANS[args.workload])
        if missing:
            print(f"missing spans (zero calls, metrics omitted): {', '.join(missing)}")
        if varying:
            print(f"counts that differ between invocations: {', '.join(varying)}")
        metrics = {name: metric(value, UNITS[name]) for name, value in layer.items()}
        traced_s = statistics.median(times["traced"])
        metrics["trace.run_s"] = metric(traced_s, "s")
        metrics["trace.overhead_s"] = metric(traced_s - run_s, "s")
        metrics["host.ref_s"] = metric(statistics.median(refs), "s")
        spans_path = HERE / "work" / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and not varying,
        "attempted": invoker.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
