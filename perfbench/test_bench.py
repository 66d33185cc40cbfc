"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repo root."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
import run
import workloads
from spans import COUNT_METRICS, Tracer, per_layer

LAYER_SPANS = {
    "features.lz_s", "features.entropy_s", "encoding.encode_s", "filtering.filter_s",
    "records.read_s", "records.label_s", "distribution.eval_s", "experiment.load_csv_s",
    "experiment.write_s",
}
LARGEST = {
    "grid212": "features.lz_s",
    "stream_text": "filtering.filter_s",
    "pairs_csv": "distribution.eval_s",
}


def traced_run(workload: str, seed: int, tmp_path) -> dict:
    """Per-layer metrics of two traced invocations on fresh inputs."""
    write, check = workloads.WORKLOADS[workload]
    tmp_path.mkdir()
    inputs = write(tmp_path, seed)
    invoker = run.Invoker(run.import_package().main, inputs, check, workload, seed)
    tracer = Tracer()
    for _ in range(2):
        run.traced_invoke(invoker, tracer)
    assert invoker.failures == []
    layer, missing, varying = per_layer(tracer, run.EXPECTED_SPANS[workload])
    assert missing == [] and varying == []
    return layer


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_shares_tell_workloads_apart(workload, tmp_path):
    first = traced_run(workload, 0, tmp_path / "a")
    second = traced_run(workload, 0, tmp_path / "b")
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}
    times = {k: first[k] for k in LAYER_SPANS}
    assert max(times, key=times.get) == LARGEST[workload]
    if workload == "pairs_csv":
        fired = [k for k in COUNT_METRICS if k.startswith(("filtering", "encoding", "features"))]
        assert all(first[k] == 0 for k in fired)


def test_inputs_reproduce_demo_dataset_and_clusters(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "record_pipeline_demo", run.ROOT / "scripts" / "record_pipeline_demo.py"
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    paths, _ = demo.build_dataset(tmp_path / "demo", workloads.WINDOWS_PER_CLASS, 0)
    ours = workloads.write_grid212(tmp_path, 0)
    assert [open(p, "rb").read() for p in paths] == [open(p, "rb").read() for p in ours.argv[1:3]]

    from ecgsym.experiment import make_clusters

    clusters = workloads.write_clusters(tmp_path, 0)
    want = make_clusters(
        workloads.cluster_centers(workloads.CLUSTER_CLASSES),
        workloads.CLUSTER_POINTS,
        workloads.CLUSTER_SPREAD,
        seed=0,
        names=clusters.class_names,
    )
    for name, path in zip(clusters.class_names, clusters.argv[2:]):
        got = np.loadtxt(path, delimiter=",", usecols=(1, 2))
        assert np.array_equal(got, want.classes[name])


def test_stream_spans_label_a_fixed_share_of_windows():
    n = workloads.SEGMENT * workloads.WINDOWS_PER_CLASS
    for seed in range(5):
        spans = workloads.short_spans(n, np.random.default_rng([seed, 1]))
        assert workloads.labeled_windows(n, spans) == sum(workloads.SPAN_WINDOWS)


def test_check_rejects_a_changed_result(tmp_path):
    inputs = workloads.write_clusters(tmp_path, 0)
    pinned = workloads.EXPECTED["pairs_csv"]["pairs"]
    rows = [f"{k.replace(':', ' vs ')} precomputed {v}" for k, v in pinned.items()]
    good = "\n".join(["pair encoder overlap_per_element", *rows]) + "\n"
    workloads.check_pairs(inputs, good, 0, "pairs_csv")
    with pytest.raises(workloads.CheckError):
        workloads.check_pairs(inputs, good.replace(rows[0][-8:], "0.999999"), 0, "pairs_csv")
    with pytest.raises(workloads.CheckError):
        workloads.check_pairs(inputs, good.replace(rows[-1] + "\n", ""), 1, "pairs_csv")


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("work", "__pycache__")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=skip)
    command = json.loads((run.ROOT / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", "pairs_csv", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *command[1:], *args], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
