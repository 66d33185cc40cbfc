import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecgsym.cli import main
from ecgsym.records import pack_format212

FS = 360.0
SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def write_signal(path, samples):
    path.write_text("\n".join(repr(float(v)) for v in samples) + "\n")


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    t = np.arange(1440) / FS
    r1 = 100.0 * np.sin(2 * math.pi * 8.0 * t) + rng.normal(0, 1, 1440)
    r2 = rng.normal(0, 40, 1440)
    write_signal(tmp_path / "r1.txt", r1)
    write_signal(tmp_path / "r2.txt", r2)
    sidecar = tmp_path / "labels.csv"
    sidecar.write_text("r1,0,1440,steady\nr2,0,1440,erratic\n")
    grid = tmp_path / "grid.txt"
    grid.write_text("slope binary\nthreshold ternary 1/12\n")
    return tmp_path


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    assert main(["synth", "--bogus"]) == 1


def test_synth_writes_features_and_report(tmp_path, capsys):
    out = tmp_path / "synth"
    code = main(
        ["synth", "--classes", "3", "--per-class", "40", "--spread", "0.02",
         "--seed", "11", "--out", str(out)]
    )
    assert code == 0
    assert (out / "features.csv").exists() and (out / "report.txt").exists()
    lines = (out / "features.csv").read_text().strip().splitlines()
    assert lines[0] == "label,entropy,complexity"
    assert len(lines) == 1 + 3 * 40
    assert "overlap_per_element" in capsys.readouterr().out


def test_synth_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        main(["synth", "--seed", "4", "--per-class", "25", "--out", str(out)])
    assert (out_a / "features.csv").read_bytes() == (out_b / "features.csv").read_bytes()


def test_synth_custom_centers_and_names(tmp_path, capsys):
    code = main(
        ["synth", "--centers", "0,0;1,1", "--names", "low,high", "--per-class", "10"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "low" in out and "high" in out


def test_evaluate_round_trip(tmp_path, capsys):
    out = tmp_path / "synth"
    main(["synth", "--per-class", "30", "--out", str(out), "--seed", "2"])
    capsys.readouterr()
    code = main(["evaluate", str(out / "features.csv"), "--skip-header"])
    assert code == 0
    assert "classes = 5" in capsys.readouterr().out


def test_evaluate_missing_file_is_data_error(tmp_path, capsys):
    assert main(["evaluate", str(tmp_path / "nope.csv")]) == 2
    assert "data error" in capsys.readouterr().err


def test_filter_response_and_output(tmp_path):
    t = np.arange(720) / FS
    write_signal(tmp_path / "sig.txt", np.sin(2 * math.pi * 8.0 * t))
    out = tmp_path / "filtered.txt"
    resp = tmp_path / "resp.csv"
    code = main(
        ["filter", str(tmp_path / "sig.txt"), "--out", str(out), "--response", str(resp)]
    )
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 720
    lines = resp.read_text().strip().splitlines()
    assert lines[0] == "freq_hz,magnitude,phase_rad"
    assert len(lines) == 1 + 512


def test_filter_requires_input_or_response(capsys):
    assert main(["filter"]) == 1


def test_encode_and_features_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(3)
    write_signal(tmp_path / "sig.txt", rng.normal(0, 1, 800))
    symbols = tmp_path / "symbols.txt"
    code = main(
        ["encode", str(tmp_path / "sig.txt"), "--method", "threshold",
         "--alphabet", "3", "--deviation", "1/12", "--out", str(symbols)]
    )
    assert code == 0
    values = {int(v) for v in symbols.read_text().split()}
    assert values <= {-1, 0, 1}
    code = main(["features", str(symbols), "--alphabet", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "entropy_norm" in out and "complexity_norm" in out


def test_encode_threshold_without_deviation_is_usage_error(tmp_path):
    write_signal(tmp_path / "sig.txt", [0.0, 1.0, 2.0])
    code = main(["encode", str(tmp_path / "sig.txt"), "--method", "threshold", "--alphabet", "2"])
    assert code == 1


def test_features_short_sequence_needs_flag(tmp_path, capsys):
    symbols = tmp_path / "symbols.txt"
    symbols.write_text("\n".join(["0", "1"] * 20) + "\n")
    assert main(["features", str(symbols), "--alphabet", "2"]) == 2
    assert "minimum valid length" in capsys.readouterr().err
    assert main(["features", str(symbols), "--alphabet", "2", "--allow-short"]) == 0


def test_features_constant_sequence_prints_positive_zero(tmp_path, capsys):
    symbols = tmp_path / "zeros.txt"
    symbols.write_text("0\n" * 400)
    assert main(["features", str(symbols), "--alphabet", "2"]) == 0
    out = capsys.readouterr().out
    assert "entropy_bits = 0.0\n" in out
    assert "entropy_norm = 0.0\n" in out


def test_ingest_counts_and_manifest(dataset, capsys):
    out = dataset / "ingested"
    code = main(
        ["ingest", str(dataset / "r1.txt"), str(dataset / "r2.txt"),
         "--sidecar", str(dataset / "labels.csv"), "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "steady: 2" in printed and "erratic: 2" in printed
    manifest = (out / "segments.csv").read_text().strip().splitlines()
    assert manifest[0] == "record_id,start,label"
    assert len(manifest) == 5


def test_run_end_to_end(dataset, capsys):
    out = dataset / "results"
    code = main(
        ["run", str(dataset / "r1.txt"), str(dataset / "r2.txt"),
         "--sidecar", str(dataset / "labels.csv"), "--grid", str(dataset / "grid.txt"),
         "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "rank" in printed and "slope-binary" in printed
    assert (out / "summary.csv").exists()
    scatter_files = list(out.glob("scatter_*.csv"))
    assert len(scatter_files) == 2
    report_files = list(out.glob("report_*.txt"))
    assert len(report_files) == 2


def test_run_with_config_file(dataset, capsys):
    conf = dataset / "run.conf"
    conf.write_text(
        f"records = {dataset / 'r1.txt'} {dataset / 'r2.txt'}\n"
        f"sidecar = {dataset / 'labels.csv'}\n"
        f"grid = {dataset / 'grid.txt'}\n"
        "mode = exists\n"
        "filter = off\n"
    )
    assert main(["run", "--config", str(conf)]) == 0
    assert "rank" in capsys.readouterr().out


def test_run_flag_overrides_config(dataset, capsys):
    conf = dataset / "run.conf"
    conf.write_text(
        f"records = {dataset / 'r1.txt'} {dataset / 'r2.txt'}\n"
        f"sidecar = {dataset / 'labels.csv'}\n"
        "segment_length = 300\n"  # would fail the validity bound
    )
    assert main(["run", "--config", str(conf), "--segment-length", "720",
                 "--grid", str(dataset / "grid.txt")]) == 0
    capsys.readouterr()


def test_run_bad_grid_is_usage_error(dataset, capsys):
    bad = dataset / "bad_grid.txt"
    bad.write_text("ripple binary\n")
    code = main(
        ["run", str(dataset / "r1.txt"), "--sidecar", str(dataset / "labels.csv"),
         "--grid", str(bad)]
    )
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_run_on_truncated_binary_record_is_data_error(dataset, capsys):
    bad = dataset / "bad.dat"
    bad.write_bytes(b"\x01\x02\x03\x04")
    code = main(
        ["run", str(bad), "--format", "212", "--sidecar", str(dataset / "labels.csv")]
    )
    assert code == 2
    assert "truncated" in capsys.readouterr().err


def test_run_conflicting_labels_is_data_error(dataset, capsys):
    sidecar = dataset / "conflict.csv"
    sidecar.write_text("r1,0,1440,steady\nr1,0,720,erratic\nr2,0,1440,erratic\n")
    code = main(
        ["run", str(dataset / "r1.txt"), str(dataset / "r2.txt"),
         "--sidecar", str(sidecar), "--grid", str(dataset / "grid.txt")]
    )
    assert code == 2
    assert "conflicting labels" in capsys.readouterr().err


def test_run_on_binary_records(tmp_path, capsys):
    rng = np.random.default_rng(8)
    steady = (200 * np.sin(2 * math.pi * 8.0 * np.arange(1440) / FS)).astype(int)
    erratic = rng.integers(-1000, 1000, 1440)
    other = rng.integers(-100, 100, 1440)
    (tmp_path / "b1.dat").write_bytes(pack_format212([steady, other]))
    (tmp_path / "b2.dat").write_bytes(pack_format212([erratic, other]))
    sidecar = tmp_path / "labels.csv"
    sidecar.write_text("b1,0,1440,steady\nb2,0,1440,erratic\n")
    grid = tmp_path / "grid.txt"
    grid.write_text("slope ternary\n")
    code = main(
        ["run", str(tmp_path / "b1.dat"), str(tmp_path / "b2.dat"), "--format", "212",
         "--channel", "0", "--sidecar", str(sidecar), "--grid", str(grid)]
    )
    assert code == 0
    assert "slope-ternary" in capsys.readouterr().out


def test_pairs_table(dataset, capsys):
    code = main(
        ["pairs", str(dataset / "r1.txt"), str(dataset / "r2.txt"),
         "--sidecar", str(dataset / "labels.csv"), "--grid", str(dataset / "grid.txt"),
         "--pairs", "steady:erratic"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "steady vs erratic" in out


def test_pairs_malformed_pair_is_usage_error(dataset, capsys):
    code = main(
        ["pairs", str(dataset / "r1.txt"), "--sidecar", str(dataset / "labels.csv"),
         "--pairs", "steadyerratic"]
    )
    assert code == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ecgsym", "synth", "--per-class", "10", "--seed", "1"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "overlap_per_element" in proc.stdout

def test_filter_other_kinds(tmp_path):
    t = np.arange(720) / FS
    write_signal(tmp_path / "sig.txt", np.sin(2 * math.pi * 8.0 * t) + 2.0)
    for kind in ("lowpass", "highpass"):
        out = tmp_path / f"{kind}.txt"
        code = main(["filter", str(tmp_path / "sig.txt"), "--kind", kind, "--out", str(out)])
        assert code == 0
        values = np.array([float(v) for v in out.read_text().split()])
        assert values.size == 720
    # low-pass keeps the offset, high-pass removes it
    low = np.array([float(v) for v in (tmp_path / "lowpass.txt").read_text().split()])
    high = np.array([float(v) for v in (tmp_path / "highpass.txt").read_text().split()])
    assert abs(low.mean() - 2.0) < 0.1
    assert abs(high.mean()) < 0.1


def test_run_with_precomputed_features(tmp_path, capsys):
    main(["synth", "--per-class", "30", "--seed", "6", "--out", str(tmp_path / "s")])
    capsys.readouterr()
    code = main(
        ["run", "--features", str(tmp_path / "s" / "features.csv"), "--skip-header",
         "--out", str(tmp_path / "res")]
    )
    assert code == 0
    assert "precomputed" in capsys.readouterr().out
    assert (tmp_path / "res" / "summary.csv").exists()


def test_ingest_binary_records(tmp_path, capsys):
    rng = np.random.default_rng(1)
    (tmp_path / "b1.dat").write_bytes(
        pack_format212([rng.integers(-500, 500, 1440), np.zeros(1440, int)])
    )
    sidecar = tmp_path / "labels.csv"
    sidecar.write_text("b1,0,1440,steady\n")
    code = main(
        ["ingest", str(tmp_path / "b1.dat"), "--format", "212", "--channel", "0",
         "--sidecar", str(sidecar)]
    )
    assert code == 0
    assert "steady: 2" in capsys.readouterr().out
