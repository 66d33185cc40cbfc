import argparse
import contextlib
import dataclasses
import hashlib
import io
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgsym.cli import _config_from_args, build_parser, main
from ecgsym.experiment import ExperimentConfig, PairRow, load_features_csv, pair_table_text, run_experiment
from ecgsym.filtering import PaddingPlan, Signal, filter_compensated, make_bandpass
from ecgsym.records import pack_format212

from record_pipeline_demo import build_dataset
from test_digests import write_filter_signals

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


COMMANDS = ["ingest", "filter", "encode", "features", "evaluate", "run", "pairs", "synth"]


@pytest.mark.parametrize("command", ["run", "pairs"])
def test_only_the_named_subcommand_gets_flags(dataset, monkeypatch, command):
    add_argument = argparse.ArgumentParser.add_argument
    calls = []

    def spy(self, *names, **kwargs):
        calls.append((self.prog, names[0] if names else kwargs["dest"]))
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    records = [str(dataset / "r1.txt"), str(dataset / "r2.txt")]
    argv = [command, *records, "--sidecar", str(dataset / "labels.csv"),
            "--grid", str(dataset / "grid.txt")]
    assert main(argv) == 0
    progs = [prog for prog, _ in calls]
    assert progs.count("ecgsym") == 1 and len(set(progs)) == 1 + len(COMMANDS)
    flags = [(prog, name) for prog, name in calls if name != "-h"]
    # the run flags are built once, on the one subparser that runs
    assert {prog for prog, _ in flags} == {f"ecgsym {command}"}
    names = [name for _, name in flags]
    assert len(names) == len(set(names))
    assert set(names) >= {"records", "--config", "--grid", "--mode"}


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_help_is_the_full_parsers(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    expected = sub.choices[command].format_help()
    with pytest.raises(SystemExit) as exit_info:
        main([command, "-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == expected


def test_top_level_help_and_unknown_command_are_the_full_parsers(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    expected = build_parser().format_help()
    with pytest.raises(SystemExit) as exit_info:
        main(["-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == expected
    assert main(["bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument command: invalid choice: 'bogus'")


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


def test_evaluate_out_writes_what_it_prints(tmp_path, capsys):
    # and what synth wrote, with the default class names and with the
    # paper's, which are not in sorted order: evaluate keeps the file's
    for names in ([], ["--names", "Normal,AFIB,AFL,SVTA,VT"]):
        main(["synth", "--per-class", "30", "--out", str(tmp_path / "synth"), "--seed", "2", *names])
        capsys.readouterr()
        out = tmp_path / "report.txt"
        assert main(["evaluate", str(tmp_path / "synth" / "features.csv"), "--skip-header", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out == (tmp_path / "synth" / "report.txt").read_text()


def test_evaluate_missing_file_is_data_error(tmp_path, capsys):
    assert main(["evaluate", str(tmp_path / "nope.csv")]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_evaluate_non_finite_feature_is_data_error(tmp_path, capsys, bad):
    path = tmp_path / "features.csv"
    path.write_text(f"A,0.5,0.5\nB,0.1,0.2\nB,{bad},0.3\n")
    assert main(["evaluate", str(path)]) == 2
    assert f"row 3 column 1 is not finite: '{bad}'" in capsys.readouterr().err


def test_output_files_make_missing_directories(tmp_path):
    t = np.arange(720) / FS
    write_signal(tmp_path / "sig.txt", np.sin(2 * math.pi * 8.0 * t))
    out, resp = tmp_path / "a" / "filtered.txt", tmp_path / "b" / "c" / "resp.csv"
    code = main(["filter", str(tmp_path / "sig.txt"), "--out", str(out), "--response", str(resp)])
    assert code == 0
    assert out.is_file() and resp.is_file()


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


# sha256 of each kind's --response CSV, kept here and not in tests/digests.json
# (which pins the filtered outputs of the same two signals): its complex exp
# and angle come from libm, which is not correctly rounded on every host
_RESPONSE_DIGESTS = {
    "bandpass": "7d1e3eaec9bd883ba23537a3fabf799f4e5143e34f70dd3a6e9d13a58d5a76b4",
    "lowpass": "0a4f7780bd0f7f5e168a07642f8838ac93da3f2909c2adc848ded3feeac5bf7e",
    "highpass": "49e2080dddda24259c2fc887d8011452acd1d4a9a3d2707814f6d1288442fff7",
}


@pytest.mark.parametrize("kind", sorted(_RESPONSE_DIGESTS))
def test_filter_outputs_are_pinned(tmp_path, capsys, kind):
    for name, path in write_filter_signals(tmp_path).items():
        resp = tmp_path / f"{name}.csv"
        assert main(["filter", str(path), "--kind", kind, "--response", str(resp)]) == 0
        head, _, body = capsys.readouterr().out.partition("\n")
        assert head == f"response written to {resp}"
        assert len(body.splitlines()) == 720
        assert hashlib.sha256(resp.read_bytes()).hexdigest() == _RESPONSE_DIGESTS[kind]


def test_filter_requires_input_or_response(capsys):
    assert main(["filter"]) == 1


@pytest.mark.parametrize(
    "kind, rate", [("lowpass", "48"), ("bandpass", "48"), ("bandpass", "16")]
)
def test_filter_response_needs_no_alignment_shift(tmp_path, capsys, kind, rate):
    # the response is defined at a rate with no alignment shift
    resp = tmp_path / "r.csv"
    assert main(["filter", "--kind", kind, "--sample-rate", rate, "--response", str(resp)]) == 0
    assert resp.read_text().startswith("freq_hz,magnitude,phase_rad\n")
    # filtering an input is not: a usage error before the input is read or the response written
    resp = tmp_path / "r-with-input.csv"
    code = main(["filter", str(tmp_path / "missing.txt"), "--kind", kind, "--sample-rate", rate,
                 "--response", str(resp)])
    assert code == 1
    assert "usage error" in capsys.readouterr().err
    assert not resp.exists()


@pytest.mark.parametrize("rows", [None, "1.0\n2.0\nx\n3.0\n"], ids=["missing", "bad-row"])
def test_filter_input_that_fails_leaves_no_response(tmp_path, capsys, rows):
    sig, resp = tmp_path / "sig.txt", tmp_path / "r.csv"
    if rows is not None:
        sig.write_text(rows)
    assert main(["filter", str(sig), "--response", str(resp)]) == 2
    assert capsys.readouterr().out == ""
    assert not resp.exists()


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


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_encode_non_finite_sample_is_data_error(tmp_path, capsys, bad):
    (tmp_path / "sig.txt").write_text(f"1.0\n2.0\n{bad}\n3.0\n")
    code = main(["encode", str(tmp_path / "sig.txt"), "--method", "threshold",
                 "--alphabet", "3", "--deviation", "1/12"])
    assert code == 2
    assert "row 3 column 0 is not finite" in capsys.readouterr().err


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
    # the default stride, then overlapping windows of which one is left
    # unlabeled and each record's trailing samples are dropped
    partial = dataset / "partial.csv"
    partial.write_text("r1,0,1440,steady\nr2,200,1300,erratic\n")
    cases = [
        ([], "labels.csv",
         "erratic: 2\nsteady: 2\n"
         "total: 4 segments, 0 unlabeled windows skipped, 0 trailing partial windows dropped\n",
         ["r1,0,steady", "r1,720,steady", "r2,0,erratic", "r2,720,erratic"]),
        (["--stride", "250"], "partial.csv",
         "erratic: 2\nsteady: 3\n"
         "total: 5 segments, 1 unlabeled windows skipped, 2 trailing partial windows dropped\n",
         ["r1,0,steady", "r1,250,steady", "r1,500,steady", "r2,250,erratic", "r2,500,erratic"]),
    ]
    for i, (flags, sidecar, counts, rows) in enumerate(cases):
        out = dataset / f"ingested{i}"
        code = main(
            ["ingest", str(dataset / "r1.txt"), str(dataset / "r2.txt"),
             "--sidecar", str(dataset / sidecar), "--out", str(out)] + flags
        )
        assert code == 0
        manifest = out / "segments.csv"
        assert capsys.readouterr().out == counts + f"manifest written to {manifest}\n"
        assert manifest.read_text() == "\n".join(["record_id,start,label", *rows]) + "\n"


def test_ingest_empty_binary_record_is_data_error(dataset, capsys):
    empty = dataset / "r1.dat"
    empty.write_bytes(b"")
    code = main(["ingest", str(empty), "--format", "212", "--sidecar", str(dataset / "labels.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {empty}: no samples\n"


# Rejected ingest input: (kind, *details). Records have _N samples and are
# cut into 400-sample windows.
_N = 800
_REJECTED_INPUT = st.one_of(
    st.tuples(
        st.just("text row"),
        st.integers(1, _N),
        st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "abc", "0x10", "1..0"]),
    ),
    st.tuples(
        st.just("sidecar row"),
        st.integers(1, 3),
        st.sampled_from(
            ["r1,0,800", "r1,0,800,a,b", "r1", "r1;0;800;a"]  # field count
            + ["r1,-1,800,a", "r1,400,400,a", "r1,500,100,a", "r1,x,800,a", "r1,0,800,"]  # span
        ),
    ),
    st.tuples(st.just("truncated 212"), st.integers(0, 100), st.integers(1, 2)),
    st.tuples(st.just("conflict"), st.sampled_from([0, 400]), st.integers(0, 400),
              st.integers(0, 50)),
)


@given(_REJECTED_INPUT)
@settings(max_examples=60, deadline=None)
def test_rejected_ingest_input_exits_2_naming_its_row_or_record(case):
    kind = case[0]
    wave = np.rint(300 * np.sin(2 * math.pi * 8.0 * np.arange(_N) / FS)).astype(int)
    text = [str(v) for v in wave]
    sidecar_rows = ["r1,0,800,a", "r2,0,800,b"]
    flags = ["--segment-length", "400"]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        sidecar = d / "labels.csv"
        if kind == "truncated 212":
            _, groups, extra = case
            records = [d / "r1.dat", d / "r2.dat"]
            records[0].write_bytes(bytes(3 * groups + extra))
            records[1].write_bytes(pack_format212([wave, wave]))
            flags += ["--format", "212"]
            expected = [f"{records[0]}: truncated format-212 stream"]
        else:
            records = [d / "r1.txt", d / "r2.txt"]
            bad = list(text)
            expected = []
            if kind == "text row":
                _, row, token = case
                bad[row - 1] = token
                expected = [f"{records[0]}: row {row} column 0 is not"]
            elif kind == "sidecar row":
                _, row, line = case
                sidecar_rows.insert(row - 1, line)
                expected = [f"{sidecar}: row {row}"]
            else:
                _, window, back, ahead = case
                sidecar_rows.append(f"r1,{max(window - back, 0)},{window + 400 + ahead},b")
                expected = ["conflicting labels ['a', 'b'] for 'r1' window"]
            records[0].write_text("\n".join(bad) + "\n")
            records[1].write_text("\n".join(text) + "\n")
        sidecar.write_text("\n".join(sidecar_rows) + "\n")
        for command in ("ingest", "run"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(
                    [command, *map(str, records), "--sidecar", str(sidecar), *flags]
                )
            message = err.getvalue()
            assert code == 2, (command, message)
            assert message.startswith("data error: ")
            for part in expected:
                assert part in message, (command, message)


def test_ingest_without_records_or_sidecar_is_usage_error(dataset, capsys):
    assert main(["ingest", "--sidecar", str(dataset / "labels.csv")]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["ingest", str(dataset / "r1.txt"), str(dataset / "r2.txt")]) == 1
    assert "usage error" in capsys.readouterr().err


def test_ingest_rejects_duplicate_record_ids_and_empty_classes(dataset, capsys):
    for sub in ("a", "b"):
        (dataset / sub).mkdir()
        (dataset / sub / "r1.txt").write_text((dataset / "r1.txt").read_text())
    code = main(["ingest", str(dataset / "a" / "r1.txt"), str(dataset / "b" / "r1.txt"),
                 "--sidecar", str(dataset / "labels.csv")])
    assert code == 2
    assert "duplicate record id 'r1'" in capsys.readouterr().err
    short = dataset / "short.csv"
    short.write_text("r1,0,1440,steady\nr2,0,700,erratic\n")
    code = main(["ingest", str(dataset / "r1.txt"), str(dataset / "r2.txt"),
                 "--sidecar", str(short)])
    assert code == 2
    assert "'erratic' ended up empty" in capsys.readouterr().err


def test_ingest_without_labeled_segments_names_the_sidecar(dataset, capsys):
    records = [str(dataset / "r1.txt"), str(dataset / "r2.txt")]
    empty = dataset / "empty.csv"
    empty.write_text("# no spans\n")
    short = dataset / "short.csv"
    short.write_text("r1,0,700,steady\nr2,10,719,erratic\n")
    for sidecar, message in (
        (empty, f"no labeled segments: sidecar {empty} holds no label spans"),
        (short, f"no labeled segments: the 2 label span(s) of sidecar {short} "
                "cover none of the 4 windows cut"),
    ):
        for command in ("ingest", "run"):
            assert main([command, *records, "--sidecar", str(sidecar)]) == 2
            assert capsys.readouterr().err == f"data error: {message}\n"


def test_ingest_takes_a_rate_the_band_pass_cannot_align_at(dataset, capsys):
    # ingest only reads and cuts records, so no filter checks the rate
    for rate in ("48", "16"):
        code = main(["ingest", str(dataset / "r1.txt"), str(dataset / "r2.txt"),
                     "--sidecar", str(dataset / "labels.csv"), "--sample-rate", rate])
        assert code == 0
        assert capsys.readouterr().out.endswith("total: 4 segments, 0 unlabeled windows skipped, "
                                                "0 trailing partial windows dropped\n")


def test_ingest_takes_a_segment_length_too_short_for_the_grid(dataset, capsys):
    # ingest encodes nothing, so no grid entry bounds the segment length
    code = main(["ingest", str(dataset / "r1.txt"), str(dataset / "r2.txt"),
                 "--sidecar", str(dataset / "labels.csv"), "--segment-length", "300"])
    assert code == 0
    assert capsys.readouterr().out.endswith("total: 8 segments, 0 unlabeled windows skipped, "
                                            "2 trailing partial windows dropped\n")


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


def test_each_report_is_what_evaluate_gives_on_its_scatter_file(tmp_path, capsys):
    # the demo's run at seed 0 (25 windows per class, where 8 of the 12
    # entries overlap): each scatter file reads back as its entry's labels and
    # points, bit for bit, and evaluate prints on it the entry's report less
    # its "encoder =" line
    records, sidecar = build_dataset(tmp_path / "data", 25, 0)
    out = tmp_path / "results"
    config = ExperimentConfig(records=tuple(records), sidecar=sidecar, format="212", out=str(out))
    result = run_experiment(config)
    assert len(result.entries) == 12
    for i, entry in enumerate(result.entries):
        (report,) = out.glob(f"report_{i:02d}_*.txt")
        scatter = out / f"scatter_{report.stem.removeprefix('report_')}.csv"
        codes, names, points = load_features_csv(scatter, skip_header=True)
        assert [names[code] for code in codes] == entry.labels
        assert points.tobytes() == entry.points.tobytes(), scatter.name
        assert main(["evaluate", str(scatter), "--skip-header"]) == 0
        assert capsys.readouterr().out == report.read_text().removeprefix(f"encoder = {entry.label}\n")


def test_ranking_columns_fit_their_longest_entry(dataset, capsys):
    # threshold-ternary(E=0.0833333), the paper's best, is 30 characters: the
    # encoder column widens past its least 28, and the pair column past 24
    assert main(["run", str(dataset / "r1.txt"), str(dataset / "r2.txt"), "--sidecar",
                 str(dataset / "labels.csv"), "--grid", str(dataset / "grid.txt")]) == 0
    ranking = capsys.readouterr().out.splitlines()
    pairs = pair_table_text([
        PairRow("steady", "erratic", "threshold-ternary(E=0.0833333)", 0.25),
        PairRow("a class named at length", "another", "slope-binary", 0.5),
    ]).splitlines()
    for table in (ranking, pairs):
        # the overlap column is the last 20 characters of a row: it starts at
        # one offset on every row when every row is as long as the header
        assert len(table) == 3 and {len(line) for line in table} == {len(table[0])}


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


def test_run_unknown_config_key_is_usage_error(dataset, capsys):
    conf = dataset / "run.conf"
    conf.write_text(
        f"records = {dataset / 'r1.txt'} {dataset / 'r2.txt'}\n"
        f"sidecar = {dataset / 'labels.csv'}\n"
        f"grid = {dataset / 'grid.txt'}\n"
        "segment_lenght = 100\n"
    )
    assert main(["run", "--config", str(conf)]) == 1
    assert "row 4: unknown key 'segment_lenght'" in capsys.readouterr().err


def test_removed_pad_config_key_is_usage_error(dataset, capsys):
    conf = dataset / "run.conf"
    conf.write_text(
        f"records = {dataset / 'r1.txt'} {dataset / 'r2.txt'}\n"
        f"sidecar = {dataset / 'labels.csv'}\n"
        "pad_before = 65\n"
    )
    assert main(["run", "--config", str(conf)]) == 1
    assert "row 3: unknown key 'pad_before'" in capsys.readouterr().err


def test_run_repeated_config_key_is_usage_error(dataset, capsys):
    conf = dataset / "run.conf"
    conf.write_text(
        f"records = {dataset / 'r1.txt'} {dataset / 'r2.txt'}\n"
        f"sidecar = {dataset / 'labels.csv'}\n"
        f"grid = {dataset / 'grid.txt'}\n"
        "mode = forall\n"
        "mode = exists\n"
    )
    assert main(["run", "--config", str(conf)]) == 1
    assert "row 5: key 'mode' repeats row 4" in capsys.readouterr().err


def _flag_dests(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help", "config"}


def test_config_fields_are_the_run_and_pairs_flag_dests():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert _flag_dests("run") == fields
    assert _flag_dests("pairs") - {"pairs"} == fields


def test_config_file_keys_are_the_fields_but_features(dataset, monkeypatch):
    import ecgsym.experiment as exp

    seen = []
    monkeypatch.setattr(exp, "load_config_file", lambda path, keys: seen.append(keys) or {})
    assert main(["run", "--config", str(dataset / "run.conf")]) == 1  # no input
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert seen == [fields - {"features"}]


def test_bad_config_file_format_names_the_key(dataset, capsys):
    conf = dataset / "run.conf"
    conf.write_text(
        f"records = {dataset / 'r1.txt'}\nsidecar = {dataset / 'labels.csv'}\nformat = edf\n"
    )
    assert main(["run", "--config", str(conf)]) == 1
    assert capsys.readouterr().err == "usage error: format must be 'text' or '212'\n"


def _config(argv):
    return _config_from_args(build_parser().parse_args(argv))


def test_config_file_filter_off_equals_no_filter_flag(dataset):
    records = [str(dataset / "r1.txt"), str(dataset / "r2.txt")]
    conf = dataset / "run.conf"
    conf.write_text(f"filter = off\nsidecar = {dataset / 'labels.csv'}\n")
    from_file = _config(["run", *records, "--config", str(conf)])
    from_flag = _config(["run", *records, "--sidecar", str(dataset / "labels.csv"), "--no-filter"])
    assert from_file == from_flag
    assert from_flag.filter is False
    assert _config(["run", *records, "--sidecar", str(dataset / "labels.csv")]).filter is True


def test_every_config_key_builds_what_its_flag_builds(dataset):
    records = [str(dataset / "r1.txt"), str(dataset / "r2.txt")]
    shared = {
        "records": " ".join(records),
        "sidecar": str(dataset / "labels.csv"),
        "sample_rate": "250",
        "segment_length": "600",
        "stride": "300",
        "filter": "off",
        "grid": str(dataset / "grid.txt"),
        "zero_tol": "0.5",
        "mode": "exists",
        "out": str(dataset / "out"),
    }
    switches = {"records": records, "filter": ["--no-filter"], "skip_header": ["--skip-header"]}
    conf, configs = dataset / "run.conf", []
    # a 212 record reads no text column and a text record one signal, so each
    # format's keys go in a file of their own
    for own in ({"format": "212", "channel": "1", "signal_count": "3"},
                {"column": "1", "delimiter": ";", "skip_header": "yes"}):
        values = {**shared, **own}
        conf.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        flags = [flag for key, value in values.items()
                 for flag in switches.get(key, [f"--{key.replace('_', '-')}={value}"])]
        configs.append(_config(["run", "--config", str(conf)]))
        assert configs[-1] == _config(["run", *flags])
    # every field but features is a key, and each key moved its field off the default
    default = ExperimentConfig(features=("f.csv",))
    fields = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "features"]
    unmoved = [name for name in fields if all(getattr(c, name) == getattr(default, name) for c in configs)]
    assert unmoved == []


def test_feature_run_rejects_record_flags_before_reading(dataset, capsys):
    # neither the feature file, the grid nor the sidecar exists: nothing is read
    code = main(
        ["run", "--features", str(dataset / "missing.csv"), "--skip-header", "--stride", "5",
         "--no-filter", "--segment-length", "3", "--format", "212", "--channel", "1",
         "--zero-tol", "0.5", "--grid", str(dataset / "g.txt"),
         "--sidecar", str(dataset / "nowhere.csv")]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "usage error: feature files take no record settings: sidecar, format, channel, "
        "segment_length, stride, filter, grid, zero_tol\n"
    )


def test_feature_pairs_rejects_record_config_keys(dataset, capsys):
    conf = dataset / "pairs.conf"
    conf.write_text("stride = 5\ngrid = g.txt\nmode = exists\n")
    code = main(["pairs", "--features", str(dataset / "missing.csv"), "--config", str(conf)])
    assert code == 1
    assert capsys.readouterr().err == (
        "usage error: feature files take no record settings: stride, grid\n"
    )


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


def test_pairs_out_from_config_file(dataset, capsys):
    out = dataset / "pairs_out"
    conf = dataset / "pairs.conf"
    conf.write_text(
        f"records = {dataset / 'r1.txt'}, {dataset / 'r2.txt'}\n"
        f"sidecar = {dataset / 'labels.csv'}\n"
        f"grid = {dataset / 'grid.txt'}\n"
        f"out = {out}\n"
    )
    assert main(["pairs", "--config", str(conf)]) == 0
    printed = capsys.readouterr().out
    assert "steady vs erratic" in printed
    assert (out / "pairs.txt").read_text() == printed
    assert sorted(p.name for p in out.iterdir()) == ["pairs.txt"]


def test_pairs_unknown_name_is_usage_error_before_any_work(dataset, capsys, monkeypatch):
    import ecgsym.experiment as exp

    def fail(config):
        raise AssertionError("run_experiment called before --pairs was checked")

    monkeypatch.setattr(exp, "run_experiment", fail)
    code = main(
        ["pairs", str(dataset / "r1.txt"), str(dataset / "r2.txt"),
         "--sidecar", str(dataset / "labels.csv"), "--grid", str(dataset / "grid.txt"),
         "--pairs", "steady:eratic"]
    )
    assert code == 1
    assert "unknown class name(s) in --pairs: eratic" in capsys.readouterr().err


@pytest.fixture
def no_work(monkeypatch):
    """Make the readers and run_experiment fail if called."""
    import ecgsym.cli as cli
    import ecgsym.experiment as exp

    def fail(*args, **kwargs):
        raise AssertionError("work started before the configuration was checked")

    for module, name in (
        (exp, "read_text_signal"),
        (exp, "read_binary_record"),
        (exp, "read_label_sidecar"),
        (exp, "load_features_csv"),
        (exp, "run_experiment"),
        (cli, "read_label_sidecar"),
    ):
        monkeypatch.setattr(module, name, fail)


def test_run_config_bad_boolean_is_usage_error(tmp_path, capsys, no_work):
    config = tmp_path / "run.conf"
    config.write_text("filter = maybe\n")
    assert main(["run", "--config", str(config)]) == 1
    assert "not a boolean: 'maybe'" in capsys.readouterr().err


def test_run_missing_channel_is_data_error(tmp_path, capsys):
    # the demo's 212 records hold two signals, channels 0 and 1
    records, sidecar = build_dataset(tmp_path, 2, 0)
    assert main(["run", *records, "--sidecar", sidecar, "--format", "212", "--channel", "2"]) == 2
    assert "no channel 2" in capsys.readouterr().err


_BAD_RECORD_FLAGS = [
    (["--stride", "0"], "stride must be at least 1"),
    (["--sample-rate", "0"], "sample_rate must be positive"),
    (["--segment-length", "0"], "segment length must be at least 1"),
    (["--channel", "5"], "text records have one channel (0), not 5"),
    (["--format", "212", "--channel", "-1"], "channel must be non-negative"),
    (["--format", "212", "--signal-count", "0"], "signal_count must be at least 1"),
    (["--column", "-1"], "column must be non-negative"),
    # a setting the record format never reads, named in the message
    (["--signal-count", "3"], "text records take no signal_count"),
    (["--format", "212", "--column", "1"], "212 records take no column"),
    (["--format", "212", "--delimiter", ","], "212 records take no delimiter"),
    (["--format", "212", "--column", "2", "--skip-header"], "212 records take no column, skip_header"),
]
# the pads follow from the filter and the sample rate, so no flag sets them:
# a command that still gives one is a usage error before any work
_REMOVED_PAD_FLAGS = [
    (flags, "unrecognized arguments: " + " ".join(flags))
    for flags in (["--pad-before", "-1"], ["--pad-after", "-1"],
                  ["--pad-before", "10"], ["--pad-after", "5"])
]
# a rate that puts a transfer-function zero at the 8 Hz passband center,
# and one that puts 8 Hz at Nyquist: neither has an alignment shift
_BAD_RATE_FLAGS = [
    (["--sample-rate", "48"], "phase undefined at omega=1.047"),
    (["--sample-rate", "16"], "omega must lie strictly between 0 and pi"),
]
# a segment length that gives the first grid entry too few symbols
_SHORT_SEGMENT = (
    "grid entry slope-binary: segment length 300 yields sequences of length 299, "
    "below the minimum valid length 361 for alphabet size 2"
)
_BAD_RUN_FLAGS = _REMOVED_PAD_FLAGS + _BAD_RATE_FLAGS + [
    (["--zero-tol", value], "zero_tol must be finite and non-negative")
    for value in ("nan", "inf", "-1")
] + [(["--segment-length", "300"], _SHORT_SEGMENT)]


@pytest.mark.parametrize(
    "command, flags, message",
    [
        pytest.param(cmd, flags, message, id=" ".join([cmd, *flags]))
        for cmd, cases in (
            ("ingest", _BAD_RECORD_FLAGS),
            ("run", _BAD_RECORD_FLAGS + _BAD_RUN_FLAGS),
            ("pairs", _BAD_RECORD_FLAGS + _BAD_RUN_FLAGS),
        )
        for flags, message in cases
    ],
)
def test_bad_config_value_is_usage_error_before_any_work(
    dataset, capsys, no_work, command, flags, message
):
    code = main(
        [command, str(dataset / "r1.txt"), str(dataset / "r2.txt"),
         "--sidecar", str(dataset / "labels.csv")] + flags
    )
    assert code == 1
    assert message in capsys.readouterr().err


def test_negative_ternary_deviation_in_grid_is_usage_error_before_any_work(dataset, capsys, no_work):
    (dataset / "grid.txt").write_text("slope binary\nthreshold ternary -1/20\n")
    code = main(
        ["run", str(dataset / "r1.txt"), str(dataset / "r2.txt"), "--sidecar",
         str(dataset / "labels.csv"), "--grid", str(dataset / "grid.txt"),
         "--out", str(dataset / "out")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "ternary threshold requires non-negative deviation" in err
    assert not (dataset / "out").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(flags, message, id=" ".join(flags))
        for flags, message in _REMOVED_PAD_FLAGS + _BAD_RATE_FLAGS
        + [(["--sample-rate", "0"], "sample_rate must be positive"),
           (["--delimiter", ",", "--column", "-3"], "column must be non-negative")]
    ],
)
def test_filter_bad_value_is_usage_error_before_reading(tmp_path, capsys, flags, message):
    # the input does not exist, so reading it first would report that instead
    assert main(["filter", str(tmp_path / "missing.txt"), *flags]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(["--method", "threshold", "--alphabet", "2"],
                     "threshold encoding requires a deviation", id="no-deviation"),
        pytest.param(["--method", "threshold", "--alphabet", "2", "--deviation", "1/0"],
                     "zero denominator in '1/0'", id="deviation=1/0"),
        pytest.param(["--method", "threshold", "--alphabet", "3", "--deviation=-1/20"],
                     "ternary threshold requires non-negative deviation", id="ternary-deviation=-1/20"),
        # numpy would count a negative column from each row's end
        pytest.param(["--method", "slope", "--alphabet", "2", "--column", "-1"],
                     "column must be non-negative", id="column=-1"),
    ]
    + [
        pytest.param(["--method", "slope", "--alphabet", "2", "--zero-tol", value],
                     f"zero_tol must be finite and non-negative, not {float(value)!r}", id=f"zero-tol={value}")
        for value in ("nan", "inf", "-1")
    ],
)
def test_encode_bad_value_is_usage_error_before_reading(tmp_path, capsys, flags, message):
    # the input does not exist, so reading it first would report that instead
    assert main(["encode", str(tmp_path / "missing.txt"), *flags]) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


@pytest.mark.parametrize(
    "command, keys, message",
    [
        pytest.param(cmd, keys, message, id=f"{cmd} {keys}".replace("\n", "; "))
        for cmd in ("run", "pairs")
        for keys, message in [
            ("column = -1", "column must be non-negative"),
            ("format = 212\nskip_header = yes", "212 records take no skip_header"),
            ("signal_count = 1", "text records take no signal_count"),
            ("segment_length = 300", _SHORT_SEGMENT),
        ]
    ],
)
def test_record_config_key_is_usage_error_before_any_work(dataset, capsys, no_work, command, keys, message):
    (dataset / "run.conf").write_text(keys + "\n")
    code = main([command, str(dataset / "r1.txt"), "--sidecar", str(dataset / "labels.csv"),
                 "--config", str(dataset / "run.conf")])
    assert code == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(flags, message, id=" ".join(flags))
        for flags, message in [
            (["--classes", "1"], "need at least two cluster centers"),
            (["--per-class", "0"], "per_class must be at least 1"),
            (["--spread", "-1"], "spread must be finite and non-negative"),
            (["--spread", "nan"], "spread must be finite and non-negative"),
            (["--spread", "inf"], "spread must be finite and non-negative"),
            (["--centers", "0,0;nan,1"], "cluster centers must be finite"),
            (["--names", "a,b"], "need one name per center"),
            (["--centers", "0,0;x"], "cannot parse centers '0,0;x'"),
            (["--centers", "0,0;1,1;2"], "usage error: cluster centers differ in their number of coordinates\n"),
            # --classes would be ignored, even at its default
            (["--classes", "3", "--centers", "0,0;1,1"], "argument --centers: not allowed with argument --classes"),
            (["--centers", "0,0;1,1", "--classes", "5"], "argument --classes: not allowed with argument --centers"),
            # a class named twice would merge two clusters into one
            (["--classes", "3", "--per-class", "10", "--names", "A,A,B"],
             "usage error: class name 'A' repeated\n"),
            (["--classes", "2", "--names", "A,A"], "usage error: class name 'A' repeated\n"),
            # a name the features.csv rows cannot hold
            (["--classes", "2", "--names", "x\ny,z"], "label 'x\\ny' contains a comma or a newline"),
            # a name features.csv would read back stripped
            (["--classes", "2", "--names", " a,b "], "label ' a' has leading or trailing whitespace"),
            # an argv byte that is not UTF-8, which features.csv is written in
            (
                ["--classes", "2", "--per-class", "3", "--names", "\udcff,B"],
                "label '\\udcff' cannot be written as UTF-8",
            ),
        ]
    ],
)
def test_synth_bad_flag_is_usage_error(tmp_path, capsys, flags, message):
    for out in ([], ["--out", str(tmp_path / "out")]):
        assert main(["synth", *flags, *out]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("input_kind", ["records", "features"])
def test_pairs_self_pair_is_usage_error_before_any_work(dataset, capsys, no_work, input_kind):
    if input_kind == "records":
        args = [str(dataset / "r1.txt"), "--sidecar", str(dataset / "labels.csv")]
    else:
        args = ["--features", str(dataset / "features.csv")]
    code = main(["pairs", *args, "--pairs", "steady:erratic, steady:steady"])
    assert code == 1
    assert "pair ' steady:steady' names one class twice" in capsys.readouterr().err


def test_pairs_unknown_name_in_feature_files_is_usage_error(dataset, capsys):
    features = dataset / "features.csv"
    features.write_text("a,0.1,0.2\na,0.2,0.3\nb,0.8,0.9\nb,0.9,0.8\n")
    code = main(["pairs", "--features", str(features), "--pairs", "a:c"])
    assert code == 1
    assert "unknown class name(s) in --pairs: c" in capsys.readouterr().err


def test_pairs_malformed_sidecar_stays_data_error(dataset, capsys):
    bad = dataset / "bad_labels.csv"
    bad.write_text("r1,0,1440\n")
    code = main(
        ["pairs", str(dataset / "r1.txt"), "--sidecar", str(bad), "--pairs", "steady:erratic"]
    )
    assert code == 2
    assert "row 1 needs 4 fields" in capsys.readouterr().err


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


def test_filter_and_run_at_a_high_sample_rate(dataset, capsys):
    # at 5000 Hz the band-pass shifts by 106 samples; the output is that of
    # any plan at least as long as the least, such as lead 65 and trail 106
    x = (np.arange(720) * 7919) % 1021 - 510.0
    write_signal(dataset / "sig.txt", x)
    assert main(["filter", str(dataset / "sig.txt"), "--sample-rate", "5000"]) == 0
    expected = filter_compensated(make_bandpass(), Signal(x, 5000.0), PaddingPlan(65, 106))
    assert capsys.readouterr().out == "\n".join(repr(float(v)) for v in expected.samples) + "\n"
    code = main(["run", str(dataset / "r1.txt"), str(dataset / "r2.txt"), "--sidecar",
                 str(dataset / "labels.csv"), "--grid", str(dataset / "grid.txt"),
                 "--sample-rate", "5000"])
    assert code == 0
    assert capsys.readouterr().out.count("\n") == 3


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


# `pairs` on `synth --per-class 50 --seed 3` features (default and 0.2 spread),
# recorded when every pair was evaluated on its own two classes
_SYNTH_PAIRS = {
    "0.05": """\
pair                     encoder                       overlap_per_element
C1 vs C2                 precomputed                              0.010000
C1 vs C3                 precomputed                              0.000000
C1 vs C4                 precomputed                              0.000000
C1 vs C5                 precomputed                              0.000000
C2 vs C3                 precomputed                              0.000000
C2 vs C4                 precomputed                              0.000000
C2 vs C5                 precomputed                              0.000000
C3 vs C4                 precomputed                              0.000000
C3 vs C5                 precomputed                              0.000000
C4 vs C5                 precomputed                              0.000000
""",
    "0.2": """\
pair                     encoder                       overlap_per_element
C1 vs C2                 precomputed                              0.180000
C1 vs C3                 precomputed                              0.150000
C1 vs C4                 precomputed                              0.140000
C1 vs C5                 precomputed                              0.310000
C2 vs C3                 precomputed                              0.260000
C2 vs C4                 precomputed                              0.080000
C2 vs C5                 precomputed                              0.090000
C3 vs C4                 precomputed                              0.220000
C3 vs C5                 precomputed                              0.160000
C4 vs C5                 precomputed                              0.260000
""",
}


@pytest.mark.parametrize("spread", sorted(_SYNTH_PAIRS))
@pytest.mark.parametrize("mode", ["forall", "exists"])
def test_pairs_on_synth_features_is_pinned(tmp_path, capsys, spread, mode):
    out = tmp_path / "synth"
    main(["synth", "--per-class", "50", "--seed", "3", "--spread", spread, "--out", str(out)])
    capsys.readouterr()
    features = str(out / "features.csv")
    assert main(["pairs", "--features", features, "--skip-header", "--mode", mode]) == 0
    assert capsys.readouterr().out == _SYNTH_PAIRS[spread]


# An ASCII locale with nothing that turns it into UTF-8: argv bytes that are
# not ASCII arrive as surrogates, and the locale's encoding is ASCII.
ASCII_LOCALE = {
    "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONIOENCODING": "utf-8"
}
# The same, with stdout left in the locale's encoding until main sets it.
ASCII_STDOUT = {key: value for key, value in ASCII_LOCALE.items() if key != "PYTHONIOENCODING"}


def run_ascii(*args, env=ASCII_LOCALE, code=0) -> str:
    """Run the CLI under ``env``, expecting exit ``code``; its stdout on
    success, else its stderr, read as UTF-8, a byte that is not UTF-8 as a
    surrogate, as argv and paths are read."""
    env = {"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin", **env}
    proc = subprocess.run([sys.executable, "-m", "ecgsym", *args], capture_output=True, env=env)
    assert proc.returncode == code, proc.stderr.decode("utf-8", "replace")
    return (proc.stdout if code == 0 else proc.stderr).decode("utf-8", "surrogateescape")


def test_non_ascii_names_round_trip_under_an_ascii_locale(tmp_path):
    out = tmp_path / "d"
    run_ascii("synth", "--classes", "2", "--per-class", "20", "--names", "\u00c4,B", "--out", out)
    assert (out / "features.csv").read_text(encoding="utf-8").splitlines()[1].startswith("\u00c4,")
    run_ascii("evaluate", out / "features.csv", "--skip-header", "--out", tmp_path / "e.txt")
    assert (tmp_path / "e.txt").read_bytes() == (out / "report.txt").read_bytes()


def test_run_writes_non_ascii_labels_as_utf8_under_an_ascii_locale(dataset):
    labels = "r1,0,1440,st\u00e9ady\nr2,0,1440,erratic\n"
    (dataset / "labels.csv").write_text(labels, encoding="utf-8")
    out = dataset / "out"
    run_ascii(
        "run", str(dataset / "r1.txt"), str(dataset / "r2.txt"), "--sidecar",
        str(dataset / "labels.csv"), "--grid", str(dataset / "grid.txt"), "--out", str(out),
    )
    written = {path.name: path.read_bytes().decode("utf-8") for path in out.iterdir()}
    assert len(written) == 5
    for name, text in written.items():
        if name.startswith(("report_", "scatter_")):
            assert "st\u00e9ady" in text, name


def test_pairs_reads_non_ascii_class_names_under_an_ascii_locale(dataset):
    labels = "r1,0,1440,st\u00e9ady\nr2,0,1440,\u00c4rratic\n"
    (dataset / "labels.csv").write_text(labels, encoding="utf-8")
    printed = run_ascii(
        "pairs", str(dataset / "r1.txt"), str(dataset / "r2.txt"), "--sidecar",
        str(dataset / "labels.csv"), "--grid", str(dataset / "grid.txt"),
        "--pairs", "st\u00e9ady:\u00c4rratic",
    )
    assert printed.splitlines()[1].startswith("st\u00e9ady vs \u00c4rratic ")


def test_stdout_is_utf8_under_an_ascii_locale(tmp_path):
    out = tmp_path / "d\udcff"  # a path byte that is not UTF-8 prints as that byte
    features = out / "features.csv"
    printed = run_ascii(
        "synth", "--classes", "2", "--per-class", "3", "--names", "\u00c4,B", "--out", out,
        env=ASCII_STDOUT,
    )
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "\n\u00c4 " in report
    assert printed == report + f"features and report written to {out}\n"
    assert run_ascii("evaluate", features, "--skip-header", env=ASCII_STDOUT) == report
    printed = run_ascii("pairs", "--features", features, "--skip-header", env=ASCII_STDOUT)
    assert printed.splitlines()[1].startswith("\u00c4 vs B ")


def test_stderr_shows_a_path_as_typed_under_an_ascii_locale(tmp_path):
    path = tmp_path / "n\u00f6.csv"
    err = run_ascii("evaluate", path, env=ASCII_STDOUT, code=2)
    assert err == f"data error: No such file or directory: {path}\n"
    path.write_text("label,entropy,complexity\nA,0.1,x\n")
    err = run_ascii("evaluate", path, "--skip-header", env=ASCII_STDOUT, code=2)
    assert err == f"data error: {path}: row 2 column 2 is not a number: 'x'\n"


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(args, id=" ".join(args[:1] + args[-2:-1]))
        for args in (
            ["run", "x", "--format", "\u00f6"],
            ["run", "x", "--sidecar", "s", "--mode", "\u00f6"],
            ["run", "x", "--sidecar", "s", "--stride", "\u00f6"],
            ["synth", "--centers", "\u00f6"],
            ["encode", "sig.txt", "--method", "threshold", "--alphabet", "3", "--deviation", "\u00f6"],
        )
    ],
)
def test_stderr_quotes_a_flag_value_as_typed_under_an_ascii_locale(args):
    err = run_ascii(*args, env=ASCII_STDOUT, code=1)
    assert err.startswith("usage error: ") and "'\u00f6'" in err, err


def test_delimiter_is_read_as_typed_under_an_ascii_locale(tmp_path, capsys):
    path = tmp_path / "delim.txt"
    path.write_text("".join(f"{i}\u00f6{(i * 7) % 11}\n" for i in range(40)), encoding="utf-8")
    args = ["encode", str(path), "--method", "slope", "--alphabet", "2", "--column", "1",
            "--delimiter", "\u00f6"]
    assert main(args) == 0
    assert run_ascii(*args, env=ASCII_STDOUT) == capsys.readouterr().out


def test_stderr_shows_an_unknown_pair_name_as_typed_under_an_ascii_locale(tmp_path):
    features = tmp_path / "features.csv"
    features.write_text("label,entropy,complexity\nC1,0.1,0.2\nC1,0.2,0.1\nC2,0.8,0.9\nC2,0.9,0.8\n")
    err = run_ascii(
        "pairs", "--features", features, "--skip-header", "--pairs", "\u00d6:C1",
        env=ASCII_STDOUT, code=1,
    )
    assert err == "usage error: unknown class name(s) in --pairs: \u00d6\n"
