"""The two programs in ``scripts/``, each run as its own interpreter runs it."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from test_digests import DIGESTS

from ecgsym.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str, cwd: Path) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_synthetic_study_ranks_the_spreads_alike_on_every_seed(tmp_path):
    printed = run_script("run_synthetic.py", "--seeds", "2", cwd=tmp_path)
    assert printed.splitlines()[0].split() == ["spread", "mean", "overlap/element", "std"]
    assert printed.endswith("\nranking stable across 2 seeds: True\n")


def digests(group: str, out: Path) -> tuple[dict, dict]:
    """The digests ``digests.json`` pins under ``group/`` and those of the files in ``out``."""
    pinned = {
        key.removeprefix(f"{group}/"): digest
        for key, digest in json.loads(DIGESTS.read_text()).items()
        if key.startswith(f"{group}/")
    }
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    return pinned, written


def test_demo_writes_the_pinned_outputs(tmp_path):
    # 5 windows per class at seed 0 is the demo-0-w5 group of digests.json
    printed = run_script(
        "record_pipeline_demo.py", "--windows-per-class", "5", "--work-dir", "data",
        "--out", "results", cwd=tmp_path,
    )
    assert "class counts: {'steady': 5, 'erratic': 5}" in printed
    pinned, written = digests("demo-0-w5", tmp_path / "results")
    assert len(written) == 25 and written == pinned


def test_demo_prints_the_table_of_ecgsym_run(tmp_path, capsys):
    # by default 25 windows per class at seed 0: the demo-0 group of digests.json
    printed = run_script("record_pipeline_demo.py", "--work-dir", "data", "--out", "results", cwd=tmp_path)
    pinned, written = digests("demo-0", tmp_path / "results")
    assert len(written) == 25 and written == pinned
    data = tmp_path / "data"
    records = [str(data / "steady_rec.dat"), str(data / "erratic_rec.dat")]
    assert main(["run", *records, "--sidecar", str(data / "labels.csv"), "--format", "212"]) == 0
    table = capsys.readouterr().out
    assert printed.startswith(table) and printed[len(table) :].startswith("\nclass counts: ")
