"""A run with two or more grid entries computes the odd entries in one
forked child: the results, the errors and the processes left over are
those of the serial loop."""

import contextlib
import os
import re
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import ecgsym.experiment as exp

from record_pipeline_demo import build_dataset

ROOT = Path(__file__).resolve().parent.parent


class NeedsTwo(Exception):
    """Pickles, but cannot be unpickled: its one pickled argument is too few."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    paths, sidecar = build_dataset(tmp_path_factory.mktemp("demo"), 25, 0)
    return exp.ExperimentConfig(records=tuple(paths), sidecar=sidecar, format="212")


def append(log: Path, text: str) -> None:
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.write(fd, text.encode())
    finally:
        os.close(fd)


def no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run(monkeypatch, config, split: bool):
    monkeypatch.setattr(exp, "_fork_helps", lambda: split)
    return exp.run_experiment(config)


def fail_on(monkeypatch, spec, fail) -> None:
    """``exp.encode`` calls ``fail()`` for ``spec`` and encodes the others."""
    original = exp.encode

    def encode(signal, entry, zero_tol=0.0):
        if entry == spec:
            fail()
        return original(signal, entry, zero_tol)

    monkeypatch.setattr(exp, "encode", encode)


def test_split_gives_the_serial_result(config, monkeypatch, tmp_path):
    log, original = tmp_path / "encode.log", exp.encode

    def encode(signal, spec, zero_tol=0.0):
        append(log, f"{os.getpid()} {spec.label}\n")
        return original(signal, spec, zero_tol)

    monkeypatch.setattr(exp, "encode", encode)
    split = run(monkeypatch, config, True)
    no_child_left()
    # the even entries are computed here and the odd ones in one other process
    pids = dict(line.split(" ", 1)[::-1] for line in log.read_text().splitlines())
    labels = [spec.label for spec in config.grid]
    assert {pids[label] for label in labels[::2]} == {str(os.getpid())}
    assert len({pids[label] for label in labels[1::2]} - {str(os.getpid())}) == 1
    serial = run(monkeypatch, config, False)
    assert [e.label for e in split.entries] == [e.label for e in serial.entries] == labels
    for a, b in zip(split.entries, serial.entries):
        assert np.array_equal(a.points.view(np.int64), b.points.view(np.int64))
        assert a.report.to_text() == b.report.to_text()
    assert split.ranking == serial.ranking


def raise_value_error():
    raise ValueError("cannot encode this entry")


def raise_local():
    class Local(Exception):
        pass

    raise Local("cannot be pickled")


def raise_needs_two():
    raise NeedsTwo("cannot", "be unpickled")


@pytest.mark.parametrize("index", [3, 2], ids=["odd entry (child)", "even entry (parent)"])
def test_an_entry_error_is_the_serial_one(config, monkeypatch, index):
    fail_on(monkeypatch, config.grid[index], raise_value_error)
    errors = []
    for split in (False, True):
        with pytest.raises(Exception) as info:
            run(monkeypatch, config, split)
        errors.append((type(info.value), str(info.value)))
        no_child_left()
    assert errors[0] == errors[1] == (ValueError, "cannot encode this entry")


@pytest.mark.parametrize(
    "fail, pattern",
    [(raise_local, "Local('cannot be pickled')"), (raise_needs_two, "NeedsTwo('cannot be unpickled')")],
)
def test_a_child_error_that_does_not_survive_pickling_carries_its_repr(
    config, monkeypatch, fail, pattern
):
    fail_on(monkeypatch, config.grid[1], fail)
    with pytest.raises(RuntimeError, match=re.escape(pattern)):
        run(monkeypatch, config, True)
    no_child_left()


def test_a_child_that_ends_with_no_result_names_its_wait_status(config, monkeypatch):
    fail_on(monkeypatch, config.grid[1], lambda: os._exit(3))
    with pytest.raises(RuntimeError, match=r"no result \(wait status 768\)"):
        run(monkeypatch, config, True)
    no_child_left()


# The child computes odd items of over 64 KiB, more than a pipe holds, while
# the parent fails on item 2. Unless the parent closes its read end before it
# waits for the child, the child blocks in its write and the parent in waitpid.
PARENT_FAILS_WHILE_CHILD_WRITES = textwrap.dedent(
    """
    import os
    import numpy as np
    import ecgsym.experiment as exp

    def item(i):
        if i == 2:
            raise ValueError("parent side")
        return np.zeros(100_000) if i % 2 else i

    exp._fork_helps = lambda: True
    try:
        exp._split_map(item, range(4))
    except ValueError as exc:
        print(exc)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
    """
)


def test_a_parent_error_returns_while_the_child_writes_a_large_payload():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-c", PARENT_FAILS_WHILE_CHILD_WRITES],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    finally:  # on a timeout, end the child a broken helper leaves blocked too
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 0, err
    assert out == "parent side\nno child left\n"
