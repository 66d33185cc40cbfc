"""The one-pass text and feature-file readers against their row-loop oracles.

Random files mix blank and whitespace-only rows, CRLF and CR line ends,
padded fields, short and long rows, nan and inf, and literals that float()
accepts and numpy rejects (``1_0``). A valid file must give bit-identical
values and labels; a bad one the same message naming the same row. Every
text reader drops a leading byte-order mark and numbers its rows alike.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecgsym.cli import main
from ecgsym.experiment import load_config_file, load_features_csv, parse_grid_file
from ecgsym.records import parse_columns, read_label_sidecar, read_rows, read_text_signal

from oracles import read_feature_rows, read_text_column

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5000, 5000).map(str),
    st.sampled_from(["-0", "+.5", "1e3", "2E-4", "007"]),
)
ODD = st.sampled_from(
    ["1_0", "nan", "inf", "-Infinity", "1e999", "abc", "", "0x10", "\u0661\u0662", "1\x1c", "\x1f2"]
)
PADS = st.sampled_from(["", " ", "\t", "  ", "\x0c", "\xa0"])
BLANKS = st.sampled_from(["", " ", "\t", " \t ", "\x0c", "\u2028"])
ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def rarely(odd, common, one_in: int):
    """``odd`` once in about ``one_in`` draws, else ``common``."""
    return st.integers(1, one_in).flatmap(lambda k: odd if k == 1 else common)


FIELDS = rarely(ODD, NUMBERS, 40)


@st.composite
def rows_of(draw, row):
    """Rows from ``row``, now and then a blank one, each with its line end;
    the last one maybe without."""
    rows = draw(st.lists(rarely(BLANKS, row, 8), max_size=12))
    text = "".join(r + draw(rarely(ENDS, st.just("\n"), 3)) for r in rows)
    return text.rstrip("\r\n") if rows and draw(st.booleans()) else text


def padded(field: str, draw) -> str:
    return draw(rarely(PADS, st.just(""), 4)) + field + draw(rarely(PADS, st.just(""), 4))


@st.composite
def text_rows(draw, delimiter):
    fields = draw(st.lists(FIELDS, min_size=1, max_size=3))
    if delimiter is None:
        seps = [draw(st.sampled_from([" ", "\t", "  ", " \t"])) for _ in fields[1:]]
        return padded(fields[0] + "".join(sep + f for sep, f in zip(seps, fields[1:])), draw)
    return delimiter.join(padded(f, draw) for f in fields)


@st.composite
def text_files(draw):
    delimiter = draw(st.sampled_from([None, None, ",", ";", "\t", " "]))
    text = draw(rows_of(text_rows(delimiter)))
    return text, delimiter, draw(st.integers(0, 2)), draw(st.booleans())


LABELS = st.sampled_from(
    # non-ASCII; three that strip to "a"; NUL-bearing; one wider than a word
    [" c ", "d d", "\x1ce", "", "\xe9", " a", "\xa0a\xa0", "a\x00", "\x00", "0123456789" * 4]
)


@st.composite
def feature_row(draw):
    label = draw(rarely(LABELS, st.sampled_from("ab"), 4))
    count = draw(rarely(st.sampled_from([1, 3]), st.just(2), 15))
    return ",".join([label] + [padded(draw(FIELDS), draw) for _ in range(count)])


@st.composite
def feature_files(draw):
    return draw(rows_of(feature_row())), draw(st.booleans())


def outcome(read, *args):
    try:
        return "ok", read(*args)
    except ValueError as exc:
        return "error", str(exc)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "input.txt"


@settings(max_examples=150)
@given(text_files())
@example(("\n1.5\n2.5\n", None, 0, True))  # skip_header with a blank first row
@example(("1_0\n2\n", None, 0, False))
@example(("1,2\r\n3, 4 \r\n", ",", 1, False))
def test_text_reader_matches_row_loop(path, case):
    text, delimiter, column, skip_header = case
    path.write_text(text, newline="")
    want = outcome(read_text_column, path, column, delimiter, skip_header)
    got = outcome(read_text_signal, path, column, delimiter, skip_header)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert bits(got[1].samples) == bits(want[1])
    else:
        assert got[1] == want[1]


@settings(max_examples=150)
@given(feature_files())
@example(("\na,1,2\nb,3,4\n", True))
@example(("a, 1_0 ,2\n", False))
@example(("a,1,2\r\n\r\n b ,3,4,5\r\n", False))
@example(("a,1,2\nab,3,4\n", False))  # a later label that extends the first
@example(("a,1,2\n\na,3,4\n", False))  # a blank row inside one class
@example(("a,1,2\n a ,3,4\n", False))  # one class whose raw labels differ in whitespace
@example(("a,1,2\na,3,4,5\n", False))  # one class, but row 2 needs 3 fields, got 4
@example(  # interleaved classes, labels that strip alike and a 40-character one
    (
        "".join(
            f"{label},0.7600584176874715,0.5894316109366958\n"
            for label in ["b", "a", " a", "a\x00", "\x00", "0123456789" * 4, "\xa0a\xa0", "b", "\xe9", "a"]
        ),
        False,
    )
)
@example((",1,2\n ,3,4\n", False))  # the only label is empty
def test_feature_reader_matches_row_loop(path, case):
    text, skip_header = case
    path.write_text(text, newline="")
    want = outcome(read_feature_rows, path, skip_header)
    got = outcome(load_features_csv, path, skip_header)
    assert got[0] == want[0]
    if want[0] == "ok":
        codes, names, points = got[1]
        assert codes.dtype == np.intp
        assert names == tuple(dict.fromkeys(want[1][0]))
        assert [names[code] for code in codes] == want[1][0]
        assert points.shape == (len(want[1][0]), 2)
        assert bits(points) == bits(want[1][1])
    else:
        assert got[1] == want[1]


def test_plain_files_take_the_one_pass_parse(path):
    path.write_text("a,0.25,1e-3\n\nb, -1 ,7\n")
    text, first = read_rows(path)
    np.testing.assert_array_equal(parse_columns(text, (1, 2), ","), [[0.25, 1e-3], [-1.0, 7.0]])
    path.write_text("x\n1.5 2\n\n-3 4\n")
    text, first = read_rows(path, skip_header=True)
    assert first == 2
    np.testing.assert_array_equal(parse_columns(text, (1,)), [[2.0], [4.0]])


@pytest.mark.parametrize(
    "text, delimiter",
    [
        ("1_0\n", None),  # float() reads it, numpy does not
        ("nan\n", None),
        ("1,\x1c2\n", ","),  # numpy strips \x1c around a number, float() does not
        (" 1 2\n", " "),  # a leading delimiter shifts str.split's columns, not numpy's
        ("1ab2\n", "ab"),
        ("\n \n", None),
    ],
)
def test_row_loop_cases_skip_the_one_pass_parse(text, delimiter):
    assert parse_columns(text, (0,), delimiter) is None


def test_rows_are_counted_on_newlines_only(path, capsys):
    # \x0c, \x1c and \u2028 end a row for str.splitlines but not for the file iterator
    path.write_text("1\n2\x0c\n\u2028\nbad\n", newline="")
    with pytest.raises(ValueError, match=r": row 4 column 0 is not a number: 'bad'$"):
        read_text_signal(path)
    path.write_text("a,1,2\x1c\nb,3\n", newline="")
    with pytest.raises(ValueError, match=r": row 2 needs 3 fields, got 2$"):
        load_features_csv(path)
    # the other readers: a bad row 4 after a \r\n, a \r and a \x0c-bearing row
    def write(rows):
        path.write_text("{}\r\n{}\r{}\n{}\n".format(*rows), newline="")

    for read, rows, message in [
        (read_label_sidecar, ["r,0,1,a", "r,1,2,a", "\x0cr,2,3,a\x0c", "r,0"], "row 4 needs 4 fields"),
        (load_config_file, ["mode = forall", "stride = 1", "\x0c# note", "no key"], "row 4 is not 'key"),
        (parse_grid_file, ["slope binary", "slope 3", "\x0c# note", "slope x"], "row 4: unknown alphabet"),
    ]:
        write(rows)
        with pytest.raises(ValueError, match=f": {message}"):
            read(path)
    write(["0", "1", "\x0c1\x0c", "bad"])
    assert main(["features", str(path), "--alphabet", "2", "--allow-short"]) == 2
    assert capsys.readouterr().err.endswith(": row 4 is not a symbol: 'bad'\n")


def symbol_features(path):
    """Exit code and stdout of ``ecgsym features`` on a symbol file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["features", str(path), "--alphabet", "2", "--allow-short"])
    return code, out.getvalue()


def as_plain(value):
    """A reader's result with its arrays as lists, so == compares it whole."""
    if isinstance(value, tuple):
        return tuple(map(as_plain, value))
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize(
    "read, text",
    [
        pytest.param(lambda p: read_text_signal(p).samples, "1.5\n-2\n3\n", id="text-signal"),
        pytest.param(load_features_csv, "a,0.1,0.2\nb,0.3,0.4\n", id="feature-file"),
        pytest.param(read_label_sidecar, "rec,0,720,Normal\n# note\n", id="sidecar"),
        pytest.param(parse_grid_file, "slope binary\nthreshold 3 1/12\n", id="grid-file"),
        pytest.param(load_config_file, "mode = exists\nstride = 180\n", id="config-file"),
        pytest.param(symbol_features, "0\n1\n1\n0\n", id="symbol-file"),
    ],
)
def test_a_leading_byte_order_mark_changes_nothing(path, read, text):
    path.write_bytes(text.encode())
    plain = as_plain(read(path))
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert as_plain(read(path)) == plain
